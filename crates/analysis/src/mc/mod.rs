//! `replmc`: exhaustive bounded model checking of the protocol machines.
//!
//! The sans-I/O [`SiteMachine`] already runs under a discrete-event
//! simulator and a real TCP deployment, both of which *sample*
//! schedules. This module closes the remaining gap: for small bounded
//! workloads it drives a fleet of machines through **every**
//! interleaving of deliverable inputs and checks the paper's
//! correctness claims as oracles on each reached state. The same
//! [`World`], built by [`World::from_parts`] on generated placements too
//! large to exhaust, is also the machine-level property suite
//! (`tests/mc_walks.rs`): there a coin picks the next [`Action`] and the
//! oracles are unchanged.
//!
//! The pieces:
//!
//! * [`scenario`] — bounded workloads: 2–4 sites in one of four
//!   canonical placement shapes, 2–3 transactions, per-protocol budgets.
//! * [`world`] — one global state (machines + links + stores + fault
//!   bookkeeping), the scheduler's [`Action`] alphabet, and the
//!   `MC001`–`MC006` oracles.
//! * [`explore`] — the DFS with sleep-set pruning and state-fingerprint
//!   dedup; both reductions are sound (the differential test checks the
//!   pruned explorer against brute force at tiny bounds).
//! * [`shrink`] — greedy 1-minimal counterexample reduction with
//!   skip-disabled replay, so every finding ships a short schedule that
//!   reproduces it from the initial state.
//!
//! [`check_scenario`] ties them together; [`gate_matrix`] is the fixed
//! scenario set CI runs (`mc_smoke` in `tools/ci.sh`), one per
//! protocol, each expected clean. NaiveLazy on the cyclic `cross`
//! topology is deliberately *not* in the gate: there the checker
//! rediscovers Example 1.1's non-serializable history, which the test
//! suite pins as a positive control.
//!
//! [`SiteMachine`]: repl_protocol::SiteMachine

pub mod explore;
pub mod scenario;
pub mod shrink;
pub mod world;

pub use explore::{explore, Bounds, Config, Finding, Report, Stats};
pub use scenario::{PlannedTxn, Scenario, Topology};
pub use shrink::{replay, replay_from, shrink, shrink_from, Replay};
pub use world::{Action, Budgets, Timers, World, OBSERVER_SEQ};

use repl_protocol::ProtocolId;

use crate::diag::Witness;

/// Explore `scenario` under `config`, then shrink every finding to a
/// 1-minimal schedule and attach it as a replayable
/// [`Witness::McTrace`].
pub fn check_scenario(scenario: &Scenario, config: &Config) -> Result<Report, String> {
    let mut report = explore::explore(scenario, config)?;
    for f in &mut report.findings {
        f.trace = shrink::shrink(scenario, &f.trace, f.diagnostic.code);
        f.diagnostic.witness =
            Witness::McTrace { steps: f.trace.iter().map(|a| a.to_string()).collect() };
    }
    // Distinct raw traces often shrink to the same minimal schedule.
    let mut seen = std::collections::BTreeSet::new();
    report.findings.retain(|f| seen.insert((f.diagnostic.code, f.trace.clone())));
    Ok(report)
}

/// The CI gate matrix: one scenario per protocol, each on the topology
/// that exercises its load-bearing machinery, each expected to explore
/// exhaustively with zero diagnostics.
pub fn gate_matrix() -> Vec<Scenario> {
    vec![
        Scenario::new(ProtocolId::NaiveLazy, Topology::Fan, 3, 2),
        Scenario::new(ProtocolId::DagWt, Topology::Chain, 3, 2),
        Scenario::new(ProtocolId::DagT, Topology::Chain, 3, 2),
        Scenario::new(ProtocolId::BackEdge, Topology::Cross, 3, 2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `replmc --stats` on the gate matrix, pinned: a storage or protocol
    /// change that is meant to leave the machines' behaviour alone must
    /// leave the explored graph alone too. DAG(T) runs on each site's
    /// clock with 2 timers a site, so a source's epoch moves within the
    /// bound.
    #[test]
    fn gate_matrix_stats_are_pinned() {
        let stats: Vec<_> = gate_matrix()
            .iter()
            .map(|s| {
                let r = check_scenario(s, &Config::default()).expect("explore");
                assert!(r.findings.is_empty() && !r.stats.truncated, "{}", s.label());
                let st = r.stats;
                (st.states, st.transitions, st.quiescent_states, st.max_depth_seen)
            })
            .collect();
        assert_eq!(
            stats,
            [(53, 52, 1, 10), (30, 29, 2, 8), (6565, 6564, 6, 16), (134, 133, 4, 12)]
        );
    }
}
