//! Differential soundness check for the model checker's reductions.
//!
//! Sleep sets and state-fingerprint dedup are *transition* prunings:
//! every state reachable by the brute-force scheduler must still be
//! visited by the pruned one, and the two must agree on every verdict.
//! At tiny bounds we can afford the brute-force run, so we assert both
//! properties exactly: equal reachable-fingerprint sets, equal
//! diagnostic-code sets — for clean scenarios and for a violating one.

use std::collections::BTreeSet;

use repl_analysis::mc::{explore, Bounds, Config, Report, Scenario, Topology};
use repl_protocol::ProtocolId;

fn codes(report: &Report) -> BTreeSet<&'static str> {
    report.findings.iter().map(|f| f.diagnostic.code).collect()
}

fn differential(scenario: Scenario) {
    let pruned = explore(&scenario, &Config::default()).expect("pruned run");
    let brute =
        explore(&scenario, &Config { sleep_sets: false, dedup: false, bounds: Bounds::default() })
            .expect("brute-force run");
    let label = scenario.label();
    assert!(!pruned.stats.truncated, "{label}: pruned run truncated");
    assert!(!brute.stats.truncated, "{label}: brute-force run truncated");
    assert_eq!(
        pruned.fingerprints, brute.fingerprints,
        "{label}: pruning lost (or invented) reachable states"
    );
    assert_eq!(codes(&pruned), codes(&brute), "{label}: verdicts disagree");
    assert!(
        pruned.stats.transitions <= brute.stats.transitions,
        "{label}: pruning explored more transitions than brute force"
    );
}

#[test]
fn naive_lazy_fan_matches_brute_force() {
    differential(Scenario::new(ProtocolId::NaiveLazy, Topology::Fan, 2, 2));
    differential(Scenario::new(ProtocolId::NaiveLazy, Topology::Fan, 3, 2));
}

#[test]
fn dag_wt_chain_matches_brute_force() {
    differential(Scenario::new(ProtocolId::DagWt, Topology::Chain, 3, 2));
}

#[test]
fn dag_t_chain_matches_brute_force() {
    // s0's second `Timer` moves its epoch and a third sends a heartbeat;
    // one moves none.
    for timers in [1, 2, 3] {
        let mut s = Scenario::new(ProtocolId::DagT, Topology::Chain, 2, 2);
        s.timer_budget = timers;
        differential(s);
    }
}

#[test]
fn back_edge_cross_matches_brute_force() {
    differential(Scenario::new(ProtocolId::BackEdge, Topology::Cross, 3, 2));
}

/// The violating case must stay violating under pruning: NaiveLazy on
/// the cyclic cross placement is Example 1.1, and both schedulers must
/// rediscover its non-serializable history. Fingerprint sets are *not*
/// compared here — exploration stops at violating states, and the
/// pruned and brute-force searches reach violations along different
/// representative paths, so coverage beyond them legitimately differs.
/// The coverage-equality guarantee (asserted above) is for clean runs.
#[test]
fn naive_lazy_on_cyclic_graph_fails_either_way() {
    let scenario = Scenario::new(ProtocolId::NaiveLazy, Topology::Cross, 3, 2);
    let pruned = explore(&scenario, &Config::default()).expect("pruned run");
    let brute =
        explore(&scenario, &Config { sleep_sets: false, dedup: false, bounds: Bounds::default() })
            .expect("brute-force run");
    assert_eq!(codes(&pruned), codes(&brute), "verdicts disagree");
    assert!(
        pruned.findings.iter().any(|f| f.diagnostic.code == "MC002"),
        "expected the Example 1.1 serializability violation, got {:?}",
        codes(&pruned)
    );
}
