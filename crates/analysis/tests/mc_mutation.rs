//! Seeded-mutation tests: the model checker must *catch* planted bugs.
//!
//! A verifier that never fails is indistinguishable from one that never
//! looks. Each test seeds a known protocol mutation
//! ([`repl_protocol::SeededBug`]), asserts the checker reports the
//! expected diagnostic code, and replays the shrunk counterexample to
//! prove the witness actually reproduces the violation from the initial
//! state.

use repl_analysis::diag::Witness;
use repl_analysis::mc::{
    check_scenario, gate_matrix, replay, Action, Config, Finding, Scenario, Topology,
};
use repl_protocol::{ProtocolId, SeededBug};
use repl_types::SiteId;

/// Run the checker, assert it reports `code`, and replay the shrunk
/// trace twice to prove the witness is deterministic and reproducing.
fn assert_caught(scenario: Scenario, code: &'static str) -> Finding {
    let report = check_scenario(&scenario, &Config::default()).expect("explore");
    assert!(!report.stats.truncated, "{}: truncated", scenario.label());
    let finding = report
        .findings
        .iter()
        .find(|f| f.diagnostic.code == code)
        .unwrap_or_else(|| {
            panic!(
                "{}: expected {code}, got {:?}",
                scenario.label(),
                report.findings.iter().map(|f| f.diagnostic.code).collect::<Vec<_>>()
            )
        })
        .clone();
    let Witness::McTrace { steps } = &finding.diagnostic.witness else {
        panic!("{}: finding carries no trace witness", scenario.label());
    };
    assert_eq!(steps.len(), finding.trace.len());
    for _ in 0..2 {
        let r = replay(&scenario, &finding.trace).expect("replay");
        assert!(
            r.codes.contains(code),
            "{}: shrunk trace {:?} does not reproduce {code} (got {:?})",
            scenario.label(),
            steps,
            r.codes
        );
        assert_eq!(r.executed, finding.trace, "shrunk trace must replay fully enabled");
    }
    // 1-minimality: dropping any single step stops the reproduction.
    for i in 0..finding.trace.len() {
        let mut candidate = finding.trace.clone();
        candidate.remove(i);
        let r = replay(&scenario, &candidate).expect("replay");
        assert!(
            !(r.codes.contains(code) && r.executed.len() < finding.trace.len()),
            "{}: trace not 1-minimal, step {i} is removable",
            scenario.label()
        );
    }
    finding
}

/// DAG(WT): dropping the forward-down-tree step strands downstream
/// replicas, which the convergence oracle sees at quiescence.
#[test]
fn skip_forward_is_caught_as_divergence() {
    let mut s = Scenario::new(ProtocolId::DagWt, Topology::Chain, 3, 2);
    s.bug = Some(SeededBug::SkipForward);
    let finding = assert_caught(s, "MC001");
    assert!(!finding.trace.is_empty());
}

/// DAG(T): replacing the §3.2.3 minimum-timestamp rule with greedy
/// first-non-empty lets a later transaction's subtransaction overtake
/// an earlier one's on the merged path, which a local observer sees as
/// a non-serializable snapshot.
#[test]
fn skip_min_timestamp_is_caught_as_serializability_violation() {
    let mut s = Scenario::new(ProtocolId::DagT, Topology::Chain, 3, 2);
    s.timer_budget = 1;
    s.bug = Some(SeededBug::SkipMinTimestamp);
    let finding = assert_caught(s, "MC002");
    assert!(!finding.trace.is_empty());
}

/// DAG(T): the epoch cadence armed at a site with parents too (§3.3
/// bumps only at the sources). s1's second `Timer` bumps its epoch, so
/// its next commit, which read s0's item before s0's write reached it,
/// orders after that write at s2, where an observer closes a cycle. The
/// gate's own scenario, at its default budgets, catches it.
#[test]
fn epoch_at_every_site_is_caught_by_the_gate_scenario() {
    let mut s = gate_matrix()
        .into_iter()
        .find(|s| s.protocol == ProtocolId::DagT)
        .expect("the gate runs DAG(T)");
    s.bug = Some(SeededBug::EpochAtEverySite);
    let finding = assert_caught(s, "MC002");
    let s1_timers = finding.trace.iter().filter(|&&a| a == Action::Timer(SiteId(1))).count();
    assert_eq!(s1_timers, 2, "{:?}", finding.trace);
}

/// Without a seeded bug the same scenarios are clean — the mutation
/// signal comes from the mutation, not the harness.
#[test]
fn unmutated_scenarios_stay_clean() {
    for s in [
        Scenario::new(ProtocolId::DagWt, Topology::Chain, 3, 2),
        Scenario::new(ProtocolId::DagT, Topology::Chain, 3, 2),
    ] {
        let report = check_scenario(&s, &Config::default()).expect("explore");
        assert!(!report.stats.truncated, "{}: truncated", s.label());
        assert!(
            report.findings.is_empty(),
            "{}: unexpected findings {:?}",
            s.label(),
            report.findings.iter().map(|f| f.diagnostic.code).collect::<Vec<_>>()
        );
        assert!(report.stats.quiescent_states > 0, "{}: never quiesced", s.label());
    }
}
