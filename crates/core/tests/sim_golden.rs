//! A golden for the simulator: one small fixed run per protocol, its
//! `RunReport.summary` folded into a `StableHasher` digest and compared
//! against a pinned constant.
//!
//! The constants pin the engine's observable behaviour byte for byte —
//! every commit count, abort, message and virtual microsecond of every
//! protocol. A refactor of the engine or of `SiteMachine` that should not
//! change behaviour must leave every digest as it is; a change that
//! moves one on purpose re-pins it and says why. On a mismatch the test
//! prints the summary and the digest it computed.

use repl_copygraph::DataPlacement;
use repl_core::config::{ProtocolKind, SimParams, StableHasher};
use repl_core::engine::Engine;
use repl_core::metrics::MetricsSummary;
use repl_sim::{FaultPlan, SimTime};
use repl_types::SiteId;

/// A 4-site DAG placement whose site numbering is a topological order
/// (so DAG(T) accepts it): replicas only at higher-numbered sites.
fn dag_placement() -> DataPlacement {
    let mut p = DataPlacement::new(4);
    for i in 0..12u32 {
        let primary = SiteId(i % 4);
        let replicas: Vec<SiteId> =
            (primary.0 + 1..4).filter(|s| (i + s) % 2 == 0).map(SiteId).collect();
        p.add_item(primary, &replicas);
    }
    p
}

/// A 4-site placement with backedges, so BackEdge runs its eager
/// special phase and the locking baselines see cross-site reads.
fn cyclic_placement() -> DataPlacement {
    let mut p = DataPlacement::new(4);
    for i in 0..12u32 {
        let primary = SiteId(i % 4);
        let replicas: Vec<SiteId> =
            (0..4).filter(|&s| s != primary.0 && (i + s) % 3 == 0).map(SiteId).collect();
        p.add_item(primary, &replicas);
    }
    p
}

/// Every field of the summary, in declaration order. Destructured so a
/// new field is a compile error here rather than a blind spot.
fn digest(s: &MetricsSummary) -> u128 {
    let MetricsSummary {
        commits,
        aborts,
        throughput_per_site,
        abort_rate_pct,
        mean_response_ms,
        mean_propagation_ms,
        max_propagation_ms,
        incomplete_propagations,
        messages,
        virtual_duration,
        crashes,
        availability_pct,
        mean_recovery_ms,
        stall_ms,
    } = s;
    let mut h = StableHasher::new();
    h.write_u64(*commits);
    h.write_u64(*aborts);
    h.write_f64(*throughput_per_site);
    h.write_f64(*abort_rate_pct);
    h.write_f64(*mean_response_ms);
    h.write_f64(*mean_propagation_ms);
    h.write_f64(*max_propagation_ms);
    h.write_u64(*incomplete_propagations);
    h.write_u64(*messages);
    h.write_u64(virtual_duration.as_micros());
    h.write_u64(*crashes);
    h.write_f64(*availability_pct);
    h.write_f64(*mean_recovery_ms);
    h.write_f64(*stall_ms);
    h.finish()
}

/// The fixed point of `protocol`: `quick_test` (2 threads × 30 txns a
/// site), seed 7. DAG(WT) and DAG(T) run on the DAG placement, the rest
/// on the cyclic one; the three lazy protocols with a crash-recovery path
/// also crash site 2 at 100 ms, while its applier slot holds a
/// subtransaction with more queued behind it (the slot's crash path),
/// and restart it at 350 ms.
fn run(protocol: ProtocolKind) -> MetricsSummary {
    let mut params = SimParams::quick_test(protocol);
    let placement = if protocol.requires_dag() { dag_placement() } else { cyclic_placement() };
    if matches!(protocol, ProtocolKind::NaiveLazy | ProtocolKind::DagWt | ProtocolKind::DagT) {
        params.faults =
            FaultPlan::none().crash(SiteId(2), SimTime(100_000), Some(SimTime(350_000)));
    }
    let mut engine = Engine::build(&placement, &params, 7).expect("buildable golden config");
    let report = engine.run();
    assert!(!report.stalled, "{protocol:?} stalled");
    report.summary
}

#[test]
fn every_protocol_reproduces_its_pinned_summary() {
    let golden: [(ProtocolKind, u128); 6] = [
        (ProtocolKind::NaiveLazy, 0xe522_acff_91ca_22fc_2c0a_3acd_1b6c_e834),
        (ProtocolKind::DagWt, 0x11e2_176c_6566_b762_b107_a85a_3eba_f435),
        (ProtocolKind::DagT, 0xfe4a_31c7_65be_f22c_3f3f_df7f_6573_7940),
        (ProtocolKind::BackEdge, 0x26fe_a589_d296_1015_1370_8776_6a63_d943),
        (ProtocolKind::Psl, 0x21c8_f6a9_0212_82a2_58e9_ca7d_0898_cdde),
        (ProtocolKind::Eager, 0x5fb9_f5db_0850_44a1_c959_df45_379e_aa93),
    ];
    let mut misses = Vec::new();
    for (protocol, want) in golden {
        let summary = run(protocol);
        let got = digest(&summary);
        if got != want {
            misses.push(format!(
                "{protocol:?}: digest 0x{got:032x}, pinned 0x{want:032x}\n  {summary:?}"
            ));
        }
    }
    assert!(misses.is_empty(), "summaries moved:\n{}", misses.join("\n"));
}
