//! Crash/recovery integration tests: seeded fault plans injected into the
//! discrete-event engine must leave every crash-capable protocol
//! serializable and convergent, produce byte-identical histories and
//! metrics across repeat runs (determinism), and surface availability /
//! recovery-latency metrics that reflect the plan.

use repl_copygraph::DataPlacement;
use repl_core::config::{ProtocolKind, SimParams};
use repl_core::engine::{BuildError, Engine};
use repl_core::{progress_span, Timestamp};
use repl_sim::{FaultPlan, SimDuration, SimTime};
use repl_types::SiteId;

/// Protocols with a crash-recovery path (`Engine::new` refuses a crash
/// plan under the rest with `BuildError::CrashUnrecoverable`).
const CRASH_PROTOCOLS: [ProtocolKind; 4] =
    [ProtocolKind::DagWt, ProtocolKind::DagT, ProtocolKind::NaiveLazy, ProtocolKind::Psl];

/// The 5-site DAG placement from the smoke tests: primaries spread over
/// all sites, replicas only at higher-numbered sites.
fn dag_placement() -> DataPlacement {
    let mut p = DataPlacement::new(5);
    for i in 0..20u32 {
        let primary = SiteId(i % 5);
        let replicas: Vec<SiteId> =
            (primary.0 + 1..5).filter(|s| (i + s) % 2 == 0).map(SiteId).collect();
        p.add_item(primary, &replicas);
    }
    p
}

fn ms(v: u64) -> SimTime {
    SimTime(v * 1_000)
}

/// Two crash windows plus a link outage and delay jitter — every fault
/// class at once, all landing well inside the ≥1.2 s quick-test runs.
fn fault_plan() -> FaultPlan {
    FaultPlan::none()
        .crash(SiteId(1), ms(200), Some(ms(450)))
        .crash(SiteId(3), ms(700), Some(ms(900)))
        .outage(SiteId(0), SiteId(2), ms(100), ms(160))
        .jitter(SimDuration::micros(300))
        .seeded(0xFA01)
}

fn run_with(
    placement: &DataPlacement,
    protocol: ProtocolKind,
    faults: FaultPlan,
    seed: u64,
) -> (repl_core::RunReport, Engine) {
    let params = SimParams { faults, ..SimParams::quick_test(protocol) };
    let mut engine = Engine::build(placement, &params, seed).expect("buildable test config");
    let report = engine.run();
    (report, engine)
}

/// After quiescence every replica must equal its primary copy (not
/// meaningful for PSL, whose replicas are never pushed).
fn assert_converged(engine: &Engine, placement: &DataPlacement) {
    for item in placement.items() {
        let primary =
            engine.value_at(placement.primary_of(item), item).expect("primary copy exists");
        for &r in placement.replicas_of(item) {
            let replica = engine.value_at(r, item).expect("replica exists");
            assert_eq!(replica, primary, "replica of {item} at {r} diverged from primary");
        }
    }
}

/// A crash plan meets the protocol in `Engine::new`: BackEdge and
/// Eager, which have no crash recovery, refuse it; the four protocols
/// with one build and run it.
#[test]
fn crash_plan_rejected_for_protocols_without_recovery() {
    let p = dag_placement();
    for protocol in ProtocolKind::ALL {
        let params = SimParams { faults: fault_plan(), ..SimParams::quick_test(protocol) };
        let built = Engine::build(&p, &params, 11);
        if CRASH_PROTOCOLS.contains(&protocol) {
            assert!(built.is_ok(), "{protocol:?}: {:?}", built.err());
        } else {
            assert_eq!(built.err(), Some(BuildError::CrashUnrecoverable { protocol }));
        }
        let clean = SimParams::quick_test(protocol);
        assert!(Engine::build(&p, &clean, 11).is_ok(), "{protocol:?} without crashes");
    }
}

#[test]
fn crash_protocols_survive_the_fault_matrix() {
    let p = dag_placement();
    for protocol in CRASH_PROTOCOLS {
        let (report, engine) = run_with(&p, protocol, fault_plan(), 11);
        assert!(!report.stalled, "{protocol:?} stalled under faults");
        let params = SimParams::quick_test(protocol);
        let expected =
            (params.txns_per_thread * params.threads_per_site) as u64 * p.num_sites() as u64;
        assert_eq!(report.summary.commits, expected, "{protocol:?} lost commits");
        if protocol != ProtocolKind::NaiveLazy {
            assert!(report.serializable, "{protocol:?} cycle: {:?}", report.cycle);
        }
        if protocol != ProtocolKind::Psl {
            assert_eq!(
                report.summary.incomplete_propagations, 0,
                "{protocol:?} left updates unpropagated"
            );
            assert_converged(&engine, &p);
        }
        assert_eq!(report.summary.crashes, 2, "{protocol:?}");
        assert!(report.summary.availability_pct < 100.0, "{protocol:?} ignored downtime");
        assert!(report.summary.availability_pct > 80.0, "{protocol:?} availability off scale");
        assert!(report.summary.mean_recovery_ms > 0.0, "{protocol:?} never recovered");
    }
}

#[test]
fn seeded_fault_runs_are_byte_identical() {
    let p = dag_placement();
    for protocol in CRASH_PROTOCOLS {
        let (r1, e1) = run_with(&p, protocol, fault_plan(), 42);
        let (r2, e2) = run_with(&p, protocol, fault_plan(), 42);
        assert_eq!(
            format!("{:?}", r1.summary),
            format!("{:?}", r2.summary),
            "{protocol:?} metrics diverged across identical fault runs"
        );
        assert_eq!(
            format!("{:?}", e1.history().txns()),
            format!("{:?}", e2.history().txns()),
            "{protocol:?} histories diverged across identical fault runs"
        );
    }
}

#[test]
fn random_crash_plans_stay_serializable() {
    let p = dag_placement();
    for seed in 0..3u64 {
        let faults = FaultPlan::random_crashes(seed, 5, ms(1_000), 2, SimDuration::micros(150_000));
        for protocol in [ProtocolKind::DagWt, ProtocolKind::DagT] {
            let (report, engine) = run_with(&p, protocol, faults.clone(), 11 + seed);
            assert!(!report.stalled, "{protocol:?}/{seed} stalled");
            assert!(report.serializable, "{protocol:?}/{seed} cycle: {:?}", report.cycle);
            assert_converged(&engine, &p);
            // Generated windows for one site may overlap and merge, so the
            // observed crash count can be below the requested count.
            assert!(
                (1..=2).contains(&report.summary.crashes),
                "{protocol:?}/{seed}: {} crashes",
                report.summary.crashes
            );
        }
    }
}

#[test]
fn permanent_crash_degrades_but_stays_serializable() {
    // A site crashes and never restarts: its threads' remaining
    // transactions are lost and propagation to it stops, but the
    // committed prefix must stay serializable and the run must end
    // drained, not stalled. DAG(WT)'s calendar empties once the rest is
    // applied; DAG(T)'s heartbeats keep it busy, so the run ends one
    // progress span after its last progress. Under DAG(T) every site
    // is tried: the source whose heartbeats the others wait on, and the
    // leaf.
    let p = dag_placement();
    let runs = std::iter::once((ProtocolKind::DagWt, SiteId(4)))
        .chain((0..5).map(|s| (ProtocolKind::DagT, SiteId(s))));
    for (protocol, site) in runs {
        let faults = FaultPlan::none().crash(site, ms(300), None);
        let (report, _engine) = run_with(&p, protocol, faults, 11);
        let run = format!("{protocol:?} with {site} down");
        assert!(!report.stalled, "{run}: a permanent crash must drain, not stall");
        assert!(report.serializable, "{run}: cycle: {:?}", report.cycle);
        let params = SimParams::quick_test(protocol);
        let expected =
            (params.txns_per_thread * params.threads_per_site) as u64 * p.num_sites() as u64;
        assert!(report.summary.commits < expected, "{run}: crashed site kept committing");
        assert_eq!(report.summary.crashes, 1, "{run}");
        let end = SimTime::ZERO + report.summary.virtual_duration;
        let span = progress_span(protocol);
        assert!(end <= report.last_progress + span, "{run}: ran past the span");
        // The site stays down to the end of the run: 1 of 5 sites down
        // for most of the run puts availability well under the ceiling.
        let availability = report.summary.availability_pct;
        assert!(availability < 90.0, "{run}: {availability}");
        assert_eq!(report.summary.mean_recovery_ms, 0.0, "{run}: nothing ever recovered");
        if site == SiteId(4) {
            // The leaf holds replicas, so deliveries to it are lost.
            let lost = report.summary.incomplete_propagations;
            assert!(lost > 0, "{run}: lost deliveries must be reported");
        }
    }
}

#[test]
fn dag_t_epoch_bump_dominates_pre_crash_timestamps() {
    // Def. 3.3 + §3.3: after a crash bumps the epoch, every post-recovery
    // timestamp must order above every pre-crash timestamp regardless of
    // the tuple vectors — that is what lets a recovering DAG(T) site
    // re-join without its stale tuple counters reordering history.
    let tuple_vectors: [Vec<(SiteId, u64)>; 4] = [
        vec![(SiteId(0), 0)],
        vec![(SiteId(0), 1_000_000), (SiteId(3), 999)],
        vec![(SiteId(1), 7)],
        vec![(SiteId(2), u64::MAX), (SiteId(4), u64::MAX)],
    ];
    for pre in &tuple_vectors {
        for post in &tuple_vectors {
            let before = Timestamp { epoch: 0, tuples: pre.clone() };
            let after = Timestamp { epoch: 1, tuples: post.clone() };
            assert!(after > before, "{after:?} must dominate {before:?}");
        }
    }
    // And the bump composes: epoch 2 dominates epoch 1 the same way.
    let e1 = Timestamp { epoch: 1, tuples: vec![(SiteId(0), u64::MAX)] };
    let e2 = Timestamp { epoch: 2, tuples: vec![(SiteId(4), 0)] };
    assert!(e2 > e1);
}

#[test]
fn dag_t_recovers_through_epoch_bump_end_to_end() {
    // A DAG(T) site that crashes mid-run must re-join, drain its backlog
    // and still deliver a complete, serializable, convergent run — the
    // epoch mechanism in action rather than in unit isolation.
    let p = dag_placement();
    let faults = FaultPlan::none().crash(SiteId(2), ms(250), Some(ms(500)));
    let (report, engine) = run_with(&p, ProtocolKind::DagT, faults, 13);
    assert!(!report.stalled);
    assert!(report.serializable, "cycle: {:?}", report.cycle);
    assert_eq!(report.summary.incomplete_propagations, 0);
    assert_converged(&engine, &p);
    assert_eq!(report.summary.crashes, 1);
    assert!(report.summary.mean_recovery_ms > 0.0);
}

#[test]
fn outages_and_jitter_alone_change_no_outcome() {
    // Link faults without crashes: same commits, still serializable and
    // convergent, zero crash metrics, but measurable stall time.
    let p = dag_placement();
    let faults = FaultPlan::none()
        .outage(SiteId(0), SiteId(1), ms(50), ms(300))
        .outage(SiteId(2), SiteId(4), ms(400), ms(600))
        .jitter(SimDuration::micros(500))
        .seeded(7);
    let (report, engine) = run_with(&p, ProtocolKind::DagWt, faults, 11);
    assert!(!report.stalled);
    assert!(report.serializable, "cycle: {:?}", report.cycle);
    assert_converged(&engine, &p);
    assert_eq!(report.summary.crashes, 0);
    assert_eq!(report.summary.availability_pct, 100.0);
    assert!(report.summary.stall_ms > 0.0, "outages must register as stall time");
}
