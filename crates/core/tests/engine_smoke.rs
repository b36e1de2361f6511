//! End-to-end smoke tests: every protocol on the paper's example
//! placements and on a larger random-ish placement, checking
//! serializability (Theorems 2.1/3.1), progress, and replica convergence.

use repl_copygraph::{CopyGraph, DataPlacement};
use repl_core::config::{DeadlockMode, ProtocolKind, SimParams, TreeKind};
use repl_core::engine::Engine;
use repl_core::scenario::{self, WorkloadMix};
use repl_types::SiteId;

fn quick(protocol: ProtocolKind) -> SimParams {
    SimParams::quick_test(protocol)
}

/// A 5-site DAG placement: primaries spread over all sites, replicas only
/// at higher-numbered sites (b = 0 in the paper's terms).
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

/// A cyclic placement (backedges) for BackEdge/PSL/Eager/Naive.
fn cyclic_placement() -> DataPlacement {
    let mut p = DataPlacement::new(4);
    for i in 0..16u32 {
        let primary = SiteId(i % 4);
        let replicas: Vec<SiteId> =
            (0..4).filter(|&s| s != primary.0 && (i + s) % 3 == 0).map(SiteId).collect();
        p.add_item(primary, &replicas);
    }
    p
}

fn run(placement: &DataPlacement, params: &SimParams, seed: u64) -> (repl_core::RunReport, Engine) {
    let mut engine = Engine::build(placement, params, seed).expect("buildable test config");
    let report = engine.run();
    (report, engine)
}

fn assert_complete(report: &repl_core::RunReport, params: &SimParams, placement: &DataPlacement) {
    assert!(!report.stalled, "{:?} stalled", params.protocol);
    let expected =
        (params.txns_per_thread * params.threads_per_site) as u64 * placement.num_sites() as u64;
    assert_eq!(report.summary.commits, expected, "{:?} lost commits", params.protocol);
    assert_eq!(
        report.summary.incomplete_propagations, 0,
        "{:?} left updates unpropagated",
        params.protocol
    );
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

#[test]
fn dag_wt_serializable_and_converges() {
    let p = dag_placement();
    let params = quick(ProtocolKind::DagWt);
    let (report, engine) = run(&p, &params, 11);
    assert_complete(&report, &params, &p);
    assert!(report.serializable, "cycle: {:?}", report.cycle);
    assert_converged(&engine, &p);
}

#[test]
fn dag_wt_general_tree_serializable() {
    let p = dag_placement();
    let mut params = quick(ProtocolKind::DagWt);
    params.tree = TreeKind::General;
    let (report, engine) = run(&p, &params, 12);
    assert_complete(&report, &params, &p);
    assert!(report.serializable, "cycle: {:?}", report.cycle);
    assert_converged(&engine, &p);
}

#[test]
fn dag_t_serializable_and_converges() {
    let p = dag_placement();
    let params = quick(ProtocolKind::DagT);
    let (report, engine) = run(&p, &params, 13);
    assert_complete(&report, &params, &p);
    assert!(report.serializable, "cycle: {:?}", report.cycle);
    assert_converged(&engine, &p);
}

#[test]
fn backedge_on_dag_behaves_like_dagwt() {
    // §4.1: with no backedges, BackEdge reduces to DAG(WT).
    let p = dag_placement();
    let params = quick(ProtocolKind::BackEdge);
    let (report, engine) = run(&p, &params, 14);
    assert_complete(&report, &params, &p);
    assert!(report.serializable, "cycle: {:?}", report.cycle);
    assert_converged(&engine, &p);
    assert!(engine.backedge_set().unwrap().is_empty());
}

#[test]
fn backedge_on_cyclic_graph_serializable() {
    let p = cyclic_placement();
    assert!(!CopyGraph::from_placement(&p).is_dag());
    let params = quick(ProtocolKind::BackEdge);
    let (report, engine) = run(&p, &params, 15);
    assert_complete(&report, &params, &p);
    assert!(report.serializable, "cycle: {:?}", report.cycle);
    assert_converged(&engine, &p);
    assert!(!engine.backedge_set().unwrap().is_empty());
}

#[test]
fn psl_serializable_on_cyclic_graph() {
    let p = cyclic_placement();
    let params = quick(ProtocolKind::Psl);
    let (report, _engine) = run(&p, &params, 16);
    assert!(!report.stalled);
    assert!(report.serializable, "cycle: {:?}", report.cycle);
    assert_eq!(
        report.summary.commits,
        (params.txns_per_thread * params.threads_per_site) as u64 * p.num_sites() as u64
    );
}

#[test]
fn eager_serializable_and_converges() {
    let p = cyclic_placement();
    let params = quick(ProtocolKind::Eager);
    let (report, engine) = run(&p, &params, 17);
    assert_complete(&report, &params, &p);
    assert!(report.serializable, "cycle: {:?}", report.cycle);
    assert_converged(&engine, &p);
}

#[test]
fn naive_lazy_completes_and_converges_even_if_unserializable() {
    let p = dag_placement();
    let params = quick(ProtocolKind::NaiveLazy);
    let (report, engine) = run(&p, &params, 18);
    assert_complete(&report, &params, &p);
    // Per-item FIFO from the primary still guarantees convergence.
    assert_converged(&engine, &p);
}

#[test]
fn naive_lazy_produces_example_1_1_anomaly() {
    // Hunt across seeds for the Figure 1 anomaly on the 3-site placement;
    // write-heavy mix maximizes the race window. The serializable
    // protocols must never exhibit it (checked exhaustively elsewhere);
    // the naive protocol should within a few seeds.
    let p = scenario::example_1_1_placement();
    let mut found = false;
    for seed in 0..40 {
        let mut params = quick(ProtocolKind::NaiveLazy);
        params.txns_per_thread = 40;
        params.threads_per_site = 3;
        let programs = scenario::generate_programs(
            &p,
            &WorkloadMix { ops_per_txn: 4, read_txn_prob: 0.3, read_op_prob: 0.4 },
            params.threads_per_site,
            params.txns_per_thread,
            seed,
        );
        let mut engine = Engine::new(&p, &params, programs).unwrap();
        let report = engine.run();
        assert!(!report.stalled);
        if !report.serializable {
            found = true;
            break;
        }
    }
    assert!(found, "indiscriminate lazy propagation never violated serializability in 40 seeds");
}

#[test]
fn dag_protocols_reject_cyclic_graphs() {
    let p = scenario::example_4_1_placement();
    let programs = scenario::generate_programs(&p, &WorkloadMix::default(), 1, 1, 0);
    for proto in [ProtocolKind::DagWt, ProtocolKind::DagT] {
        let mut params = quick(proto);
        params.txns_per_thread = 1;
        params.threads_per_site = 1;
        let err = Engine::new(&p, &params, programs.clone()).err().expect("must reject");
        assert_eq!(err, repl_core::engine::BuildError::CopyGraphCyclic);
    }
}

#[test]
fn waits_for_deadlock_mode_works() {
    let p = dag_placement();
    let mut params = quick(ProtocolKind::DagWt);
    params.deadlock_mode = DeadlockMode::WaitsFor;
    let (report, engine) = run(&p, &params, 19);
    assert_complete(&report, &params, &p);
    assert!(report.serializable, "cycle: {:?}", report.cycle);
    assert_converged(&engine, &p);
}

#[test]
fn backedge_example_4_1_resolves_global_deadlock() {
    // Example 4.1 traced in §4.1: concurrent cross transactions must not
    // both commit; one aborts on the global deadlock and retries.
    let p = scenario::example_4_1_placement();
    let mut params = quick(ProtocolKind::BackEdge);
    params.txns_per_thread = 25;
    params.threads_per_site = 2;
    let programs = scenario::generate_programs(
        &p,
        &WorkloadMix { ops_per_txn: 4, read_txn_prob: 0.0, read_op_prob: 0.5 },
        params.threads_per_site,
        params.txns_per_thread,
        7,
    );
    let mut engine = Engine::new(&p, &params, programs).unwrap();
    let report = engine.run();
    assert!(!report.stalled, "BackEdge stalled on Example 4.1");
    assert!(report.serializable, "cycle: {:?}", report.cycle);
    assert_eq!(report.summary.commits, 100);
    assert_eq!(report.summary.incomplete_propagations, 0);
}

/// MVCC snapshot reads: read-only transactions served from version
/// chains (zero locks) must stay one-copy serializable and must not
/// perturb convergence, on every lazy protocol of the matrix.
#[test]
fn snapshot_reads_serializable_and_converge() {
    for (proto, cyclic) in
        [(ProtocolKind::DagWt, false), (ProtocolKind::DagT, false), (ProtocolKind::BackEdge, true)]
    {
        let p = if cyclic { cyclic_placement() } else { dag_placement() };
        let mut params = quick(proto);
        params.tuning.mvcc_reads = true;
        let programs = scenario::generate_programs(
            &p,
            &WorkloadMix { ops_per_txn: 6, read_txn_prob: 0.6, read_op_prob: 0.5 },
            params.threads_per_site,
            params.txns_per_thread,
            21,
        );
        let mut engine = Engine::new(&p, &params, programs).unwrap();
        let report = engine.run();
        assert_complete(&report, &params, &p);
        assert!(report.serializable, "{proto:?} snapshot reads: cycle {:?}", report.cycle);
        assert_converged(&engine, &p);
    }
}

/// Snapshot reads must not change what commits — only how reads are
/// served. Same seed, same placement, same programs: commit counts and
/// propagation totals match the 2PL run.
#[test]
fn snapshot_reads_commit_the_same_workload() {
    let p = dag_placement();
    let programs = scenario::generate_programs(
        &p,
        &WorkloadMix { ops_per_txn: 6, read_txn_prob: 0.7, read_op_prob: 0.5 },
        2,
        30,
        23,
    );
    let locked = quick(ProtocolKind::DagWt);
    let mut mvcc = locked.clone();
    mvcc.tuning.mvcc_reads = true;
    let r1 = Engine::new(&p, &locked, programs.clone()).unwrap().run();
    let r2 = Engine::new(&p, &mvcc, programs).unwrap().run();
    assert_eq!(r1.summary.commits, r2.summary.commits);
    assert_eq!(r1.summary.incomplete_propagations, r2.summary.incomplete_propagations);
    assert!(r2.serializable, "cycle: {:?}", r2.cycle);
}

/// Group commit: with a nonzero fsync cost, batching 8 commits per flush
/// must finish the same workload in less virtual time than flushing every
/// commit, and batch size 1 must price every update commit.
#[test]
fn group_commit_amortizes_fsync_cost() {
    use repl_sim::SimDuration;
    let p = dag_placement();
    let mut per_commit = quick(ProtocolKind::DagWt);
    per_commit.fsync_cpu = SimDuration::micros(2_000);
    let mut batched = per_commit.clone();
    batched.tuning.group_commit_batch = std::num::NonZeroUsize::new(8).unwrap();
    let (r1, _) = run(&p, &per_commit, 24);
    let (r2, _) = run(&p, &batched, 24);
    assert_complete(&r1, &per_commit, &p);
    assert_complete(&r2, &batched, &p);
    assert!(
        r2.summary.virtual_duration < r1.summary.virtual_duration,
        "batched {:?} not faster than per-commit {:?}",
        r2.summary.virtual_duration,
        r1.summary.virtual_duration
    );
}

#[test]
fn runs_are_deterministic() {
    let p = dag_placement();
    let params = quick(ProtocolKind::BackEdge);
    let (r1, _) = run(&p, &params, 42);
    let (r2, _) = run(&p, &params, 42);
    assert_eq!(r1.summary.commits, r2.summary.commits);
    assert_eq!(r1.summary.aborts, r2.summary.aborts);
    assert_eq!(r1.summary.messages, r2.summary.messages);
    assert_eq!(r1.summary.virtual_duration, r2.summary.virtual_duration);
}
