//! Protocol coverage for the threaded runtime beyond DAG(WT): DAG(T)'s
//! timestamp/epoch ordering and BackEdge's eager specials, each run on
//! real threads and checked against the serializability oracle.
#![expect(clippy::disallowed_methods, reason = "a test paces a live fleet by the wall clock")]

use repl_copygraph::DataPlacement;
use repl_core::scenario::{self, WorkloadMix};
use repl_runtime::{Cluster, RuntimeProtocol};
use repl_types::SiteId;

/// A 4-site forward-edge placement (site numbering is topological, as
/// DAG(T) requires).
fn dag_placement() -> DataPlacement {
    let mut p = DataPlacement::new(4);
    for i in 0..16u32 {
        let primary = SiteId(i % 4);
        let replicas: Vec<SiteId> =
            (primary.0 + 1..4).filter(|s| (i + s) % 2 == 0).map(SiteId).collect();
        p.add_item(primary, &replicas);
    }
    p
}

/// Three sites with a cyclic copy graph: the backedge 2→0 forces the
/// eager path while 0→1→2 stays lazy.
fn cyclic_placement() -> DataPlacement {
    let mut p = DataPlacement::new(3);
    p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
    p.add_item(SiteId(1), &[SiteId(2)]);
    p.add_item(SiteId(2), &[SiteId(0)]);
    p
}

/// s2's parents are s0 and s1, but s0's items are copied at s2 alone:
/// s1 never applies anything, so only its idle heartbeats — once an
/// epoch tick carries them past s0's timestamps (§3.3) — release s2.
fn idle_parent_placement() -> DataPlacement {
    let mut p = DataPlacement::new(3);
    p.add_item(SiteId(0), &[SiteId(2)]);
    p.add_item(SiteId(1), &[SiteId(2)]);
    p.add_item(SiteId(2), &[]);
    p
}

/// Round-robin a seeded §5.2 workload through the cluster, one
/// transaction per site per round.
fn run_workload(cluster: &Cluster, placement: &DataPlacement, txns_per_site: u32, seed: u64) {
    let mix = WorkloadMix { ops_per_txn: 4, read_txn_prob: 0.3, read_op_prob: 0.5 };
    let mut programs: Vec<std::collections::VecDeque<Vec<repl_types::Op>>> =
        scenario::generate_programs(placement, &mix, 1, txns_per_site, seed)
            .into_iter()
            .map(|mut site| site.remove(0).into())
            .collect();
    for _ in 0..txns_per_site {
        for (site, prog) in programs.iter_mut().enumerate() {
            let ops = prog.pop_front().expect("txns_per_site entries per site");
            if !ops.is_empty() {
                cluster.execute(SiteId(site as u32), ops).unwrap();
            }
        }
    }
    cluster.quiesce();
}

/// Every replica must hold the same (value, writer) as its primary once
/// the cluster is quiescent.
fn assert_converged(cluster: &Cluster, placement: &DataPlacement) {
    for site in 0..placement.num_sites() {
        for &item in placement.items_at(SiteId(site)) {
            let primary = placement.primary_of(item);
            assert_eq!(
                cluster.peek(SiteId(site), item),
                cluster.peek(primary, item),
                "item {item:?} diverged at site {site}"
            );
        }
    }
}

#[test]
fn dagt_converges_and_is_serializable() {
    let placement = dag_placement();
    let cluster = Cluster::start(&placement, RuntimeProtocol::DagT).unwrap();
    run_workload(&cluster, &placement, 40, 0xDA97);
    assert_converged(&cluster, &placement);
    cluster.check_serializability().expect("Theorem 3.1: DAG(T) histories are serializable");
    cluster.shutdown();
}

#[test]
fn dagt_idle_links_converge_via_heartbeats() {
    // A single writer: every other inbound queue at the replicas only
    // ever sees dummy subtransactions, so convergence below proves the
    // §3.3 heartbeat path unblocks the timestamp merge — on the second
    // placement, the idle fallback alone.
    for placement in [dag_placement(), idle_parent_placement()] {
        let cluster = Cluster::start(&placement, RuntimeProtocol::DagT).unwrap();
        for &item in placement.items_at(SiteId(0)) {
            if placement.primary_of(item) == SiteId(0) {
                cluster.execute(SiteId(0), vec![repl_types::Op::write(item, 7)]).unwrap();
            }
        }
        cluster.quiesce();
        assert_converged(&cluster, &placement);
        cluster.shutdown();
    }
}

#[test]
fn dagt_conflicting_heads_queued_behind_a_dummy_converge() {
    // chain3-like: every written item lives at s0 with copies at s1 and
    // s2, and s1 (which also feeds s2) commits nothing. s2 may admit
    // s0's updates only under a timestamp from s1: the dummy s1 sends
    // once it has applied them, or its idle heartbeat. Two writers
    // commit every half millisecond, each rewriting its own hot item
    // plus three of its own six spread items, so s0's updates conflict
    // within a writer and never across writers. Whatever run of them a
    // dummy of s1 releases at s2, all 600 must apply there in an order
    // that converges every copy and keeps the history serializable.
    // (When s1's dummies came only every 2 ms they released five or
    // more at once: the queue shape that wedged the removed apply
    // window.)
    let mut placement = DataPlacement::new(3);
    let items: Vec<_> =
        (0..14).map(|_| placement.add_item(SiteId(0), &[SiteId(1), SiteId(2)])).collect();
    placement.add_item(SiteId(1), &[SiteId(2)]);
    placement.add_item(SiteId(2), &[]);
    let cluster = Cluster::start(&placement, RuntimeProtocol::DagT).unwrap();
    std::thread::scope(|scope| {
        for w in 0..2usize {
            let (cluster, items) = (&cluster, &items);
            scope.spawn(move || {
                for i in 0..300usize {
                    let mut ops = vec![repl_types::Op::write(items[7 * w], i as i64)];
                    ops.extend((0..3).map(|k| {
                        repl_types::Op::write(items[7 * w + 1 + (3 * i + k) % 6], i as i64)
                    }));
                    cluster.execute(SiteId(0), ops).unwrap();
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
            });
        }
    });
    cluster.quiesce();
    assert_converged(&cluster, &placement);
    cluster.check_serializability().expect("Theorem 3.1: DAG(T) histories are serializable");
    cluster.shutdown();
}

#[test]
fn backedge_cyclic_graph_converges_and_is_serializable() {
    let placement = cyclic_placement();
    let cluster = Cluster::start(&placement, RuntimeProtocol::BackEdge).unwrap();
    run_workload(&cluster, &placement, 40, 0xBE);
    assert_converged(&cluster, &placement);
    cluster.check_serializability().expect("Theorem 4.1: BackEdge histories are serializable");
    cluster.shutdown();
}

#[test]
fn backedge_on_a_dag_degenerates_to_lazy_and_converges() {
    // No backedges → no eager specials; BackEdge must behave like
    // DAG(WT) on the augmented (= original) DAG.
    let placement = dag_placement();
    let cluster = Cluster::start(&placement, RuntimeProtocol::BackEdge).unwrap();
    run_workload(&cluster, &placement, 30, 0xD46);
    assert_converged(&cluster, &placement);
    cluster.check_serializability().unwrap();
    cluster.shutdown();
}

#[test]
fn dagt_rejects_non_topological_site_numbering() {
    // Edge 1→0: acyclic, but the identity order is not topological.
    let mut p = DataPlacement::new(2);
    p.add_item(SiteId(1), &[SiteId(0)]);
    match Cluster::start(&p, RuntimeProtocol::DagT) {
        Err(repl_runtime::ClusterError::SiteOrderNotTopological) => {}
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("non-topological numbering accepted"),
    }
}
