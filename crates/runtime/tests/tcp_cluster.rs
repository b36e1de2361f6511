//! Deployment equivalence: the same seeded workload, run once on the
//! in-process cluster and once on a loopback TCP cluster with one
//! `repld` OS process per site, must end in byte-identical copy state at
//! every site. This file holds the DAG(T) case and the
//! per-process `Stats` counters; DAG(WT), BackEdge and the mid-run
//! connection kill are in `epoll_cluster.rs`.
//!
//! Equivalence holds because final copy state is transport-independent
//! by construction: each item is written only at its primary, links
//! deliver each origin's updates exactly once in order (outbox +
//! dedup/gap marks), so the last applied write per
//! copy is fixed by the per-site submission order alone.

use std::path::Path;

use repl_copygraph::DataPlacement;
use repl_core::scenario::{self, WorkloadMix};
use repl_runtime::{Cluster, ClusterHandle, LaunchOptions, ProcCluster, RuntimeProtocol};
use repl_types::{ItemId, Op, SiteId, Value};

fn tcp_cluster(placement: &DataPlacement, protocol: RuntimeProtocol) -> ProcCluster {
    let repld = Path::new(env!("CARGO_BIN_EXE_repld"));
    ProcCluster::launch_with_options(repld, placement, protocol, &LaunchOptions::default()).unwrap()
}

/// Forward-edge DAG placement with topological site numbering (valid
/// for every protocol).
fn dag_placement() -> DataPlacement {
    let mut p = DataPlacement::new(3);
    p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
    p.add_item(SiteId(1), &[SiteId(2)]);
    p.add_item(SiteId(0), &[SiteId(2)]);
    p.add_item(SiteId(2), &[]);
    p
}

/// Round-robin the seeded per-site programs through a deployment and
/// return each site's quiescent copy state.
fn final_state(cluster: &dyn ClusterHandle, progs: &[Vec<Vec<Op>>]) -> Vec<bytes::Bytes> {
    for round in 0..progs[0].len() {
        for (site, prog) in progs.iter().enumerate() {
            if !prog[round].is_empty() {
                cluster.execute(SiteId(site as u32), prog[round].clone()).expect("commit");
            }
        }
    }
    cluster.quiesce().expect("quiesce");
    (0..cluster.num_sites()).map(|s| cluster.copy_state(SiteId(s)).expect("copy state")).collect()
}

#[test]
fn dag_t_channel_and_tcp_states_identical() {
    let placement = dag_placement();
    let mix = WorkloadMix { ops_per_txn: 4, read_txn_prob: 0.25, read_op_prob: 0.5 };
    let progs: Vec<Vec<Vec<Op>>> = scenario::generate_programs(&placement, &mix, 1, 25, 12)
        .into_iter()
        .map(|mut site| site.remove(0))
        .collect();
    let chan_cluster = Cluster::start(&placement, RuntimeProtocol::DagT).unwrap();
    let chan = final_state(&chan_cluster, &progs);
    chan_cluster.shutdown();
    let tcp_cluster = tcp_cluster(&placement, RuntimeProtocol::DagT);
    let tcp = final_state(&tcp_cluster, &progs);
    tcp_cluster.shutdown();
    assert_eq!(chan, tcp, "dagt final copy state differs between transports");
    // Non-degenerate: the workload must actually have written something.
    assert!(chan.iter().any(|s| !s.is_empty()));
}

/// The per-process stats counters agree with a quiescent cluster.
#[test]
fn stats_reach_zero_outstanding() {
    let cluster = tcp_cluster(&dag_placement(), RuntimeProtocol::DagWt);
    cluster.execute(SiteId(0), vec![Op::write(ItemId(0), 9)]).unwrap().unwrap();
    ClusterHandle::quiesce(&cluster).expect("quiesce");
    // Per-process outstanding counters are deltas (+dests at the origin,
    // −1 per application elsewhere); only the cluster-wide sum is zero.
    let mut outstanding_sum = 0;
    let mut committed = 0;
    let mut decode_errors = 0;
    for s in 0..3 {
        let stats = ProcCluster::stats(&cluster, SiteId(s)).unwrap();
        outstanding_sum += stats.outstanding;
        committed += stats.committed;
        decode_errors += stats.decode_errors;
    }
    assert_eq!(outstanding_sum, 0);
    assert_eq!(committed, 1);
    assert_eq!(decode_errors, 0, "no client sent a malformed frame");
    let cell = cluster.peek(SiteId(2), ItemId(0)).expect("replica readable");
    assert_eq!(cell.0, Value::int(9));
    cluster.shutdown();
}
