//! End-to-end tests for the process-per-site TCP deployment (`repld`,
//! the epoll reactor): transport equivalence against the in-process
//! channel cluster, mid-run connection kills, a 256-connection smoke
//! test on one readiness loop, and the typed-error path for malformed
//! client frames. `tcp_cluster.rs` holds the DAG(T) and `Stats` cases.

use std::io::Write;
use std::net::TcpStream;
use std::path::Path;

use repl_copygraph::DataPlacement;
use repl_core::scenario::{self, WorkloadMix};
use repl_net::{read_msg, write_msg, ClientMsg, ClientReply, WireMsg};
use repl_runtime::{Cluster, ClusterHandle, LaunchOptions, ProcCluster, RuntimeProtocol};
use repl_types::{ItemId, Op, SiteId, Value};

fn repld() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_repld"))
}

fn epoll_cluster(placement: &DataPlacement, protocol: RuntimeProtocol) -> ProcCluster {
    ProcCluster::launch_with_options(repld(), placement, protocol, &LaunchOptions::default())
        .unwrap()
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

/// Cyclic placement: exercises BackEdge's eager path through the
/// reactor's serialized exec queue.
fn cyclic_placement() -> DataPlacement {
    let mut p = DataPlacement::new(3);
    p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
    p.add_item(SiteId(1), &[SiteId(2)]);
    p.add_item(SiteId(2), &[SiteId(0)]);
    p
}

/// The seeded per-site programs both deployments replay.
fn programs(placement: &DataPlacement, txns_per_site: u32, seed: u64) -> Vec<Vec<Vec<Op>>> {
    let mix = WorkloadMix { ops_per_txn: 4, read_txn_prob: 0.25, read_op_prob: 0.5 };
    scenario::generate_programs(placement, &mix, 1, txns_per_site, seed)
        .into_iter()
        .map(|mut site| site.remove(0))
        .collect()
}

/// Round-robin `progs` through any deployment and return each site's
/// quiescent copy state.
fn final_state(
    cluster: &dyn ClusterHandle,
    progs: &[Vec<Vec<Op>>],
    kill_at: Option<(usize, SiteId, SiteId)>,
) -> Vec<bytes::Bytes> {
    for round in 0..progs[0].len() {
        for (site, prog) in progs.iter().enumerate() {
            if !prog[round].is_empty() {
                cluster.execute(SiteId(site as u32), prog[round].clone()).expect("commit");
            }
        }
        if let Some((kill_round, a, b)) = kill_at {
            if round == kill_round {
                cluster.kill_conn(a, b).unwrap();
            }
        }
    }
    cluster.quiesce().expect("quiesce");
    (0..cluster.num_sites()).map(|s| cluster.copy_state(SiteId(s)).expect("copy state")).collect()
}

/// Basic sanity: a write at the primary replicates to every copy
/// through the readiness loop.
#[test]
fn epoll_commits_and_replicates() {
    let placement = dag_placement();
    let cluster = epoll_cluster(&placement, RuntimeProtocol::DagWt);
    cluster.execute(SiteId(0), vec![Op::write(ItemId(0), 41)]).unwrap().unwrap();
    ProcCluster::quiesce(&cluster).expect("quiesce");
    for s in [0u32, 1, 2] {
        let cell = cluster.peek(SiteId(s), ItemId(0)).expect("copy readable");
        assert_eq!(cell.0, Value::int(41), "site {s} copy diverged");
    }
    cluster.shutdown();
}

/// The acceptance scenario on the epoll path: a mid-run connection kill
/// between two sites forces reconnect + resume + outbox retransmission
/// inside the readiness loop, and the final state must still match the
/// undisturbed channel run byte for byte.
#[test]
fn epoll_mid_run_connection_kill_recovers_to_identical_state() {
    let placement = dag_placement();
    let progs = programs(&placement, 30, 15);
    let chan_cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    let chan = final_state(&chan_cluster, &progs, None);
    chan_cluster.shutdown();
    let epoll = epoll_cluster(&placement, RuntimeProtocol::DagWt);
    let epoll_state = final_state(&epoll, &progs, Some((10, SiteId(0), SiteId(2))));
    epoll.shutdown();
    assert_eq!(chan, epoll_state, "kill + reconnect changed the final copy state");
    assert!(chan.iter().any(|s| !s.is_empty()));
}

/// BackEdge's eager phase (cyclic placement) through the reactor: the
/// in-flight transaction parks while the eager round-trip completes.
#[test]
fn epoll_backedge_cyclic_matches_channel() {
    let placement = cyclic_placement();
    let progs = programs(&placement, 20, 16);
    let chan_cluster = Cluster::start(&placement, RuntimeProtocol::BackEdge).unwrap();
    let chan = final_state(&chan_cluster, &progs, None);
    chan_cluster.shutdown();
    let epoll = epoll_cluster(&placement, RuntimeProtocol::BackEdge);
    let epoll_state = final_state(&epoll, &progs, None);
    epoll.shutdown();
    assert_eq!(chan, epoll_state, "BackEdge final copy state differs between deployments");
}

/// One readiness loop serves 256 concurrent client connections: open
/// them all, pipeline one transaction per connection, then collect all
/// 256 commit replies.
#[test]
fn epoll_serves_256_concurrent_clients() {
    const CONNS: usize = 256;
    let placement = dag_placement();
    let cluster = epoll_cluster(&placement, RuntimeProtocol::DagWt);
    let addr = cluster.addrs()[0].clone();

    let mut conns: Vec<TcpStream> =
        (0..CONNS).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    // Pipeline: every connection submits before any reply is read, so
    // all 256 transactions are queued against the single reactor thread
    // at once.
    for (i, conn) in conns.iter_mut().enumerate() {
        let ops = vec![Op::write(ItemId(0), i as i64)];
        write_msg(conn, &WireMsg::Client(ClientMsg::Execute(ops))).unwrap();
    }
    let mut committed = 0;
    for conn in &mut conns {
        match read_msg(conn).expect("reply") {
            WireMsg::Reply(ClientReply::Executed(Ok(_))) => committed += 1,
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert_eq!(committed, CONNS);

    ProcCluster::quiesce(&cluster).expect("quiesce");
    // All copies converged on the same (last-committed) write.
    let origin = cluster.peek(SiteId(0), ItemId(0)).expect("primary readable");
    for s in [1u32, 2] {
        let copy = cluster.peek(SiteId(s), ItemId(0)).expect("replica readable");
        assert_eq!(copy, origin, "site {s} copy diverged after 256 clients");
    }
    let stats = ProcCluster::stats(&cluster, SiteId(0)).unwrap();
    assert_eq!(stats.committed, CONNS as u64);
    assert_eq!(stats.decode_errors, 0);
    cluster.shutdown();
}

/// Malformed and mis-typed client frames get a typed [`ClientReply::Err`]
/// and bump the site's decode-error counter; the site stays healthy for
/// well-formed clients afterwards.
#[test]
fn epoll_malformed_frame_gets_typed_error_and_counter() {
    let placement = dag_placement();
    let cluster = epoll_cluster(&placement, RuntimeProtocol::DagWt);
    let addr = cluster.addrs()[0].clone();

    // A well-framed body that does not decode: valid length prefix,
    // garbage tag.
    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.write_all(&[0, 0, 0, 4, 0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
    match read_msg(&mut conn).expect("typed error reply") {
        WireMsg::Reply(ClientReply::Err(msg)) => {
            assert!(msg.contains("malformed"), "unexpected error text: {msg}")
        }
        other => panic!("expected typed error, got {other:?}"),
    }
    // The server closes the failed session after replying.
    assert!(matches!(read_msg(&mut conn), Err(repl_net::ReadError::Io(_))));

    // A structurally valid frame of the wrong kind (a peer Ack on a
    // client session) is refused with the frame kind named.
    let mut conn = TcpStream::connect(&addr).unwrap();
    write_msg(&mut conn, &WireMsg::Ack { seq: 7 }).unwrap();
    match read_msg(&mut conn).expect("typed error reply") {
        WireMsg::Reply(ClientReply::Err(msg)) => {
            assert!(msg.contains("Ack"), "unexpected error text: {msg}")
        }
        other => panic!("expected typed error, got {other:?}"),
    }

    let stats = ProcCluster::stats(&cluster, SiteId(0)).unwrap();
    assert_eq!(stats.decode_errors, 2);
    // The site still serves well-formed clients.
    cluster.execute(SiteId(0), vec![Op::write(ItemId(0), 5)]).unwrap().unwrap();
    cluster.shutdown();
}
