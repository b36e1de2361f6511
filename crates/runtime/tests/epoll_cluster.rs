//! End-to-end tests for the process-per-site TCP deployment (`repld`,
//! the epoll reactor): equivalence with the in-process cluster under
//! DAG(T) and BackEdge, mid-run connection kills on both, the
//! per-process `Stats` counters, a 256-connection smoke
//! test on one readiness loop, a placement too large to pass item by
//! item on a command line and the handshake fingerprint of a run-form
//! placement, the typed-error path for malformed
//! client frames, the refusals of the removed batching knobs, of a
//! `Batch` frame on a peer link and of a `Peers` push naming a site
//! outside the placement or a host name, and `pending_deliveries` across
//! a cut link; and `repld`'s own command line — a site booted from a
//! `--config` file, a flag over that file, `--help`, an eager timeout of
//! 0, a host name for an address.
//!
//! Equivalence holds because final copy state is transport-independent
//! by construction: each item is written only at its primary, links
//! deliver each origin's updates exactly once in order (outbox +
//! dedup/gap marks), so the last applied write per
//! copy is fixed by the per-site submission order alone.
#![expect(clippy::disallowed_methods, reason = "a test paces a live fleet by the wall clock")]

use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use repl_copygraph::DataPlacement;
use repl_core::scenario::{self, WorkloadMix};
use repl_core::History;
use repl_net::{
    cluster_fingerprint, decode_cells, encode_framed, read_msg, write_msg, ClientMsg, ClientReply,
    Hello, Payload, ReadError, WireMsg,
};
use repl_runtime::{
    Cluster, ClusterHandle, LaunchOptions, NetFaultPlan, ProcCluster, RuntimeProtocol,
};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

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

/// The same seeded DAG(T) workload ends in byte-identical copy state on
/// the in-process cluster and on a `repld` fleet.
#[test]
fn dag_t_in_process_and_repld_states_identical() {
    let placement = dag_placement();
    let progs = programs(&placement, 25, 12);
    let chan_cluster = Cluster::start(&placement, RuntimeProtocol::DagT).unwrap();
    let chan = final_state(&chan_cluster, &progs, None);
    chan_cluster.shutdown();
    let tcp_cluster = epoll_cluster(&placement, RuntimeProtocol::DagT);
    let tcp = final_state(&tcp_cluster, &progs, None);
    tcp_cluster.shutdown();
    assert_eq!(chan, tcp, "dagt final copy state differs between transports");
    // Non-degenerate: the workload must actually have written something.
    assert!(chan.iter().any(|s| !s.is_empty()));
}

/// The per-process stats counters agree with a quiescent cluster.
#[test]
fn stats_reach_zero_outstanding() {
    let cluster = epoll_cluster(&dag_placement(), RuntimeProtocol::DagWt);
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

/// Basic sanity: a write at the primary replicates to every copy
/// through the readiness loop.
#[test]
fn epoll_commits_and_replicates() {
    let placement = dag_placement();
    let cluster = epoll_cluster(&placement, RuntimeProtocol::DagWt);
    cluster.execute(SiteId(0), vec![Op::write(ItemId(0), 41)]).unwrap().unwrap();
    ClusterHandle::quiesce(&cluster).expect("quiesce");
    for s in [0u32, 1, 2] {
        let cell = cluster.peek(SiteId(s), ItemId(0)).expect("copy readable");
        assert_eq!(cell.0, Value::int(41), "site {s} copy diverged");
    }
    cluster.shutdown();
}

/// A placement too large to name item by item on a command line: a
/// 3-site chain of 20 000 items a site. Its per-item spec is 240 kB,
/// past the kernel's 128 KiB cap on one argv string, so while `repld`
/// was handed one field per item this launch failed at spawn with E2BIG
/// ("Argument list too long"); the run form is 31 bytes. One update at
/// s0 then reaches both replicas, which agree on every item they share.
#[test]
fn epoll_chain_of_twenty_thousand_items_a_site_launches_and_converges() {
    const PER_SITE: u32 = 20_000;
    let mut placement = DataPlacement::new(3);
    placement.add_run(SiteId(0), &[SiteId(1), SiteId(2)], PER_SITE);
    placement.add_run(SiteId(1), &[SiteId(2)], PER_SITE);
    placement.add_run(SiteId(2), &[], PER_SITE);
    assert!(placement.per_item_spec().to_string().len() > 128 * 1024);
    assert_eq!(placement.to_spec().len(), 31);

    let cluster = epoll_cluster(&placement, RuntimeProtocol::DagWt);
    let written = ItemId(PER_SITE - 1);
    cluster.execute(SiteId(0), vec![Op::write(written, 7)]).unwrap().unwrap();
    cluster.quiesce().expect("quiesce");
    let cells = |site| decode_cells(cluster.copy_state(SiteId(site)).unwrap()).unwrap();
    let (s1, s2) = (cells(1), cells(2));
    cluster.shutdown();
    assert_eq!(s1.len(), 2 * PER_SITE as usize);
    assert_eq!(s2.len(), 3 * PER_SITE as usize);
    let shared: Vec<_> =
        s2.into_iter().filter(|(item, ..)| placement.has_copy(SiteId(1), *item)).collect();
    assert_eq!(s1, shared);
    assert!(s1.iter().any(|(item, value, _)| *item == written && *value == Value::int(7)));
}

/// A site built before specs had run lengths hashes the per-item spec
/// string into its `Hello`. A site of this build, handed the run form,
/// admits that fingerprint and refuses one over the run form. The test
/// poses as s0 dialing s2, which supersedes s0's real link.
#[test]
fn epoll_admits_the_per_item_fingerprint_of_a_run_form_placement() {
    let mut placement = DataPlacement::new(3);
    placement.add_run(SiteId(0), &[SiteId(1), SiteId(2)], 5);
    placement.add_run(SiteId(1), &[SiteId(2)], 5);
    let cluster = epoll_cluster(&placement, RuntimeProtocol::DagWt);
    let per_item = format!("3{}{}", "|0:1,2".repeat(5), "|1:2".repeat(5));
    for (spec, admitted) in [(per_item, true), (placement.to_spec(), false)] {
        let mut link = TcpStream::connect(&cluster.addrs()[2]).unwrap();
        link.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let cluster_id = cluster_fingerprint(&spec, RuntimeProtocol::DagWt.name());
        let hello = Hello { site: SiteId(0), version_min: 1, version_max: 1, cluster: cluster_id };
        link.write_all(&encode_framed(&WireMsg::Hello(hello))).unwrap();
        match read_msg(&mut link).expect("handshake reply") {
            WireMsg::HelloAck(_) => assert!(admitted, "{spec:?} admitted"),
            WireMsg::Reject(why) => assert!(!admitted, "{spec:?} refused: {why}"),
            other => panic!("expected HelloAck or Reject, got {}", other.kind_name()),
        }
    }
    cluster.execute(SiteId(0), vec![Op::write(ItemId(0), 3)]).unwrap().unwrap();
    cluster.quiesce().expect("quiesce");
    assert_eq!(cluster.peek(SiteId(2), ItemId(0)).map(|cell| cell.0), Some(Value::int(3)));
    cluster.shutdown();
}

/// The acceptance scenario: a mid-run connection kill between two sites
/// forces reconnect + resume + outbox retransmission inside the
/// readiness loop, and the final state must still match the undisturbed
/// run byte for byte — on a `repld` fleet and on the in-process cluster.
#[test]
fn epoll_mid_run_connection_kill_recovers_to_identical_state() {
    let placement = dag_placement();
    let progs = programs(&placement, 30, 15);
    let kill = Some((10, SiteId(0), SiteId(2)));
    let chan_cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    let chan = final_state(&chan_cluster, &progs, None);
    chan_cluster.shutdown();
    let epoll = epoll_cluster(&placement, RuntimeProtocol::DagWt);
    let epoll_state = final_state(&epoll, &progs, kill);
    epoll.shutdown();
    assert_eq!(chan, epoll_state, "kill + reconnect changed the final copy state");
    let in_process = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    let in_process_state = final_state(&in_process, &progs, kill);
    in_process.shutdown();
    assert_eq!(chan, in_process_state, "kill + reconnect changed the in-process copy state");
    assert!(chan.iter().any(|s| !s.is_empty()));
}

/// BackEdge's eager phase (cyclic placement) through the reactor: the
/// in-flight transaction parks while the eager round-trip completes, and
/// one at the special's target waits for its decision (without that
/// wait, this history had a cycle in four runs of ten).
#[test]
fn epoll_backedge_cyclic_matches_in_process() {
    let placement = cyclic_placement();
    let progs = programs(&placement, 20, 16);
    let chan_cluster = Cluster::start(&placement, RuntimeProtocol::BackEdge).unwrap();
    let chan = final_state(&chan_cluster, &progs, None);
    chan_cluster.shutdown();
    let epoll = epoll_cluster(&placement, RuntimeProtocol::BackEdge);
    let epoll_state = final_state(&epoll, &progs, None);
    let verdict = History::from_iter(epoll.history().expect("history")).check_serializability();
    epoll.shutdown();
    assert_eq!(chan, epoll_state, "BackEdge final copy state differs between deployments");
    verdict.expect("Theorem 4.1: BackEdge histories are serializable");
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

    ClusterHandle::quiesce(&cluster).expect("quiesce");
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
    assert!(matches!(read_msg(&mut conn), Err(ReadError::Io(_))));

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

/// `protocols.rs::dagt_conflicting_heads_queued_behind_a_dummy_converge`
/// on the TCP wire: chain3-like, every written item at s0 with copies
/// at s1 and s2, s1 committing nothing, two writers half a millisecond
/// apart whose updates conflict only with their own. s2 admits them
/// only under s1's dummies — sent once s1 has applied them, or at its
/// idle heartbeat — and all 600 must converge there in a serializable
/// history. (When s1's dummies came only every 2 ms, each released five
/// or more at once: the queue shape that wedged a replica under the
/// removed `--apply-pool`.)
#[test]
fn epoll_dagt_conflicting_heads_queued_behind_a_dummy_converge() {
    let mut placement = DataPlacement::new(3);
    let items: Vec<ItemId> =
        (0..14).map(|_| placement.add_item(SiteId(0), &[SiteId(1), SiteId(2)])).collect();
    placement.add_item(SiteId(1), &[SiteId(2)]);
    placement.add_item(SiteId(2), &[]);
    let cluster = epoll_cluster(&placement, RuntimeProtocol::DagT);
    std::thread::scope(|scope| {
        for w in 0..2usize {
            let (cluster, items) = (&cluster, &items);
            scope.spawn(move || {
                for i in 0..300usize {
                    let mut ops = vec![Op::write(items[7 * w], i as i64)];
                    ops.extend(
                        (0..3).map(|k| Op::write(items[7 * w + 1 + (3 * i + k) % 6], i as i64)),
                    );
                    cluster.execute(SiteId(0), ops).unwrap().unwrap();
                    std::thread::sleep(Duration::from_micros(500));
                }
            });
        }
    });
    ClusterHandle::quiesce(&cluster).expect("quiesce");
    for &item in &items {
        let primary = cluster.peek(SiteId(0), item).expect("primary readable");
        for s in [1u32, 2] {
            assert_eq!(cluster.peek(SiteId(s), item), Some(primary.clone()), "{item:?} at s{s}");
        }
    }
    assert_eq!(cluster.committed_count().expect("stats"), 600);
    assert!(
        History::from_iter(cluster.history().expect("history")).check_serializability().is_ok(),
        "DAG(T) live history is not 1SR"
    );
    cluster.shutdown();
}

/// `LaunchOptions::{link_batch, apply_pool}` outlived the flags they
/// forwarded (the benchmark package sets them): any value but `None` or
/// `Some(1)` — `Some(0)` included — is refused before anything is
/// spawned (the `repld` path here does not exist, so a spawn attempt
/// would be `NotFound`), and the values that ask for nothing launch.
#[test]
fn removed_batching_knobs_are_refused_before_any_child_is_spawned() {
    let placement = dag_placement();
    for options in [
        LaunchOptions { apply_pool: Some(4), ..LaunchOptions::default() },
        LaunchOptions { link_batch: Some(8), ..LaunchOptions::default() },
        LaunchOptions { apply_pool: Some(0), ..LaunchOptions::default() },
        LaunchOptions { link_batch: Some(0), ..LaunchOptions::default() },
    ] {
        let err = ProcCluster::launch_with_options(
            Path::new("/nonexistent/repld"),
            &placement,
            RuntimeProtocol::DagWt,
            &options,
        )
        .err()
        .expect("refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("removed in PR 23"), "{err}");
    }
    let unset = LaunchOptions { link_batch: Some(1), apply_pool: Some(1), ..Default::default() };
    let cluster =
        ProcCluster::launch_with_options(repld(), &placement, RuntimeProtocol::DagWt, &unset)
            .expect("Some(1) is the serial site: launches");
    cluster.execute(SiteId(0), vec![Op::write(ItemId(0), 3)]).unwrap().unwrap();
    cluster.shutdown();
}

/// An eager timeout of 0 in `LaunchOptions` is refused like the flag it
/// becomes, before anything is spawned (the `repld` path here does not
/// exist, so a spawn attempt would be `NotFound`).
#[test]
fn zero_eager_timeout_is_refused_before_any_child_is_spawned() {
    let options = LaunchOptions { eager_timeout_ms: Some(0), ..LaunchOptions::default() };
    let err = ProcCluster::launch_with_options(
        Path::new("/nonexistent/repld"),
        &cyclic_placement(),
        RuntimeProtocol::BackEdge,
        &options,
    )
    .err()
    .expect("refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("--eager-timeout-ms must be at least 1"), "{err}");
}

/// A nemesis plan with a drop probability over 1000 ‰ is refused like
/// the flag it becomes, before anything is spawned.
#[test]
fn out_of_range_nemesis_is_refused_before_any_child_is_spawned() {
    let plan = NetFaultPlan::seeded(1).drop_frames(1500);
    let options = LaunchOptions { nemesis: Some(plan.to_spec()), ..LaunchOptions::default() };
    let err = ProcCluster::launch_with_options(
        Path::new("/nonexistent/repld"),
        &cyclic_placement(),
        RuntimeProtocol::BackEdge,
        &options,
    )
    .err()
    .expect("refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("1500 is more than 1000 permille"), "{err}");
}

/// A group-commit batch of 0 in `LaunchOptions` is refused like the
/// flag it becomes, before anything is spawned.
#[test]
fn zero_group_commit_is_refused_before_any_child_is_spawned() {
    let options = LaunchOptions { group_commit: Some(0), ..LaunchOptions::default() };
    let err = ProcCluster::launch_with_options(
        Path::new("/nonexistent/repld"),
        &cyclic_placement(),
        RuntimeProtocol::BackEdge,
        &options,
    )
    .err()
    .expect("refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("--group-commit must be at least 1"), "{err}");
}

/// DAG(WT) over a cyclic copy graph is refused by the routing check
/// every child would run, before anything is spawned, rather than by
/// each child exiting 2 before it announces an address.
#[test]
fn a_cyclic_copy_graph_under_dag_wt_is_refused_before_any_child_is_spawned() {
    let err = ProcCluster::launch_with_options(
        Path::new("/nonexistent/repld"),
        &cyclic_placement(),
        RuntimeProtocol::DagWt,
        &LaunchOptions::default(),
    )
    .err()
    .expect("refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("copy graph is cyclic"), "{err}");
}

/// `repld` itself refuses the removed flags at startup: exit 2 and one
/// message that names both removals, from `repld` and the simulator.
#[test]
fn repld_refuses_the_removed_batching_flags() {
    for flag in ["--link-batch", "--apply-pool"] {
        let out = std::process::Command::new(repld()).args([flag, "8"]).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{flag} was removed in PR 23")), "{flag}: {stderr}");
        assert!(stderr.contains("from the simulator in PR 33"), "{flag}: {stderr}");
    }
}

/// `repld` resolves no host name: a `--listen` or `--peer` address that
/// is not an IP and a port is refused before any socket opens, exit 2,
/// with the address named.
#[test]
fn repld_refuses_a_host_name_for_an_address() {
    let site = ["--site", "0", "--protocol", "dagwt", "--placement", "2|0:1*4|1*4"];
    for (args, named) in [
        (vec!["--listen", "localhost:0"], "localhost:0"),
        (
            vec![
                "--listen",
                "127.0.0.1:0",
                "--peer",
                "0=127.0.0.1:7100",
                "--peer",
                "1=localhost:7101",
            ],
            "localhost:7101",
        ),
    ] {
        let out = std::process::Command::new(repld()).args(site).args(&args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: a banner was printed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named) && stderr.contains("not an IP address"), "{stderr}");
    }
}

/// A peer built before the removal advertises versions 1..=2 and may
/// hold a `Batch` frame: the handshake settles on 1, and a `Batch` frame
/// sent anyway closes the link unapplied. The test poses as s0 dialing
/// s1 (which supersedes s0's real link, so s0 re-dials); had the two
/// payloads been taken as sequences 1 and 2, s0's own first frames would
/// be dropped as duplicates and the write below would never reach s1.
#[test]
fn epoll_batch_frame_on_a_peer_link_closes_it_and_the_fleet_reconverges() {
    let placement = dag_placement();
    let cluster = epoll_cluster(&placement, RuntimeProtocol::DagWt);
    let dial = || {
        let link = TcpStream::connect(&cluster.addrs()[1]).unwrap();
        link.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        link
    };
    let hello = encode_framed(&WireMsg::Hello(Hello {
        site: SiteId(0),
        version_min: 1,
        version_max: 2,
        cluster: cluster_fingerprint(placement.per_item_spec(), RuntimeProtocol::DagWt.name()),
    }));

    let mut link = dial();
    link.write_all(&hello).unwrap();
    match read_msg(&mut link).expect("handshake reply") {
        WireMsg::HelloAck(ack) => assert_eq!((ack.version, ack.resume_seq), (1, 0)),
        other => panic!("expected HelloAck, got {}", other.kind_name()),
    }

    // Hello and Batch in one write, so s1 reads both on one pass: the
    // link is closed on the Batch before the HelloAck queued for it is
    // flushed, and the first thing this end sees is the end of the
    // stream — at once, not at the read timeout.
    let abort = |seq| Payload::Decision { gid: GlobalTxnId::new(SiteId(0), seq), commit: false };
    let batch = WireMsg::Batch { first_seq: 1, payloads: vec![abort(901), abort(902)] };
    let mut bytes = hello.to_vec();
    bytes.extend_from_slice(&encode_framed(&batch));
    let mut link = dial();
    link.write_all(&bytes).unwrap();
    match read_msg(&mut link) {
        Err(ReadError::Io(e)) => assert!(
            !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "the link stayed open after a Batch frame"
        ),
        other => panic!("expected the link to close, got {other:?}"),
    }

    cluster.execute(SiteId(0), vec![Op::write(ItemId(0), 77)]).unwrap().unwrap();
    ClusterHandle::quiesce(&cluster).expect("quiesce after the re-dial");
    for s in [1u32, 2] {
        let cell = cluster.peek(SiteId(s), ItemId(0)).expect("replica readable");
        assert_eq!(cell.0, Value::int(77), "site {s}");
    }
    cluster.shutdown();
}

/// A `Peers` push naming a site outside the placement, or a host name
/// instead of an IP address, is refused whole, with the culprit named,
/// before any entry changes: a push that would also have moved s1's
/// address leaves it where it was, so the link s0 re-dials after a kill
/// reaches the real s1, and the fleet commits and converges.
#[test]
fn epoll_refuses_a_peers_push_naming_a_site_outside_the_placement() {
    let placement = dag_placement();
    let cluster = epoll_cluster(&placement, RuntimeProtocol::DagWt);
    let nowhere = "127.0.0.1:1".to_string();
    let host = "localhost:7101".to_string();
    let mut conn = TcpStream::connect(&cluster.addrs()[0]).unwrap();
    for (push, named) in [
        (vec![(SiteId(9), nowhere.clone())], "s9"),
        (vec![(SiteId(1), nowhere.clone()), (SiteId(9), nowhere.clone())], "s9"),
        (vec![(SiteId(1), nowhere.clone()), (SiteId(2), host.clone())], "localhost:7101"),
    ] {
        write_msg(&mut conn, &WireMsg::Client(ClientMsg::Peers(push))).unwrap();
        match read_msg(&mut conn).expect("reply") {
            WireMsg::Reply(ClientReply::Err(msg)) => assert!(msg.contains(named), "{msg}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
    }
    cluster.kill_conn(SiteId(0), SiteId(1)).unwrap();
    cluster.execute(SiteId(0), vec![Op::write(ItemId(0), 12)]).unwrap().unwrap();
    ClusterHandle::quiesce(&cluster).expect("quiesce");
    for s in [1u32, 2] {
        assert_eq!(cluster.peek(SiteId(s), ItemId(0)).map(|c| c.0), Some(Value::int(12)), "s{s}");
    }
    cluster.shutdown();
}

/// `pending_deliveries` on a `repld` fleet, read through the sites'
/// `Stats` link marks: while a nemesis cuts s0 → s1, an update s0
/// commits is sent toward s1 and not applied there; at the heal the
/// link writes it from where its cursor stopped, and once the fleet is
/// quiescent nothing is pending anywhere.
#[test]
fn epoll_pending_deliveries_count_a_cut_link_until_the_heal() {
    const CUT_MS: u64 = 2_000;
    let plan = NetFaultPlan::seeded(0x0C07).oneway(SiteId(0), SiteId(1), 0, CUT_MS);
    let launch = LaunchOptions { nemesis: Some(plan.to_spec()), ..LaunchOptions::default() };
    let start = Instant::now();
    let cluster = ProcCluster::launch_with_options(
        repld(),
        &dag_placement(),
        RuntimeProtocol::DagWt,
        &launch,
    )
    .unwrap();
    cluster.execute(SiteId(0), vec![Op::write(ItemId(0), 5)]).unwrap().unwrap();
    let pending = cluster.pending_deliveries(SiteId(1)).unwrap();
    assert!(start.elapsed() < Duration::from_millis(CUT_MS), "the cut healed before the check");
    assert!(pending > 0, "nothing pending toward the cut destination");

    ClusterHandle::quiesce(&cluster).expect("quiesce after the heal");
    for s in 0..3 {
        assert_eq!(cluster.pending_deliveries(SiteId(s)).unwrap(), 0, "s{s}");
    }
    assert_eq!(cluster.peek(SiteId(1), ItemId(0)).map(|c| c.0), Some(Value::int(5)));
    cluster.shutdown();
}

/// A `repld` child a failing test still kills.
struct Child(std::process::Child);

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `repld` with `args`, and read its banner: the site it says it
/// is, and the address it listens on.
fn spawn_repld(args: &[&str]) -> (Child, String) {
    let mut child = std::process::Command::new(repld())
        .args(args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn repld");
    let stdout = child.stdout.take().expect("stdout piped");
    let child = Child(child);
    let mut banner = String::new();
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut banner).unwrap();
    let banner = banner.trim().strip_prefix("repld: ").expect("banner").to_string();
    (child, banner)
}

/// One request on a client session, and its reply.
fn request(conn: &mut TcpStream, msg: ClientMsg) -> ClientReply {
    write_msg(conn, &WireMsg::Client(msg)).unwrap();
    match read_msg(conn).unwrap() {
        WireMsg::Reply(reply) => reply,
        other => panic!("expected a reply, got {other:?}"),
    }
}

/// Write a config file into the test's scratch directory.
fn config_file(name: &str, text: &str) -> String {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.toml"));
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

/// A site booted from a TOML file alone announces itself and serves a
/// client session: an update, an all-read transaction (the MVCC path
/// the file turns on) and `Stats`, under group commit.
#[test]
fn repld_boots_from_a_config_file_alone() {
    let path = config_file(
        "repld-config-alone",
        "site = 0\nlisten = \"127.0.0.1:0\"\nprotocol = \"dagwt\"\n\
         placement = \"1|0*16\"\nmvcc = true\ngroup_commit = 4\n",
    );
    let (mut child, banner) = spawn_repld(&["--config", &path]);
    let addr = banner.strip_prefix("site 0 listening on ").expect(&banner).to_string();
    let mut conn = TcpStream::connect(&addr).unwrap();
    for ops in [vec![Op::write(ItemId(3), 7)], vec![Op::read(ItemId(3))]] {
        let reply = request(&mut conn, ClientMsg::Execute(ops));
        assert!(matches!(reply, ClientReply::Executed(Ok(_))), "{reply:?}");
    }
    match request(&mut conn, ClientMsg::Stats) {
        ClientReply::Stats { committed, decode_errors, .. } => {
            assert_eq!((committed, decode_errors), (2, 0));
        }
        other => panic!("expected stats, got {other:?}"),
    }
    assert_eq!(request(&mut conn, ClientMsg::Shutdown), ClientReply::Ok);
    assert!(child.0.wait().unwrap().success());
}

/// A flag overrides the file's key: the file says site 1, `--site 0`
/// wins, and the site takes writes to the items whose primary is s0.
#[test]
fn repld_flag_overrides_its_config_file() {
    let path = config_file(
        "repld-config-override",
        "site = 1\nlisten = \"127.0.0.1:0\"\nprotocol = \"dagwt\"\n\
         placement = \"2|0:1*4|1*4\"\n",
    );
    let (mut child, banner) = spawn_repld(&["--config", &path, "--site", "0"]);
    let addr = banner.strip_prefix("site 0 listening on ").expect(&banner).to_string();
    let mut conn = TcpStream::connect(&addr).unwrap();
    let reply = request(&mut conn, ClientMsg::Execute(vec![Op::write(ItemId(0), 1)]));
    assert!(matches!(reply, ClientReply::Executed(Ok(_))), "{reply:?}");
    assert_eq!(request(&mut conn, ClientMsg::Shutdown), ClientReply::Ok);
    assert!(child.0.wait().unwrap().success());
}

/// `repld --help` is an answer, not an error: the usage text on stdout
/// and exit 0.
#[test]
fn repld_help_prints_usage_and_exits_zero() {
    let out = std::process::Command::new(repld()).arg("--help").output().expect("run");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: repld [--config FILE]"), "{stdout}");
    assert!(out.stderr.is_empty());
}
