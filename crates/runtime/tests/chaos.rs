//! Nemesis regression tests: partition tolerance of the live runtime.
//!
//! Two failure modes the fault-free suites can never reach:
//!
//! - A BackEdge transaction parked in its eager phase while the special
//!   is marooned behind a partition. Before the eager deadline existed,
//!   the client hung forever; now the runtime aborts the transaction
//!   with a typed error, and the late special is tombstone-dropped
//!   after the heal so it can never resurrect the aborted gid.
//! - A sustained partition backing up a per-link outbox. Admission
//!   control refuses new writes with a typed backpressure error once
//!   the lane passes its high-water mark, so memory stays bounded no
//!   matter how long the partition lasts.
//! - An ack a cut withholds. Nothing on a live connection is ever sent
//!   twice, so no later frame provokes the ack again: the receiver keeps
//!   it owed and sends it at the heal, or the sender's lane never empties.
#![expect(clippy::disallowed_methods, reason = "a test paces a live fleet by the wall clock")]

use std::path::Path;
use std::time::Duration;

use repl_copygraph::DataPlacement;
use repl_core::history::History;
use repl_runtime::{
    Cluster, ClusterError, ClusterHandle, LaunchOptions, NetFaultPlan, ProcCluster, RuntimeOptions,
    RuntimeProtocol, Tuning,
};
use repl_types::{ItemId, Op, SiteId};

/// Three sites with the backedge 2 → 0: a write at site 2 to item 2
/// (replicated at its tree ancestor, site 0) must run BackEdge's eager
/// special phase before it may commit.
fn cyclic_placement() -> DataPlacement {
    let mut p = DataPlacement::new(3);
    p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
    p.add_item(SiteId(1), &[SiteId(2)]);
    p.add_item(SiteId(2), &[SiteId(0)]);
    p
}

/// Three sites, forward edges only: 0 → {1,2}, 1 → 2.
fn fan_placement() -> DataPlacement {
    let mut p = DataPlacement::new(3);
    p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
    p.add_item(SiteId(1), &[SiteId(2)]);
    p.add_item(SiteId(0), &[SiteId(2)]);
    p.add_item(SiteId(2), &[]);
    p
}

/// Partition the far site mid-eager-phase: the special cannot reach its
/// tree ancestor, the armed deadline fires, and the client gets a typed
/// abort instead of hanging forever. After the heal the same write
/// succeeds, the cluster converges, and the aborted gid is nowhere —
/// not a writer of any copy, not in the committed history, and the
/// history is one-copy serializable.
#[test]
fn eager_phase_partition_aborts_and_heals() {
    let placement = cyclic_placement();
    let options = RuntimeOptions {
        tuning: Tuning { eager_timeout: Duration::from_millis(150), ..Tuning::LIVE },
        nemesis: Some(NetFaultPlan::seeded(0x00EA_9E12).partition(SiteId(0), SiteId(2), 0, 600)),
        ..RuntimeOptions::default()
    };
    let cluster =
        Cluster::start_with(&placement, RuntimeProtocol::BackEdge, options).expect("start");

    // Mid-partition: the special toward site 0 is black-holed.
    let aborted = match cluster.execute(SiteId(2), vec![Op::write(ItemId(2), 1)]) {
        Err(ClusterError::EagerTimeout(gid)) => gid,
        other => panic!("expected an eager-timeout abort, got {other:?}"),
    };

    // Heal, then retry: the eager phase now completes.
    std::thread::sleep(Duration::from_millis(700));
    let committed =
        cluster.execute(SiteId(2), vec![Op::write(ItemId(2), 2)]).expect("post-heal commit").gid;
    assert_ne!(aborted, committed);

    let handle: &dyn ClusterHandle = &cluster;
    handle.quiesce().expect("quiesce");

    // Convergence: both copies of item 2 carry the post-heal write, and
    // the aborted gid is not the writer of any copy anywhere.
    for site in [SiteId(2), SiteId(0)] {
        let (value, writer) = handle.peek(site, ItemId(2)).expect("copy exists");
        assert_eq!(value.as_int(), Some(2), "site {site} copy diverged");
        assert_eq!(writer, Some(committed), "site {site} writer diverged");
    }

    // The aborted transaction must not have reached the history, and
    // what did reach it must be one-copy serializable.
    let history = History::from_iter(handle.history().expect("history"));
    assert!(history.txns().iter().all(|t| t.gid != aborted), "aborted gid leaked into history");
    assert!(history.txns().iter().any(|t| t.gid == committed), "post-heal commit missing");
    history.check_serializability().expect("history serializes");

    cluster.shutdown();
}

/// [`eager_phase_partition_aborts_and_heals`] on a `repld` fleet, where
/// the abort crosses the wire: the client gets the same typed
/// [`ClusterError::EagerTimeout`], not an untyped I/O error.
#[test]
fn eager_phase_partition_aborts_and_heals_on_repld() {
    let plan = NetFaultPlan::seeded(0x00EA_9E12).partition(SiteId(0), SiteId(2), 0, 600);
    let launch = LaunchOptions {
        nemesis: Some(plan.to_spec()),
        eager_timeout_ms: Some(150),
        ..LaunchOptions::default()
    };
    let repld = Path::new(env!("CARGO_BIN_EXE_repld"));
    let cluster = ProcCluster::launch_with_options(
        repld,
        &cyclic_placement(),
        RuntimeProtocol::BackEdge,
        &launch,
    )
    .expect("launch");
    let handle: &dyn ClusterHandle = &cluster;

    let aborted = match handle.execute(SiteId(2), vec![Op::write(ItemId(2), 1)]) {
        Err(ClusterError::EagerTimeout(gid)) => gid,
        other => panic!("expected an eager-timeout abort, got {other:?}"),
    };
    std::thread::sleep(Duration::from_millis(700));
    let committed =
        handle.execute(SiteId(2), vec![Op::write(ItemId(2), 2)]).expect("post-heal commit");
    assert_ne!(aborted, committed);
    handle.quiesce().expect("quiesce");
    for site in [SiteId(2), SiteId(0)] {
        let (value, writer) = handle.peek(site, ItemId(2)).expect("copy exists");
        assert_eq!((value.as_int(), writer), (Some(2), Some(committed)), "site {site}");
    }
    let history = History::from_iter(handle.history().expect("history"));
    assert!(history.txns().iter().all(|t| t.gid != aborted), "aborted gid leaked into history");
    assert!(history.txns().iter().any(|t| t.gid == committed), "post-heal commit missing");
    history.check_serializability().expect("history serializes");
    cluster.shutdown();
}

/// A partition that never heals: commits that would cross it are
/// refused with a typed backpressure error once the outbox passes the
/// high-water mark, and the queue stays near that mark no matter how
/// many more writes are attempted.
#[test]
fn sustained_partition_bounds_outbox() {
    const HIGH_WATER: usize = 32;
    let placement = fan_placement();
    let options = RuntimeOptions {
        outbox_high_water: HIGH_WATER,
        nemesis: Some(NetFaultPlan::seeded(0xB0B0).partition(SiteId(0), SiteId(1), 0, 600_000)),
        ..RuntimeOptions::default()
    };
    let cluster = Cluster::start_with(&placement, RuntimeProtocol::DagWt, options).expect("start");

    // Fill the lane toward the unreachable peer until admission control
    // pushes back. Every accepted write commits locally (DagWt is lazy)
    // and parks one frame in the outbox to site 1.
    let mut accepted = 0u64;
    let mut refusal = None;
    for i in 0..10 * HIGH_WATER as i64 {
        match cluster.execute(SiteId(0), vec![Op::write(ItemId(0), i)]) {
            Ok(_) => accepted += 1,
            Err(ClusterError::Backpressure { peer, queued }) => {
                refusal = Some((peer, queued));
                break;
            }
            Err(other) => panic!("unexpected error under partition: {other:?}"),
        }
    }
    let (peer, queued) = refusal.expect("no backpressure after 10x high-water writes");
    assert_eq!(peer, SiteId(1), "backpressure names the partitioned peer");
    assert!(queued >= HIGH_WATER as u64, "refused below the high-water mark ({queued})");
    assert!(accepted >= 1, "nothing committed before the mark");

    // Keep hammering: every further write is refused and the queue does
    // not grow past the mark plus a small in-flight slack (a reconnect
    // and heartbeats re-enqueue nothing — the outbox is the only copy).
    let mut last_queued = queued;
    for i in 0..100 {
        match cluster.execute(SiteId(0), vec![Op::write(ItemId(0), 1_000 + i)]) {
            Err(ClusterError::Backpressure { queued, .. }) => last_queued = queued,
            other => panic!("expected sustained backpressure, got {other:?}"),
        }
    }
    assert!(
        last_queued <= (HIGH_WATER as u64) * 4,
        "outbox grew without bound under refusal: {last_queued}"
    );

    // No quiesce: the partition never heals, so undelivered frames are
    // deliberately still parked. Shutdown must cope with that.
    cluster.shutdown();
}

/// A one-way cut in the ack direction only (s1 → s0) while s0 commits
/// once, and no traffic after the heal: s1 applies the update inside the
/// cut and owes s0 the ack, so s0 sees s1 suspect (its lane waits on an
/// ack); after the heal plus `DOWN_AFTER` (1 s), s0 sees every peer up,
/// because the ack went at the heal and emptied the lane.
#[test]
fn an_ack_a_cut_withholds_goes_at_the_heal() {
    const CUT_MS: u64 = 600;
    let start = std::time::Instant::now();
    let options = RuntimeOptions {
        nemesis: Some(NetFaultPlan::seeded(0xAC4).oneway(SiteId(1), SiteId(0), 0, CUT_MS)),
        ..RuntimeOptions::default()
    };
    let cluster =
        Cluster::start_with(&fan_placement(), RuntimeProtocol::DagWt, options).expect("start");
    let handle: &dyn ClusterHandle = &cluster;
    handle.execute(SiteId(0), vec![Op::write(ItemId(0), 7)]).expect("commit");
    handle.quiesce().expect("applied at s1 and s2");
    assert_eq!(handle.peek(SiteId(1), ItemId(0)).map(|c| c.0.as_int()), Some(Some(7)));

    std::thread::sleep(Duration::from_millis(400).saturating_sub(start.elapsed()));
    let stats = handle.stats(SiteId(0)).expect("stats");
    assert!(start.elapsed() < Duration::from_millis(CUT_MS), "the cut healed before the check");
    assert_eq!((stats.peers_up, stats.peers_suspect), (1, 1), "s1's ack crossed the cut");

    std::thread::sleep(Duration::from_millis(CUT_MS + 1_200).saturating_sub(start.elapsed()));
    let stats = handle.stats(SiteId(0)).expect("stats");
    assert_eq!((stats.peers_up, stats.peers_suspect, stats.peers_down), (2, 0, 0));
    cluster.shutdown();
}
