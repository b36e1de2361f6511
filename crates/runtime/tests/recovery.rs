//! Crash-recovery over the threaded runtime: snapshot-replay equality
//! and *live* crash/rejoin equivalence against an uncrashed control.
#![expect(clippy::disallowed_methods, reason = "a test paces a live fleet by the wall clock")]

use std::num::NonZeroUsize;

use repl_copygraph::DataPlacement;
use repl_core::scenario;
use repl_core::History;
use repl_runtime::{Cluster, ClusterHandle, RuntimeOptions, RuntimeProtocol, Tuning};
use repl_storage::{recover, WriteAheadLog, SEGMENT_BYTES};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

#[test]
fn site_recovers_from_wal_snapshot() {
    let placement = scenario::example_1_1_placement();
    let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    let a = ItemId(0);
    let b = ItemId(1);

    for v in 1..=30i64 {
        cluster.execute(SiteId(0), vec![Op::write(a, v)]).unwrap();
        if v % 3 == 0 {
            cluster.execute(SiteId(1), vec![Op::read(a), Op::write(b, 100 + v)]).unwrap();
        }
    }
    cluster.quiesce();
    let items = placement.items_at(SiteId(2));
    let live: Vec<_> = items.iter().map(|&item| cluster.peek(SiteId(2), item).unwrap()).collect();

    // Crash s2 (the pure replica site) and rebuild it from its item set
    // at the initial values plus the redo-log image it parked.
    cluster.crash(SiteId(2)).unwrap();
    let image = cluster.snapshot_wal(SiteId(2)).expect("snapshot");
    let wal = WriteAheadLog::decode(image).expect("valid image");
    assert!(!wal.is_empty(), "s2 applied secondaries");
    let boot = items.iter().map(|&i| (i, Value::Initial, None));
    let recovered = recover(boot, &wal);
    for (&item, live) in items.iter().zip(&live) {
        let rec = recovered.peek(item).unwrap();
        assert_eq!(&(rec.value, rec.writer), live, "{item} differs after recovery");
    }
    // A running site has no image to snapshot.
    cluster.restart(SiteId(2)).unwrap();
    assert_eq!(cluster.snapshot_wal(SiteId(2)), None);
    cluster.shutdown();
}

#[test]
fn primary_site_wal_contains_its_commits() {
    let placement = scenario::example_1_1_placement();
    let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    for v in 1..=5i64 {
        cluster.execute(SiteId(0), vec![Op::write(ItemId(0), v)]).unwrap();
    }
    cluster.quiesce();
    cluster.crash(SiteId(0)).unwrap();
    let wal = WriteAheadLog::decode(cluster.snapshot_wal(SiteId(0)).unwrap()).unwrap();
    assert_eq!(wal.len(), 5);
    // Records are in commit order with ascending sequence numbers.
    let seqs: Vec<u64> = wal.records().map(|r| r.writer.seq).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(seqs, sorted);
    cluster.shutdown();
}

/// The 5-site forward-edge placement shared with the threaded tests.
fn dag_placement() -> DataPlacement {
    let mut p = DataPlacement::new(5);
    for i in 0..30u32 {
        let primary = SiteId(i % 5);
        let replicas: Vec<SiteId> =
            (primary.0 + 1..5).filter(|s| (i + s) % 2 == 0).map(SiteId).collect();
        p.add_item(primary, &replicas);
    }
    p
}

/// A deterministic three-phase write schedule, identical across
/// clusters: each site commits to every primary it owns, with values
/// salted by phase so lost updates are distinguishable.
fn run_phase(cluster: &Cluster, placement: &DataPlacement, phase: i64, skip: Option<SiteId>) {
    for round in 0..4i64 {
        for s in 0..placement.num_sites() {
            let site = SiteId(s);
            if Some(site) == skip {
                continue;
            }
            for &item in placement.primaries_at(site) {
                let value = phase * 1_000_000 + round * 1_000 + item.0 as i64;
                cluster.execute(site, vec![Op::write(item, value)]).unwrap();
            }
        }
    }
}

/// Every copy at every site, as one comparable state vector.
fn copy_state(cluster: &Cluster, placement: &DataPlacement) -> Vec<(Value, Option<GlobalTxnId>)> {
    let mut out = Vec::new();
    for s in 0..placement.num_sites() {
        let site = SiteId(s);
        for &item in placement.items_at(site) {
            out.push(cluster.peek(site, item).expect("copy exists"));
        }
    }
    out
}

/// The live-rejoin equivalence check: a cluster that crashes and
/// restarts a site mid-workload must converge to the *byte-identical*
/// copy state (values and writer ids) of a never-crashed control
/// cluster running the same schedule — WAL replay plus outbox
/// retransmission must hide the crash completely.
#[test]
fn live_crash_rejoin_matches_uncrashed_control() {
    let placement = dag_placement();
    for protocol in [RuntimeProtocol::DagWt, RuntimeProtocol::NaiveLazy] {
        let control = Cluster::start(&placement, protocol).unwrap();
        let mut faulted = Cluster::start(&placement, protocol).unwrap();
        let victim = SiteId(2);

        // Phase 1: both clusters run the same schedule, fault-free.
        run_phase(&control, &placement, 1, None);
        run_phase(&faulted, &placement, 1, None);

        // Phase 2: the victim is down in the faulted cluster; every
        // other site keeps committing (the victim's own primaries sit
        // the phase out in both clusters so histories stay parallel).
        faulted.crash(victim).unwrap();
        run_phase(&control, &placement, 2, Some(victim));
        run_phase(&faulted, &placement, 2, Some(victim));

        // Phase 3: rejoin, then both clusters finish the schedule.
        faulted.restart(victim).unwrap();
        run_phase(&control, &placement, 3, None);
        run_phase(&faulted, &placement, 3, None);

        control.quiesce();
        faulted.quiesce();
        assert_eq!(faulted.pending_deliveries(victim), 0, "{protocol:?}: outbox not drained");
        assert_eq!(faulted.committed_count(), control.committed_count(), "{protocol:?}");
        assert_eq!(
            copy_state(&faulted, &placement),
            copy_state(&control, &placement),
            "{protocol:?}: crashed-and-rejoined cluster diverged from control"
        );
        assert!(
            History::from_iter(faulted.history().unwrap()).check_serializability().is_ok(),
            "{protocol:?}"
        );
        control.shutdown();
        faulted.shutdown();
    }
}

/// Rejoin equivalence across checkpoint cuts. The victim applies enough
/// Table-1 updates (100 bytes of redo log each) before it crashes that
/// its log has been cut at least twice: what it restarts from is a
/// checkpoint plus a log suffix, not the whole log. It must still come
/// back byte-identical — values *and* writers, including copies last
/// written long before the cut — to a control that never crashed, keep
/// issuing the gids the control issues (`next_seq` survived) and apply
/// every parked delivery exactly once (`applied_from` survived), with
/// group commit off and on.
#[test]
fn crash_after_checkpoint_cuts_rejoins_identical_to_control() {
    const HOT: usize = 20;
    const UPDATES: usize = 1600; // 160 000 B of redo log at the victim
    let mut placement = DataPlacement::new(3);
    let replicas = [SiteId(1), SiteId(2)];
    let hot: Vec<ItemId> = (0..HOT).map(|_| placement.add_item(SiteId(0), &replicas)).collect();
    // Written once, by the first transaction: by the crash only the
    // checkpoint remembers who wrote them.
    let cold: Vec<ItemId> = (0..10).map(|_| placement.add_item(SiteId(0), &replicas)).collect();
    let own: Vec<ItemId> = (0..10).map(|_| placement.add_item(SiteId(1), &[SiteId(2)])).collect();
    let victim = SiteId(1);

    // `n` Table-1 updates at s0 (6 reads, 4 writes over the hot items),
    // every tenth followed by a commit of the victim's own unless it is
    // sitting the phase out. Gids must match between the clusters.
    let run = |control: &Cluster, faulted: &Cluster, salt: i64, n: usize, victim_up: bool| {
        for k in 0..n {
            let at = |j: usize| hot[(k * 7 + j) % HOT];
            let ops: Vec<Op> = (0..6)
                .map(|j| Op::read(at(j)))
                .chain((6..10).map(|j| Op::write(at(j), salt + k as i64)))
                .collect();
            let c = control.execute(SiteId(0), ops.clone()).unwrap();
            let f = faulted.execute(SiteId(0), ops).unwrap();
            assert_eq!(c.gid, f.gid);
            if victim_up && k % 10 == 0 {
                let ops =
                    vec![Op::read(at(0)), Op::write(own[k / 10 % own.len()], salt + k as i64)];
                let c = control.execute(victim, ops.clone()).unwrap();
                let f = faulted.execute(victim, ops).unwrap();
                assert_eq!(c.gid, f.gid, "the restarted site re-issued or skipped a gid");
            }
        }
    };

    for group_commit_batch in [1, 8] {
        let group_commit_batch = NonZeroUsize::new(group_commit_batch).unwrap();
        let tuning = Tuning { group_commit_batch, ..Tuning::LIVE };
        let opts = || RuntimeOptions { tuning, ..RuntimeOptions::default() };
        let control = Cluster::start_with(&placement, RuntimeProtocol::DagWt, opts()).unwrap();
        let mut faulted = Cluster::start_with(&placement, RuntimeProtocol::DagWt, opts()).unwrap();
        let seed: Vec<Op> = hot.iter().chain(&cold).map(|&i| Op::write(i, -1)).collect();
        control.execute(SiteId(0), seed.clone()).unwrap();
        faulted.execute(SiteId(0), seed).unwrap();

        run(&control, &faulted, 1_000_000, UPDATES, true);
        faulted.quiesce();
        faulted.crash(victim).unwrap();
        // The victim applied more than two segments of redo log and
        // holds at most one: it checkpointed and cut at least twice.
        const { assert!(UPDATES * 100 > 2 * SEGMENT_BYTES) };
        let resident = WriteAheadLog::decode(faulted.snapshot_wal(victim).unwrap()).unwrap();
        assert!(resident.encoded_len() <= SEGMENT_BYTES, "batch {group_commit_batch}: log not cut");

        run(&control, &faulted, 2_000_000, 300, false);
        assert!(faulted.pending_deliveries(victim) > 0, "nothing parked for the crashed site");
        faulted.restart(victim).unwrap();
        run(&control, &faulted, 3_000_000, 300, true);

        control.quiesce();
        faulted.quiesce();
        // Quiescent means applied; the last acknowledgement may still be
        // on its way back to the sender's outbox.
        let acked = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while faulted.pending_deliveries(victim) > 0 && std::time::Instant::now() < acked {
            std::thread::yield_now();
        }
        assert_eq!(faulted.pending_deliveries(victim), 0, "batch {group_commit_batch}");
        assert_eq!(faulted.committed_count(), control.committed_count());
        for s in 0..3 {
            assert_eq!(
                faulted.copy_state(SiteId(s)).unwrap(),
                control.copy_state(SiteId(s)).unwrap(),
                "batch {group_commit_batch}: site {s} diverged from the uncrashed control"
            );
        }
        // The cold copies were restored from a checkpoint, writer and all.
        let first = GlobalTxnId::new(SiteId(0), 0);
        assert_eq!(faulted.peek(victim, cold[0]).unwrap(), (Value::int(-1), Some(first)));
        assert!(History::from_iter(faulted.history().unwrap()).check_serializability().is_ok());
        control.shutdown();
        faulted.shutdown();
    }
}

/// A restarted site must come back with its pre-crash committed state
/// (WAL replay), not a cold store.
#[test]
fn restart_replays_pre_crash_commits() {
    let placement = scenario::example_1_1_placement();
    let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    let a = ItemId(0);
    for v in 1..=10i64 {
        cluster.execute(SiteId(0), vec![Op::write(a, v)]).unwrap();
    }
    cluster.quiesce();
    cluster.crash(SiteId(2)).unwrap();
    cluster.restart(SiteId(2)).unwrap();
    let (value, writer) = cluster.peek(SiteId(2), a).unwrap();
    assert_eq!(value, Value::int(10), "replay lost committed state");
    assert!(writer.is_some());
    cluster.shutdown();
}
