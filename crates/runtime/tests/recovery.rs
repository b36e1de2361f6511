//! Crash-recovery over the threaded runtime: snapshot-replay equality
//! and *live* crash/rejoin equivalence against an uncrashed control.

use repl_copygraph::DataPlacement;
use repl_core::scenario;
use repl_runtime::{Cluster, RuntimeProtocol};
use repl_storage::{recover, WriteAheadLog};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

#[test]
fn site_recovers_from_wal_snapshot() {
    let placement = scenario::example_1_1_placement();
    let cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    let a = ItemId(0);
    let b = ItemId(1);

    for v in 1..=30i64 {
        cluster.execute(SiteId(0), vec![Op::write(a, v)]).unwrap();
        if v % 3 == 0 {
            cluster.execute(SiteId(1), vec![Op::read(a), Op::write(b, 100 + v)]).unwrap();
        }
    }
    cluster.quiesce();

    // "Crash" s2 (the pure replica site): rebuild it from its item set
    // at the initial values plus its redo-log image.
    let image = cluster.snapshot_wal(SiteId(2)).expect("snapshot");
    let wal = WriteAheadLog::decode(image).expect("valid image");
    assert!(!wal.is_empty(), "s2 applied secondaries");
    let boot = placement.items_at(SiteId(2)).iter().map(|&i| (i, Value::Initial));
    let recovered = recover(boot, &wal);
    for &item in placement.items_at(SiteId(2)) {
        let live = cluster.peek(SiteId(2), item).unwrap();
        let rec = recovered.peek(item).unwrap();
        assert_eq!((rec.value, rec.writer), live, "{item} differs after recovery");
    }
    cluster.shutdown();
}

#[test]
fn primary_site_wal_contains_its_commits() {
    let placement = scenario::example_1_1_placement();
    let cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    for v in 1..=5i64 {
        cluster.execute(SiteId(0), vec![Op::write(ItemId(0), v)]).unwrap();
    }
    cluster.quiesce();
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
        assert!(faulted.check_serializability().is_ok(), "{protocol:?}");
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
