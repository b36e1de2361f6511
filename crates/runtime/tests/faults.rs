//! Live fault injection on the threaded runtime: abrupt site crashes
//! lose queued messages, sender-side outboxes recover them, and the
//! cluster stays serializable and convergent throughout.
#![expect(clippy::disallowed_methods, reason = "a test paces a live fleet by the wall clock")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use repl_copygraph::DataPlacement;
use repl_runtime::{Cluster, ClusterError, RuntimeProtocol};
use repl_types::{Op, SiteId};

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

/// Updates addressed to a down site park in their senders' outboxes
/// (bounded backoff, no lost messages) and are retransmitted at
/// rejoin: afterwards every replica equals its primary.
#[test]
fn messages_to_a_down_site_are_parked_then_retransmitted() {
    for protocol in [RuntimeProtocol::DagWt, RuntimeProtocol::NaiveLazy] {
        let placement = dag_placement();
        let mut cluster = Cluster::start(&placement, protocol).unwrap();
        let victim = SiteId(2);
        cluster.crash(victim).unwrap();

        // Commit at every live site; everything routed at or through
        // the victim backs up in the outboxes.
        for round in 0..3i64 {
            for s in [0u32, 1, 3, 4] {
                let site = SiteId(s);
                for &item in placement.primaries_at(site) {
                    cluster.execute(site, vec![Op::write(item, round * 100 + s as i64)]).unwrap();
                }
            }
        }
        assert!(
            cluster.pending_deliveries(victim) > 0,
            "{protocol:?}: no traffic parked for the down site"
        );

        cluster.restart(victim).unwrap();
        cluster.quiesce();
        assert_eq!(cluster.pending_deliveries(victim), 0, "{protocol:?}: outbox not drained");
        for item in placement.items() {
            let primary = cluster.peek(placement.primary_of(item), item).unwrap();
            for &r in placement.replicas_of(item) {
                assert_eq!(cluster.peek(r, item).unwrap(), primary, "{protocol:?}: {item} at {r}");
            }
        }
        assert!(cluster.check_serializability().is_ok(), "{protocol:?}");
        cluster.shutdown();
    }
}

/// Repeated crash/rejoin cycles under concurrent client load: clients
/// at live sites never observe an error, the victim's clients see
/// `Disconnected` (at worst), and the final history is serializable
/// and convergent. This is the runtime analogue of the engine's
/// seeded fault matrix.
#[test]
fn concurrent_load_survives_repeated_crash_cycles() {
    let placement = dag_placement();
    let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    let victim = SiteId(2);
    let stop = Arc::new(AtomicBool::new(false));

    let mut workers = Vec::new();
    for s in [0u32, 1, 3, 4] {
        let site = SiteId(s);
        let client = cluster.client(site).unwrap();
        let placement = placement.clone();
        let stop = stop.clone();
        workers.push(std::thread::spawn(move || {
            let mut committed = 0u64;
            let primaries = placement.primaries_at(site).to_vec();
            while !stop.load(Ordering::Relaxed) {
                for &item in &primaries {
                    client
                        .execute(vec![Op::write(item, committed as i64)])
                        .expect("live-site client must never fail");
                    committed += 1;
                }
            }
            committed
        }));
    }

    for _ in 0..3 {
        std::thread::sleep(std::time::Duration::from_millis(10));
        cluster.crash(victim).unwrap();
        // The victim is unreachable while down.
        match cluster.execute(victim, vec![]) {
            Err(ClusterError::Disconnected) => {}
            other => panic!("expected Disconnected from the crashed site, got {other:?}"),
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        cluster.restart(victim).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let committed: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
    assert!(committed > 0);
    cluster.quiesce();

    assert_eq!(cluster.committed_count() as u64, committed);
    assert!(
        cluster.check_serializability().is_ok(),
        "DAG(WT) must stay serializable across crash/recovery cycles"
    );
    for item in placement.items() {
        let primary = cluster.peek(placement.primary_of(item), item).unwrap();
        for &r in placement.replicas_of(item) {
            assert_eq!(cluster.peek(r, item).unwrap(), primary, "{item} diverged at {r}");
        }
    }
    cluster.shutdown();
}

/// Dropping a cluster without shutdown — the test-panic path — must
/// join every thread promptly even with a crashed site and a backlog
/// of undelivered work still parked in the outboxes.
#[test]
fn drop_with_crashed_site_and_parked_traffic_joins_cleanly() {
    let placement = dag_placement();
    let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    cluster.crash(SiteId(2)).unwrap();
    for &item in placement.primaries_at(SiteId(0)) {
        cluster.execute(SiteId(0), vec![Op::write(item, 1)]).unwrap();
    }
    // No restart, no quiesce, no shutdown: Drop must not hang on the
    // wedged outstanding counter or the dead site.
    drop(cluster);
}
