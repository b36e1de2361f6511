//! Concurrency tests for the threaded runtime: real threads, real
//! scheduler, same serializability oracle as the simulator.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use repl_copygraph::DataPlacement;
use repl_core::scenario;
use repl_core::History;
use repl_runtime::{Cluster, ClusterHandle, RuntimeProtocol};
use repl_types::{ItemId, Op, SiteId, Value};

/// A 5-site forward-edge placement with a reasonable item count.
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

fn random_txn(
    rng: &mut StdRng,
    placement: &DataPlacement,
    site: SiteId,
    counter: &mut i64,
) -> Vec<Op> {
    let readable = placement.items_at(site);
    let writable = placement.primaries_at(site);
    (0..6)
        .map(|_| {
            if rng.random::<f64>() < 0.6 || writable.is_empty() {
                Op::read(readable[rng.random_range(0..readable.len())])
            } else {
                *counter += 1;
                Op::write(writable[rng.random_range(0..writable.len())], *counter)
            }
        })
        .collect()
}

/// Theorem 2.1 on real threads: concurrent clients at every site, real
/// scheduler interleavings, serializable every time.
#[test]
fn dag_wt_concurrent_clients_serializable() {
    let placement = dag_placement();
    let cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();

    let mut workers = Vec::new();
    for site_idx in 0..placement.num_sites() {
        let site = SiteId(site_idx);
        let client = cluster.client(site).unwrap();
        let placement = placement.clone();
        workers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(site_idx as u64);
            let mut counter = (site_idx as i64 + 1) * 1_000_000;
            for _ in 0..200 {
                let ops = random_txn(&mut rng, &placement, site, &mut counter);
                client.execute(ops).expect("execute");
            }
        }));
    }
    for w in workers {
        w.join().expect("worker");
    }
    cluster.quiesce();

    assert_eq!(cluster.committed_count(), 5 * 200);
    assert!(
        History::from_iter(cluster.history().unwrap()).check_serializability().is_ok(),
        "DAG(WT) must be serializable on a real scheduler"
    );
    // Convergence: replicas equal primaries after quiescence.
    for item in placement.items() {
        let primary = cluster.peek(placement.primary_of(item), item).unwrap();
        for &r in placement.replicas_of(item) {
            assert_eq!(cluster.peek(r, item).unwrap(), primary, "{item} diverged at {r}");
        }
    }
    cluster.shutdown();
}

/// The naive runtime still converges per item (per-link FIFO from each
/// primary), even when its histories are not serializable.
#[test]
fn naive_lazy_converges() {
    let placement = dag_placement();
    let cluster = Cluster::start(&placement, RuntimeProtocol::NaiveLazy).unwrap();
    let mut workers = Vec::new();
    for site_idx in 0..placement.num_sites() {
        let site = SiteId(site_idx);
        let client = cluster.client(site).unwrap();
        let placement = placement.clone();
        workers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(100 + site_idx as u64);
            let mut counter = (site_idx as i64 + 1) * 1_000_000;
            for _ in 0..150 {
                let ops = random_txn(&mut rng, &placement, site, &mut counter);
                client.execute(ops).expect("execute");
            }
        }));
    }
    for w in workers {
        w.join().expect("worker");
    }
    cluster.quiesce();
    for item in placement.items() {
        let primary = cluster.peek(placement.primary_of(item), item).unwrap();
        for &r in placement.replicas_of(item) {
            assert_eq!(cluster.peek(r, item).unwrap(), primary);
        }
    }
    cluster.shutdown();
}

/// Sequential cross-site reads observe propagated values after
/// quiescence (a freshness smoke test).
#[test]
fn quiesce_then_read_sees_latest() {
    let placement = scenario::example_1_1_placement();
    let cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    let a = ItemId(0);
    for v in 1..=20i64 {
        cluster.execute(SiteId(0), vec![Op::write(a, v)]).unwrap();
    }
    cluster.quiesce();
    assert_eq!(cluster.peek(SiteId(2), a).unwrap().0, Value::int(20));
    assert!(History::from_iter(cluster.history().unwrap()).check_serializability().is_ok());
    cluster.shutdown();
}

/// Hunting the Example 1.1 anomaly on a real scheduler. Timing-dependent
/// by nature, so the test *reports* rather than requires the anomaly —
/// but whenever the checker trips, it must produce a well-formed witness
/// cycle. (The deterministic simulator test asserts the anomaly's
/// existence; see repl-core's `naive_lazy_produces_example_1_1_anomaly`.)
#[test]
fn naive_lazy_anomaly_witnesses_are_well_formed() {
    for round in 0..10 {
        let placement = scenario::example_1_1_placement();
        let cluster = Cluster::start(&placement, RuntimeProtocol::NaiveLazy).unwrap();
        let a = ItemId(0);
        let b = ItemId(1);
        let c0 = cluster.client(SiteId(0)).unwrap();
        let c1 = cluster.client(SiteId(1)).unwrap();
        let c2 = cluster.client(SiteId(2)).unwrap();
        let t0 = std::thread::spawn(move || {
            for v in 0..50i64 {
                c0.execute(vec![Op::write(a, 1000 + v)]).unwrap();
            }
        });
        let t1 = std::thread::spawn(move || {
            for v in 0..50i64 {
                c1.execute(vec![Op::read(a), Op::write(b, 2000 + v)]).unwrap();
            }
        });
        let t2 = std::thread::spawn(move || {
            for _ in 0..50 {
                c2.execute(vec![Op::read(a), Op::read(b)]).unwrap();
            }
        });
        t0.join().unwrap();
        t1.join().unwrap();
        t2.join().unwrap();
        cluster.quiesce();
        if let Err(cycle) = History::from_iter(cluster.history().unwrap()).check_serializability() {
            assert!(cycle.cycle.len() >= 2, "round {round}: degenerate cycle");
            cluster.shutdown();
            return; // found a real anomaly with a well-formed witness
        }
        cluster.shutdown();
    }
    // No anomaly in 10 rounds: acceptable (scheduling-dependent).
}
