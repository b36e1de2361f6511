//! A site with nothing due sleeps, and a sleeping fleet still stops.
//!
//! Each reactor waits in `epoll_wait` until I/O or its next deadline.
//! An idle DAG(WT) site has no deadline at all — no timer, no unacked
//! frame, no missing peer — so its thread blocks until something arrives,
//! and a crash, a shutdown or a drop of the in-process `Cluster` must
//! wake it. Wake-ups are counted as the site thread's voluntary context
//! switches (`/proc/self/task/*/status`): every sleep in `epoll_wait` that
//! ends is one. The tests hold one lock, so no other test's fleet runs
//! while a fleet is counted or timed.
#![expect(clippy::disallowed_methods, reason = "a test paces a live fleet by the wall clock")]

use std::fs;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use repl_copygraph::DataPlacement;
use repl_runtime::{Cluster, ClusterHandle, RuntimeProtocol};
use repl_types::{ItemId, Op, SiteId};

static SERIAL: Mutex<()> = Mutex::new(());

/// A 3-site DAG(WT) chain that has committed and propagated one write a
/// site, then stood idle long enough for its last acks to land.
fn idle_chain() -> Cluster {
    let placement = DataPlacement::from_spec("3|0:1,2*4|1:2*4|2*4").unwrap();
    let cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    for (site, item) in [(0, 0), (1, 4), (2, 8)] {
        cluster.execute(SiteId(site), vec![Op::write(ItemId(item), 1)]).unwrap();
    }
    cluster.quiesce();
    for site in (0..3).map(SiteId) {
        assert_eq!(cluster.stats(site).unwrap().peers_up, 2, "{site}'s mesh is up");
    }
    std::thread::sleep(Duration::from_millis(100));
    cluster
}

/// Voluntary context switches of every `site-N` thread of this process,
/// by name.
fn site_switches() -> Vec<(String, u64)> {
    let mut switches = Vec::new();
    for task in fs::read_dir("/proc/self/task").unwrap().flatten() {
        let Ok(comm) = fs::read_to_string(task.path().join("comm")) else { continue };
        let comm = comm.trim();
        if !comm.starts_with("site-") {
            continue;
        }
        let Ok(status) = fs::read_to_string(task.path().join("status")) else { continue };
        let count = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .map(|n| n.trim().parse().unwrap())
            .unwrap();
        switches.push((comm.to_string(), count));
    }
    switches.sort();
    switches
}

/// Left alone for a second, no site of an idle chain wakes more than a
/// handful of times (a reactor that polled each millisecond woke ≈ 1000).
#[test]
fn an_idle_chain_sleeps_through_a_second() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = idle_chain();
    let before = site_switches();
    assert_eq!(before.len(), 3, "{before:?}");
    std::thread::sleep(Duration::from_secs(1));
    let after = site_switches();
    let woke: Vec<(String, u64)> =
        before.iter().zip(&after).map(|((site, b), (_, a))| (site.clone(), a - b)).collect();
    eprintln!("wake-ups in 1 s: {woke:?}");
    assert!(woke.iter().all(|(_, n)| *n <= 5), "wake-ups in 1 s: {woke:?}");
    cluster.shutdown();
}

/// Dropping an idle cluster wakes and joins every reactor at once.
#[test]
fn an_idle_cluster_drops_within_100ms() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = idle_chain();
    let start = Instant::now();
    drop(cluster);
    let took = start.elapsed();
    assert!(took < Duration::from_millis(100), "the drop took {took:?}");
}

/// A crash of an idle site returns, and so does its restart; the fleet
/// then commits and propagates again.
#[test]
fn crash_then_restart_on_an_idle_fleet_returns() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cluster = idle_chain();
    cluster.crash(SiteId(1)).unwrap();
    cluster.restart(SiteId(1)).unwrap();
    cluster.execute(SiteId(0), vec![Op::write(ItemId(1), 2)]).unwrap();
    cluster.quiesce();
    assert_eq!(cluster.peek(SiteId(2), ItemId(1)).map(|(v, _)| v), Some(repl_types::Value::int(2)));
    cluster.shutdown();
}
