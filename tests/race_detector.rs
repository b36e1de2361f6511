//! End-to-end tests of the happens-before race detector against real
//! threads: a clean DAG(WT) cluster run must trace race-free, and a
//! deliberately broken locking discipline (writing after `release_all`)
//! must be reported.
//!
//! The trace collector is process-global, so the tests serialize on a
//! mutex and drain the log inside the critical section.

use std::sync::{Mutex, OnceLock};

use repl_analysis::detect_races;
use repl_core::scenario;
use repl_runtime::{Cluster, RuntimeProtocol};
use repl_storage::{LockManager, LockMode, LockOutcome};
use repl_types::trace::{self, TimedEvent, TraceEvent};
use repl_types::{ItemId, Op, SiteId, TxnId};

/// Serializes access to the global trace collector across tests.
fn trace_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    let m = GUARD.get_or_init(|| Mutex::new(()));
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `body` with tracing enabled and return the recorded events.
fn traced(body: impl FnOnce()) -> Vec<TimedEvent> {
    let _ = trace::take(); // drop stale events from untraced code paths
    trace::enable();
    body();
    trace::disable();
    trace::take()
}

#[test]
fn clean_dag_wt_threaded_run_has_no_races() {
    let _guard = trace_guard();
    let events = traced(|| {
        let placement = scenario::example_1_1_placement();
        let cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
        // Concurrent clients hammering both primaries while the main
        // thread peeks replicas mid-flight.
        let c0 = cluster.client(SiteId(0)).unwrap();
        let c1 = cluster.client(SiteId(1)).unwrap();
        let t0 = std::thread::spawn(move || {
            for i in 0..40 {
                c0.execute(vec![Op::write(ItemId(0), i)]).unwrap();
            }
        });
        let t1 = std::thread::spawn(move || {
            for i in 0..40 {
                c1.execute(vec![Op::write(ItemId(1), 100 + i)]).unwrap();
            }
        });
        for _ in 0..10 {
            let _ = cluster.peek(SiteId(2), ItemId(0));
        }
        t0.join().unwrap();
        t1.join().unwrap();
        cluster.quiesce();
        assert!(cluster.check_serializability().is_ok());
        cluster.shutdown();
    });

    // The run must actually have been traced, and every store access
    // made by one of the three sites' reactor threads — none by the
    // client threads or this one, which reach a store only over its
    // site's sockets...
    let accessors: std::collections::BTreeSet<u32> = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::Access { .. }))
        .map(|e| e.thread)
        .collect();
    assert_eq!(accessors.len(), 3, "expected store accesses from each site's reactor thread");
    assert!(!accessors.contains(&trace::thread_index()), "the test thread touched a store");
    // ...and found clean: every store is confined to its site thread.
    let races = detect_races(&events);
    assert!(races.is_empty(), "unexpected races:\n{}", repl_analysis::render(&races));
}

/// The fault path must be as race-clean as the steady state: an abrupt
/// site crash, WAL recovery on the replacement thread and outbox
/// retransmission introduce no unordered conflicting accesses (the
/// replacement store has a fresh trace scope, and recovery replay runs
/// on the owning thread).
#[test]
fn crash_recovery_cycle_traces_race_free() {
    let _guard = trace_guard();
    let events = traced(|| {
        let placement = scenario::example_1_1_placement();
        let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
        let c1 = cluster.client(SiteId(1)).unwrap();
        let hammer = std::thread::spawn(move || {
            for i in 0..60 {
                c1.execute(vec![Op::write(ItemId(1), 500 + i)]).unwrap();
            }
        });
        for i in 0..20 {
            cluster.execute(SiteId(0), vec![Op::write(ItemId(0), i)]).unwrap();
        }
        cluster.crash(SiteId(2)).unwrap();
        for i in 20..40 {
            cluster.execute(SiteId(0), vec![Op::write(ItemId(0), i)]).unwrap();
        }
        cluster.restart(SiteId(2)).unwrap();
        for i in 40..60 {
            cluster.execute(SiteId(0), vec![Op::write(ItemId(0), i)]).unwrap();
        }
        hammer.join().unwrap();
        cluster.quiesce();
        assert!(cluster.check_serializability().is_ok());
        cluster.shutdown();
    });

    assert!(
        events.iter().any(|e| matches!(e.event, TraceEvent::Access { .. })),
        "expected store accesses in the trace"
    );
    let races = detect_races(&events);
    assert!(races.is_empty(), "crash/recovery raced:\n{}", repl_analysis::render(&races));
}

#[test]
fn release_before_commit_discipline_is_reported() {
    let _guard = trace_guard();
    let item = ItemId(9);

    // Two threads share a lock table (as two workers of one site would).
    // Thread A takes X, writes, releases, then writes AGAIN — the
    // "release locks early, finish the commit later" bug. Thread B does a
    // properly locked write in between. A's late write is unordered with
    // B's locked write, and the detector must say so.
    let events = traced(|| {
        let locks = Mutex::new(LockManager::new());
        let scope = locks.lock().unwrap().trace_scope();
        let a = TxnId(1);
        let b = TxnId(2);
        let barrier = std::sync::Barrier::new(2);

        std::thread::scope(|s| {
            s.spawn(|| {
                {
                    let mut l = locks.lock().unwrap();
                    assert_eq!(l.request(a, item, LockMode::Exclusive), LockOutcome::Granted);
                    trace::record(TraceEvent::Access { scope, item, txn: a, write: true });
                    l.release_all(a);
                }
                barrier.wait(); // let B take the lock and write
                barrier.wait();
                // The buggy late write: no lock held anymore.
                trace::record(TraceEvent::Access { scope, item, txn: a, write: true });
            });
            s.spawn(|| {
                barrier.wait();
                {
                    let mut l = locks.lock().unwrap();
                    assert_eq!(l.request(b, item, LockMode::Exclusive), LockOutcome::Granted);
                    trace::record(TraceEvent::Access { scope, item, txn: b, write: true });
                    l.release_all(b);
                }
                barrier.wait();
            });
        });
    });

    let races = detect_races(&events);
    assert_eq!(races.len(), 1, "expected exactly one race:\n{}", repl_analysis::render(&races));
    let diag = &races[0];
    assert_eq!(diag.code, "RC001");
    match &diag.witness {
        repl_analysis::Witness::RacePair { item: witness_item, first, second, .. } => {
            assert_eq!(*witness_item, item);
            // Both sides are writes, one per transaction.
            assert!(first.2 && second.2);
            assert_ne!(first.0, second.0, "race must span two threads");
        }
        w => panic!("wrong witness: {w:?}"),
    }
}

#[test]
fn properly_locked_threads_trace_clean() {
    let _guard = trace_guard();
    let item = ItemId(3);

    // Same shape as above but with the discipline intact: every write
    // under the X lock. No race.
    let events = traced(|| {
        let locks = Mutex::new(LockManager::new());
        let scope = locks.lock().unwrap().trace_scope();
        std::thread::scope(|s| {
            for t in 1..=4u64 {
                let locks = &locks;
                s.spawn(move || {
                    let txn = TxnId(t);
                    for _ in 0..25 {
                        let mut l = locks.lock().unwrap();
                        if l.request(txn, item, LockMode::Exclusive) == LockOutcome::Granted {
                            trace::record(TraceEvent::Access { scope, item, txn, write: true });
                            l.release_all(txn);
                        }
                    }
                });
            }
        });
    });

    let races = detect_races(&events);
    assert!(races.is_empty(), "unexpected races:\n{}", repl_analysis::render(&races));
}
