//! Happens-before trace collection for the race detector.
//!
//! The storage engine (`repl-storage`) records synchronization and
//! data-access events here when tracing is enabled; `repl-analysis`
//! replays the recorded trace through a vector-clock happens-before
//! analysis and reports conflicting store-slot accesses that no
//! synchronization edge orders — an independent, ThreadSanitizer-style
//! check that the live runtime confines every store to its site's
//! reactor thread.
//!
//! The collector is process-global and **off by default**: every
//! instrumentation site is gated on one relaxed atomic load, so production
//! runs pay a branch and nothing else. Traced runs must be serialized by
//! the caller (the collector holds one global event log); the race-detector
//! tests take a lock around enable/`take`.
//!
//! Two kinds of events are recorded:
//!
//! * **Lock events** from the strict-2PL lock manager: a release of an
//!   item's lock happens-before every later acquire of the same item in
//!   the same lock *scope* (one scope per store instance);
//! * **Access events**: transactional reads/writes of a store slot, plus
//!   non-transactional `peek`s (which take no lock — exactly the kind of
//!   access the detector exists to catch when it races a writer).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use serde::Serialize;

use crate::id::{ItemId, TxnId};

/// One recorded synchronization or data-access event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum TraceEvent {
    /// A lock on `(scope, item)` was granted to `txn`.
    LockAcquire {
        /// Lock scope (one per store instance).
        scope: u64,
        /// The locked item.
        item: ItemId,
        /// The transaction now holding the lock.
        txn: TxnId,
        /// True for exclusive (X) grants, false for shared (S).
        exclusive: bool,
    },
    /// `txn` released its lock on `(scope, item)`.
    LockRelease {
        /// Lock scope (one per store instance).
        scope: u64,
        /// The unlocked item.
        item: ItemId,
        /// The transaction that held the lock.
        txn: TxnId,
    },
    /// A store slot `(scope, item)` was read or written.
    Access {
        /// Store identity (shared with the store's lock scope).
        scope: u64,
        /// The accessed item.
        item: ItemId,
        /// The accessing transaction (`TxnId(u64::MAX)` for
        /// non-transactional accesses such as `peek`).
        txn: TxnId,
        /// True for writes, false for reads.
        write: bool,
    },
}

/// The sentinel transaction id recorded for non-transactional accesses.
pub const NO_TXN: TxnId = TxnId(u64::MAX);

/// A [`TraceEvent`] stamped with the dense index of the recording thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct TimedEvent {
    /// Dense index of the OS thread that recorded the event.
    pub thread: u32,
    /// The event itself.
    pub event: TraceEvent,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<TimedEvent>> = Mutex::new(Vec::new());
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_IDX: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Dense index of the calling thread, assigned on first use.
pub fn thread_index() -> u32 {
    THREAD_IDX.with(|idx| match idx.get() {
        Some(i) => i,
        None => {
            let i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            idx.set(Some(i));
            i
        }
    })
}

/// Allocate a fresh lock/store scope identity.
pub fn next_scope_id() -> u64 {
    NEXT_SCOPE.fetch_add(1, Ordering::Relaxed)
}

/// Turn event recording on. Existing buffered events are kept; call
/// [`take`] first for a clean trace.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn event recording off.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// True when recording is on. Instrumentation sites check this before
/// paying for an event.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record `event` for the calling thread, if tracing is enabled.
#[inline]
pub fn record(event: TraceEvent) {
    if !is_enabled() {
        return;
    }
    let stamped = TimedEvent { thread: thread_index(), event };
    lock_events().push(stamped);
}

/// Drain and return everything recorded so far.
pub fn take() -> Vec<TimedEvent> {
    std::mem::take(&mut *lock_events())
}

fn lock_events() -> std::sync::MutexGuard<'static, Vec<TimedEvent>> {
    EVENTS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        disable();
        let _ = take();
        record(TraceEvent::Access { scope: 1, item: ItemId(1), txn: NO_TXN, write: true });
        assert!(take().is_empty());
    }

    #[test]
    fn ids_are_distinct() {
        let a = next_scope_id();
        let b = next_scope_id();
        assert_ne!(a, b);
    }

    #[test]
    fn thread_index_is_stable_within_a_thread() {
        assert_eq!(thread_index(), thread_index());
        let here = thread_index();
        let there = std::thread::spawn(thread_index).join().unwrap();
        assert_ne!(here, there);
    }
}
