//! Happens-before race detection over runtime traces.
//!
//! The live runtime (`repl-runtime`) is supposed to confine every store
//! to its site's reactor thread, and the lock table orders what shares
//! a store. This module checks that claim independently,
//! ThreadSanitizer-style: replay a trace recorded by `repl_types::trace`
//! (lock acquire/release, store slot accesses), maintain a vector clock
//! per thread, and report every pair of conflicting slot accesses that
//! no happens-before path orders (code `RC001`).
//!
//! Happens-before edges:
//!
//! * **program order** — events of one thread, in recorded order;
//! * **lock order** — a release of item `x` in scope `S` synchronizes
//!   with every later acquire of `x` in `S` (the release's clock is
//!   joined into a per-`(scope, item)` lock clock; acquires join that
//!   clock into the acquiring thread).
//!
//! Per slot the detector keeps each thread's *last* read and write
//! stamp (FastTrack-style pruning). Dropping older same-thread accesses
//! is sound for detection: an older access by thread `t` is ordered
//! before `t`'s newer one, so if the older access races with some
//! access `e`, then either the newer one also races with `e` or `e` is
//! ordered between the two — impossible, since that would order the
//! older access before `e`.

use std::collections::HashMap;

use repl_types::trace::{TimedEvent, TraceEvent};
use repl_types::{ItemId, TxnId};

use crate::diag::{Diagnostic, Witness};

/// A vector clock over dense thread indices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct VClock(Vec<u64>);

impl VClock {
    fn get(&self, thread: u32) -> u64 {
        self.0.get(thread as usize).copied().unwrap_or(0)
    }

    fn tick(&mut self, thread: u32) {
        let i = thread as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine = (*mine).max(*theirs);
        }
    }
}

/// One remembered access to a slot: enough to decide ordering against a
/// later access and to describe the pair in a diagnostic.
#[derive(Clone, Debug)]
struct Stamp {
    thread: u32,
    txn: TxnId,
    /// The accessing thread's own clock component at access time.
    at: u64,
}

#[derive(Debug, Default)]
struct SlotState {
    /// Last write per thread.
    writes: Vec<Stamp>,
    /// Last read per thread.
    reads: Vec<Stamp>,
}

fn remember(list: &mut Vec<Stamp>, stamp: Stamp) {
    match list.iter_mut().find(|s| s.thread == stamp.thread) {
        Some(slot) => *slot = stamp,
        None => list.push(stamp),
    }
}

/// Replay `events` and report every unordered conflicting access pair.
///
/// Events must be in recorded (global log) order — `trace::take()`
/// returns them that way. Each racing pair is reported once, as an
/// error-severity `RC001` diagnostic whose witness names the scope, the
/// item and both accesses.
pub fn detect_races(events: &[TimedEvent]) -> Vec<Diagnostic> {
    let mut threads: Vec<VClock> = Vec::new();
    let mut locks: HashMap<(u64, ItemId), VClock> = HashMap::new();
    let mut slots: HashMap<(u64, ItemId), SlotState> = HashMap::new();
    let mut diags = Vec::new();

    let clock_of = |threads: &mut Vec<VClock>, t: u32| {
        if threads.len() <= t as usize {
            threads.resize(t as usize + 1, VClock::default());
        }
        t as usize
    };

    for ev in events {
        let t = ev.thread;
        let ti = clock_of(&mut threads, t);
        match ev.event {
            TraceEvent::LockAcquire { scope, item, .. } => {
                if let Some(lock_clock) = locks.get(&(scope, item)) {
                    let lock_clock = lock_clock.clone();
                    threads[ti].join(&lock_clock);
                }
            }
            TraceEvent::LockRelease { scope, item, .. } => {
                // Tick first so the release itself is ordered before
                // anything that observes it.
                threads[ti].tick(t);
                let entry = locks.entry((scope, item)).or_default();
                entry.join(&threads[ti]);
            }
            TraceEvent::Access { scope, item, txn, write } => {
                threads[ti].tick(t);
                let now = threads[ti].clone();
                let slot = slots.entry((scope, item)).or_default();
                let stamp = Stamp { thread: t, txn, at: now.get(t) };

                // A prior access races with this one iff it conflicts
                // (at least one side writes), came from another thread,
                // and its stamp is not covered by our clock.
                let mut report = |prior: &Stamp, prior_write: bool| {
                    if prior.thread != t && prior.at > now.get(prior.thread) {
                        diags.push(race_diag(scope, item, prior, prior_write, &stamp, write));
                    }
                };
                for prior in &slot.writes {
                    report(prior, true);
                }
                if write {
                    for prior in &slot.reads {
                        report(prior, false);
                    }
                }

                if write {
                    remember(&mut slot.writes, stamp);
                } else {
                    remember(&mut slot.reads, stamp);
                }
            }
        }
    }
    diags
}

fn race_diag(
    scope: u64,
    item: ItemId,
    prior: &Stamp,
    prior_write: bool,
    current: &Stamp,
    current_write: bool,
) -> Diagnostic {
    let kind = |w: bool| if w { "write" } else { "read" };
    Diagnostic::error(
        "RC001",
        format!(
            "data race on {item} (store scope {scope}): {} by thread {} ({}) and {} by \
             thread {} ({}) are unordered by happens-before",
            kind(prior_write),
            prior.thread,
            fmt_txn(prior.txn),
            kind(current_write),
            current.thread,
            fmt_txn(current.txn),
        ),
        Witness::RacePair {
            scope,
            item,
            first: (prior.thread, prior.txn, prior_write),
            second: (current.thread, current.txn, current_write),
        },
    )
}

fn fmt_txn(txn: TxnId) -> String {
    if txn == repl_types::trace::NO_TXN {
        "unlocked peek".to_owned()
    } else {
        format!("{txn:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_types::trace::NO_TXN;
    use repl_types::SiteId;

    const SCOPE: u64 = 7;
    const X: ItemId = ItemId(1);

    fn txn(n: u64) -> TxnId {
        let _ = SiteId(0);
        TxnId(n)
    }

    fn ev(thread: u32, event: TraceEvent) -> TimedEvent {
        TimedEvent { thread, event }
    }

    fn acquire(thread: u32, t: TxnId) -> TimedEvent {
        ev(thread, TraceEvent::LockAcquire { scope: SCOPE, item: X, txn: t, exclusive: true })
    }

    fn release(thread: u32, t: TxnId) -> TimedEvent {
        ev(thread, TraceEvent::LockRelease { scope: SCOPE, item: X, txn: t })
    }

    fn access(thread: u32, t: TxnId, write: bool) -> TimedEvent {
        ev(thread, TraceEvent::Access { scope: SCOPE, item: X, txn: t, write })
    }

    #[test]
    fn lock_ordered_writes_do_not_race() {
        let events = vec![
            acquire(0, txn(1)),
            access(0, txn(1), true),
            release(0, txn(1)),
            acquire(1, txn(2)),
            access(1, txn(2), true),
            release(1, txn(2)),
        ];
        assert!(detect_races(&events).is_empty());
    }

    #[test]
    fn unlocked_write_after_release_races() {
        // Thread 0 writes again *after* releasing — classic broken
        // discipline. Thread 1's locked write is unordered with it.
        let events = vec![
            acquire(0, txn(1)),
            access(0, txn(1), true),
            release(0, txn(1)),
            acquire(1, txn(2)),
            access(1, txn(2), true),
            access(0, txn(1), true), // late, no lock
            release(1, txn(2)),
        ];
        let diags = detect_races(&events);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "RC001");
        match &diags[0].witness {
            Witness::RacePair { item, first, second, .. } => {
                assert_eq!(*item, X);
                assert_eq!(first.0, 1);
                assert_eq!(second.0, 0);
            }
            w => panic!("wrong witness {w:?}"),
        }
    }

    #[test]
    fn concurrent_reads_do_not_race() {
        let events = vec![access(0, NO_TXN, false), access(1, NO_TXN, false)];
        assert!(detect_races(&events).is_empty());
    }

    #[test]
    fn unlocked_peek_against_writer_races() {
        let events = vec![
            acquire(0, txn(1)),
            access(0, txn(1), true),
            access(1, NO_TXN, false), // peek, no lock
            release(0, txn(1)),
        ];
        let diags = detect_races(&events);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("unlocked peek"), "{}", diags[0].message);
    }

    #[test]
    fn distinct_items_never_conflict() {
        let events = vec![
            ev(0, TraceEvent::Access { scope: SCOPE, item: ItemId(1), txn: txn(1), write: true }),
            ev(1, TraceEvent::Access { scope: SCOPE, item: ItemId(2), txn: txn(2), write: true }),
        ];
        assert!(detect_races(&events).is_empty());
    }

    #[test]
    fn same_item_different_scopes_never_conflict() {
        let events = vec![
            ev(0, TraceEvent::Access { scope: 1, item: X, txn: txn(1), write: true }),
            ev(1, TraceEvent::Access { scope: 2, item: X, txn: txn(2), write: true }),
        ];
        assert!(detect_races(&events).is_empty());
    }
}
