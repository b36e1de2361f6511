//! Named regression tests for the store's concurrency control: the
//! anomalies strict 2PL must prevent (the classic table — dirty read,
//! non-repeatable read, lost update, write skew, the two-transaction
//! deadlock) and the cases commit-time installation adds to it (upgrade
//! deadlock, read-your-own-buffered-write, victim fairness under
//! resubmission, a snapshot opened mid-transaction, prepared-then-
//! aborted).
//!
//! Each test pins the exact sequence the engines above the store rely
//! on: which call returns [`StorageError::WouldBlock`], which grants,
//! and the list of transactions each commit or abort unblocks — so the
//! internals of `store.rs` and `lock.rs` can be rewritten under them.

use repl_storage::{LockMode, StorageError, Store};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

const X: ItemId = ItemId(0);
const Y: ItemId = ItemId(1);

fn gid(n: u64) -> GlobalTxnId {
    GlobalTxnId::new(SiteId(0), n)
}

/// Items `X` and `Y`, each committed at `Value::int(100)` by `gid(0)`.
fn store() -> Store {
    let mut s: Store = [X, Y].into_iter().map(|i| (i, Value::Initial)).collect();
    let t = s.begin();
    s.write(t, X, Value::int(100), gid(0)).unwrap();
    s.write(t, Y, Value::int(100), gid(0)).unwrap();
    assert!(s.commit(t).unwrap().1.is_empty());
    s
}

fn committed(s: &Store, item: ItemId) -> (Value, Option<GlobalTxnId>) {
    let r = s.peek(item).unwrap();
    (r.value, r.writer)
}

#[test]
fn dirty_read_waits_for_the_writer_and_sees_the_rolled_back_value() {
    let mut s = store();
    let t1 = s.begin();
    s.write(t1, X, Value::int(1), gid(1)).unwrap();
    let t2 = s.begin();
    assert_eq!(s.read(t2, X), Err(StorageError::WouldBlock(X)));
    assert_eq!(s.locks().waiting_on(t2), Some(X));
    // The rollback is what unblocks the reader, and it reads the value
    // the aborted write never replaced.
    assert_eq!(s.abort(t1).unwrap(), vec![t2]);
    let r = s.read(t2, X).unwrap();
    assert_eq!((r.value, r.writer), (Value::int(100), Some(gid(0))));
    let (info, unblocked) = s.commit(t2).unwrap();
    assert_eq!(info.reads, vec![(X, Some(gid(0)))]);
    assert!(info.writes.is_empty() && unblocked.is_empty());
}

#[test]
fn non_repeatable_read_is_prevented_by_the_readers_shared_lock() {
    let mut s = store();
    let t1 = s.begin();
    assert_eq!(s.read(t1, X).unwrap().value, Value::int(100));
    let t2 = s.begin();
    assert_eq!(s.write(t2, X, Value::int(2), gid(2)), Err(StorageError::WouldBlock(X)));
    // The second read is the first one again.
    assert_eq!(s.read(t1, X).unwrap().value, Value::int(100));
    let (info, unblocked) = s.commit(t1).unwrap();
    assert_eq!(info.reads, vec![(X, Some(gid(0))), (X, Some(gid(0)))]);
    assert_eq!(unblocked, vec![t2]);
    // The writer's queued request was granted by the commit; the retry
    // goes through and installs at its own commit.
    assert!(s.locks().holds(t2, X, LockMode::Exclusive));
    s.write(t2, X, Value::int(2), gid(2)).unwrap();
    assert_eq!(committed(&s, X), (Value::int(100), Some(gid(0))));
    s.commit(t2).unwrap();
    assert_eq!(committed(&s, X), (Value::int(2), Some(gid(2))));
}

#[test]
fn lost_update_is_serialized_behind_the_first_writer() {
    let mut s = store();
    let t1 = s.begin();
    let t2 = s.begin();
    // Both mean to add to X; the second to ask waits at its read.
    assert_eq!(s.read(t1, X).unwrap().value, Value::int(100));
    s.write(t1, X, Value::int(110), gid(1)).unwrap();
    assert_eq!(s.read(t2, X), Err(StorageError::WouldBlock(X)));
    let (info, unblocked) = s.commit(t1).unwrap();
    assert_eq!(info.writes, vec![(X, Value::int(110))]);
    assert_eq!(unblocked, vec![t2]);
    // t2 reads t1's result, not the value t1 started from.
    let r = s.read(t2, X).unwrap();
    assert_eq!((r.value.clone(), r.writer), (Value::int(110), Some(gid(1))));
    s.write(t2, X, Value::int(115), gid(2)).unwrap();
    let (info, unblocked) = s.commit(t2).unwrap();
    assert_eq!(info.reads, vec![(X, Some(gid(1)))]);
    assert!(unblocked.is_empty());
    assert_eq!(committed(&s, X), (Value::int(115), Some(gid(2))));
}

#[test]
fn write_skew_ends_in_a_deadlock_not_in_two_commits() {
    let mut s = store();
    let t1 = s.begin();
    let t2 = s.begin();
    // Both check X + Y, then each withdraws from a different item.
    for t in [t1, t2] {
        assert_eq!(s.read(t, X).unwrap().value, Value::int(100));
        assert_eq!(s.read(t, Y).unwrap().value, Value::int(100));
    }
    assert_eq!(s.write(t1, X, Value::int(0), gid(1)), Err(StorageError::WouldBlock(X)));
    assert!(s.locks().find_deadlock().is_none());
    assert_eq!(s.write(t2, Y, Value::int(0), gid(2)), Err(StorageError::WouldBlock(Y)));
    let mut cycle = s.locks().find_deadlock().expect("each upgrade waits for the other's S lock");
    cycle.sort();
    assert_eq!(cycle, vec![t1, t2]);
    assert_eq!(s.locks().pick_victim(&cycle), t2);
    // Only one of the two withdrawals happens.
    assert_eq!(s.abort(t2).unwrap(), vec![t1]);
    s.write(t1, X, Value::int(0), gid(1)).unwrap();
    let (info, unblocked) = s.commit(t1).unwrap();
    assert_eq!(info.writes, vec![(X, Value::int(0))]);
    assert!(unblocked.is_empty());
    // Resubmitted, the loser sees the winner's write and can decide not
    // to make its own.
    let t3 = s.begin();
    assert_eq!(s.read(t3, X).unwrap().value, Value::int(0));
    assert_eq!(s.read(t3, Y).unwrap().value, Value::int(100));
    s.commit(t3).unwrap();
    assert_eq!(committed(&s, Y), (Value::int(100), Some(gid(0))));
}

#[test]
fn two_transaction_deadlock_is_found_and_the_latest_arrival_is_the_victim() {
    let mut s = store();
    let t1 = s.begin();
    let t2 = s.begin();
    s.write(t1, X, Value::int(1), gid(1)).unwrap();
    s.write(t2, Y, Value::int(2), gid(2)).unwrap();
    assert_eq!(s.write(t1, Y, Value::int(1), gid(1)), Err(StorageError::WouldBlock(Y)));
    assert!(s.locks().find_deadlock().is_none());
    assert_eq!(s.locks().blocked_count(), 1);
    assert_eq!(s.write(t2, X, Value::int(2), gid(2)), Err(StorageError::WouldBlock(X)));
    assert_eq!(s.locks().blocked_count(), 2);
    let mut cycle = s.locks().find_deadlock().expect("t1 -> t2 -> t1");
    cycle.sort();
    assert_eq!(cycle, vec![t1, t2]);
    assert_eq!((s.locks().arrival_of(t1), s.locks().arrival_of(t2)), (Some(1), Some(2)));
    assert_eq!(s.locks().pick_victim(&cycle), t2);
    assert_eq!(s.abort(t2).unwrap(), vec![t1]);
    assert_eq!(s.locks().blocked_count(), 0);
    assert!(s.locks().find_deadlock().is_none());
    s.write(t1, Y, Value::int(1), gid(1)).unwrap();
    let (info, unblocked) = s.commit(t1).unwrap();
    assert_eq!(info.writes, vec![(X, Value::int(1)), (Y, Value::int(1))]);
    assert!(unblocked.is_empty());
    assert_eq!(committed(&s, X), (Value::int(1), Some(gid(1))));
    assert_eq!(committed(&s, Y), (Value::int(1), Some(gid(1))));
}

#[test]
fn two_readers_upgrading_the_same_item_deadlock() {
    let mut s = store();
    let t1 = s.begin();
    let t2 = s.begin();
    s.read(t1, X).unwrap();
    s.read(t2, X).unwrap();
    assert_eq!(s.locks().holders_of(X), vec![t1, t2]);
    assert_eq!(s.write(t1, X, Value::int(1), gid(1)), Err(StorageError::WouldBlock(X)));
    assert!(s.locks().find_deadlock().is_none(), "t1 only waits for t2, which is running");
    assert_eq!(s.write(t2, X, Value::int(2), gid(2)), Err(StorageError::WouldBlock(X)));
    let mut cycle = s.locks().find_deadlock().expect("neither upgrade can be the sole holder");
    cycle.sort();
    assert_eq!(cycle, vec![t1, t2]);
    assert_eq!(s.locks().pick_victim(&cycle), t2);
    // Aborting the victim drops its S lock *and* its queued upgrade; t1
    // is the sole holder and is upgraded.
    assert_eq!(s.abort(t2).unwrap(), vec![t1]);
    assert!(s.locks().holds(t1, X, LockMode::Exclusive));
    assert_eq!(s.locks().holders_of(X), vec![t1]);
    s.write(t1, X, Value::int(1), gid(1)).unwrap();
    s.commit(t1).unwrap();
    assert_eq!(committed(&s, X), (Value::int(1), Some(gid(1))));
}

#[test]
fn a_transaction_reads_its_own_buffered_write_and_nobody_else_does() {
    let mut s = store();
    let t = s.begin();
    assert_eq!(s.read(t, X).unwrap().writer, Some(gid(0)));
    s.write(t, X, Value::int(1), gid(1)).unwrap();
    s.write(t, X, Value::int(2), gid(1)).unwrap();
    // The latest buffered value, attributed to the transaction itself.
    let r = s.read(t, X).unwrap();
    assert_eq!((r.value, r.writer), (Value::int(2), Some(gid(1))));
    // An item it has not written still reads from the cell.
    assert_eq!(s.read(t, Y).unwrap().writer, Some(gid(0)));
    // The cell is untouched until commit.
    assert_eq!(committed(&s, X), (Value::int(100), Some(gid(0))));
    let (info, _) = s.commit(t).unwrap();
    assert_eq!(info.reads, vec![(X, Some(gid(0))), (X, Some(gid(1))), (Y, Some(gid(0)))]);
    assert_eq!(info.writes, vec![(X, Value::int(2))]);
    assert_eq!(committed(&s, X), (Value::int(2), Some(gid(1))));
}

#[test]
fn a_resubmitted_transaction_keeps_its_arrival_and_is_not_the_victim_again() {
    let mut s = store();
    // `old` arrives first, loses a deadlock elsewhere and is aborted.
    let old = s.begin();
    s.read(old, X).unwrap();
    let ordinal = s.locks().arrival_of(old).expect("stamped at its first request");
    assert!(s.abort(old).unwrap().is_empty());
    assert_eq!(s.locks().arrival_of(old), None);

    let young = s.begin();
    s.write(young, Y, Value::int(2), gid(2)).unwrap();
    // Resubmitted under a newer local id, with the ordinal it had.
    let again = s.begin();
    assert!(again > young);
    s.locks_mut().set_arrival(again, ordinal);
    s.write(again, X, Value::int(1), gid(1)).unwrap();
    assert_eq!(s.locks().arrival_of(again), Some(ordinal));
    assert!(s.locks().arrival_of(young) > Some(ordinal));

    assert_eq!(s.write(again, Y, Value::int(1), gid(1)), Err(StorageError::WouldBlock(Y)));
    assert_eq!(s.write(young, X, Value::int(2), gid(2)), Err(StorageError::WouldBlock(X)));
    let cycle = s.locks().find_deadlock().expect("again -> young -> again");
    // By local id `again` is the latest; by arrival it is the oldest.
    assert_eq!(s.locks().pick_victim(&cycle), young);
    assert_eq!(s.abort(young).unwrap(), vec![again]);
    s.write(again, Y, Value::int(1), gid(1)).unwrap();
    s.commit(again).unwrap();
    // A transaction that arrives afterwards is stamped past every
    // ordinal handed out so far.
    let next = s.begin();
    s.read(next, X).unwrap();
    assert!(s.locks().arrival_of(next) > Some(ordinal + 1));
}

#[test]
fn a_snapshot_opened_between_write_and_commit_never_sees_the_write() {
    let mut s = store();
    let writer = s.begin();
    s.write(writer, X, Value::int(1), gid(1)).unwrap();
    // Opened while the X lock is held: neither blocks nor reads dirty.
    let snap = s.begin_snapshot();
    let before = s.read_snapshot(snap, X).unwrap();
    assert_eq!((before.value.clone(), before.writer), (Value::int(100), Some(gid(0))));
    assert_eq!(s.locks().blocked_count(), 0);
    s.write(writer, Y, Value::int(1), gid(1)).unwrap();
    let (info, unblocked) = s.commit(writer).unwrap();
    assert_eq!(info.writes.len(), 2);
    assert!(unblocked.is_empty());
    // The commit is after the snapshot's begin point — for the item
    // written before it opened and for the one written after alike.
    assert_eq!(s.read_snapshot(snap, X).unwrap(), before);
    assert_eq!(s.read_snapshot(snap, Y).unwrap().writer, Some(gid(0)));
    assert_eq!(committed(&s, X), (Value::int(1), Some(gid(1))));
    // Both overwritten versions are kept for the snapshot, and only
    // until it closes.
    assert_eq!(s.version_count(), 4);
    s.end_snapshot(snap);
    assert_eq!(s.version_count(), 2);
    let snap = s.begin_snapshot();
    assert_eq!(s.read_snapshot(snap, X).unwrap().writer, Some(gid(1)));
    s.end_snapshot(snap);
}

#[test]
fn a_prepared_transaction_holds_its_locks_and_an_abort_leaves_no_trace() {
    let mut s = store();
    let t1 = s.begin();
    s.read(t1, Y).unwrap();
    s.write(t1, X, Value::int(1), gid(1)).unwrap();
    s.prepare(t1).unwrap();
    // Prepared: execution is over...
    assert_eq!(s.read(t1, X), Err(StorageError::InvalidState(t1)));
    assert_eq!(s.write(t1, X, Value::int(9), gid(1)), Err(StorageError::InvalidState(t1)));
    assert_eq!(s.prepare(t1), Err(StorageError::InvalidState(t1)));
    // ...the locks stay: a reader of X and a writer of Y both wait, in
    // the order they asked.
    let reader = s.begin();
    let writer = s.begin();
    assert_eq!(s.read(reader, X), Err(StorageError::WouldBlock(X)));
    assert_eq!(s.write(writer, Y, Value::int(3), gid(3)), Err(StorageError::WouldBlock(Y)));
    assert_eq!(committed(&s, X), (Value::int(100), Some(gid(0))));
    // The global decision is abort. Locks are released in acquisition
    // order (Y, then X), which is the order the waiters wake in.
    assert_eq!(s.abort(t1).unwrap(), vec![writer, reader]);
    assert!(!s.is_active(t1));
    assert_eq!(s.commit(t1).err(), Some(StorageError::NoSuchTxn(t1)));
    let r = s.read(reader, X).unwrap();
    assert_eq!((r.value, r.writer), (Value::int(100), Some(gid(0))));
    s.write(writer, Y, Value::int(3), gid(3)).unwrap();
    s.commit(reader).unwrap();
    s.commit(writer).unwrap();
    assert_eq!(committed(&s, X), (Value::int(100), Some(gid(0))));
    assert_eq!(committed(&s, Y), (Value::int(3), Some(gid(3))));
    assert_eq!(s.version_count(), 2);
}
