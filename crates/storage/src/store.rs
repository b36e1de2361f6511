//! The site-local storage engine.
//!
//! A [`Store`] holds the copies (primary or secondary) that live at one
//! site, executes local (sub)transactions under strict 2PL, and exposes the
//! hooks the protocol engines need:
//!
//! * lock waits surface as [`StorageError::WouldBlock`] — the engine
//!   suspends the transaction and retries the operation after the lock
//!   manager reports a grant;
//! * every installed value carries its *logical writer* (a
//!   [`GlobalTxnId`]), so applying a secondary subtransaction at a replica
//!   tags the copy with the originating transaction and the
//!   serializability checker can recover reads-from edges;
//! * commit returns the transaction's read and write sets (the write set
//!   is what gets packaged into secondary subtransactions).
//!
//! Cells hold **committed** state only. A transaction's writes are
//! buffered in its own state and installed by [`Store::commit`]; strict
//! 2PL holds the X locks until then, so no other transaction could have
//! observed them earlier anyway, and everything that reads outside a
//! transaction ([`Store::peek`], checkpoints, snapshot reads) sees only
//! what committed. Abort just drops the buffer.
//!
//! The cell *is* the newest committed [`Version`] of its item — the one
//! resident copy of the value. Older versions are kept only while a
//! snapshot is open (see [`crate::mvcc`]).
//!
//! The transaction path is dense: an item's cell is found through a
//! direct index, not a hash (item ids are allocated densely by the
//! placement; a store may hold any subset of them, at 4 bytes of index
//! per id below the largest it holds), live transactions sit in a small
//! slab keyed by their sequential id, and a finished transaction's
//! read and write buffers serve the next one. Once warm, `begin`,
//! `read`, `write`, `commit` and `abort` allocate nothing but the two
//! vectors of the [`CommitInfo`] handed to the caller.

use bytes::BufMut;
use repl_types::{GlobalTxnId, ItemId, StorageError, TxnId, Value};

use crate::cells::{CellRef, Cells};
use crate::codec;
use crate::lock::{LockManager, LockMode, LockOutcome};
use crate::mvcc::{SideChains, Version};
use crate::snapshot::{self, SnapshotId, SnapshotManager};
use crate::txn_slab::{TxnSlab, RECYCLED_ENTRIES};

/// Result of a transactional read.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadResult {
    /// The value read.
    pub value: Value,
    /// Logical writer of that value (`None` for the initial value).
    pub writer: Option<GlobalTxnId>,
}

/// Lifecycle state of a local (sub)transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TxnStatus {
    /// Executing; may read, write, commit or abort.
    #[default]
    Active,
    /// Finished execution but holding locks, awaiting a distributed-commit
    /// decision (BackEdge eager phase / 2PC participants).
    Prepared,
}

#[derive(Debug, Default)]
struct TxnState {
    status: TxnStatus,
    /// `(item, writer-of-version-read)` pairs, in read order.
    reads: Vec<(ItemId, Option<GlobalTxnId>)>,
    /// `(item, value)` pairs in write order (may repeat items). Not in
    /// any cell until commit; a prepared transaction keeps them.
    writes: Vec<(ItemId, Value)>,
    /// Logical writer of this transaction's writes, stamped onto the
    /// cells installed at commit.
    writer: Option<GlobalTxnId>,
}

impl TxnState {
    /// Heap bytes of the read and write buffers (not of values a write
    /// boxes).
    fn heap_bytes(&self) -> usize {
        self.reads.capacity() * size_of::<(ItemId, Option<GlobalTxnId>)>()
            + self.writes.capacity() * size_of::<(ItemId, Value)>()
    }
}

/// Read/write sets returned by [`Store::commit`].
#[derive(Clone, Debug, Default)]
pub struct CommitInfo {
    /// `(item, writer-of-version-read)` pairs, in read order.
    pub reads: Vec<(ItemId, Option<GlobalTxnId>)>,
    /// `(item, value)` pairs in write order. As returned by
    /// [`Store::commit`] this is already the deduplicated write set
    /// (what [`CommitInfo::write_set`] computes), so a caller that owns
    /// the info can take it without another pass.
    pub writes: Vec<(ItemId, Value)>,
}

impl CommitInfo {
    /// The deduplicated write set: last value per item, in first-write
    /// order. This is what a secondary subtransaction carries.
    pub fn write_set(&self) -> Vec<(ItemId, Value)> {
        last_write_wins(self.writes.iter().cloned(), self.writes.len())
    }
}

/// Order-preserving last-write-wins dedup: one allocation and a linear
/// scan per write — write sets are a handful of items, where that beats
/// building a hash map.
fn last_write_wins(
    writes: impl Iterator<Item = (ItemId, Value)>,
    at_most: usize,
) -> Vec<(ItemId, Value)> {
    let mut set: Vec<(ItemId, Value)> = Vec::with_capacity(at_most);
    for (item, value) in writes {
        match set.iter_mut().find(|(i, _)| *i == item) {
            Some(slot) => slot.1 = value,
            None => set.push((item, value)),
        }
    }
    set
}

/// The per-site main-memory store.
#[derive(Debug, Default)]
pub struct Store {
    /// Item → its newest committed version.
    cells: Cells,
    locks: LockManager,
    txns: TxnSlab<TxnState>,
    next_txn: u64,
    /// Versions overwritten while a snapshot was open; empty otherwise.
    superseded: SideChains,
    /// Active read-only snapshots and the GC low-water mark.
    snapshots: SnapshotManager,
    /// Monotone commit timestamp, bumped by every writing commit.
    commit_ts: u64,
}

impl FromIterator<(ItemId, Value)> for Store {
    /// A store populated with the given initial values, its cells sized
    /// once from the iterator's length hint.
    fn from_iter<I: IntoIterator<Item = (ItemId, Value)>>(cells: I) -> Self {
        cells.into_iter().map(|(item, value)| (item, value, None)).collect()
    }
}

impl FromIterator<(ItemId, Value, Option<GlobalTxnId>)> for Store {
    /// A store populated from a checkpoint image: every copy with the
    /// value *and* the writer it was checkpointed with. The cells are
    /// sized once from the iterator's length hint — exactly, when it
    /// yields that many copies with ids below their count.
    fn from_iter<I: IntoIterator<Item = (ItemId, Value, Option<GlobalTxnId>)>>(cells: I) -> Self {
        let cells = cells.into_iter();
        let mut store = Store::with_capacity(cells.size_hint().0);
        for (item, value, writer) in cells {
            store.cells.insert(item, Version { commit_ts: 0, value, writer });
        }
        store.cells.shrink_to_fit();
        store
    }
}

impl Store {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty store with room for `items` copies whose ids are
    /// below `items`, in two allocations of 44 bytes per copy together.
    pub fn with_capacity(items: usize) -> Self {
        Store { cells: Cells::with_capacity(items), ..Self::default() }
    }

    /// Install a copy of `item` with its initial value. Non-transactional;
    /// used during database population.
    pub fn create_item(&mut self, item: ItemId, value: Value) {
        self.cells.insert(item, Version { commit_ts: 0, value, writer: None });
    }

    /// True if this site stores a copy (primary or secondary) of `item`.
    pub fn has_item(&self, item: ItemId) -> bool {
        self.cells.contains(item)
    }

    /// Non-transactional inspection of a copy's committed value and
    /// writer (used by checkpoints, convergence tests and examples).
    ///
    /// Takes **no lock**: the store belongs to one thread, so nothing can
    /// commit while a peek runs, and cells hold committed values only.
    pub fn peek(&self, item: ItemId) -> Option<ReadResult> {
        self.cells.get(item).map(|c| ReadResult { value: c.value(), writer: c.writer() })
    }

    /// Begin a new local (sub)transaction.
    pub fn begin(&mut self) -> TxnId {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        // A recycled state is as good as new: `retire` emptied it.
        self.txns.get_or_insert(id);
        id
    }

    /// True if `txn` is currently known (active or prepared).
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.txns.get(txn).is_some()
    }

    /// Access the lock manager (deadlock detection, arrival ordinals).
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Mutable access to the lock manager.
    pub fn locks_mut(&mut self) -> &mut LockManager {
        &mut self.locks
    }

    /// The state of `txn`, which must be executing.
    fn active(txns: &mut TxnSlab<TxnState>, txn: TxnId) -> Result<&mut TxnState, StorageError> {
        match txns.get_mut(txn) {
            Some(s) if s.status == TxnStatus::Active => Ok(s),
            Some(_) => Err(StorageError::InvalidState(txn)),
            None => Err(StorageError::NoSuchTxn(txn)),
        }
    }

    /// Give a finished transaction's state, emptied, back to the slab:
    /// its buffers' capacity serves the next transaction, except what
    /// only an unusually wide one needed.
    fn retire(&mut self, mut state: TxnState) {
        state.status = TxnStatus::Active;
        state.reads.clear();
        state.reads.shrink_to(RECYCLED_ENTRIES);
        state.writes.clear();
        state.writes.shrink_to(RECYCLED_ENTRIES);
        state.writer = None;
        self.txns.recycle(state);
    }

    /// Transactional read under an S lock: the transaction's own latest
    /// buffered write of `item` if it has one, else the committed cell.
    ///
    /// Returns [`StorageError::WouldBlock`] if the lock is unavailable; the
    /// request stays queued and the caller must retry after the grant.
    pub fn read(&mut self, txn: TxnId, item: ItemId) -> Result<ReadResult, StorageError> {
        let state = Self::active(&mut self.txns, txn)?;
        let cell = self.cells.get(item).ok_or(StorageError::NoSuchItem(item))?;
        match self.locks.request(txn, item, LockMode::Shared) {
            LockOutcome::Queued => Err(StorageError::WouldBlock(item)),
            LockOutcome::Granted => {
                let result = match state.writes.iter().rev().find(|(i, _)| *i == item) {
                    Some((_, value)) => ReadResult { value: value.clone(), writer: state.writer },
                    None => ReadResult { value: cell.value(), writer: cell.writer() },
                };
                state.reads.push((item, result.writer));
                Ok(result)
            }
        }
    }

    /// Transactional write under an X lock: buffer `value`, attributed
    /// to logical writer `writer`, for installation at commit.
    pub fn write(
        &mut self,
        txn: TxnId,
        item: ItemId,
        value: Value,
        writer: GlobalTxnId,
    ) -> Result<(), StorageError> {
        let state = Self::active(&mut self.txns, txn)?;
        if !self.cells.contains(item) {
            return Err(StorageError::NoSuchItem(item));
        }
        match self.locks.request(txn, item, LockMode::Exclusive) {
            LockOutcome::Queued => Err(StorageError::WouldBlock(item)),
            LockOutcome::Granted => {
                state.writes.push((item, value));
                state.writer = Some(writer);
                Ok(())
            }
        }
    }

    /// Move `txn` to the `Prepared` state: execution is complete and its
    /// locks are pinned until a distributed commit decision arrives
    /// (BackEdge protocol, §4.1: backedge subtransactions "do not commit
    /// and hold on to their locks"). Its writes stay buffered.
    pub fn prepare(&mut self, txn: TxnId) -> Result<(), StorageError> {
        Self::active(&mut self.txns, txn)?.status = TxnStatus::Prepared;
        Ok(())
    }

    /// Commit `txn`: install its write set, release all locks (strict
    /// 2PL) and return its read/write sets plus the transactions
    /// unblocked by the release.
    ///
    /// A writing commit stamps one cell per written item with a fresh
    /// site-local commit timestamp — the versions snapshot reads resolve
    /// against. Only while a snapshot is open is the overwritten version
    /// kept (in the item's side chain); otherwise the value it replaces
    /// is dropped on the spot and the store stays at one version per
    /// item.
    pub fn commit(&mut self, txn: TxnId) -> Result<(CommitInfo, Vec<TxnId>), StorageError> {
        let mut state = self.txns.remove(txn).ok_or(StorageError::NoSuchTxn(txn))?;
        // Exact-size copies for the caller; the buffers they were
        // collected in stay with the slab.
        let n = state.writes.len();
        let info = CommitInfo {
            reads: state.reads.clone(),
            writes: last_write_wins(state.writes.drain(..), n),
        };
        if !info.writes.is_empty() {
            self.commit_ts += 1;
            let keep_superseded = self.snapshots.active_count() > 0;
            for (item, value) in &info.writes {
                let installed = Version {
                    commit_ts: self.commit_ts,
                    value: value.clone(),
                    writer: state.writer,
                };
                let superseded =
                    self.cells.replace(*item, installed).expect("write checked the item exists");
                if keep_superseded {
                    self.superseded.push(*item, superseded);
                }
            }
        }
        self.retire(state);
        Ok((info, self.locks.release_all(txn)))
    }

    /// Abort `txn`: drop its buffered writes, release all locks, and
    /// return the transactions unblocked by the release.
    ///
    /// Safe to call on a blocked transaction (its queued lock request is
    /// cancelled) and on a prepared one (BackEdge global-deadlock aborts).
    pub fn abort(&mut self, txn: TxnId) -> Result<Vec<TxnId>, StorageError> {
        let state = self.txns.remove(txn).ok_or(StorageError::NoSuchTxn(txn))?;
        self.retire(state);
        Ok(self.locks.release_all(txn))
    }

    /// Open a read-only snapshot at the current commit timestamp.
    ///
    /// Every subsequent [`Store::read_snapshot`] through the returned
    /// handle observes exactly the committed prefix up to this point —
    /// later commits are invisible, uncommitted and aborted writes never
    /// were. The handle must be closed with [`Store::end_snapshot`] so
    /// version garbage collection can advance.
    pub fn begin_snapshot(&mut self) -> SnapshotId {
        self.snapshots.begin(self.commit_ts)
    }

    /// Close `snap`; if that moved the low-water mark (the oldest
    /// still-open snapshot, or the current commit timestamp when none
    /// remains) garbage-collect the superseded versions below it — with
    /// none remaining, all of them. Closing twice is harmless.
    pub fn end_snapshot(&mut self, snap: SnapshotId) {
        let Some(ts) = self.snapshots.end(snap) else { return };
        let low_water = self.snapshots.low_water(self.commit_ts);
        // Every kept version is readable at or above the old mark, so
        // there is nothing to collect unless the oldest snapshot closed.
        if ts < low_water {
            let cells = &self.cells;
            self.superseded
                .gc_below(low_water, |item| cells.get(item).map_or(0, |c| c.commit_ts()));
        }
    }

    /// Number of snapshots currently open.
    pub fn active_snapshots(&self) -> usize {
        self.snapshots.active_count()
    }

    /// Total versions retained: one cell per item plus the superseded
    /// versions open snapshots still pin (observability for GC tests and
    /// benches).
    pub fn version_count(&self) -> usize {
        self.cells.len() + self.superseded.total_versions()
    }

    /// Lock-free snapshot read: the version of `item` visible at
    /// `snap`'s timestamp — the cell itself (one direct index lookup,
    /// `cells.rs`) unless a commit newer than the snapshot has
    /// overwritten it, in which case the side chain holds the version
    /// the snapshot pinned.
    ///
    /// This path never touches the lock manager: it delegates to
    /// `snapshot::read_at`, which is handed the snapshots, the cells
    /// and the side chains and not the store, so the lock table is out
    /// of its reach (and `snapshot_reads_take_zero_locks` pins it). It
    /// cannot block, cannot deadlock, and cannot be aborted. Reads-from
    /// edges for the serializability checker come from the returned
    /// `writer`.
    pub fn read_snapshot(
        &self,
        snap: SnapshotId,
        item: ItemId,
    ) -> Result<ReadResult, StorageError> {
        snapshot::read_at(&self.snapshots, &self.cells, &self.superseded, snap, item)
    }

    /// The copies among `items` that a transaction has written, with
    /// their cells, in `items`' order.
    fn written(
        &self,
        items: impl Iterator<Item = ItemId>,
    ) -> impl Iterator<Item = (ItemId, CellRef<'_>)> {
        items
            .filter_map(|item| Some((item, self.cells.get(item)?)))
            .filter(|(_, cell)| cell.writer().is_some())
    }

    /// Bytes of [`Store::encode_written`]'s image of `items`.
    pub fn written_image_len(&self, items: impl Iterator<Item = ItemId>) -> usize {
        let cell_len =
            |cell: CellRef| cell.with_value(|value| codec::cell_len(value, cell.writer()));
        4 + self.written(items).map(|(_, cell)| cell_len(cell)).sum::<usize>()
    }

    /// Append to `out` the copy-state image of the copies among `items`
    /// that a transaction has written: a `u32` count, then each cell as
    /// [`codec::put_cell`] writes it, in `items`' order. A copy never
    /// written is `(Initial, None)` in the store and in any full image,
    /// so overlaying this on the site's item set at the initial values
    /// gives the full image back.
    pub fn encode_written(&self, items: impl Iterator<Item = ItemId>, out: &mut Vec<u8>) {
        let at = out.len();
        out.put_u32(0); // the count, patched below
        let mut count = 0u32;
        for (item, cell) in self.written(items) {
            cell.with_value(|value| codec::put_cell(out, item, value, cell.writer()));
            count += 1;
        }
        out[at..at + 4].copy_from_slice(&count.to_be_bytes());
    }

    /// Heap bytes of the cells, their index and the side chains.
    pub fn cell_bytes(&self) -> usize {
        self.cells.heap_bytes() + self.superseded.heap_bytes()
    }

    /// Heap bytes of the lock table and the transaction slabs.
    pub fn lock_bytes(&self) -> usize {
        self.locks.heap_bytes() + self.txns.heap_bytes(TxnState::heap_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_types::SiteId;

    fn gid(n: u64) -> GlobalTxnId {
        GlobalTxnId::new(SiteId(0), n)
    }

    fn store_with_items(n: u32) -> Store {
        let mut s = Store::new();
        for i in 0..n {
            s.create_item(ItemId(i), Value::Initial);
        }
        s
    }

    #[test]
    fn read_your_own_write() {
        let mut s = store_with_items(2);
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(5), gid(1)).unwrap();
        let r = s.read(t, ItemId(0)).unwrap();
        assert_eq!(r.value, Value::int(5));
        assert_eq!(r.writer, Some(gid(1)));
    }

    #[test]
    fn commit_returns_sets_and_releases() {
        let mut s = store_with_items(3);
        let t1 = s.begin();
        s.read(t1, ItemId(0)).unwrap();
        s.write(t1, ItemId(1), Value::int(1), gid(1)).unwrap();
        s.write(t1, ItemId(1), Value::int(2), gid(1)).unwrap();

        let t2 = s.begin();
        assert!(matches!(s.read(t2, ItemId(1)), Err(StorageError::WouldBlock(_))));

        let (info, granted) = s.commit(t1).unwrap();
        assert_eq!(info.reads, vec![(ItemId(0), None)]);
        assert_eq!(info.write_set(), vec![(ItemId(1), Value::int(2))]);
        assert_eq!(granted, vec![t2]);

        // t2's queued read was granted; a retry must now succeed.
        let r = s.read(t2, ItemId(1)).unwrap();
        assert_eq!(r.value, Value::int(2));
        assert_eq!(r.writer, Some(gid(1)));
    }

    mod write_set_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// With items repeating freely, the write set lists each
            /// item once, in first-write order, with its last value —
            /// from `write_set()` on raw writes and from `commit` alike.
            #[test]
            fn write_set_is_first_write_order_last_value(
                writes in prop::collection::vec((0u32..6, 0i64..1000), 0..24),
            ) {
                let mut expected: Vec<(ItemId, Value)> = Vec::new();
                for (item, v) in &writes {
                    let item = ItemId(*item);
                    if let Some(at) = expected.iter().position(|(i, _)| *i == item) {
                        expected[at].1 = Value::int(*v);
                    } else {
                        expected.push((item, Value::int(*v)));
                    }
                }
                let raw = CommitInfo {
                    reads: Vec::new(),
                    writes: writes.iter().map(|(i, v)| (ItemId(*i), Value::int(*v))).collect(),
                };
                prop_assert_eq!(raw.write_set(), expected.clone());

                let mut s = store_with_items(6);
                let t = s.begin();
                for (item, v) in &writes {
                    s.write(t, ItemId(*item), Value::int(*v), gid(1)).unwrap();
                }
                let (info, _) = s.commit(t).unwrap();
                prop_assert_eq!(info.write_set(), expected.clone());
                prop_assert_eq!(info.writes, expected);
            }
        }
    }

    #[test]
    fn abort_rolls_back_all_writes() {
        let mut s = store_with_items(2);
        s.create_item(ItemId(0), Value::int(100));
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(1), gid(1)).unwrap();
        s.write(t, ItemId(0), Value::int(2), gid(1)).unwrap();
        s.write(t, ItemId(1), Value::int(3), gid(1)).unwrap();
        s.abort(t).unwrap();
        assert_eq!(s.peek(ItemId(0)).unwrap().value, Value::int(100));
        assert_eq!(s.peek(ItemId(0)).unwrap().writer, None);
        assert_eq!(s.peek(ItemId(1)).unwrap().value, Value::Initial);
    }

    #[test]
    fn abort_while_blocked_cancels_wait() {
        let mut s = store_with_items(1);
        let t1 = s.begin();
        s.write(t1, ItemId(0), Value::int(1), gid(1)).unwrap();
        let t2 = s.begin();
        assert!(matches!(
            s.write(t2, ItemId(0), Value::int(2), gid(2)),
            Err(StorageError::WouldBlock(_))
        ));
        s.abort(t2).unwrap();
        assert_eq!(s.locks().blocked_count(), 0);
        let (_, granted) = s.commit(t1).unwrap();
        assert!(granted.is_empty());
        assert_eq!(s.peek(ItemId(0)).unwrap().value, Value::int(1));
    }

    #[test]
    fn missing_item_is_an_error() {
        let mut s = store_with_items(1);
        let t = s.begin();
        assert_eq!(s.read(t, ItemId(9)), Err(StorageError::NoSuchItem(ItemId(9))));
        assert_eq!(
            s.write(t, ItemId(9), Value::int(1), gid(1)),
            Err(StorageError::NoSuchItem(ItemId(9)))
        );
    }

    #[test]
    fn prepared_txn_rejects_operations_but_can_abort() {
        let mut s = store_with_items(1);
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(1), gid(1)).unwrap();
        s.prepare(t).unwrap();
        assert_eq!(s.read(t, ItemId(0)), Err(StorageError::InvalidState(t)));
        // Prepared transactions still hold locks...
        let t2 = s.begin();
        assert!(matches!(s.read(t2, ItemId(0)), Err(StorageError::WouldBlock(_))));
        // ...and can be aborted by a global deadlock decision.
        s.abort(t).unwrap();
        assert_eq!(s.peek(ItemId(0)).unwrap().value, Value::Initial);
        let r = s.read(t2, ItemId(0)).unwrap();
        assert_eq!(r.value, Value::Initial);
    }

    #[test]
    fn unknown_txn_errors() {
        let mut s = store_with_items(1);
        assert_eq!(s.commit(TxnId(99)).err(), Some(StorageError::NoSuchTxn(TxnId(99))));
        assert_eq!(s.abort(TxnId(99)).err(), Some(StorageError::NoSuchTxn(TxnId(99))));
    }

    #[test]
    fn versions_advance_and_roll_back() {
        let mut s = store_with_items(1);
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(1), gid(1)).unwrap();
        s.commit(t).unwrap();
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(2), gid(2)).unwrap();
        s.abort(t).unwrap();
        let r = s.peek(ItemId(0)).unwrap();
        assert_eq!(r.value, Value::int(1));
        assert_eq!(r.writer, Some(gid(1)));
    }

    #[test]
    fn snapshot_pins_its_begin_prefix() {
        let mut s = store_with_items(2);
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(1), gid(1)).unwrap();
        s.commit(t).unwrap();

        let snap = s.begin_snapshot();
        // Commits after the snapshot began are invisible to it.
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(2), gid(2)).unwrap();
        s.write(t, ItemId(1), Value::int(3), gid(2)).unwrap();
        s.commit(t).unwrap();

        let r = s.read_snapshot(snap, ItemId(0)).unwrap();
        assert_eq!((r.value, r.writer), (Value::int(1), Some(gid(1))));
        let r = s.read_snapshot(snap, ItemId(1)).unwrap();
        assert_eq!((r.value, r.writer), (Value::Initial, None));
        // The live state moved on.
        assert_eq!(s.peek(ItemId(0)).unwrap().value, Value::int(2));
        s.end_snapshot(snap);
        // A closed snapshot is refused, not misread.
        assert_eq!(s.read_snapshot(snap, ItemId(0)), Err(StorageError::NoSuchSnapshot(snap.0)));
    }

    #[test]
    fn snapshot_ignores_uncommitted_and_aborted_writes() {
        let mut s = store_with_items(1);
        // An active writer holds the X lock...
        let writer = s.begin();
        s.write(writer, ItemId(0), Value::int(99), gid(9)).unwrap();
        // ...but the snapshot read neither blocks nor sees the dirty value.
        let snap = s.begin_snapshot();
        let r = s.read_snapshot(snap, ItemId(0)).unwrap();
        assert_eq!(r.value, Value::Initial);
        s.abort(writer).unwrap();
        // Aborted versions never reach a chain.
        let r = s.read_snapshot(snap, ItemId(0)).unwrap();
        assert_eq!(r.value, Value::Initial);
        s.end_snapshot(snap);
        let snap = s.begin_snapshot();
        assert_eq!(s.read_snapshot(snap, ItemId(0)).unwrap().value, Value::Initial);
        s.end_snapshot(snap);
    }

    /// Outside a transaction only committed values are observable: an
    /// open, a prepared and an aborted writer all leave `peek`, a
    /// checkpoint and a snapshot — including one opened between a
    /// writer's `write` and its `commit` — at the committed state.
    #[test]
    fn peek_checkpoint_and_snapshot_see_only_committed_values() {
        use crate::wal::checkpoint;
        let items = || (0..3).map(ItemId);
        let committed = |s: &Store| -> Vec<(Value, Option<GlobalTxnId>)> {
            items().map(|i| s.peek(i).map(|r| (r.value, r.writer)).unwrap()).collect()
        };
        let initial = vec![(Value::Initial, None); 3];
        let mut s = store_with_items(3);

        let open = s.begin();
        s.write(open, ItemId(0), Value::int(10), gid(1)).unwrap();
        let prepared = s.begin();
        s.write(prepared, ItemId(1), Value::int(11), gid(2)).unwrap();
        s.prepare(prepared).unwrap();
        let aborted = s.begin();
        s.write(aborted, ItemId(2), Value::int(12), gid(3)).unwrap();
        // The writers see their own writes...
        assert_eq!(s.read(open, ItemId(0)).unwrap().value, Value::int(10));
        // ...nobody else does, through any door.
        let snap = s.begin_snapshot();
        let check = |s: &Store, expect: &[(Value, Option<GlobalTxnId>)]| {
            assert_eq!(committed(s), expect);
            let cp = checkpoint(s, items());
            let image: Vec<_> = cp.cells.iter().map(|(_, v, w)| (v.clone(), *w)).collect();
            assert_eq!(image, expect);
        };
        check(&s, &initial);
        for i in items() {
            assert_eq!(s.read_snapshot(snap, i).unwrap().value, Value::Initial);
        }
        s.abort(aborted).unwrap();
        check(&s, &initial);

        // The open and the prepared writer commit: the live state moves,
        // the snapshot opened between their writes and commits does not.
        s.commit(open).unwrap();
        s.commit(prepared).unwrap();
        check(
            &s,
            &[
                (Value::int(10), Some(gid(1))),
                (Value::int(11), Some(gid(2))),
                (Value::Initial, None),
            ],
        );
        for i in items() {
            let r = s.read_snapshot(snap, i).unwrap();
            assert_eq!((r.value, r.writer), (Value::Initial, None));
        }
        // The two overwritten initial versions are kept for `snap` only.
        assert_eq!(s.version_count(), 5);
        s.end_snapshot(snap);
        assert_eq!(s.version_count(), 3);
    }

    #[test]
    fn snapshot_gc_reclaims_below_low_water() {
        let mut s = store_with_items(1);
        let snap = s.begin_snapshot();
        for i in 1..=5u64 {
            let t = s.begin();
            s.write(t, ItemId(0), Value::int(i as i64), gid(i)).unwrap();
            s.commit(t).unwrap();
        }
        // The open snapshot pins the whole chain (initial + 5 versions).
        assert_eq!(s.version_count(), 6);
        assert_eq!(s.read_snapshot(snap, ItemId(0)).unwrap().value, Value::Initial);
        s.end_snapshot(snap);
        // Low water advanced to the current commit ts: one version left.
        assert_eq!(s.version_count(), 1);
        assert_eq!(s.active_snapshots(), 0);
        // And with no snapshot open, commits trim as they go.
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(42), gid(7)).unwrap();
        s.commit(t).unwrap();
        assert_eq!(s.version_count(), 1);
    }

    #[test]
    fn snapshot_reads_take_zero_locks() {
        let mut s = store_with_items(1);
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(7), gid(1)).unwrap();
        s.commit(t).unwrap();

        // A 2PL writer holds X on the item; any locked read would queue.
        let writer = s.begin();
        s.write(writer, ItemId(0), Value::int(8), gid(2)).unwrap();

        let snap = s.begin_snapshot();
        let r = s.read_snapshot(snap, ItemId(0)).unwrap();
        s.end_snapshot(snap);
        assert_eq!(r.value, Value::int(7));
        // The lock table is exactly as the writer left it.
        assert_eq!(s.locks().holders_of(ItemId(0)), vec![writer]);
        assert_eq!(s.locks().blocked_count(), 0);
    }

    mod snapshot_props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const ITEMS: u32 = 6;
        const WRITERS: usize = 3;

        type ModelState = BTreeMap<u32, (Value, Option<GlobalTxnId>)>;

        fn initial_model() -> ModelState {
            (0..ITEMS).map(|i| (i, (Value::Initial, None))).collect()
        }

        /// One of `WRITERS` concurrently open transactions.
        struct Writer {
            txn: TxnId,
            gid: GlobalTxnId,
            prepared: bool,
            writes: Vec<(u32, i64)>,
        }

        proptest! {
            /// Snapshot reads observe exactly the committed prefix at
            /// their begin point: whole transactions or nothing (no torn
            /// reads), never an open, prepared or aborted write —
            /// however interleaved writers' writes, prepares, commits
            /// and aborts fall around snapshots opening and closing.
            /// `peek` tracks the committed state throughout, and
            /// whenever no snapshot is open the store holds exactly one
            /// version per item.
            #[test]
            fn snapshots_observe_a_committed_prefix(
                script in prop::collection::vec(
                    (0u8..8, 0usize..WRITERS, 0u32..ITEMS, 0i64..1000),
                    1..80,
                ),
            ) {
                let mut s = store_with_items(ITEMS);
                let mut model = initial_model();
                let mut writers: Vec<Option<Writer>> = (0..WRITERS).map(|_| None).collect();
                let mut open: Vec<(SnapshotId, ModelState)> = Vec::new();
                let mut next_gid = 1;
                for (action, slot, item, v) in script {
                    match action {
                        // Write (opening the transaction first if needed).
                        0..=2 => {
                            let w = writers[slot].get_or_insert_with(|| {
                                next_gid += 1;
                                Writer {
                                    txn: s.begin(),
                                    gid: gid(next_gid),
                                    prepared: false,
                                    writes: Vec::new(),
                                }
                            });
                            if !w.prepared {
                                match s.write(w.txn, ItemId(item), Value::int(v), w.gid) {
                                    Ok(()) => w.writes.push((item, v)),
                                    // Lost a lock race to another writer: give up.
                                    Err(StorageError::WouldBlock(_)) => {
                                        s.abort(w.txn).unwrap();
                                        writers[slot] = None;
                                    }
                                    Err(e) => prop_assert!(false, "write failed: {e}"),
                                }
                            }
                        }
                        3 => {
                            if let Some(w) = writers[slot].as_mut().filter(|w| !w.prepared) {
                                s.prepare(w.txn).unwrap();
                                w.prepared = true;
                            }
                        }
                        4 => {
                            if let Some(w) = writers[slot].take() {
                                s.commit(w.txn).unwrap();
                                for (item, v) in w.writes {
                                    model.insert(item, (Value::int(v), Some(w.gid)));
                                }
                            }
                        }
                        5 => {
                            if let Some(w) = writers[slot].take() {
                                s.abort(w.txn).unwrap();
                            }
                        }
                        6 => open.push((s.begin_snapshot(), model.clone())),
                        _ => {
                            if !open.is_empty() {
                                let (snap, _) = open.remove(item as usize % open.len());
                                s.end_snapshot(snap);
                            }
                        }
                    }
                    // Every open snapshot still reads its own prefix —
                    // all items, atomically per transaction.
                    for (snap, expected) in &open {
                        for item in 0..ITEMS {
                            let r = s.read_snapshot(*snap, ItemId(item)).unwrap();
                            let (ev, ew) = &expected[&item];
                            prop_assert_eq!(&r.value, ev, "torn/dirty read at item {}", item);
                            prop_assert_eq!(&r.writer, ew);
                        }
                    }
                    // The live state is the committed history, never a
                    // buffered write.
                    for item in 0..ITEMS {
                        let r = s.peek(ItemId(item)).unwrap();
                        prop_assert_eq!(&(r.value, r.writer), &model[&item]);
                    }
                    prop_assert_eq!(s.active_snapshots(), open.len());
                    if open.is_empty() {
                        prop_assert_eq!(s.version_count(), ITEMS as usize, "side chains not empty");
                    }
                }
            }
        }
    }
}
