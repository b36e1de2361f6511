//! Snapshot lifecycle management for read-only transactions.
//!
//! A [`SnapshotManager`] hands each read-only transaction a *snapshot
//! timestamp* — the store's commit timestamp at begin — and tracks which
//! snapshots are still live. Every read of the transaction resolves at
//! that one timestamp — against the item's cell, or, once a newer
//! commit has overwritten it, through
//! [`crate::mvcc::SideChains::visible_at`] — so the transaction
//! observes exactly the committed prefix of the site's local history up
//! to its begin point: no torn reads (all-or-nothing per commit), no
//! uncommitted or aborted versions (only commit writes a cell), no
//! blocking (never a lock).
//!
//! The manager also computes the GC *low-water mark*: the smallest
//! timestamp any active snapshot might still read at (or the current
//! commit timestamp when none is active). Versions strictly older than
//! the newest version at-or-below the low-water mark are unreachable
//! and reclaimed by [`crate::mvcc::SideChains::gc_below`].
//!
//! The snapshot read itself is `read_at`, which `Store::read_snapshot`
//! delegates to. It is handed the snapshots, the cells and the side
//! chains, not the store, so it cannot reach the lock table.

use std::collections::BTreeMap;

use repl_types::{ItemId, StorageError};

use crate::cells::Cells;
use crate::mvcc::SideChains;
use crate::store::ReadResult;

/// Handle to one active snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotId(pub u64);

/// Allocates snapshot timestamps and tracks the active set.
#[derive(Clone, Debug, Default)]
pub struct SnapshotManager {
    next: u64,
    /// Active snapshots, id → snapshot timestamp. A `BTreeMap` keeps
    /// min-timestamp queries deterministic and O(active).
    active: BTreeMap<u64, u64>,
}

impl SnapshotManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a snapshot reading at `commit_ts` (the store's current
    /// commit timestamp).
    pub fn begin(&mut self, commit_ts: u64) -> SnapshotId {
        let id = self.next;
        self.next += 1;
        self.active.insert(id, commit_ts);
        SnapshotId(id)
    }

    /// The timestamp `snap` reads at, if it is still open.
    pub fn ts_of(&self, snap: SnapshotId) -> Option<u64> {
        self.active.get(&snap.0).copied()
    }

    /// Close `snap`, returning its timestamp (`None` if unknown or
    /// already closed — closing twice is harmless).
    pub fn end(&mut self, snap: SnapshotId) -> Option<u64> {
        self.active.remove(&snap.0)
    }

    /// Number of snapshots currently open.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The GC low-water mark: the minimum timestamp of any open
    /// snapshot, or `current_ts` when none is open (then only the
    /// latest version of each item is reachable).
    pub fn low_water(&self, current_ts: u64) -> u64 {
        self.active.values().copied().min().unwrap_or(current_ts)
    }
}

/// The version of `item` visible at `snap`'s timestamp: the cell
/// itself (one direct index lookup) unless a commit newer than the
/// snapshot has overwritten it, in which case the side chain holds the
/// version the snapshot pinned.
pub(crate) fn read_at(
    snapshots: &SnapshotManager,
    cells: &Cells,
    superseded: &SideChains,
    snap: SnapshotId,
    item: ItemId,
) -> Result<ReadResult, StorageError> {
    let ts = snapshots.ts_of(snap).ok_or(StorageError::NoSuchSnapshot(snap.0))?;
    let cell = cells.get(item).ok_or(StorageError::NoSuchItem(item))?;
    if cell.commit_ts() <= ts {
        return Ok(ReadResult { value: cell.value(), writer: cell.writer() });
    }
    let version = superseded.visible_at(item, ts).ok_or(StorageError::NoSuchItem(item))?;
    Ok(ReadResult { value: version.value.clone(), writer: version.writer })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_pin_their_begin_timestamp() {
        let mut m = SnapshotManager::new();
        let a = m.begin(5);
        let b = m.begin(9);
        assert_eq!(m.ts_of(a), Some(5));
        assert_eq!(m.ts_of(b), Some(9));
        assert_ne!(a, b);
    }

    #[test]
    fn low_water_is_min_active_else_current() {
        let mut m = SnapshotManager::new();
        assert_eq!(m.low_water(42), 42);
        let a = m.begin(5);
        let b = m.begin(9);
        assert_eq!(m.low_water(42), 5);
        m.end(a);
        assert_eq!(m.low_water(42), 9);
        m.end(b);
        assert_eq!(m.low_water(42), 42);
    }

    #[test]
    fn double_end_is_harmless() {
        let mut m = SnapshotManager::new();
        let a = m.begin(3);
        assert_eq!(m.end(a), Some(3));
        assert_eq!(m.end(a), None);
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.ts_of(a), None);
    }
}
