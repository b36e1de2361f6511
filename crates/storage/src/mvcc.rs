//! Versions for multi-version snapshot reads.
//!
//! Strict 2PL serializes read-only transactions against the propagation
//! write stream: every S lock a read takes is an X-lock conflict waiting
//! to happen. The classic escape (C5, Parallel Deferred Update
//! Replication) is multi-versioning — writers install *new* versions
//! stamped with a monotone commit timestamp, and read-only transactions
//! read the newest version at or below a snapshot timestamp fixed when
//! they begin. No locks, no blocking, no aborts on the read path.
//!
//! A site keeps **one** resident [`Version`] per item: the store's cell
//! *is* the newest committed version. Older versions exist only on
//! demand — while a snapshot is open, a commit moves each cell it
//! overwrites into that item's side chain here ([`SideChains::push`]),
//! and closing the snapshot garbage-collects the chains again
//! ([`SideChains::gc_below`]). With no snapshot open the chains are
//! empty and the commit path never touches this module.
//!
//! The policy layer — which timestamp a snapshot gets, the GC low-water
//! mark — lives in [`crate::snapshot::SnapshotManager`]; the integration
//! (stamping cells at commit, the lock-free `read_snapshot` entry point)
//! in [`crate::Store`].
//!
//! Chains are kept in a `BTreeMap` so garbage collection visits items in
//! a deterministic order (the simulator's results must be a pure
//! function of the seed; the workspace's `clippy.toml` disallows the
//! hash-ordered maps).
//!
//! The snapshot read path never touches the lock manager: its one
//! function, `snapshot::read_at`, is not handed the lock table.

use std::collections::BTreeMap;

use repl_types::{GlobalTxnId, ItemId, Value};

/// One committed version of an item.
#[derive(Clone, Debug, PartialEq)]
pub struct Version {
    /// Commit timestamp of the transaction that installed this version
    /// (0 for the initial, pre-transactional value).
    pub commit_ts: u64,
    /// The value installed.
    pub value: Value,
    /// Logical writer (`None` for the initial value).
    pub writer: Option<GlobalTxnId>,
}

/// Superseded versions, per item, ascending by commit timestamp.
///
/// Every version in a chain is older than the item's cell, and
/// timestamps are strictly increasing along a chain: each commit gets a
/// fresh site-local timestamp and overwrites an item at most once (the
/// deduplicated write set). An item with no superseded version has no
/// entry.
#[derive(Clone, Debug, Default)]
pub struct SideChains {
    chains: BTreeMap<ItemId, Vec<Version>>,
}

impl SideChains {
    /// Keep `superseded`, the version of `item` a commit just
    /// overwrote, for the snapshots that can still read it.
    pub fn push(&mut self, item: ItemId, superseded: Version) {
        let chain = self.chains.entry(item).or_default();
        debug_assert!(
            chain.last().is_none_or(|last| last.commit_ts < superseded.commit_ts),
            "version timestamps must be strictly increasing"
        );
        chain.push(superseded);
    }

    /// The newest superseded version of `item` with `commit_ts <= ts`,
    /// if one that old was kept.
    pub fn visible_at(&self, item: ItemId, ts: u64) -> Option<&Version> {
        let chain = self.chains.get(&item)?;
        // Versions are ascending and timestamps unique per chain.
        let idx = chain.partition_point(|v| v.commit_ts <= ts);
        idx.checked_sub(1).map(|i| &chain[i])
    }

    /// Drop every version no snapshot at or above `low_water` can read:
    /// those whose successor — the next version in the chain, or the
    /// item's cell, whose timestamp `newest_ts` reports — is itself at
    /// or below `low_water`. Chains left empty are removed. Returns how
    /// many versions were dropped.
    pub fn gc_below(&mut self, low_water: u64, newest_ts: impl Fn(ItemId) -> u64) -> usize {
        let mut dropped = 0;
        self.chains.retain(|&item, chain| {
            let drop_n = if newest_ts(item) <= low_water {
                chain.len()
            } else {
                chain.partition_point(|v| v.commit_ts <= low_water).saturating_sub(1)
            };
            chain.drain(..drop_n);
            dropped += drop_n;
            !chain.is_empty()
        });
        dropped
    }

    /// Total number of superseded versions retained — zero while no
    /// snapshot is open.
    pub fn total_versions(&self) -> usize {
        self.chains.values().map(Vec::len).sum()
    }

    /// Heap bytes of the chains, counting a map entry as its key and
    /// vector (the B-tree's node overhead is not counted).
    pub fn heap_bytes(&self) -> usize {
        let entry = size_of::<ItemId>() + size_of::<Vec<Version>>();
        self.chains.values().map(|chain| entry + chain.capacity() * size_of::<Version>()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_types::SiteId;

    fn gid(n: u64) -> GlobalTxnId {
        GlobalTxnId::new(SiteId(0), n)
    }

    /// Item 0 with superseded versions at ts 0, 3, 7; its cell (not
    /// held here) is at ts 9.
    const CELL_TS: u64 = 9;

    fn chains_with_history() -> SideChains {
        let mut c = SideChains::default();
        c.push(ItemId(0), Version { commit_ts: 0, value: Value::Initial, writer: None });
        c.push(ItemId(0), Version { commit_ts: 3, value: Value::int(30), writer: Some(gid(3)) });
        c.push(ItemId(0), Version { commit_ts: 7, value: Value::int(70), writer: Some(gid(7)) });
        c
    }

    #[test]
    fn visibility_picks_newest_at_or_below() {
        let c = chains_with_history();
        assert_eq!(c.visible_at(ItemId(0), 0).unwrap().value, Value::Initial);
        assert_eq!(c.visible_at(ItemId(0), 2).unwrap().value, Value::Initial);
        assert_eq!(c.visible_at(ItemId(0), 3).unwrap().value, Value::int(30));
        assert_eq!(c.visible_at(ItemId(0), 8).unwrap().value, Value::int(70));
        assert_eq!(c.visible_at(ItemId(0), 8).unwrap().writer, Some(gid(7)));
    }

    #[test]
    fn unknown_item_has_no_version() {
        let c = chains_with_history();
        assert!(c.visible_at(ItemId(9), 100).is_none());
    }

    #[test]
    fn gc_keeps_the_low_water_version() {
        let mut c = chains_with_history();
        // A snapshot at ts 7 still needs the ts-7 version, but nothing
        // older.
        let dropped = c.gc_below(7, |_| CELL_TS);
        assert_eq!(dropped, 2); // ts 0 and ts 3 go
        assert_eq!(c.total_versions(), 1);
        assert_eq!(c.visible_at(ItemId(0), 7).unwrap().value, Value::int(70));
    }

    #[test]
    fn gc_between_versions_keeps_the_covering_one() {
        let mut c = chains_with_history();
        // Low water 5: a snapshot at 5 reads the ts-3 version, so ts 3
        // must survive even though 3 < 5.
        let dropped = c.gc_below(5, |_| CELL_TS);
        assert_eq!(dropped, 1); // only ts 0 goes
        assert_eq!(c.visible_at(ItemId(0), 5).unwrap().value, Value::int(30));
    }

    #[test]
    fn gc_at_or_above_the_cell_empties_the_chain() {
        let mut c = chains_with_history();
        c.push(ItemId(1), Version { commit_ts: 0, value: Value::Initial, writer: None });
        assert_eq!(c.total_versions(), 4);
        // Item 0's cell (ts 9) is visible to every snapshot from ts 9
        // on, so nothing older is reachable; item 1's cell is newer.
        let dropped = c.gc_below(CELL_TS, |item| if item == ItemId(0) { CELL_TS } else { 12 });
        assert_eq!(dropped, 3);
        assert!(c.visible_at(ItemId(0), 8).is_none());
        assert_eq!(c.total_versions(), 1);
        c.gc_below(12, |_| 12);
        assert_eq!(c.total_versions(), 0);
    }
}
