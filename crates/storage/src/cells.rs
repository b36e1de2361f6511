//! The site's item copies: a dense array of cells behind a direct index.
//!
//! The paper's prototype reached an item through a hash index on its
//! identifier. Item ids here are small dense integers (the placement
//! hands them out counting from zero), so the index is the identity: one
//! `u32` per id names the item's cell, and the cells — each the newest
//! committed [`Version`] of its item — sit in one exact-size array in
//! creation order. A lookup is two array reads and no hashing; a site
//! pays 60 bytes per copy (56 for the cell, 4 for its index entry)
//! whatever its item count, in two allocations.
//!
//! The index spans ids `0..=largest id held`, so an id the site holds
//! no copy of costs 4 bytes if a larger one is held: sparse ids are
//! legal, merely not free.
//!
//! This is the cell lookup of the lock-free snapshot-read path,
//! `snapshot::read_at`, which is not handed the lock table.

use repl_types::ItemId;

use crate::mvcc::Version;

/// Index entry of an id this site holds no copy of.
const NO_COPY: u32 = u32::MAX;

/// Item → its newest committed version.
#[derive(Debug, Default)]
pub(crate) struct Cells {
    /// One cell per copy, in creation order.
    versions: Vec<Version>,
    /// `slot_of[id]`: position of the item's cell in `versions`, or
    /// [`NO_COPY`]. Ids past the end have no copy either.
    slot_of: Vec<u32>,
}

impl Cells {
    /// Room for `items` copies with ids below `items` in exactly two
    /// allocations; more copies or larger ids grow the arrays.
    pub(crate) fn with_capacity(items: usize) -> Self {
        Cells { versions: Vec::with_capacity(items), slot_of: Vec::with_capacity(items) }
    }

    /// Give back what [`Cells::with_capacity`] and growth reserved beyond
    /// the copies actually created.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.versions.shrink_to_fit();
        self.slot_of.shrink_to_fit();
    }

    /// Number of copies.
    pub(crate) fn len(&self) -> usize {
        self.versions.len()
    }

    fn slot(&self, item: ItemId) -> Option<usize> {
        self.slot_of.get(item.index()).filter(|&&slot| slot != NO_COPY).map(|&slot| slot as usize)
    }

    /// True if the site holds a copy of `item`.
    pub(crate) fn contains(&self, item: ItemId) -> bool {
        self.slot(item).is_some()
    }

    /// The cell of `item`.
    pub(crate) fn get(&self, item: ItemId) -> Option<&Version> {
        self.slot(item).map(|slot| &self.versions[slot])
    }

    /// The cell of `item`, for installing a newer version.
    pub(crate) fn get_mut(&mut self, item: ItemId) -> Option<&mut Version> {
        self.slot(item).map(|slot| &mut self.versions[slot])
    }

    /// Create the copy of `item` at `version`, or replace it.
    pub(crate) fn insert(&mut self, item: ItemId, version: Version) {
        if let Some(cell) = self.get_mut(item) {
            *cell = version;
            return;
        }
        if self.slot_of.len() <= item.index() {
            self.slot_of.resize(item.index() + 1, NO_COPY);
        }
        let slot = u32::try_from(self.versions.len()).ok().filter(|&slot| slot != NO_COPY);
        self.slot_of[item.index()] = slot.expect("item ids are u32: fewer than u32::MAX copies");
        self.versions.push(version);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use repl_types::Value;
    use std::collections::BTreeMap;

    fn version(n: i64) -> Version {
        Version { commit_ts: n as u64, value: Value::int(n), writer: None }
    }

    #[test]
    fn dense_ids_fill_both_arrays_exactly() {
        let mut cells = Cells::with_capacity(100);
        for i in 0..100 {
            cells.insert(ItemId(i), version(i64::from(i)));
        }
        assert_eq!(cells.len(), 100);
        assert_eq!((cells.versions.capacity(), cells.slot_of.capacity()), (100, 100));
        assert_eq!(cells.get(ItemId(42)), Some(&version(42)));
        assert!(!cells.contains(ItemId(100)));
        assert_eq!(cells.get(ItemId(u32::MAX)), None);
    }

    #[test]
    fn a_sparse_id_costs_index_entries_not_cells() {
        let mut cells = Cells::default();
        cells.insert(ItemId(1000), version(1));
        cells.insert(ItemId(3), version(2));
        assert_eq!(cells.len(), 2);
        assert_eq!(cells.slot_of.len(), 1001);
        assert!(cells.contains(ItemId(3)) && cells.contains(ItemId(1000)));
        assert!(!cells.contains(ItemId(4)) && !cells.contains(ItemId(999)));
        // Replacing keeps the cell's place.
        cells.insert(ItemId(1000), version(7));
        assert_eq!(cells.len(), 2);
        assert_eq!(cells.get(ItemId(1000)), Some(&version(7)));
        cells.get_mut(ItemId(3)).unwrap().commit_ts = 9;
        assert_eq!(cells.get(ItemId(3)).unwrap().commit_ts, 9);
        cells.shrink_to_fit();
        assert_eq!((cells.versions.capacity(), cells.slot_of.capacity()), (2, 1001));
    }

    proptest! {
        /// Under any sequence of creations and replacements the cells
        /// are a map from item to the last version inserted.
        #[test]
        fn behaves_like_a_map(ops in prop::collection::vec((0u32..200, 0i64..1000), 0..300)) {
            let mut cells = Cells::default();
            let mut model: BTreeMap<u32, i64> = BTreeMap::new();
            for (item, n) in ops {
                cells.insert(ItemId(item), version(n));
                model.insert(item, n);
                prop_assert_eq!(cells.len(), model.len());
            }
            for item in 0..200 {
                prop_assert_eq!(cells.get(ItemId(item)).cloned(), model.get(&item).map(|&n| version(n)));
                prop_assert_eq!(cells.contains(ItemId(item)), model.contains_key(&item));
            }
        }
    }
}
