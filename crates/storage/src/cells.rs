//! The site's item copies: a dense array of cells behind a direct index.
//!
//! The paper's prototype reached an item through a hash index on its
//! identifier. Item ids here are small dense integers (the placement
//! hands them out counting from zero), so the index is the identity: one
//! `u32` per id names the item's cell, and the cells — each the newest
//! committed [`Version`] of its item — sit in one exact-size array in
//! creation order. A lookup is two array reads and no hashing.
//!
//! A cell is a [`Version`] packed into 32 bytes: the commit timestamp,
//! the writer as its origin (with a sentinel for "none") and sequence,
//! the value's kind, and its 8-byte payload — the integer the workloads
//! write. A byte string, rare, is kept apart, in a map by item, so that
//! no cell pays for it. A site pays 36 bytes per copy (32 for the cell,
//! 4 for its index entry) whatever its item count, in two allocations.
//! Callers see [`Version`]s and [`Value`]s only: the cells pack on the
//! way in and unpack on the way out.
//!
//! The index spans ids `0..=largest id held`, so an id the site holds
//! no copy of costs 4 bytes if a larger one is held: sparse ids are
//! legal, merely not free.
//!
//! This is the cell lookup of the lock-free snapshot-read path,
//! `snapshot::read_at`, which is not handed the lock table.

use std::collections::BTreeMap;

use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

use crate::mvcc::Version;

/// Index entry of an id this site holds no copy of.
const NO_COPY: u32 = u32::MAX;

/// Origin of a cell nobody has written. Site ids are below the site
/// count, itself a `u32`, so no writer has this origin.
const NO_WRITER: u32 = u32::MAX;

/// Which [`Value`] a cell holds.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Initial,
    /// The integer is the cell's payload.
    Int,
    /// The bytes are in [`Cells::bytes`].
    Bytes,
}

/// One copy's newest committed version, packed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Cell {
    commit_ts: u64,
    /// The writer's sequence number; 0 when `origin` is [`NO_WRITER`].
    seq: u64,
    /// An `Int` value; 0 otherwise.
    payload: i64,
    /// The writer's origin site, or [`NO_WRITER`].
    origin: u32,
    kind: Kind,
}

impl Cell {
    fn writer(&self) -> Option<GlobalTxnId> {
        (self.origin != NO_WRITER).then(|| GlobalTxnId::new(SiteId(self.origin), self.seq))
    }
}

/// A cell as its readers see it: the packed cell and, for a byte
/// string, the value it names.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CellRef<'a> {
    cell: &'a Cell,
    bytes: Option<&'a Value>,
}

impl CellRef<'_> {
    /// Commit timestamp of the version.
    pub(crate) fn commit_ts(&self) -> u64 {
        self.cell.commit_ts
    }

    /// The version's logical writer.
    pub(crate) fn writer(&self) -> Option<GlobalTxnId> {
        self.cell.writer()
    }

    /// The version's value, unpacked.
    pub(crate) fn value(&self) -> Value {
        self.with_value(Value::clone)
    }

    /// Call `f` with the version's value by reference: a byte string
    /// is lent from where it is kept, not copied.
    pub(crate) fn with_value<T>(&self, f: impl FnOnce(&Value) -> T) -> T {
        match (self.cell.kind, self.bytes) {
            (Kind::Int, _) => f(&Value::Int(self.cell.payload)),
            (Kind::Bytes, Some(bytes)) => f(bytes),
            _ => f(&Value::Initial),
        }
    }
}

/// Item → its newest committed version.
#[derive(Debug, Default)]
pub(crate) struct Cells {
    /// One cell per copy, in creation order.
    cells: Vec<Cell>,
    /// `slot_of[id]`: position of the item's cell in `cells`, or
    /// [`NO_COPY`]. Ids past the end have no copy either.
    slot_of: Vec<u32>,
    /// The value of each cell of kind [`Kind::Bytes`], by item.
    bytes: BTreeMap<ItemId, Value>,
}

impl Cells {
    /// Room for `items` copies with ids below `items` in exactly two
    /// allocations; more copies or larger ids grow the arrays.
    pub(crate) fn with_capacity(items: usize) -> Self {
        Cells {
            cells: Vec::with_capacity(items),
            slot_of: Vec::with_capacity(items),
            bytes: BTreeMap::new(),
        }
    }

    /// Give back what [`Cells::with_capacity`] and growth reserved beyond
    /// the copies actually created.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.cells.shrink_to_fit();
        self.slot_of.shrink_to_fit();
    }

    /// Number of copies.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// Heap bytes of the cells and the index, and of the byte strings
    /// (an entry of their map counted as its key and value).
    pub(crate) fn heap_bytes(&self) -> usize {
        let held = |value: &Value| match value {
            Value::Bytes(bytes) => bytes.capacity(),
            _ => 0,
        };
        let entry = size_of::<ItemId>() + size_of::<Value>();
        let bytes: usize = self.bytes.values().map(|value| entry + held(value)).sum();
        self.cells.capacity() * size_of::<Cell>() + self.slot_of.capacity() * 4 + bytes
    }

    fn slot(&self, item: ItemId) -> Option<usize> {
        self.slot_of.get(item.index()).filter(|&&slot| slot != NO_COPY).map(|&slot| slot as usize)
    }

    /// True if the site holds a copy of `item`.
    pub(crate) fn contains(&self, item: ItemId) -> bool {
        self.slot(item).is_some()
    }

    /// The cell of `item`.
    pub(crate) fn get(&self, item: ItemId) -> Option<CellRef<'_>> {
        let cell = &self.cells[self.slot(item)?];
        let bytes = if cell.kind == Kind::Bytes { self.bytes_of(item) } else { None };
        Some(CellRef { cell, bytes })
    }

    /// The version of `item`, unpacked.
    #[cfg(test)]
    pub(crate) fn version(&self, item: ItemId) -> Option<Version> {
        self.get(item).map(|c| Version {
            commit_ts: c.commit_ts(),
            value: c.value(),
            writer: c.writer(),
        })
    }

    /// Pack `version` as the cell of `item`, keeping a byte string apart.
    fn pack(&mut self, item: ItemId, Version { commit_ts, value, writer }: Version) -> Cell {
        let (origin, seq) = match writer {
            Some(gid) => {
                assert_ne!(gid.origin.0, NO_WRITER, "site id {NO_WRITER} is out of every range");
                (gid.origin.0, gid.seq)
            }
            None => (NO_WRITER, 0),
        };
        let (kind, payload) = match value {
            Value::Initial => (Kind::Initial, 0),
            Value::Int(v) => (Kind::Int, v),
            bytes @ Value::Bytes(_) => {
                self.keep_bytes(item, bytes);
                (Kind::Bytes, 0)
            }
        };
        Cell { commit_ts, seq, payload, origin, kind }
    }

    /// The version `cell`, the cell of `item`, packed, taking back its
    /// byte string.
    fn unpack(&mut self, item: ItemId, cell: Cell) -> Version {
        let value = match cell.kind {
            Kind::Initial => Value::Initial,
            Kind::Int => Value::Int(cell.payload),
            Kind::Bytes => self.take_bytes(item),
        };
        Version { commit_ts: cell.commit_ts, value, writer: cell.writer() }
    }

    // The byte-string map's three uses, out of line: the workloads write
    // integers, and a site's hot text should not carry the map's code.

    #[cold]
    #[inline(never)]
    fn bytes_of(&self, item: ItemId) -> Option<&Value> {
        self.bytes.get(&item)
    }

    #[cold]
    #[inline(never)]
    fn keep_bytes(&mut self, item: ItemId, bytes: Value) {
        self.bytes.insert(item, bytes);
    }

    #[cold]
    #[inline(never)]
    fn take_bytes(&mut self, item: ItemId) -> Value {
        self.bytes.remove(&item).unwrap_or_default()
    }

    /// Install `version` as the cell of `item`, which the site holds,
    /// and return the version it replaces.
    pub(crate) fn replace(&mut self, item: ItemId, version: Version) -> Option<Version> {
        let slot = self.slot(item)?;
        let old = self.unpack(item, self.cells[slot]);
        self.cells[slot] = self.pack(item, version);
        Some(old)
    }

    /// Create the copy of `item` at `version`, or replace it.
    pub(crate) fn insert(&mut self, item: ItemId, version: Version) {
        if let Some(slot) = self.slot(item) {
            self.unpack(item, self.cells[slot]);
            self.cells[slot] = self.pack(item, version);
            return;
        }
        if self.slot_of.len() <= item.index() {
            self.slot_of.resize(item.index() + 1, NO_COPY);
        }
        let slot = u32::try_from(self.cells.len()).ok().filter(|&slot| slot != NO_COPY);
        self.slot_of[item.index()] = slot.expect("item ids are u32: fewer than u32::MAX copies");
        let cell = self.pack(item, version);
        self.cells.push(cell);
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
        assert_eq!((cells.cells.capacity(), cells.slot_of.capacity()), (100, 100));
        assert_eq!(cells.version(ItemId(42)), Some(version(42)));
        assert!(!cells.contains(ItemId(100)));
        assert!(cells.get(ItemId(u32::MAX)).is_none());
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
        assert_eq!(cells.version(ItemId(1000)), Some(version(7)));
        assert_eq!(cells.replace(ItemId(3), version(9)), Some(version(2)));
        assert_eq!(cells.get(ItemId(3)).unwrap().commit_ts(), 9);
        assert_eq!(cells.replace(ItemId(4), version(9)), None);
        cells.shrink_to_fit();
        assert_eq!((cells.cells.capacity(), cells.slot_of.capacity()), (2, 1001));
    }

    /// A cell is at most 40 bytes — 32: the commit timestamp, the
    /// writer's sequence, the value's payload, the writer's origin and
    /// the value's kind. Unpacked, a `Version` was 56.
    #[test]
    fn a_packed_cell_is_at_most_forty_bytes() {
        assert!(size_of::<Cell>() <= 40);
        assert_eq!(size_of::<Cell>(), 32);
        assert_eq!(size_of::<Version>(), 56);
        let mut cells = Cells::with_capacity(10);
        (0..10).for_each(|i| cells.insert(ItemId(i), version(i64::from(i))));
        assert_eq!(cells.heap_bytes(), 10 * 36);
    }

    /// Every value kind and both writer states come back as they went in.
    #[test]
    fn packing_round_trips_every_version() {
        let gid = |origin, seq| Some(GlobalTxnId::new(SiteId(origin), seq));
        let versions = [
            Version { commit_ts: 0, value: Value::Initial, writer: None },
            Version { commit_ts: 3, value: Value::Initial, writer: gid(0, 0) },
            Version { commit_ts: u64::MAX, value: Value::int(i64::MIN), writer: gid(7, u64::MAX) },
            Version { commit_ts: 5, value: Value::Bytes(vec![]), writer: gid(u32::MAX - 1, 1) },
            Version { commit_ts: 6, value: Value::Bytes(vec![1, 2, 3]), writer: None },
        ];
        let mut cells = Cells::default();
        for (i, v) in versions.iter().enumerate() {
            cells.insert(ItemId(i as u32), v.clone());
        }
        for (i, v) in versions.iter().enumerate() {
            let cell = cells.get(ItemId(i as u32)).unwrap();
            assert_eq!(
                (cell.commit_ts(), cell.writer(), cell.value()),
                (v.commit_ts, v.writer, v.value.clone())
            );
            assert_eq!(cell.with_value(Clone::clone), v.value);
            assert_eq!(cells.version(ItemId(i as u32)).as_ref(), Some(v));
        }
        cells.shrink_to_fit();
        let entry = size_of::<ItemId>() + size_of::<Value>();
        assert_eq!(cells.heap_bytes(), 5 * 36 + 2 * entry + 3);
        // A byte string replaced by an integer, and one by another, leave
        // the map holding only what the cells name.
        assert_eq!(cells.replace(ItemId(3), versions[2].clone()), Some(versions[3].clone()));
        assert_eq!(cells.replace(ItemId(4), versions[3].clone()), Some(versions[4].clone()));
        assert_eq!(cells.bytes.len(), 1);
        assert_eq!(cells.version(ItemId(4)).as_ref(), Some(&versions[3]));
        cells.insert(ItemId(4), versions[0].clone());
        assert!(cells.bytes.is_empty());
    }

    proptest! {
        /// Byte strings, integers and initial values replacing each
        /// other: the cells stay a map from item to the last version
        /// inserted, and keep exactly the byte strings they name.
        #[test]
        fn byte_strings_come_and_go_with_their_cells(
            ops in prop::collection::vec((0u32..50, 0u8..3, 0u8..8), 0..200),
        ) {
            let mut cells = Cells::default();
            let mut model: BTreeMap<u32, Version> = BTreeMap::new();
            for (item, kind, n) in ops {
                let value = match kind {
                    0 => Value::Initial,
                    1 => Value::int(i64::from(n)),
                    _ => Value::Bytes(vec![n; usize::from(n)]),
                };
                let v = Version { commit_ts: u64::from(n), value, writer: None };
                cells.insert(ItemId(item), v.clone());
                model.insert(item, v);
            }
            for item in 0..50 {
                prop_assert_eq!(cells.version(ItemId(item)), model.get(&item).cloned());
            }
            let named = model.values().filter(|v| matches!(v.value, Value::Bytes(_))).count();
            prop_assert_eq!(cells.bytes.len(), named);
        }

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
                prop_assert_eq!(cells.version(ItemId(item)), model.get(&item).map(|&n| version(n)));
                prop_assert_eq!(cells.contains(ItemId(item)), model.contains_key(&item));
            }
        }
    }
}
