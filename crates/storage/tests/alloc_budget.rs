//! Allocation budget of a [`Store`]: what a site keeps per item and
//! what a transaction allocates, counted by a `GlobalAlloc` wrapper on
//! the test's own thread.
//!
//! One resident version per item: the dense cell array and its direct
//! index are the only per-item memory — 36 bytes a copy in two
//! allocations, whatever the item count — and with no snapshot open a
//! stream of updates leaves the live byte count exactly where it was.
//! Once its tables are warm, a transaction allocates the read and write
//! set it hands back at commit and nothing else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use repl_storage::{CommitInfo, Store};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

thread_local! {
    /// `(live bytes, allocations)` made on this thread.
    static COUNTS: Cell<(isize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: isize, allocations: usize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = COUNTS.try_with(|c| {
        let (live, n) = c.get();
        c.set((live + bytes, n + allocations));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), 0);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counts() -> (isize, usize) {
    COUNTS.with(Cell::get)
}

/// The paper's Table-1 update shape: 6 reads and 4 writes of distinct
/// items, picked by a fixed LCG.
fn table1_update(store: &mut Store, items: u32, seq: u64, rng: &mut u64) -> CommitInfo {
    let gid = GlobalTxnId::new(SiteId(0), seq);
    let txn = store.begin();
    for op in 0..10 {
        *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let item = ItemId(((*rng >> 33) % u64::from(items)) as u32);
        if op < 6 {
            store.read(txn, item).unwrap();
        } else {
            store.write(txn, item, Value::int(seq as i64), gid).unwrap();
        }
    }
    store.commit(txn).unwrap().0
}

/// A store of `items` copies costs at most 36 bytes a copy in exactly
/// two allocations (with hashed slots it was 131 at 1000 and 2000, 87
/// at 3000; with unpacked 56-byte cells, 60), keeps nothing per update,
/// and gives back every version a snapshot made it keep.
fn store_is_one_version_per_item(items: u32) {
    let (live0, allocs0) = counts();
    let mut store: Store = (0..items).map(|i| (ItemId(i), Value::Initial)).collect();
    let (live1, allocs1) = counts();
    let per_item = (live1 - live0) as f64 / f64::from(items);
    assert!(per_item <= 36.0, "{per_item} live bytes per item");
    assert_eq!(allocs1 - allocs0, 2, "allocations");

    // One update sizes the transaction and lock tables; from there on
    // commits replace values in place and keep nothing.
    let mut rng = 7;
    table1_update(&mut store, items, 0, &mut rng);
    let (warm, _) = counts();
    for seq in 1..=2000 {
        table1_update(&mut store, items, seq, &mut rng);
    }
    assert_eq!(counts().0, warm, "2000 updates with no snapshot open changed the live bytes");
    assert_eq!(store.version_count(), items as usize);

    // A snapshot makes commits keep what they overwrite; closing it
    // gives the versions back (the two emptied B-trees keep a root
    // node each, once).
    let mut seq = 2000;
    let mut round = |store: &mut Store| {
        let snap = store.begin_snapshot();
        let open = counts().0;
        for _ in 0..100 {
            seq += 1;
            table1_update(store, items, seq, &mut rng);
        }
        assert!(store.version_count() > items as usize);
        assert!(counts().0 > open);
        store.end_snapshot(snap);
        assert_eq!(store.version_count(), items as usize);
        counts().0
    };
    let closed = round(&mut store);
    assert!(closed - warm <= 1024, "closing the last snapshot left {} bytes", closed - warm);
    assert_eq!(round(&mut store), closed, "a second snapshot's versions were not all returned");
}

#[test]
fn store_of_1000_items_is_one_version_per_item() {
    store_is_one_version_per_item(1000);
}

#[test]
fn store_of_2000_items_is_one_version_per_item() {
    store_is_one_version_per_item(2000);
}

#[test]
fn store_of_3000_items_is_one_version_per_item() {
    store_is_one_version_per_item(3000);
}

/// After 100 warm-up transactions a Table-1 update, a 4-write replica
/// apply and a 10-read transaction each allocate at most the vectors of
/// the `CommitInfo` they return: no lock-holder list, no table entry, no
/// per-transaction buffer.
#[test]
fn table1_update_allocates_only_what_it_returns() {
    const ITEMS: u32 = 1000;
    let mut store: Store = (0..ITEMS).map(|i| (ItemId(i), Value::Initial)).collect();
    let apply = |store: &mut Store, seq: u64| {
        let txn = store.begin();
        for j in 0..4 {
            let item = ItemId(((seq * 13 + j * 251) % u64::from(ITEMS)) as u32);
            store
                .write(txn, item, Value::int(seq as i64), GlobalTxnId::new(SiteId(1), seq))
                .unwrap();
        }
        store.commit(txn).unwrap().0
    };
    let read_only = |store: &mut Store, seq: u64| {
        let txn = store.begin();
        for j in 0..10 {
            store.read(txn, ItemId(((seq * 17 + j * 97) % u64::from(ITEMS)) as u32)).unwrap();
        }
        store.commit(txn).unwrap().0
    };
    let mut rng = 11;
    for seq in 0..100 {
        table1_update(&mut store, ITEMS, seq, &mut rng);
        apply(&mut store, seq);
        read_only(&mut store, seq);
    }
    // How many vectors `info` owns against how many allocations were
    // made since `before`.
    let check = |what: &str, before: usize, info: &CommitInfo, reads: usize, writes: usize| {
        assert_eq!((info.reads.len(), info.writes.len()), (reads, writes), "{what}");
        let returned = usize::from(reads > 0) + usize::from(writes > 0);
        let allocated = counts().1 - before;
        assert!(allocated <= returned, "{what}: {allocated} allocations for {returned} vectors");
    };
    for seq in 100..200 {
        let before = counts().1;
        let info = table1_update(&mut store, ITEMS, seq, &mut rng);
        check("update", before, &info, 6, info.writes.len());
        let before = counts().1;
        let info = apply(&mut store, seq);
        check("apply", before, &info, 0, 4);
        let before = counts().1;
        let info = read_only(&mut store, seq);
        check("read-only", before, &info, 10, 0);
    }
}

/// A client may send a transaction of as many operations as fit a frame.
/// What its read and write buffers grew to is given back when it
/// finishes — the next transaction gets at most 64 recycled entries of
/// each — so one wide transaction does not stay in the site's resident
/// set for good.
#[test]
fn a_wide_transaction_does_not_keep_its_buffers() {
    const ITEMS: u32 = 1000;
    let mut store: Store = (0..ITEMS).map(|i| (ItemId(i), Value::Initial)).collect();
    let mut rng = 3;
    for seq in 0..100 {
        table1_update(&mut store, ITEMS, seq, &mut rng);
    }
    let (warm, _) = counts();

    // 20 000 reads and as many writes of 8 items: the lock table stays
    // as it is, the two buffers grow past a megabyte.
    let gid = GlobalTxnId::new(SiteId(0), 100);
    let txn = store.begin();
    for k in 0..20_000 {
        let item = ItemId(k % 8);
        store.read(txn, item).unwrap();
        store.write(txn, item, Value::int(i64::from(k)), gid).unwrap();
    }
    assert!(counts().0 - warm > 1 << 20, "the wide transaction was not wide");
    let (info, _) = store.commit(txn).unwrap();
    assert_eq!((info.reads.len(), info.writes.len()), (20_000, 8));
    drop(info);

    table1_update(&mut store, ITEMS, 101, &mut rng);
    let kept = counts().0 - warm;
    assert!(kept <= 8 << 10, "{kept} bytes kept after one wide transaction");
}
