//! Allocation budget of a populated [`Store`]: what a site keeps per
//! item, counted by a `GlobalAlloc` wrapper on the test's own thread.
//!
//! One resident version per item: the hash index's slots are the only
//! per-item memory, allocated once, and with no snapshot open a stream
//! of updates leaves the live byte count exactly where it was.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use repl_storage::Store;
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

const ITEMS: u32 = 3000;

/// The paper's Table-1 update shape: 6 reads and 4 writes of distinct
/// items, picked by a fixed LCG.
fn table1_update(store: &mut Store, seq: u64, rng: &mut u64) {
    let gid = GlobalTxnId::new(SiteId(0), seq);
    let txn = store.begin();
    for op in 0..10 {
        *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let item = ItemId(((*rng >> 33) % u64::from(ITEMS)) as u32);
        if op < 6 {
            store.read(txn, item).unwrap();
        } else {
            store.write(txn, item, Value::int(seq as i64), gid).unwrap();
        }
    }
    store.commit(txn).unwrap();
}

#[test]
fn store_of_3000_items_is_one_version_per_item() {
    let (live0, allocs0) = counts();
    let mut store: Store = (0..ITEMS).map(|i| (ItemId(i), Value::Initial)).collect();
    let (live1, allocs1) = counts();
    let per_item = (live1 - live0) as f64 / f64::from(ITEMS);
    assert!(per_item <= 128.0, "{per_item} live bytes per item");
    assert!(allocs1 - allocs0 <= 32, "{} allocations", allocs1 - allocs0);

    // One update sizes the transaction and lock tables; from there on
    // commits replace values in place and keep nothing.
    let mut rng = 7;
    table1_update(&mut store, 0, &mut rng);
    let (warm, _) = counts();
    for seq in 1..=2000 {
        table1_update(&mut store, seq, &mut rng);
    }
    assert_eq!(counts().0, warm, "2000 updates with no snapshot open changed the live bytes");
    assert_eq!(store.version_count(), ITEMS as usize);

    // A snapshot makes commits keep what they overwrite; closing it
    // gives the versions back (the two emptied B-trees keep a root
    // node each, once).
    let mut seq = 2000;
    let mut round = |store: &mut Store| {
        let snap = store.begin_snapshot();
        let open = counts().0;
        for _ in 0..100 {
            seq += 1;
            table1_update(store, seq, &mut rng);
        }
        assert!(store.version_count() > ITEMS as usize);
        assert!(counts().0 > open);
        store.end_snapshot(snap);
        assert_eq!(store.version_count(), ITEMS as usize);
        counts().0
    };
    let closed = round(&mut store);
    assert!(closed - warm <= 1024, "closing the last snapshot left {} bytes", closed - warm);
    assert_eq!(round(&mut store), closed, "a second snapshot's versions were not all returned");
}
