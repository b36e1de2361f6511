//! Allocation budget of a parsed [`DataPlacement`], counted by a
//! `GlobalAlloc` wrapper on the test's own thread: four bytes an item
//! for its layout index plus four per copy and per primary in the
//! per-site indexes, in a number of allocations that does not depend on
//! how many items there are.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use repl_copygraph::DataPlacement;

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

/// The benchmark's `chain3` placement with `per_site` items a site:
/// s0's items replicated at {s1, s2}, s1's at {s2}, s2's nowhere.
fn chain3_spec(per_site: usize) -> String {
    format!("3{}{}{}", "|0:1,2".repeat(per_site), "|1:2".repeat(per_site), "|2".repeat(per_site))
}

/// `(live bytes, allocations)` of parsing `spec`, and the placement.
fn parse_cost(spec: &str) -> (isize, usize, DataPlacement) {
    let (live0, allocs0) = COUNTS.with(Cell::get);
    let placement = DataPlacement::from_spec(spec).unwrap();
    let (live1, allocs1) = COUNTS.with(Cell::get);
    (live1 - live0, allocs1 - allocs0, placement)
}

#[test]
fn chain3_placement_is_sixteen_bytes_an_item() {
    let spec = chain3_spec(1000);
    let (live, allocs, placement) = parse_cost(&spec);
    assert_eq!(placement.num_items(), 3000);
    assert_eq!(placement.to_spec(), spec);
    // 4 B layout index + 4 B per copy (two on average) + 4 B primary
    // index = 16 B an item; the rest is per site and per layout.
    const FIXED: isize = 256;
    assert!(live <= 16 * 3000 + FIXED, "{live} live bytes for 3000 items");
    assert!(allocs <= 16, "{allocs} allocations");

    let (live2, allocs2, _twice) = parse_cost(&chain3_spec(2000));
    assert_eq!(allocs2, allocs, "allocation count depends on the item count");
    assert_eq!(live2 - live, 16 * 3000, "a further 3000 items are not 16 B each");
}
