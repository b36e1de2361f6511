//! Allocation budget of a parsed [`DataPlacement`], counted by a
//! `GlobalAlloc` wrapper on the test's own thread: four bytes an item
//! for its run index plus four per copy and per primary in the per-site
//! indexes, in a number of allocations that does not depend on how many
//! items there are — nor on whether the spec names them run by run or
//! item by item.
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

/// The benchmark's `chain3` placement with `per_site` items a site, in
/// run form: s0's items replicated at {s1, s2}, s1's at {s2}, s2's
/// nowhere.
fn chain3_runs(per_site: u32) -> String {
    format!("3|0:1,2*{per_site}|1:2*{per_site}|2*{per_site}")
}

/// The same placement with one field per item, as specs were written
/// before they had run lengths.
fn chain3_items(per_site: usize) -> String {
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
    let spec = chain3_runs(1000);
    let (live, allocs, placement) = parse_cost(&spec);
    assert_eq!(placement.num_items(), 3000);
    assert_eq!(placement.to_spec(), spec);
    // 4 B run index + 4 B per copy (two on average) + 4 B primary
    // index = 16 B an item; the rest is per site and per run.
    const FIXED: isize = 256;
    assert!(live <= 16 * 3000 + FIXED, "{live} live bytes for 3000 items");
    assert!(allocs <= 16, "{allocs} allocations");

    let (live2, allocs2, _twice) = parse_cost(&chain3_runs(2000));
    assert_eq!(allocs2, allocs, "allocation count depends on the item count");
    assert_eq!(live2 - live, 16 * 3000, "a further 3000 items are not 16 B each");
}

/// The per-item form is the count-one case of the same grammar: it
/// parses to the same bytes in the same allocations as the run form.
#[test]
fn both_forms_of_chain3_parse_to_the_same_bytes_and_allocations() {
    for per_site in [2, 1000] {
        let (runs_live, runs_allocs, runs) = parse_cost(&chain3_runs(per_site));
        let (items_live, items_allocs, items) = parse_cost(&chain3_items(per_site as usize));
        assert_eq!((items_live, items_allocs), (runs_live, runs_allocs), "{per_site} a site");
        assert_eq!(items.to_spec(), runs.to_spec());
        assert_eq!(items.per_item_spec().to_string(), chain3_items(per_site as usize));
    }
}

/// What `repld` receives on its command line grows with the runs, not
/// the items: a hundred times the items changes the count digits only.
#[test]
fn run_form_spec_differs_only_in_its_counts() {
    let small = DataPlacement::from_spec(&chain3_items(1000)).unwrap().to_spec();
    let large = DataPlacement::from_spec(&chain3_items(100_000)).unwrap();
    assert_eq!(large.num_items(), 300_000);
    assert_eq!(large.to_spec().replace("100000", "1000"), small);
    assert_eq!(large.to_spec().len(), small.len() + 3 * 2);
}
