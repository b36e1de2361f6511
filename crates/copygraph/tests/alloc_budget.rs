//! Allocation budget of a parsed [`DataPlacement`], counted by a
//! `GlobalAlloc` wrapper on the test's own thread: its runs and nothing
//! per item, in bytes and allocations that do not depend on how many
//! items there are — nor on whether the spec names them run by run or
//! item by item. A per-site item list costs four bytes an entry, and
//! only once it is asked for.
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
fn chain3_placement_costs_the_same_bytes_at_any_item_count() {
    let spec = chain3_runs(1000);
    let (live, allocs, placement) = parse_cost(&spec);
    assert_eq!(placement.num_items(), 3000);
    assert_eq!(placement.to_spec(), spec);
    // Three runs, three replica entries and two lazy list slots a site.
    assert!(live <= 512, "{live} live bytes for 3000 items");
    assert!(allocs <= 8, "{allocs} allocations");
    assert_eq!(placement.heap_bytes(), live as usize);

    let (live2, allocs2, large) = parse_cost(&chain3_runs(100_000));
    assert_eq!(large.num_items(), 300_000);
    assert_eq!((live2, allocs2), (live, allocs), "parsing cost depends on the item count");

    // A per-site list is paid when it is asked for, 4 B an entry: s2
    // holds every item, s0 is the primary of a third of them.
    let (before, _) = COUNTS.with(Cell::get);
    assert_eq!(large.items_at(repl_types::SiteId(2)).len(), 300_000);
    assert_eq!(large.primaries_at(repl_types::SiteId(0)).len(), 100_000);
    let (after, _) = COUNTS.with(Cell::get);
    assert_eq!(after - before, 4 * 400_000);
    assert_eq!(large.heap_bytes(), live as usize + 4 * 400_000);
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
