//! The byte census explains a site's heap. A `GlobalAlloc` wrapper
//! counts the live bytes allocated and freed on each site's reactor
//! thread of an in-process `chain3` fleet; after a fixed 2000-transaction
//! pass, each site's census (its `Stats` reply) must account for at
//! least 95 % of them, and claim no more than the site holds.
//!
//! The census reports capacities, structure by structure, so a census
//! that left out one that grows with the copies held — the cells, the
//! checkpoint, the link logs — would fall short at every site.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use repl_copygraph::DataPlacement;
use repl_runtime::{census_line, Cluster, ClusterHandle, RuntimeProtocol, CENSUS};
use repl_types::{ItemId, Op, SiteId};

/// Live bytes allocated on the reactor thread of each site (`site-N`).
static LIVE: [AtomicIsize; 3] = [const { AtomicIsize::new(0) }; 3];

thread_local! {
    /// Which site this thread is the reactor of: unknown, none, being
    /// decided (an allocation made while asking for the thread's name is
    /// not counted), or the site's index.
    static SITE: Cell<usize> = const { Cell::new(UNKNOWN) };
}
const UNKNOWN: usize = usize::MAX;
const NONE: usize = usize::MAX - 1;
const DECIDING: usize = usize::MAX - 2;

fn site_of_thread() -> Option<usize> {
    SITE.try_with(|s| {
        if s.get() == UNKNOWN {
            s.set(DECIDING);
            let name = std::thread::current().name().map(str::to_owned);
            let site = name.as_deref().and_then(|n| n.strip_prefix("site-")?.parse().ok());
            s.set(site.filter(|&i: &usize| i < LIVE.len()).unwrap_or(NONE));
        }
        s.get()
    })
    .ok()
    .filter(|&i| i < LIVE.len())
}

fn count(bytes: isize) {
    if let Some(site) = site_of_thread() {
        LIVE[site].fetch_add(bytes, Relaxed);
    }
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Transactions in the pass, spread over the three sites in turn.
const TXNS: u64 = 2000;

/// The benchmark's update shape: 6 reads of copies at `site`, then 4
/// writes of its primaries, picked by a fixed LCG.
fn update(placement: &DataPlacement, site: SiteId, rng: &mut u64) -> Vec<Op> {
    let mut pick = |from: &[ItemId], ops: &[Op]| loop {
        *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let item = from[(*rng >> 33) as usize % from.len()];
        if ops.iter().all(|op| op.item != item) {
            return item;
        }
    };
    let mut ops = Vec::new();
    while ops.len() < 6 {
        let item = pick(placement.items_at(site), &ops);
        ops.push(Op::read(item));
    }
    while ops.len() < 10 {
        let item = pick(placement.primaries_at(site), &ops);
        ops.push(Op::write(item, ops.len() as i64));
    }
    ops
}

#[test]
fn the_census_explains_each_sites_heap() {
    let placement = DataPlacement::from_spec("3|0:1,2*1000|1:2*1000|2*1000").unwrap();
    let cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    let mut rng = 9;
    for k in 0..TXNS {
        let site = SiteId((k % 3) as u32);
        cluster.execute(site, update(&placement, site, &mut rng)).unwrap();
    }
    cluster.quiesce();
    for site in placement.sites() {
        // The first reply sizes the connection's write buffer; the
        // second is read against the live bytes between them.
        ClusterHandle::stats(&cluster, site).unwrap();
        let live = LIVE[site.index()].load(Relaxed) as u64;
        let census = ClusterHandle::stats(&cluster, site).unwrap().census;
        assert_eq!(census.len(), CENSUS.len());
        let total: u64 = census.iter().sum();
        eprintln!("{site}: live={live} {}", census_line(&census));
        assert!(total * 100 >= live * 95, "{site}: the census explains {total} of {live} bytes");
        assert!(total <= live + 4096, "{site}: the census claims {total} of {live} bytes");
    }
    assert!(cluster.check_serializability().is_ok());
    cluster.shutdown();
}
