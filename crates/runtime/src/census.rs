//! A site's byte census: the heap bytes each structure it owns holds.
//!
//! A site's resident set is its binary's pages plus its heap, and its
//! heap is a handful of structures, most of them sized per copy held or
//! per link sent on. The census names each one and reports its bytes by
//! capacity — what the allocator handed out, not what is in use — so a
//! change that claims a cut can be sized before and after from the
//! site's own output: a `Stats` reply carries it
//! ([`crate::SiteStats::census`]), and `repld` prints it on stderr at
//! shutdown.
//!
//! A map counts an entry as its key and value, not its B-tree nodes, and
//! a boxed value the cells or a queue hold counts its bytes; the small
//! fixed-size values a structure holds inline are in its capacity. What
//! no entry names is what the site does not own alone (the shared
//! placement's `Arc`, the options) and the wire's fault staging.

/// The census entries' names, in the order a `Stats` reply carries
/// them.
pub const CENSUS: [&str; 11] = [
    // The store's cells, their index and the snapshot side chains.
    "cells",
    // The checkpoint image of the copies written since boot.
    "checkpoint",
    // The redo log's segments and the group-commit staging.
    "wal",
    // The history log's segments.
    "history",
    // Each peer's link log and the per-peer link state.
    "links",
    // The placement's runs and the per-site lists built from them.
    "placement",
    // The connection slab and each connection's reader and write buffer.
    "conns",
    // The buffer socket reads land in.
    "read_scratch",
    // The protocol machine's queues and maps, and the site's per-peer marks.
    "machine",
    // The lock table and the transaction slabs.
    "locks",
    // The exec queue, the parked transaction, the epoll events and the
    // dial state.
    "exec",
];

/// `name=bytes` for every entry of `census` (in [`CENSUS`] order), then
/// `total=bytes`: the line `repld` prints at shutdown.
pub fn census_line(census: &[u64]) -> String {
    let mut line = String::new();
    for (name, bytes) in CENSUS.iter().zip(census) {
        line += &format!("{name}={bytes} ");
    }
    line + &format!("total={}", census.iter().sum::<u64>())
}
