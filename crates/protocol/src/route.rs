//! Pure routing and write-set helpers shared by both drivers.
//!
//! Before the extraction of `repl-protocol`, each driver carried its own
//! copy of "which sites must this commit reach" and "which of these
//! writes apply here". They are trivial, but duplicated trivia is where
//! the sim and the runtime used to drift apart.

use alloc::collections::BTreeMap;
use alloc::vec::Vec;

use repl_copygraph::DataPlacement;
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

/// The sentinel global id carried by DAG(T) dummy subtransactions.
///
/// Dummies are pure timestamp carriers (§3.3); they are not transactions
/// and must not consume a slot in the origin site's transaction-id
/// sequence (a heartbeat-rate-dependent id stream would make the final
/// copy state depend on wall-clock timing in the live runtime).
pub fn dummy_gid(site: SiteId) -> GlobalTxnId {
    GlobalTxnId::new(site, u64::MAX)
}

/// The write set of a transaction program in *ascending item order*,
/// last write per item winning. This is the canonical order used by the
/// live runtime (it executes writes under no lock contention).
pub fn planned_writes(ops: &[Op]) -> Vec<(ItemId, Value)> {
    let mut writes: BTreeMap<ItemId, Value> = BTreeMap::new();
    for op in ops {
        if op.is_write() {
            writes.insert(op.item, op.value.clone());
        }
    }
    writes.into_iter().collect()
}

/// The write set of a transaction program in *first-write order*, last
/// value per item winning. This is the order the simulator propagates in
/// (secondaries re-acquire locks write by write, so the order is part of
/// the simulated contention model).
pub fn write_set_in_order(ops: &[Op]) -> Vec<(ItemId, Value)> {
    let mut writes: Vec<(ItemId, Value)> = Vec::new();
    for op in ops {
        if op.is_write() {
            match writes.iter_mut().find(|(i, _)| *i == op.item) {
                Some((_, v)) => *v = op.value.clone(),
                None => writes.push((op.item, op.value.clone())),
            }
        }
    }
    writes
}

/// Every site other than `origin` holding a replica of a written item:
/// the set of sites a commit at `origin` must eventually reach. Sorted
/// ascending, deduplicated.
pub fn destinations(
    placement: &DataPlacement,
    origin: SiteId,
    writes: &[(ItemId, Value)],
) -> Vec<SiteId> {
    let mut dests: Vec<SiteId> = writes
        .iter()
        .flat_map(|(item, _)| placement.replicas_of(*item).iter().copied())
        .filter(|&s| s != origin)
        .collect();
    dests.sort_unstable();
    dests.dedup();
    dests
}

/// The subset of `writes` whose item has a copy at `site`, order
/// preserved.
pub fn writes_for_site(
    placement: &DataPlacement,
    site: SiteId,
    writes: &[(ItemId, Value)],
) -> Vec<(ItemId, Value)> {
    writes.iter().filter(|(item, _)| placement.has_copy(site, *item)).cloned().collect()
}
