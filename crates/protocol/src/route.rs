//! Routing and write-set helpers shared by every driver: the structure
//! a protocol propagates on ([`Routing::build`]), which sites a commit
//! must reach, and which of its writes apply at a site. Each is written
//! once here because duplicated trivia is where the simulator and the
//! runtime drift apart.

use alloc::collections::BTreeMap;
use alloc::sync::Arc;
use alloc::vec::Vec;
use core::fmt;

use repl_copygraph::{BackEdgeSet, CopyGraph, DataPlacement, PropagationTree};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

use crate::machine::ProtocolKind;

/// Propagation-tree shape for DAG(WT)/BackEdge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TreeKind {
    /// The chain over a topological order — what the paper's prototype
    /// used (§5.1).
    Chain,
    /// The general branching tree (§2); expected to dominate the chain.
    General,
}

/// Why a placement cannot run under a protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingError {
    /// DAG(WT) and DAG(T) require an acyclic copy graph (§2, §3); run
    /// BackEdge instead (§4).
    CopyGraphCyclic,
    /// DAG(T) additionally requires the site numbering to be a
    /// topological order of the copy graph, because Definition 3.3
    /// compares tuples by site id (§3.1 "without loss of generality").
    SiteOrderNotTopological,
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RoutingError::CopyGraphCyclic => "copy graph is cyclic; DAG protocols need a DAG",
            RoutingError::SiteOrderNotTopological => {
                "DAG(T) requires site ids in topological order of the copy graph"
            }
        })
    }
}

/// The structure a protocol propagates on: the copy graph, the
/// propagation tree of the tree-routed protocols (DAG(WT), BackEdge),
/// and BackEdge's backedge set. Every executor builds it here, once.
#[derive(Clone, Debug)]
pub struct Routing {
    /// The copy graph of the placement.
    pub graph: Arc<CopyGraph>,
    /// The propagation tree (DAG(WT), BackEdge).
    pub tree: Option<Arc<PropagationTree>>,
    /// The backedges (BackEdge).
    pub backedges: Option<BackEdgeSet>,
}

impl Routing {
    /// Check `placement` against `protocol`'s precondition and build
    /// the structure it routes on, with a `tree`-shaped propagation
    /// tree. PSL and Eager get the copy graph only.
    pub fn build(
        protocol: ProtocolKind,
        placement: &DataPlacement,
        tree: TreeKind,
    ) -> Result<Routing, RoutingError> {
        let graph = CopyGraph::from_placement(placement);
        let tree_over = |g: &CopyGraph| {
            match tree {
                TreeKind::Chain => PropagationTree::chain(g),
                TreeKind::General => PropagationTree::general(g),
            }
            .map(Arc::new)
            .map_err(|_| RoutingError::CopyGraphCyclic)
        };
        let (tree, backedges) = match protocol {
            ProtocolKind::DagWt => (Some(tree_over(&graph)?), None),
            ProtocolKind::DagT => {
                // `topo_order()` is the id-minimal order: if even it is
                // not ascending, the ids are not topological.
                let order = graph.topo_order().ok_or(RoutingError::CopyGraphCyclic)?;
                if order.windows(2).any(|w| w[0] > w[1]) {
                    return Err(RoutingError::SiteOrderNotTopological);
                }
                (None, None)
            }
            ProtocolKind::BackEdge => {
                // §4: the tree is built over `Gdag` plus the reversed
                // backedges, so a backedge's target is a tree ancestor
                // of its source. That graph is acyclic: `by_site_order`
                // keeps only ascending edges in `Gdag` and minimalizes,
                // so `Gdag` is a DAG and each reversed backedge `sj -> si`
                // is witnessed by a path `sj ⇝ si` in it; a cycle through
                // reversed edges would already be a cycle in `Gdag`. So
                // the error arm is unreachable; `repl-analysis`'s
                // `tests/routing.rs` checks that on generated graphs.
                let backedges = BackEdgeSet::by_site_order(&graph);
                (Some(tree_over(&backedges.augmented_graph(&graph))?), Some(backedges))
            }
            ProtocolKind::NaiveLazy | ProtocolKind::Psl | ProtocolKind::Eager => (None, None),
        };
        Ok(Routing { graph: Arc::new(graph), tree, backedges })
    }
}

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
