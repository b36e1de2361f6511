//! `Routing::build` is total and keeps its promises: on any placement
//! the §5.2 generator makes, under every protocol and both tree shapes,
//! it returns rather than panics, refuses exactly what the protocol's
//! precondition excludes, and what it builds holds the three
//! postconditions the paper's protocols assume — so BackEdge's tree over
//! the augmented graph is a tested claim, not an `expect`. Each
//! postcondition is a plain predicate, shown to fail on one corrupted
//! input.

use proptest::prelude::*;

use repl_copygraph::{BackEdgeSet, CopyGraph, DataPlacement, PropagationTree};
use repl_protocol::{ProtocolKind, Routing, RoutingError, TreeKind};
use repl_types::{ItemId, SiteId};
use repl_workload::{build_placement, TableOneParams};

/// §2's ancestor property: the constraints `(u, v)` for which `u` is not
/// a strict tree ancestor of `v`.
fn ancestor_violations(
    tree: &PropagationTree,
    constraints: &[(SiteId, SiteId)],
) -> Vec<(SiteId, SiteId)> {
    constraints.iter().copied().filter(|&(u, v)| !tree.is_ancestor(u, v)).collect()
}

/// §4: removing the backedges leaves the copy graph acyclic.
fn breaks_every_cycle(graph: &CopyGraph, backedges: &BackEdgeSet) -> bool {
    backedges.dag_of(graph).is_dag()
}

/// The copies no update reaches: `(item, replica)` where the replica is
/// neither a tree descendant of the item's primary nor, under BackEdge,
/// the target of a backedge from it (eager delivery).
fn stranded_replicas(
    placement: &DataPlacement,
    tree: &PropagationTree,
    backedges: Option<&BackEdgeSet>,
) -> Vec<(ItemId, SiteId)> {
    let mut stranded = Vec::new();
    for item in placement.items() {
        let primary = placement.primary_of(item);
        for &replica in placement.replicas_of(item) {
            let eager = backedges.is_some_and(|b| b.contains(primary, replica));
            if !eager && !tree.is_ancestor(primary, replica) {
                stranded.push((item, replica));
            }
        }
    }
    stranded
}

/// Example 1.1: a@s0 copied at s1 and s2, b@s1 copied at s2.
fn example_1_1() -> DataPlacement {
    let mut p = DataPlacement::new(3);
    p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
    p.add_item(SiteId(1), &[SiteId(2)]);
    p
}

#[test]
fn a_tree_without_the_ancestor_property_is_caught() {
    let graph = CopyGraph::from_placement(&example_1_1());
    let tree = PropagationTree::chain(&graph).unwrap();
    let constraints = [(SiteId(0), SiteId(1)), (SiteId(2), SiteId(0))];
    assert_eq!(ancestor_violations(&tree, &constraints), [(SiteId(2), SiteId(0))]);
}

#[test]
fn a_backedge_set_that_leaves_a_cycle_is_caught() {
    // Example 4.1's two-site cycle, with no backedge to break it.
    let mut p = DataPlacement::new(2);
    p.add_item(SiteId(0), &[SiteId(1)]);
    p.add_item(SiteId(1), &[SiteId(0)]);
    let graph = CopyGraph::from_placement(&p);
    assert!(!breaks_every_cycle(&graph, &BackEdgeSet::from_edges(Vec::new())));
    assert!(breaks_every_cycle(&graph, &BackEdgeSet::from_edges(vec![(SiteId(1), SiteId(0))])));
}

#[test]
fn a_stranded_replica_is_caught() {
    // The chain 0 -> 1 -> 2, and an item at s2 copied at s0, which is
    // not below s2.
    let graph = CopyGraph::from_placement(&example_1_1());
    let tree = PropagationTree::chain(&graph).unwrap();
    let mut p = example_1_1();
    let item = p.add_item(SiteId(2), &[SiteId(0)]);
    assert_eq!(stranded_replicas(&p, &tree, None), [(item, SiteId(0))]);
}

/// A §5.2 placement of 40 items over `m` sites.
fn generated(m: u32, replication_prob: f64, backedge_prob: f64, seed: u64) -> DataPlacement {
    let table = TableOneParams {
        num_sites: m,
        num_items: 40,
        replication_prob,
        backedge_prob,
        ..Default::default()
    };
    build_placement(&table, seed)
}

proptest! {
    #[test]
    fn routing_refuses_exactly_the_preconditions_and_builds_what_it_promises(
        m in 2u32..12,
        r in 0.0f64..1.0,
        with_backedges in prop::bool::ANY,
        b in 0.01f64..1.0,
        seed in 0u64..30,
    ) {
        let placement = generated(m, r, if with_backedges { b } else { 0.0 }, seed);
        let graph = CopyGraph::from_placement(&placement);
        let descending = graph.edges().iter().any(|&(from, to, _)| to < from);
        for protocol in ProtocolKind::ALL {
            for tree in [TreeKind::Chain, TreeKind::General] {
                let built = Routing::build(protocol, &placement, tree);
                let expected = match protocol {
                    ProtocolKind::DagWt | ProtocolKind::DagT if !graph.is_dag() => {
                        Err(RoutingError::CopyGraphCyclic)
                    }
                    ProtocolKind::DagT if descending => Err(RoutingError::SiteOrderNotTopological),
                    _ => Ok(()),
                };
                prop_assert_eq!(built.as_ref().map(drop).map_err(|e| *e), expected, "{:?}", protocol);
                let Ok(routing) = built else { continue };
                let tree_routed = matches!(protocol, ProtocolKind::DagWt | ProtocolKind::BackEdge);
                prop_assert_eq!(routing.tree.is_some(), tree_routed);
                prop_assert_eq!(routing.backedges.is_some(), protocol == ProtocolKind::BackEdge);
                let Some(tree) = &routing.tree else { continue };
                let constraints = match &routing.backedges {
                    Some(backedges) => {
                        prop_assert!(breaks_every_cycle(&routing.graph, backedges));
                        backedges.augmented_constraints(&routing.graph)
                    }
                    None => routing.graph.edges().into_iter().map(|(u, v, _)| (u, v)).collect(),
                };
                let violations = ancestor_violations(tree, &constraints);
                prop_assert!(violations.is_empty(), "{:?}: {:?}", protocol, violations);
                let stranded = stranded_replicas(&placement, tree, routing.backedges.as_ref());
                prop_assert!(stranded.is_empty(), "{:?}: {:?}", protocol, stranded);
            }
        }
    }

    /// With backedge probability zero the generator replicates only
    /// "forward", so both DAG protocols route every such placement.
    #[test]
    fn forward_placements_route_under_the_dag_protocols(
        m in 2u32..12,
        r in 0.0f64..1.0,
        seed in 0u64..30,
    ) {
        let placement = generated(m, r, 0.0, seed);
        for protocol in [ProtocolKind::DagWt, ProtocolKind::DagT] {
            for tree in [TreeKind::Chain, TreeKind::General] {
                let built = Routing::build(protocol, &placement, tree);
                prop_assert!(built.is_ok(), "{:?}: {:?}", protocol, built.err());
            }
        }
    }

    /// Seeded corruption: an item whose replica reverses a copy-graph edge
    /// closes a cycle, which both DAG protocols refuse and BackEdge routes.
    #[test]
    fn an_injected_cycle_edge_is_refused_by_the_dag_protocols(
        m in 2u32..12,
        seed in 0u64..30,
    ) {
        let mut placement = generated(m, 0.5, 0.0, seed);
        let edges = CopyGraph::from_placement(&placement).edges();
        prop_assume!(!edges.is_empty());
        let (u, v, _) = edges[0];
        placement.add_item(v, &[u]);
        for protocol in [ProtocolKind::DagWt, ProtocolKind::DagT] {
            let built = Routing::build(protocol, &placement, TreeKind::Chain);
            prop_assert_eq!(built.err(), Some(RoutingError::CopyGraphCyclic), "{:?}", protocol);
        }
        prop_assert!(Routing::build(ProtocolKind::BackEdge, &placement, TreeKind::Chain).is_ok());
    }

    /// Seeded corruption: a minimal backedge set with one edge removed
    /// leaves a cycle unbroken; the intact set breaks them all.
    #[test]
    fn a_backedge_set_missing_one_edge_leaves_a_cycle(
        m in 2u32..12,
        r in 0.3f64..1.0,
        seed in 0u64..30,
    ) {
        let graph = CopyGraph::from_placement(&generated(m, r, 1.0, seed));
        let full = BackEdgeSet::by_site_order(&graph);
        prop_assume!(!full.is_empty());
        prop_assert!(breaks_every_cycle(&graph, &full));
        let mut edges = full.edges().to_vec();
        edges.remove(0);
        prop_assert!(!breaks_every_cycle(&graph, &BackEdgeSet::from_edges(edges)));
    }

    /// Seeded corruption: a tree built without the constraints that point
    /// at one site attaches it as a root, and the ancestor predicate
    /// names exactly the dropped constraints.
    #[test]
    fn a_reparented_tree_node_loses_the_ancestor_property(
        m in 2u32..12,
        seed in 0u64..30,
    ) {
        let graph = CopyGraph::from_placement(&generated(m, 0.6, 0.0, seed));
        let constraints: Vec<_> = graph.edges().into_iter().map(|(u, v, _)| (u, v)).collect();
        let order = graph.topo_order().expect("forward placements are acyclic");
        // The topologically last site with a parent: attached as a root,
        // no later node's splice can reparent it.
        let Some(&victim) =
            order.iter().rev().find(|site| constraints.iter().any(|&(_, v)| v == **site))
        else {
            return Ok(());
        };
        let (dropped, kept): (Vec<_>, Vec<_>) =
            constraints.iter().copied().partition(|&(_, v)| v == victim);
        let corrupt = PropagationTree::from_constraints(graph.num_sites(), &kept, &order);
        prop_assert_eq!(ancestor_violations(&corrupt, &constraints), dropped);
        let clean = PropagationTree::from_constraints(graph.num_sites(), &constraints, &order);
        prop_assert!(ancestor_violations(&clean, &constraints).is_empty());
    }
}
