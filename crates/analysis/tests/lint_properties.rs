//! Property tests: every placement the §5.2 workload generator produces
//! lints clean, and seeded corruptions (cycle edge, dropped backedge,
//! reparented tree node) are each flagged with the right code and
//! witness.

use proptest::prelude::*;

use repl_analysis::lint::{
    check_backedge_set, check_copy_graph, check_tree, find_cycle, lint_scenario, LintConfig,
};
use repl_analysis::{has_errors, Severity, Witness};
use repl_copygraph::{BackEdgeSet, CopyGraph, PropagationTree};
use repl_protocol::{ProtocolKind, TreeKind};
use repl_workload::{build_placement, TableOneParams};

fn defaults(protocol: ProtocolKind) -> LintConfig {
    LintConfig {
        protocol,
        tree: TreeKind::Chain,
        network_latency_us: 150,
        deadlock_timeout_us: 50_000,
        retry_backoff_us: 5_000,
        epoch_period_us: 50_000,
        crash_faults: false,
    }
}

fn table(num_sites: u32, replication_prob: f64, backedge_prob: f64) -> TableOneParams {
    TableOneParams {
        num_sites,
        num_items: 40,
        replication_prob,
        backedge_prob,
        ..Default::default()
    }
}

proptest! {
    /// Generated placements lint clean under every cycle-tolerant
    /// protocol, for arbitrary backedge probability.
    #[test]
    fn workload_placements_lint_clean(
        m in 3u32..12,
        r in 0.0f64..1.0,
        b in 0.0f64..1.0,
        seed in 0u64..30,
    ) {
        let placement = build_placement(&table(m, r, b), seed);
        for protocol in [
            ProtocolKind::BackEdge,
            ProtocolKind::Psl,
            ProtocolKind::Eager,
            ProtocolKind::NaiveLazy,
        ] {
            let diags = lint_scenario(&placement, &defaults(protocol));
            prop_assert!(diags.is_empty(), "{protocol:?}: {diags:?}");
        }
    }

    /// With backedge probability zero the generator only replicates
    /// "forward", so the DAG protocols lint clean too.
    #[test]
    fn forward_placements_lint_clean_for_dag_protocols(
        m in 3u32..12,
        r in 0.0f64..1.0,
        seed in 0u64..30,
    ) {
        let placement = build_placement(&table(m, r, 0.0), seed);
        for protocol in [ProtocolKind::DagWt, ProtocolKind::DagT] {
            let diags = lint_scenario(&placement, &defaults(protocol));
            prop_assert!(diags.is_empty(), "{protocol:?}: {diags:?}");
        }
    }

    /// Corruption 1: add an item whose primary/replica pair reverses an
    /// existing copy-graph edge, closing a cycle. The DAG lint must
    /// produce RA001 with a genuine cycle as witness.
    #[test]
    fn injected_cycle_edge_flagged(
        m in 3u32..12,
        seed in 0u64..30,
    ) {
        let mut placement = build_placement(&table(m, 0.5, 0.0), seed);
        let graph = CopyGraph::from_placement(&placement);
        prop_assume!(graph.edge_count() > 0);
        let (u, v, _) = graph.edges()[0];
        placement.add_item(v, &[u]); // reverse edge: v -> u closes a cycle

        let diags = lint_scenario(&placement, &defaults(ProtocolKind::DagWt));
        prop_assert!(has_errors(&diags));
        let ra001 = diags.iter().find(|d| d.code == "RA001").expect("RA001 expected");
        prop_assert_eq!(ra001.severity, Severity::Error);
        match &ra001.witness {
            Witness::Cycle(cycle) => {
                // The witness must be a real cycle of the corrupted graph.
                let corrupt = CopyGraph::from_placement(&placement);
                prop_assert!(cycle.len() >= 2);
                for w in cycle.windows(2) {
                    prop_assert!(corrupt.has_edge(w[0], w[1]), "{cycle:?}");
                }
                prop_assert!(corrupt.has_edge(*cycle.last().unwrap(), cycle[0]), "{cycle:?}");
            }
            w => prop_assert!(false, "wrong witness: {w:?}"),
        }
    }

    /// Corruption 2: delete one edge from a valid minimal backedge set.
    /// Minimality guarantees the remaining set leaves a cycle unbroken,
    /// so RA004 must fire with a cycle witness.
    #[test]
    fn removed_backedge_flagged(
        m in 3u32..12,
        r in 0.3f64..1.0,
        seed in 0u64..30,
    ) {
        let placement = build_placement(&table(m, r, 1.0), seed);
        let graph = CopyGraph::from_placement(&placement);
        let full = BackEdgeSet::by_site_order(&graph);
        prop_assume!(!full.is_empty());

        let mut edges = full.edges().to_vec();
        edges.remove(0);
        let broken = BackEdgeSet::from_edges(edges);

        let diags = check_backedge_set(&graph, &broken);
        let ra004 = diags.iter().find(|d| d.code == "RA004").expect("RA004 expected");
        prop_assert_eq!(ra004.severity, Severity::Error);
        match &ra004.witness {
            Witness::Cycle(cycle) => {
                let dag = broken.dag_of(&graph);
                for w in cycle.windows(2) {
                    prop_assert!(dag.has_edge(w[0], w[1]), "{cycle:?}");
                }
                prop_assert!(dag.has_edge(*cycle.last().unwrap(), cycle[0]), "{cycle:?}");
            }
            w => prop_assert!(false, "wrong witness: {w:?}"),
        }
        // The intact set passes.
        prop_assert!(check_backedge_set(&graph, &full).iter().all(|d| d.code != "RA004"));
    }

    /// Corruption 3: reparent a tree node to a root by dropping every
    /// constraint targeting it. Each dropped constraint must come back as
    /// an RA002 ancestor-property violation naming that edge.
    #[test]
    fn reparented_tree_node_flagged(
        m in 3u32..12,
        seed in 0u64..30,
    ) {
        let placement = build_placement(&table(m, 0.6, 0.0), seed);
        let graph = CopyGraph::from_placement(&placement);
        let constraints: Vec<_> = graph.edges().into_iter().map(|(a, b, _)| (a, b)).collect();
        let order = graph.topo_order().expect("b=0 placements are acyclic");
        // Pick the topologically-last site with a constraint parent: once
        // it is (mis)attached as a root, no later node's splice can
        // reparent it, so the corruption is guaranteed to stick.
        let Some(&victim) = order
            .iter()
            .rev()
            .find(|site| constraints.iter().any(|&(_, v)| v == **site))
        else {
            return Ok(()); // no edges: nothing to corrupt
        };
        let pruned: Vec<_> =
            constraints.iter().copied().filter(|&(_, v)| v != victim).collect();
        let tree = PropagationTree::from_constraints(graph.num_sites(), &pruned, &order);

        let diags = check_tree(&tree, &constraints);
        let dropped: Vec<_> =
            constraints.iter().copied().filter(|&(_, v)| v == victim).collect();
        prop_assert_eq!(diags.len(), dropped.len(), "{diags:?}");
        for d in &diags {
            prop_assert_eq!(d.code, "RA002");
            prop_assert_eq!(d.severity, Severity::Error);
            match d.witness {
                Witness::Edge { from, to } => {
                    prop_assert_eq!(to, victim);
                    prop_assert!(dropped.contains(&(from, to)));
                }
                ref w => prop_assert!(false, "wrong witness: {w:?}"),
            }
        }
        // The uncorrupted tree passes.
        let clean = PropagationTree::from_constraints(graph.num_sites(), &constraints, &order);
        prop_assert!(check_tree(&clean, &constraints).is_empty());
    }

    /// `find_cycle` agrees with `is_dag` on arbitrary graphs.
    #[test]
    fn find_cycle_agrees_with_is_dag(
        n in 2u32..10,
        edges in prop::collection::vec((0u32..10, 0u32..10), 0..40),
    ) {
        use repl_types::SiteId;
        let mut g = CopyGraph::empty(n);
        for &(a, b) in &edges {
            let (a, b) = (a % n, b % n);
            if a != b {
                g.add_edge(SiteId(a), SiteId(b), 1);
            }
        }
        prop_assert_eq!(find_cycle(&g).is_some(), !g.is_dag());
        prop_assert_eq!(
            !check_copy_graph(&g, ProtocolKind::DagWt).is_empty(),
            !g.is_dag()
        );
        // Cycle-tolerant protocols never get RA001.
        prop_assert!(check_copy_graph(&g, ProtocolKind::BackEdge).is_empty());
    }
}
