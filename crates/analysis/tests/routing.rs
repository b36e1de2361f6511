//! `Routing::build` is total: on any placement the §5.2 generator makes,
//! under every protocol and both tree shapes, it returns rather than
//! panics, refuses exactly what the protocol's precondition excludes,
//! and what it builds passes the linter's witness checks — so BackEdge's
//! tree over the augmented graph is a tested claim, not an `expect`.

use proptest::prelude::*;

use repl_analysis::has_errors;
use repl_analysis::lint::{
    check_backedge_set, check_replica_reachability, check_tree, lint_scenario, LintConfig,
};
use repl_protocol::{ProtocolKind, Routing, RoutingError, TreeKind};
use repl_workload::{build_placement, TableOneParams};

fn lint_config(protocol: ProtocolKind, tree: TreeKind) -> LintConfig {
    LintConfig {
        protocol,
        tree,
        network_latency_us: 150,
        deadlock_timeout_us: 50_000,
        retry_backoff_us: 5_000,
        epoch_period_us: 50_000,
        crash_faults: false,
    }
}

proptest! {
    #[test]
    fn routing_refuses_exactly_the_preconditions_and_builds_what_lints_clean(
        m in 2u32..12,
        r in 0.0f64..1.0,
        with_backedges in prop::bool::ANY,
        b in 0.01f64..1.0,
        seed in 0u64..30,
    ) {
        let table = TableOneParams {
            num_sites: m,
            num_items: 40,
            replication_prob: r,
            backedge_prob: if with_backedges { b } else { 0.0 },
            ..Default::default()
        };
        let placement = build_placement(&table, seed);
        let graph = repl_copygraph::CopyGraph::from_placement(&placement);
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
                // The linter refuses what the builder refuses, and only that.
                let diags = lint_scenario(&placement, &lint_config(protocol, tree));
                prop_assert_eq!(has_errors(&diags), built.is_err(), "{:?}: {:?}", protocol, diags);
                let Ok(routing) = built else { continue };
                let tree_routed = matches!(protocol, ProtocolKind::DagWt | ProtocolKind::BackEdge);
                prop_assert_eq!(routing.tree.is_some(), tree_routed);
                prop_assert_eq!(routing.backedges.is_some(), protocol == ProtocolKind::BackEdge);
                let Some(tree) = &routing.tree else { continue };
                let constraints = match &routing.backedges {
                    Some(backedges) => {
                        // RA004 (RA003 is a warning).
                        let diags = check_backedge_set(&routing.graph, backedges);
                        prop_assert!(!has_errors(&diags), "{:?}", diags);
                        backedges.augmented_constraints(&routing.graph)
                    }
                    None => routing.graph.edges().into_iter().map(|(u, v, _)| (u, v)).collect(),
                };
                // RA002 and RA005.
                prop_assert!(check_tree(tree, &constraints).is_empty());
                let reach = check_replica_reachability(&placement, tree, routing.backedges.as_ref());
                prop_assert!(reach.is_empty(), "{:?}: {:?}", protocol, reach);
            }
        }
    }
}
