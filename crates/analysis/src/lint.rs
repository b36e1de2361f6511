//! The configuration / copy-graph linter.
//!
//! A static pass over a data placement, its copy graph, and the timing
//! parameters of a run — executed *before* any simulation so that broken
//! configurations fail fast with a structural witness instead of burning a
//! long run and producing garbage. The checks mirror the protocol
//! preconditions of Breitbart et al.:
//!
//! | code  | severity | check |
//! |-------|----------|-------|
//! | RA001 | error    | copy graph cyclic while the protocol requires a DAG (§2/§3) |
//! | RA002 | error    | propagation tree violates the ancestor property (§2) |
//! | RA003 | warning  | backedge set is not minimal (§4: redundant backedge) |
//! | RA004 | error    | backedge set does not break all cycles (§4) |
//! | RA005 | error    | replica unreachable from its primary through the propagation structure |
//! | RA006 | warning  | DAG(T) epoch period shorter than the network latency (§3.3) |
//! | RA007 | warning  | deadlock timeout shorter than a network round trip |
//! | RA008 | warning  | retry backoff at or above the deadlock timeout |
//! | RA009 | error    | DAG(T) site numbering is not a topological order (§3.1) |
//! | RA010 | error    | crash faults injected under a protocol without crash recovery |
//!
//! The structural checks are also exported individually
//! ([`check_copy_graph`], [`check_tree`], [`check_backedge_set`],
//! [`check_replica_reachability`]) so tests can aim them at deliberately
//! corrupted inputs.

use repl_copygraph::{BackEdgeSet, CopyGraph, DataPlacement, PropagationTree};
use repl_protocol::{ProtocolKind, Routing, TreeKind};
use repl_types::SiteId;

use crate::diag::{Diagnostic, Witness};

/// Everything the linter needs to know about a run configuration.
/// Durations are in microseconds to keep this crate off the simulator's
/// clock types.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Protocol the run will deploy.
    pub protocol: ProtocolKind,
    /// Tree construction used by DAG(WT)/BackEdge.
    pub tree: TreeKind,
    /// One-way network latency, µs.
    pub network_latency_us: u64,
    /// Lock-wait deadlock timeout, µs.
    pub deadlock_timeout_us: u64,
    /// Backoff before retrying a deadlock-aborted transaction, µs.
    pub retry_backoff_us: u64,
    /// DAG(T) epoch period, µs.
    pub epoch_period_us: u64,
    /// True if the run's fault plan schedules at least one site crash.
    pub crash_faults: bool,
}

/// Lint a full scenario: check the copy graph against the protocol's
/// preconditions, take the propagation structure every executor runs on
/// from [`Routing::build`], and check its witnesses.
pub fn lint_scenario(placement: &DataPlacement, cfg: &LintConfig) -> Vec<Diagnostic> {
    let graph = CopyGraph::from_placement(placement);
    let mut diags = check_copy_graph(&graph, cfg.protocol);
    if cfg.protocol == ProtocolKind::DagT {
        diags.extend(check_site_order_topological(&graph));
    }
    if let Ok(Routing { graph, tree: Some(tree), backedges }) =
        Routing::build(cfg.protocol, placement, cfg.tree)
    {
        let constraints = match &backedges {
            Some(backedges) => {
                diags.extend(check_backedge_set(&graph, backedges));
                backedges.augmented_constraints(&graph)
            }
            None => graph.edges().into_iter().map(|(u, v, _)| (u, v)).collect(),
        };
        diags.extend(check_tree(&tree, &constraints));
        diags.extend(check_replica_reachability(placement, &tree, backedges.as_ref()));
    }
    diags.extend(check_timing(cfg));
    diags.extend(check_fault_plan(cfg));
    diags
}

/// Find one directed cycle in `graph`, as the ordered list of sites on it.
pub fn find_cycle(graph: &CopyGraph) -> Option<Vec<SiteId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let n = graph.num_sites();
    let mut color = vec![Color::White; n as usize];
    for start in 0..n {
        if color[start as usize] != Color::White {
            continue;
        }
        let mut stack: Vec<(SiteId, Vec<SiteId>)> =
            vec![(SiteId(start), graph.children(SiteId(start)).collect())];
        let mut path = vec![SiteId(start)];
        color[start as usize] = Color::Grey;
        while let Some((node, succs)) = stack.last_mut() {
            if let Some(next) = succs.pop() {
                match color[next.index()] {
                    Color::Grey => {
                        let pos = path.iter().position(|&s| s == next).expect("grey is on path");
                        return Some(path[pos..].to_vec());
                    }
                    Color::White => {
                        color[next.index()] = Color::Grey;
                        path.push(next);
                        let children = graph.children(next).collect();
                        stack.push((next, children));
                    }
                    Color::Black => {}
                }
            } else {
                color[node.index()] = Color::Black;
                path.pop();
                stack.pop();
            }
        }
    }
    None
}

/// RA001: the protocol requires a DAG but the copy graph has a cycle.
pub fn check_copy_graph(graph: &CopyGraph, protocol: ProtocolKind) -> Vec<Diagnostic> {
    if !protocol.requires_dag() {
        return Vec::new();
    }
    match find_cycle(graph) {
        Some(cycle) => {
            let path: Vec<String> = cycle.iter().map(|s| s.to_string()).collect();
            vec![Diagnostic::error(
                "RA001",
                format!(
                    "copy graph has a cycle ({} -> {}) but {:?} requires a DAG; \
                     remove backedges (§4) or run BackEdge",
                    path.join(" -> "),
                    path[0],
                    protocol,
                ),
                Witness::Cycle(cycle),
            )]
        }
        None => Vec::new(),
    }
}

/// RA002: every constraint `(u, v)` must have `u` a strict tree ancestor
/// of `v` (§2 ancestor property). One diagnostic per violated constraint.
pub fn check_tree(tree: &PropagationTree, constraints: &[(SiteId, SiteId)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for &(u, v) in constraints {
        if !tree.is_ancestor(u, v) {
            diags.push(Diagnostic::error(
                "RA002",
                format!(
                    "propagation tree violates the ancestor property: {u} must be an \
                     ancestor of {v} (copy-graph edge {u} -> {v}) but is not"
                ),
                Witness::Edge { from: u, to: v },
            ));
        }
    }
    diags
}

/// RA004 + RA003: the backedge set must break every cycle (error), and
/// should contain no redundant edge — one whose re-insertion into the
/// remaining DAG closes no cycle (warning; §4 assumes minimality).
pub fn check_backedge_set(graph: &CopyGraph, set: &BackEdgeSet) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let dag = set.dag_of(graph);
    if let Some(cycle) = find_cycle(&dag) {
        let path: Vec<String> = cycle.iter().map(|s| s.to_string()).collect();
        diags.push(Diagnostic::error(
            "RA004",
            format!(
                "backedge set does not break all cycles: {} -> {} survives removal",
                path.join(" -> "),
                path[0],
            ),
            Witness::Cycle(cycle),
        ));
        return diags;
    }
    for &(from, to) in set.edges() {
        // `(from, to)` is redundant iff re-inserting it closes no cycle,
        // i.e. `from` is NOT reachable from `to` in the remaining DAG.
        if !dag.reachable_from(to)[from.index()] {
            diags.push(Diagnostic::warning(
                "RA003",
                format!(
                    "backedge set is not minimal: removing {from} -> {to} still leaves \
                     every cycle broken (§4 assumes a minimal set)"
                ),
                Witness::Edge { from, to },
            ));
        }
    }
    diags
}

/// RA005: every secondary copy must be deliverable — its site a tree
/// descendant of the item's primary (or, for BackEdge, the target of a
/// backedge from the primary, in which case delivery is eager).
pub fn check_replica_reachability(
    placement: &DataPlacement,
    tree: &PropagationTree,
    backedges: Option<&BackEdgeSet>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for item in placement.items() {
        let primary = placement.primary_of(item);
        for &replica in placement.replicas_of(item) {
            if let Some(b) = backedges {
                if b.contains(primary, replica) {
                    continue;
                }
            }
            if !tree.is_ancestor(primary, replica) {
                diags.push(Diagnostic::error(
                    "RA005",
                    format!(
                        "replica of {item} at {replica} is unreachable: {replica} is not \
                         a tree descendant of the primary {primary}, so updates would \
                         never be delivered"
                    ),
                    Witness::Replica { item, primary, replica },
                ));
            }
        }
    }
    diags
}

/// RA009: DAG(T) compares timestamps by site id (§3.1 "without loss of
/// generality"), so the identity order must be topological.
pub fn check_site_order_topological(graph: &CopyGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !graph.is_dag() {
        // RA001 already covers the cycle; id order is moot.
        return diags;
    }
    for (from, to, _) in graph.edges() {
        if to < from {
            diags.push(Diagnostic::error(
                "RA009",
                format!(
                    "DAG(T) requires site ids to form a topological order of the copy \
                     graph, but edge {from} -> {to} points to a lower id"
                ),
                Witness::Edge { from, to },
            ));
        }
    }
    diags
}

/// RA006–RA008: timing-parameter sanity.
pub fn check_timing(cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if cfg.protocol == ProtocolKind::DagT && cfg.epoch_period_us < cfg.network_latency_us {
        diags.push(Diagnostic::warning(
            "RA006",
            format!(
                "epoch period ({} µs) is shorter than the one-way network latency \
                 ({} µs): epochs will pile up in flight faster than links drain (§3.3)",
                cfg.epoch_period_us, cfg.network_latency_us
            ),
            Witness::Timing { value_us: cfg.epoch_period_us, bound_us: cfg.network_latency_us },
        ));
    }
    let round_trip = 2 * cfg.network_latency_us;
    if cfg.deadlock_timeout_us < round_trip {
        diags.push(Diagnostic::warning(
            "RA007",
            format!(
                "deadlock timeout ({} µs) is shorter than a network round trip \
                 ({} µs): every remote lock wait will be aborted as a false deadlock",
                cfg.deadlock_timeout_us, round_trip
            ),
            Witness::Timing { value_us: cfg.deadlock_timeout_us, bound_us: round_trip },
        ));
    }
    if cfg.retry_backoff_us >= cfg.deadlock_timeout_us {
        diags.push(Diagnostic::warning(
            "RA008",
            format!(
                "retry backoff ({} µs) is at or above the deadlock timeout ({} µs): \
                 retries arrive no sooner than fresh timeouts fire, risking livelock",
                cfg.retry_backoff_us, cfg.deadlock_timeout_us
            ),
            Witness::Timing { value_us: cfg.retry_backoff_us, bound_us: cfg.deadlock_timeout_us },
        ));
    }
    diags
}

/// RA010: the fault plan schedules site crashes but the protocol has no
/// crash-recovery path — BackEdge's eagerly prepared subtransactions and
/// Eager's provisional remote X-lock state are lost with the crashed
/// site, and neither has a recovery story in the paper, so the run would
/// silently diverge instead of recovering. The lazy protocols recover
/// from the WAL plus the delivery backlog (§3.3).
pub fn check_fault_plan(cfg: &LintConfig) -> Vec<Diagnostic> {
    if cfg.crash_faults && matches!(cfg.protocol, ProtocolKind::BackEdge | ProtocolKind::Eager) {
        return vec![Diagnostic::error(
            "RA010",
            format!(
                "fault plan schedules site crashes but {:?} has no crash-recovery \
                 path (eager/prepared state is lost with the site); restrict crash \
                 plans to the lazy protocols or clear the plan",
                cfg.protocol,
            ),
            Witness::None,
        )];
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{has_errors, Severity};

    fn s(n: u32) -> SiteId {
        SiteId(n)
    }

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

    fn example_1_1() -> DataPlacement {
        let mut p = DataPlacement::new(3);
        p.add_item(s(0), &[s(1), s(2)]);
        p.add_item(s(1), &[s(2)]);
        p
    }

    fn example_4_1() -> DataPlacement {
        let mut p = DataPlacement::new(2);
        p.add_item(s(0), &[s(1)]);
        p.add_item(s(1), &[s(0)]);
        p
    }

    #[test]
    fn clean_scenarios_lint_clean() {
        for proto in [
            ProtocolKind::DagWt,
            ProtocolKind::DagT,
            ProtocolKind::BackEdge,
            ProtocolKind::Psl,
            ProtocolKind::Eager,
            ProtocolKind::NaiveLazy,
        ] {
            let diags = lint_scenario(&example_1_1(), &defaults(proto));
            assert!(diags.is_empty(), "{proto:?}: {:?}", diags);
        }
    }

    #[test]
    fn cycle_is_an_error_for_dag_protocols_only() {
        let p = example_4_1();
        for proto in [ProtocolKind::DagWt, ProtocolKind::DagT] {
            let diags = lint_scenario(&p, &defaults(proto));
            assert!(has_errors(&diags), "{proto:?}");
            let d = &diags[0];
            assert_eq!(d.code, "RA001");
            match &d.witness {
                Witness::Cycle(c) => assert_eq!(c.len(), 2),
                w => panic!("wrong witness {w:?}"),
            }
        }
        for proto in [ProtocolKind::BackEdge, ProtocolKind::Psl, ProtocolKind::NaiveLazy] {
            let diags = lint_scenario(&p, &defaults(proto));
            assert!(!has_errors(&diags), "{proto:?}: {:?}", diags);
        }
    }

    #[test]
    fn find_cycle_returns_a_real_cycle() {
        let mut g = CopyGraph::empty(4);
        g.add_edge(s(0), s(1), 1);
        g.add_edge(s(1), s(2), 1);
        g.add_edge(s(2), s(1), 1);
        g.add_edge(s(2), s(3), 1);
        let cycle = find_cycle(&g).expect("cycle exists");
        // Each consecutive pair (and the closing pair) must be a real edge.
        for w in cycle.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "{cycle:?}");
        }
        assert!(g.has_edge(*cycle.last().unwrap(), cycle[0]), "{cycle:?}");
        assert!(find_cycle(&CopyGraph::empty(3)).is_none());
    }

    #[test]
    fn corrupted_tree_flagged_with_edge_witness() {
        let g = CopyGraph::from_placement(&example_1_1());
        let tree = PropagationTree::chain(&g).unwrap();
        let constraints = vec![(s(0), s(1)), (s(2), s(0))]; // second is violated
        let diags = check_tree(&tree, &constraints);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RA002");
        assert_eq!(diags[0].witness, Witness::Edge { from: s(2), to: s(0) });
    }

    #[test]
    fn invalid_backedge_set_is_an_error() {
        let g = CopyGraph::from_placement(&example_4_1());
        let empty = BackEdgeSet::from_edges(Vec::new());
        let diags = check_backedge_set(&g, &empty);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RA004");
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn non_minimal_backedge_set_is_a_warning() {
        // 0 <-> 1 plus 2 -> 0; {1->0, 2->0} is valid but 2->0 is redundant.
        let mut g = CopyGraph::empty(3);
        g.add_edge(s(0), s(1), 1);
        g.add_edge(s(1), s(0), 1);
        g.add_edge(s(2), s(0), 1);
        let set = BackEdgeSet::from_edges(vec![(s(1), s(0)), (s(2), s(0))]);
        let diags = check_backedge_set(&g, &set);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RA003");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].witness, Witness::Edge { from: s(2), to: s(0) });
    }

    #[test]
    fn stranded_replica_is_an_error() {
        // Tree: 0 -> 1 -> 2 but an item primaried at 2 with a replica at 0:
        // 0 is not a descendant of 2.
        let g = CopyGraph::from_placement(&example_1_1());
        let tree = PropagationTree::chain(&g).unwrap();
        let mut p = example_1_1();
        p.add_item(s(2), &[s(0)]);
        let diags = check_replica_reachability(&p, &tree, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RA005");
    }

    #[test]
    fn dag_t_site_order_violation() {
        // Acyclic but 1 -> 0 points to a lower id.
        let mut p = DataPlacement::new(2);
        p.add_item(s(1), &[s(0)]);
        let diags = lint_scenario(&p, &defaults(ProtocolKind::DagT));
        assert!(diags.iter().any(|d| d.code == "RA009" && d.severity == Severity::Error));
    }

    #[test]
    fn crash_faults_rejected_for_eager_protocols_only() {
        for proto in [ProtocolKind::BackEdge, ProtocolKind::Eager] {
            let mut cfg = defaults(proto);
            cfg.crash_faults = true;
            let diags = lint_scenario(&example_1_1(), &cfg);
            assert!(
                diags.iter().any(|d| d.code == "RA010" && d.severity == Severity::Error),
                "{proto:?}: {diags:?}"
            );
            // Without crashes the same protocols lint clean.
            assert!(lint_scenario(&example_1_1(), &defaults(proto)).is_empty());
        }
        for proto in
            [ProtocolKind::DagWt, ProtocolKind::DagT, ProtocolKind::NaiveLazy, ProtocolKind::Psl]
        {
            let mut cfg = defaults(proto);
            cfg.crash_faults = true;
            let diags = lint_scenario(&example_1_1(), &cfg);
            assert!(!diags.iter().any(|d| d.code == "RA010"), "{proto:?}: {diags:?}");
        }
    }

    #[test]
    fn timing_warnings_fire() {
        let mut cfg = defaults(ProtocolKind::DagT);
        cfg.epoch_period_us = 100;
        cfg.network_latency_us = 100_000;
        cfg.deadlock_timeout_us = 50_000;
        cfg.retry_backoff_us = 60_000;
        let diags = check_timing(&cfg);
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["RA006", "RA007", "RA008"]);
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    }
}
