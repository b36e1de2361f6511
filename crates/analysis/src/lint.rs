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
//! | RA011 | error    | malformed cluster address map (duplicate/out-of-range site, missing peer, shared address, bad host:port) |
//!
//! The structural checks are also exported individually
//! ([`check_copy_graph`], [`check_tree`], [`check_backedge_set`],
//! [`check_replica_reachability`]) so tests can aim them at deliberately
//! corrupted inputs.

use repl_copygraph::{BackEdgeSet, CopyGraph, DataPlacement, PropagationTree};
use repl_types::{AddressMap, SiteId};

use crate::diag::{Diagnostic, Witness};

/// Protocol under lint — mirrors `repl-core`'s `ProtocolKind` without
/// depending on it (the core crate sits *above* this one so its engine can
/// invoke the linter).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LintProtocol {
    /// Indiscriminate lazy propagation (Example 1.1 strawman).
    NaiveLazy,
    /// DAG(WT): tree-routed lazy propagation (§2). Needs a DAG.
    DagWt,
    /// DAG(T): timestamped lazy propagation with epochs (§3). Needs a DAG
    /// whose site numbering is topological.
    DagT,
    /// BackEdge: eager along backedges, lazy elsewhere (§4).
    BackEdge,
    /// Primary-site locking baseline (§5.1).
    Psl,
    /// Eager read-one-write-all baseline.
    Eager,
}

impl LintProtocol {
    /// True if the protocol's precondition is an acyclic copy graph.
    pub fn requires_dag(self) -> bool {
        matches!(self, LintProtocol::DagWt | LintProtocol::DagT)
    }

    /// True if the engine's crash-recovery path covers this protocol.
    ///
    /// BackEdge loses eagerly prepared writes and Eager loses provisional
    /// remote X-lock state when a participating site crashes; neither has
    /// a recovery story in the paper, so a crash plan under them would
    /// diverge silently. The lazy protocols recover from the WAL plus the
    /// delivery backlog (§3.3).
    pub fn supports_crash_faults(self) -> bool {
        !matches!(self, LintProtocol::BackEdge | LintProtocol::Eager)
    }
}

/// Propagation-tree shape, mirroring `repl-core`'s `TreeKind`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LintTree {
    /// Chain over a topological order (the paper's prototype, §5.1).
    Chain,
    /// General branching tree (§2).
    General,
}

/// Everything the linter needs to know about a run configuration.
/// Durations are in microseconds to keep this crate's dependencies to
/// `repl-types` + `repl-copygraph`.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Protocol the run will deploy.
    pub protocol: LintProtocol,
    /// Tree construction used by DAG(WT)/BackEdge.
    pub tree: LintTree,
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

/// Lint a full scenario: derive the copy graph and the protocol's
/// propagation structure from `placement` exactly as the engine would,
/// then run every applicable check.
pub fn lint_scenario(placement: &DataPlacement, cfg: &LintConfig) -> Vec<Diagnostic> {
    let graph = CopyGraph::from_placement(placement);
    let mut diags = Vec::new();

    diags.extend(check_copy_graph(&graph, cfg.protocol));

    match cfg.protocol {
        LintProtocol::DagWt => {
            if let Ok(tree) = build_tree(&graph, cfg.tree) {
                let constraints: Vec<_> =
                    graph.edges().into_iter().map(|(u, v, _)| (u, v)).collect();
                diags.extend(check_tree(&tree, &constraints));
                diags.extend(check_replica_reachability(placement, &tree, None));
            }
        }
        LintProtocol::DagT => {
            diags.extend(check_site_order_topological(&graph));
        }
        LintProtocol::BackEdge => {
            let backedges = BackEdgeSet::by_site_order(&graph);
            diags.extend(check_backedge_set(&graph, &backedges));
            if backedges.is_valid(&graph) {
                let cg = backedges.augmented_graph(&graph);
                if let Ok(tree) = build_tree(&cg, cfg.tree) {
                    diags.extend(check_tree(&tree, &backedges.augmented_constraints(&graph)));
                    diags.extend(check_replica_reachability(placement, &tree, Some(&backedges)));
                }
            }
        }
        LintProtocol::NaiveLazy | LintProtocol::Psl | LintProtocol::Eager => {}
    }

    diags.extend(check_timing(cfg));
    diags.extend(check_fault_plan(cfg));
    diags
}

fn build_tree(graph: &CopyGraph, kind: LintTree) -> Result<PropagationTree, ()> {
    match kind {
        LintTree::Chain => PropagationTree::chain(graph).map_err(|_| ()),
        LintTree::General => PropagationTree::general(graph).map_err(|_| ()),
    }
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
pub fn check_copy_graph(graph: &CopyGraph, protocol: LintProtocol) -> Vec<Diagnostic> {
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
    if cfg.protocol == LintProtocol::DagT && cfg.epoch_period_us < cfg.network_latency_us {
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
/// Eager's provisional remote writes are lost with the crashed site, so
/// the run would silently diverge instead of recovering.
pub fn check_fault_plan(cfg: &LintConfig) -> Vec<Diagnostic> {
    if cfg.crash_faults && !cfg.protocol.supports_crash_faults() {
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

/// RA011: validate a cluster address map before any socket is opened.
///
/// A process-per-site deployment dials every peer from this map, so a
/// malformed map produces confusing runtime failures (two sites
/// answering for one id, a dialer spinning forever on a missing peer, a
/// site handshaking with itself). Each problem is reported as an error:
///
/// - a site id listed more than once,
/// - a site id outside `0..num_sites`,
/// - a site in `0..num_sites` with no entry (the dialer would wait for
///   an address that never arrives),
/// - one address shared by two different sites (a dialer would reach the
///   wrong peer — or itself, the self-dial case),
/// - an address that is not `host:port` with a numeric port.
pub fn check_address_map(map: &AddressMap, num_sites: u32) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let entries = map.entries();
    for window in entries.windows(2) {
        // Entries are kept sorted by site id, so duplicates are adjacent.
        if window[0].0 == window[1].0 {
            diags.push(Diagnostic::error(
                "RA011",
                format!(
                    "site {} has multiple addresses ({:?} and {:?}); a dialer would \
                     pick one arbitrarily",
                    window[0].0 .0, window[0].1, window[1].1,
                ),
                Witness::None,
            ));
        }
    }
    for (site, addr) in entries {
        if site.0 >= num_sites {
            diags.push(Diagnostic::error(
                "RA011",
                format!(
                    "address map names site {} but the placement has only {num_sites} \
                     sites (0..{num_sites})",
                    site.0,
                ),
                Witness::None,
            ));
        }
        let well_formed = addr
            .rsplit_once(':')
            .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok());
        if !well_formed {
            diags.push(Diagnostic::error(
                "RA011",
                format!("site {} address {addr:?} is not host:port with a numeric port", site.0),
                Witness::None,
            ));
        }
    }
    for site in (0..num_sites).map(SiteId) {
        if map.get(site).is_none() {
            diags.push(Diagnostic::error(
                "RA011",
                format!("site {} has no address; its peers could never dial it", site.0),
                Witness::None,
            ));
        }
    }
    for (i, (site_a, addr_a)) in entries.iter().enumerate() {
        for (site_b, addr_b) in &entries[i + 1..] {
            if site_a != site_b && addr_a == addr_b {
                diags.push(Diagnostic::error(
                    "RA011",
                    format!(
                        "sites {} and {} share address {addr_a:?}; site {} dialing \
                         that address would reach the wrong process (self-dial)",
                        site_a.0, site_b.0, site_a.0,
                    ),
                    Witness::Edge { from: *site_a, to: *site_b },
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{has_errors, Severity};

    fn s(n: u32) -> SiteId {
        SiteId(n)
    }

    fn defaults(protocol: LintProtocol) -> LintConfig {
        LintConfig {
            protocol,
            tree: LintTree::Chain,
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
            LintProtocol::DagWt,
            LintProtocol::DagT,
            LintProtocol::BackEdge,
            LintProtocol::Psl,
            LintProtocol::Eager,
            LintProtocol::NaiveLazy,
        ] {
            let diags = lint_scenario(&example_1_1(), &defaults(proto));
            assert!(diags.is_empty(), "{proto:?}: {:?}", diags);
        }
    }

    #[test]
    fn cycle_is_an_error_for_dag_protocols_only() {
        let p = example_4_1();
        for proto in [LintProtocol::DagWt, LintProtocol::DagT] {
            let diags = lint_scenario(&p, &defaults(proto));
            assert!(has_errors(&diags), "{proto:?}");
            let d = &diags[0];
            assert_eq!(d.code, "RA001");
            match &d.witness {
                Witness::Cycle(c) => assert_eq!(c.len(), 2),
                w => panic!("wrong witness {w:?}"),
            }
        }
        for proto in [LintProtocol::BackEdge, LintProtocol::Psl, LintProtocol::NaiveLazy] {
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
        let diags = lint_scenario(&p, &defaults(LintProtocol::DagT));
        assert!(diags.iter().any(|d| d.code == "RA009" && d.severity == Severity::Error));
    }

    #[test]
    fn crash_faults_rejected_for_eager_protocols_only() {
        for proto in [LintProtocol::BackEdge, LintProtocol::Eager] {
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
            [LintProtocol::DagWt, LintProtocol::DagT, LintProtocol::NaiveLazy, LintProtocol::Psl]
        {
            let mut cfg = defaults(proto);
            cfg.crash_faults = true;
            let diags = lint_scenario(&example_1_1(), &cfg);
            assert!(!diags.iter().any(|d| d.code == "RA010"), "{proto:?}: {diags:?}");
        }
    }

    #[test]
    fn timing_warnings_fire() {
        let mut cfg = defaults(LintProtocol::DagT);
        cfg.epoch_period_us = 100;
        cfg.network_latency_us = 100_000;
        cfg.deadlock_timeout_us = 50_000;
        cfg.retry_backoff_us = 60_000;
        let diags = check_timing(&cfg);
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["RA006", "RA007", "RA008"]);
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn address_map_lint_accepts_well_formed_map() {
        let map: AddressMap = (0..3).map(|i| (s(i), format!("127.0.0.1:710{i}"))).collect();
        assert!(check_address_map(&map, 3).is_empty());
    }

    #[test]
    fn address_map_lint_rejects_malformed_maps() {
        let full = |n: u32| -> AddressMap {
            (0..n).map(|i| (s(i), format!("127.0.0.1:710{i}"))).collect()
        };
        // Duplicate site id.
        let mut map = full(2);
        map.insert(s(1), "127.0.0.1:7199".to_string());
        assert!(check_address_map(&map, 2)
            .iter()
            .any(|d| d.code == "RA011" && d.message.contains("multiple addresses")));
        // Out-of-range site id.
        let mut map = full(2);
        map.insert(s(9), "127.0.0.1:7109".to_string());
        assert!(check_address_map(&map, 2)
            .iter()
            .any(|d| d.code == "RA011" && d.message.contains("only 2 sites")));
        // Missing peer.
        let map: AddressMap = [(s(0), "127.0.0.1:7100".to_string())].into_iter().collect();
        assert!(check_address_map(&map, 2)
            .iter()
            .any(|d| d.code == "RA011" && d.message.contains("no address")));
        // Shared address (self-dial).
        let map: AddressMap =
            [(s(0), "127.0.0.1:7100".to_string()), (s(1), "127.0.0.1:7100".to_string())]
                .into_iter()
                .collect();
        let diags = check_address_map(&map, 2);
        assert!(diags
            .iter()
            .any(|d| d.code == "RA011" && matches!(d.witness, Witness::Edge { .. })));
        // Malformed host:port.
        for bad in ["localhost", ":7100", "host:", "host:notaport", "host:99999"] {
            let mut map = full(2);
            map.insert(s(1), bad.to_string());
            // The duplicate entry for site 1 also fires; look only for the
            // host:port message.
            assert!(
                check_address_map(&map, 2)
                    .iter()
                    .any(|d| d.code == "RA011" && d.message.contains("host:port")),
                "{bad:?} accepted"
            );
        }
        assert!(has_errors(&check_address_map(&full(1), 2)));
    }
}
