//! The DFS explorer: every interleaving, minus the provably redundant.
//!
//! A depth-first search over cloned [`World`]s enumerates every
//! scheduler interleaving of a scenario's enabled actions, with two
//! sound reductions:
//!
//! * **Sleep sets** (Godefroid). After exploring sibling `a` from a
//!   state, `a` enters the *sleep set* of the branches explored after
//!   it, and stays asleep along a path as long as every action taken is
//!   independent of it — executing it there would provably commute to a
//!   schedule already explored. Sleep sets prune *transitions only*:
//!   every reachable state is still visited, so the state-predicate
//!   oracles lose no coverage (the differential test in
//!   `tests/mc_differential.rs` pins exactly this).
//! * **State-fingerprint dedup.** Each state's canonical 128-bit digest
//!   ([`World::fingerprint`]) maps to the set of sleep sets it was
//!   explored under; a revisit is skipped iff some stored sleep set is
//!   a subset of the current one (the standard sound combination of
//!   state caching with sleep sets — a *larger* current sleep set means
//!   a subset of the previously explored transitions).
//!
//! Exploration is bounded by `max_states`/`max_depth`; hitting either
//! marks the report truncated (gates treat truncation as failure to
//! *exhaustively* explore, distinct from finding a violation).

use std::collections::{BTreeMap, BTreeSet};

use super::scenario::Scenario;
use super::world::{Action, World};
use crate::diag::Diagnostic;

/// Exploration limits.
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    /// Maximum distinct states to visit before truncating.
    pub max_states: usize,
    /// Maximum schedule depth before truncating a branch.
    pub max_depth: usize,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds { max_states: 2_000_000, max_depth: 4_096 }
    }
}

/// Explorer configuration. Both reductions default on; the differential
/// test turns them off to cross-check verdicts against brute force.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Enable sleep-set transition pruning.
    pub sleep_sets: bool,
    /// Enable state-fingerprint dedup.
    pub dedup: bool,
    /// Exploration limits.
    pub bounds: Bounds,
}

impl Default for Config {
    fn default() -> Self {
        Config { sleep_sets: true, dedup: true, bounds: Bounds::default() }
    }
}

/// Exploration statistics (the gate prints these).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// States visited (with dedup on: distinct states).
    pub states: usize,
    /// Transitions executed.
    pub transitions: usize,
    /// Transitions skipped because they were asleep.
    pub sleep_skips: usize,
    /// Revisits pruned by the fingerprint cache.
    pub dedup_hits: usize,
    /// Quiescent states reached (must be > 0 for a meaningful run).
    pub quiescent_states: usize,
    /// Deepest schedule explored.
    pub max_depth_seen: usize,
    /// True if a bound cut the exploration short.
    pub truncated: bool,
}

/// One violation, with the schedule that reached it.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The diagnostic (witness filled with the trace by the caller).
    pub diagnostic: Diagnostic,
    /// The schedule from the initial state to the violation.
    pub trace: Vec<Action>,
}

/// The result of exploring one scenario.
#[derive(Debug)]
pub struct Report {
    /// Violations, at most one per (code, first-seen) — exploration of a
    /// violating branch stops at the violation.
    pub findings: Vec<Finding>,
    /// Exploration statistics.
    pub stats: Stats,
    /// Every distinct state fingerprint visited (differential testing).
    pub fingerprints: BTreeSet<u128>,
}

/// Cap on retained findings; exploration continues (other codes may
/// still surface) but further findings of an already-seen code are
/// dropped.
const MAX_FINDINGS_PER_CODE: usize = 2;

struct Explorer {
    config: Config,
    stats: Stats,
    findings: Vec<Finding>,
    /// fingerprint → minimal antichain of sleep sets explored under.
    visited: BTreeMap<u128, Vec<BTreeSet<Action>>>,
    /// fingerprints whose state-oracles already ran.
    checked: BTreeSet<u128>,
    /// fingerprints whose state-oracles reported a violation; their
    /// futures prove nothing new and are never explored.
    bad: BTreeSet<u128>,
    fingerprints: BTreeSet<u128>,
    path: Vec<Action>,
}

/// Exhaustively explore `scenario` under `config`.
pub fn explore(scenario: &Scenario, config: &Config) -> Result<Report, String> {
    let world = World::new(scenario)?;
    let mut ex = Explorer {
        config: *config,
        stats: Stats::default(),
        findings: Vec::new(),
        visited: BTreeMap::new(),
        checked: BTreeSet::new(),
        bad: BTreeSet::new(),
        fingerprints: BTreeSet::new(),
        path: Vec::new(),
    };
    ex.dfs(&world, BTreeSet::new());
    Ok(Report { findings: ex.findings, stats: ex.stats, fingerprints: ex.fingerprints })
}

impl Explorer {
    fn record(&mut self, diags: Vec<Diagnostic>) {
        for d in diags {
            let seen = self.findings.iter().filter(|f| f.diagnostic.code == d.code).count();
            if seen < MAX_FINDINGS_PER_CODE {
                self.findings.push(Finding { diagnostic: d, trace: self.path.clone() });
            }
        }
    }

    fn dfs(&mut self, world: &World, sleep: BTreeSet<Action>) {
        if self.stats.truncated {
            return;
        }
        self.stats.states += 1;
        self.stats.max_depth_seen = self.stats.max_depth_seen.max(self.path.len());
        if self.stats.states > self.config.bounds.max_states
            || self.path.len() > self.config.bounds.max_depth
        {
            self.stats.truncated = true;
            return;
        }

        let fp = world.fingerprint();
        self.fingerprints.insert(fp);

        // State-predicate oracles, once per distinct state.
        if self.bad.contains(&fp) {
            return;
        }
        if self.checked.insert(fp) || !self.config.dedup {
            let diags = world.check_state();
            let fatal = !diags.is_empty();
            self.record(diags);
            if world.quiescent() {
                self.stats.quiescent_states += 1;
            }
            if fatal {
                // a violating state's futures prove nothing new
                self.bad.insert(fp);
                return;
            }
        }

        let enabled = world.enabled_actions();
        if enabled.is_empty() {
            self.record(world.check_stall().into_iter().collect());
            return;
        }

        if self.config.dedup {
            let stored = self.visited.entry(fp).or_default();
            if stored.iter().any(|s| s.is_subset(&sleep)) {
                self.stats.dedup_hits += 1;
                return;
            }
            stored.retain(|s| !sleep.is_subset(s));
            stored.push(sleep.clone());
        }

        let mut explored_here: Vec<Action> = Vec::new();
        for &a in &enabled {
            if sleep.contains(&a) {
                self.stats.sleep_skips += 1;
                continue;
            }
            let mut child = world.clone();
            let mut diags = Vec::new();
            child.apply(a, &mut diags);
            self.stats.transitions += 1;
            self.path.push(a);
            let fatal = !diags.is_empty();
            self.record(diags);
            if !fatal && !child.poisoned() {
                let child_sleep: BTreeSet<Action> = if self.config.sleep_sets {
                    sleep
                        .iter()
                        .chain(explored_here.iter())
                        .copied()
                        .filter(|&b| child.independent(a, b))
                        .collect()
                } else {
                    BTreeSet::new()
                };
                self.dfs(&child, child_sleep);
            }
            self.path.pop();
            explored_here.push(a);
            if self.stats.truncated {
                return;
            }
        }
    }
}
