//! Trace replay and greedy counterexample shrinking.
//!
//! A raw DFS counterexample contains every scheduler step on the path
//! to the violation, most of which are irrelevant noise (commits at
//! bystander sites, deliveries that never mattered). [`shrink`] reduces
//! it to a *1-minimal* trace: removing any single step stops the
//! violation from reproducing.
//!
//! Shrinking leans on a forgiving [`replay`]: a candidate trace may
//! contain steps that are disabled at replay time (removing an earlier
//! step can disable a later one); replay skips those and returns the
//! steps it actually executed. Candidates are accepted only when the
//! *executed* trace still reproduces the target diagnostic code and is
//! strictly shorter, so the loop terminates.

use std::collections::BTreeSet;

use super::scenario::Scenario;
use super::world::{Action, World};
use crate::diag::Diagnostic;

/// The outcome of replaying a schedule from a scenario's initial state.
#[derive(Debug)]
pub struct Replay {
    /// The steps that were actually executed (disabled steps skipped).
    pub executed: Vec<Action>,
    /// Diagnostic codes the replay reproduced.
    pub codes: BTreeSet<&'static str>,
    /// The diagnostics themselves, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

/// Replay `trace` from `scenario`'s initial state, skipping steps that
/// are not enabled when their turn comes, stopping at the first
/// violation. State oracles run after every step (and on the initial
/// state); if the full trace executes cleanly and dead-ends short of
/// quiescence, the stall oracle runs too.
pub fn replay(scenario: &Scenario, trace: &[Action]) -> Result<Replay, String> {
    Ok(replay_from(&World::new(scenario)?, trace))
}

/// [`replay`] from any initial state — a [`World::from_parts`] one has
/// no [`Scenario`] to name it.
pub fn replay_from(initial: &World, trace: &[Action]) -> Replay {
    let mut world = initial.clone();
    let mut executed = Vec::new();
    let mut diagnostics = Vec::new();
    let mut checked: BTreeSet<u128> = BTreeSet::new();

    if checked.insert(world.fingerprint()) {
        diagnostics.extend(world.check_state());
    }
    if diagnostics.is_empty() {
        for &a in trace {
            if !world.is_enabled(a) {
                continue;
            }
            world.apply(a, &mut diagnostics);
            executed.push(a);
            if !diagnostics.is_empty() || world.poisoned() {
                break;
            }
            if checked.insert(world.fingerprint()) {
                diagnostics.extend(world.check_state());
            }
            if !diagnostics.is_empty() {
                break;
            }
        }
    }
    if diagnostics.is_empty() && world.enabled_actions().is_empty() {
        diagnostics.extend(world.check_stall());
    }
    let codes = diagnostics.iter().map(|d| d.code).collect();
    Replay { executed, codes, diagnostics }
}

/// Greedily shrink `trace` to a 1-minimal schedule that still
/// reproduces diagnostic `code`. Falls back to the input trace if it
/// does not replay to `code` in the first place (it should — the
/// explorer produced it).
pub fn shrink(scenario: &Scenario, trace: &[Action], code: &'static str) -> Vec<Action> {
    match World::new(scenario) {
        Ok(initial) => shrink_from(&initial, trace, code),
        Err(_) => trace.to_vec(),
    }
}

/// [`shrink`] from any initial state.
pub fn shrink_from(initial: &World, trace: &[Action], code: &'static str) -> Vec<Action> {
    // Normalize to the executed prefix first: the explorer's trace may
    // extend past the step that made the violation inevitable.
    let mut current = match replay_from(initial, trace) {
        r if r.codes.contains(code) => r.executed,
        _ => return trace.to_vec(),
    };
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            match replay_from(initial, &candidate) {
                r if r.codes.contains(code) && r.executed.len() < current.len() => {
                    current = r.executed;
                    improved = true;
                    // re-test index i (a new step now sits there)
                }
                _ => i += 1,
            }
        }
        if !improved {
            return current;
        }
    }
}
