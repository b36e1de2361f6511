//! Random walks on the model checker's [`World`].
//!
//! `replmc` explores *every* schedule of a 3-site × 2-transaction
//! scenario; these properties sample schedules of worlds that bound
//! cannot reach — generated placements of 2–5 sites and 3–11 items
//! (cyclic ones included), up to 23 transactions of 1–2 writes, DAG(T)
//! timers and untimed dummies firing at arbitrary points, eager phases
//! victimized at random. The executor and the oracles are the same
//! `World`: a walk differs from an exploration only in how the next
//! [`Action`] is picked (a coin, not a DFS), so MC001–MC006 — replica
//! convergence, one-copy serializability, link/apply-order discipline,
//! epoch monotonicity, no input to a crashed site, no machine error —
//! are judged after every step here too.
//!
//! A walk is a coin-flip phase followed by a deterministic drain. The
//! drain is *round-based* on purpose: taking one enabled action at a
//! time, heartbeats included, livelocks DAG(T) — the lowest-numbered
//! parent's dummy is consumed as the minimum, its queue empties, and the
//! same site heartbeats again with an unchanged timestamp until the
//! bound is gone (63 of these 64 DAG(T) cases were still not quiescent
//! after 40 000 such steps). So: every non-timer action to exhaustion;
//! if that is not quiescence, one `Timer` and one `Heartbeat` at each
//! site, so every merge sees a fresh minimum from every parent at once;
//! repeat.
//!
//! NaiveLazy is excused MC002: on a cyclic placement Example 1.1's
//! non-serializable history is the expected outcome, and the walk keeps
//! going to check the other five.

use proptest::prelude::*;

use repl_analysis::diag::{Diagnostic, Witness};
use repl_analysis::mc::{replay_from, shrink_from, Action, Budgets, PlannedTxn, Timers, World};
use repl_copygraph::DataPlacement;
use repl_protocol::{ProtocolId, SeededBug};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

/// Per-item (primary, replica bitmask) pairs over 2–5 sites, mirroring
/// the simulator's proptest generator. `forward_only` keeps replicas
/// above their primary, so the copy graph is a DAG by construction.
fn arb_placement(forward_only: bool) -> impl Strategy<Value = DataPlacement> {
    (2u32..=5, prop::collection::vec((0u32..5, 0u32..32), 3..12)).prop_map(move |(n, items)| {
        let mut p = DataPlacement::new(n);
        for (primary, mask) in items {
            let primary = primary % n;
            let replicas: Vec<SiteId> = (0..n)
                .filter(|&s| s != primary && mask & (1 << s) != 0 && (!forward_only || s > primary))
                .map(SiteId)
                .collect();
            p.add_item(SiteId(primary), &replicas);
        }
        p
    })
}

/// One generated case: a placement; plan entries (site choice, item
/// choice, width choice), each becoming one commit at `site % n` writing
/// one or two of that site's primary items, entries landing on
/// primary-less sites dropped; and the scheduler's coin flips, each
/// picking one enabled action.
type Case = (DataPlacement, Vec<(u16, u16, u16)>, Vec<u16>);

fn arb_case(forward_only: bool) -> impl Strategy<Value = Case> {
    (
        arb_placement(forward_only),
        prop::collection::vec((0u16..64, 0u16..64, 0u16..4), 4..24),
        prop::collection::vec(0u16..u16::MAX, 40..400),
    )
}

/// Expand plan entries into per-site commit lists. Values are unique
/// per (transaction, item) so convergence is a real equality; like
/// [`Scenario::plan`](repl_analysis::mc::Scenario::plan), a transaction
/// reads every local copy it does not write, which is what the 1SR
/// oracle judges.
fn expand_plan(placement: &DataPlacement, entries: &[(u16, u16, u16)]) -> Vec<Vec<PlannedTxn>> {
    let n = placement.num_sites();
    let mut plan: Vec<Vec<PlannedTxn>> = vec![Vec::new(); n as usize];
    for (k, &(site_c, item_c, width_c)) in entries.iter().enumerate() {
        let site = SiteId(u32::from(site_c) % n);
        let primaries = placement.primaries_at(site);
        if primaries.is_empty() {
            continue;
        }
        let mut writes: Vec<(ItemId, Value)> = Vec::new();
        for w in 0..(1 + usize::from(width_c) % 2) {
            let item = primaries[(usize::from(item_c) + w) % primaries.len()];
            if !writes.iter().any(|(i, _)| *i == item) {
                writes.push((item, Value::int((k as i64) * 1000 + w as i64 + 1)));
            }
        }
        let reads = placement
            .items_at(site)
            .iter()
            .copied()
            .filter(|i| !writes.iter().any(|(w, _)| w == i))
            .collect();
        let txns = &mut plan[site.index()];
        txns.push(PlannedTxn { gid: GlobalTxnId::new(site, txns.len() as u64 + 1), writes, reads });
    }
    plan
}

/// Walk `world` through the coin flips and the drain, recording every
/// action taken. `Err` is the first diagnostic — every code MC001–MC006
/// is asserted — whose code is not `excused`.
fn walk(
    world: &mut World,
    schedule: &[u16],
    max_rounds: usize,
    excused: &str,
    trace: &mut Vec<Action>,
) -> Result<(), Diagnostic> {
    let mut step = |world: &mut World, action: Action| {
        let mut diags = Vec::new();
        world.apply(action, &mut diags);
        trace.push(action);
        diags.extend(world.check_state());
        diags.into_iter().find(|d| d.code != excused).map_or(Ok(()), Err)
    };
    // Timers and eager timeouts fire like any other action here.
    for &coin in schedule {
        let acts = world.enabled_actions();
        if acts.is_empty() {
            break;
        }
        step(world, acts[usize::from(coin) % acts.len()])?;
    }
    let is_timer = |a: &Action| matches!(a, Action::Timer(_) | Action::Heartbeat(_));
    let is_work = |a: &Action| !is_timer(a) && !matches!(a, Action::AbortEager(_));
    for _ in 0..max_rounds {
        while let Some(a) = world.enabled_actions().into_iter().find(is_work) {
            step(world, a)?;
        }
        if world.quiescent() {
            return Ok(());
        }
        // Only timers and eager timeouts are left.
        let (timers, aborts): (Vec<_>, Vec<_>) =
            world.enabled_actions().into_iter().partition(is_timer);
        for a in timers {
            step(world, a)?;
        }
        // Example 4.1: two eager phases hold the locks each other's
        // prepare needs; timeout abort is the protocol's own way out.
        if let Some(&victim) = aborts.first() {
            step(world, victim)?;
        }
    }
    let stall = world.check_stall().map_or_else(String::new, |d| d.message);
    Err(Diagnostic::error(
        "MC001",
        format!("not quiescent after {max_rounds} drain rounds: {stall}"),
        Witness::None,
    ))
}

/// Walk one generated case; on a violation, fail it with the code,
/// whether [`replay_from`] reproduces the code from the recorded trace,
/// and the shrunk trace in [`Action`]'s `Display` form.
fn check_walk(
    protocol: ProtocolId,
    (placement, entries, schedule): Case,
    bug: Option<SeededBug>,
) -> Result<(), TestCaseError> {
    let plan = expand_plan(&placement, &entries);
    let txns: usize = plan.iter().map(Vec::len).sum();
    let max_rounds = 16 + 4 * placement.num_sites() as usize + txns;
    let budgets = Budgets {
        timers: Timers::Free,
        crashes: 0,
        allow_aborts: protocol == ProtocolId::BackEdge,
    };
    let initial = World::from_parts(protocol, placement, plan, budgets, bug)
        .map_err(|e| TestCaseError::fail(format!("{protocol}: {e}")))?;
    let excused = if protocol == ProtocolId::NaiveLazy { "MC002" } else { "" };
    let mut trace = Vec::new();
    let Err(found) = walk(&mut initial.clone(), &schedule, max_rounds, excused, &mut trace) else {
        return Ok(());
    };
    let replayed = replay_from(&initial, &trace);
    let verdict = if replayed.codes.contains(found.code) {
        "reproduced by replay".to_string()
    } else {
        format!("NOT reproduced by replay, which gave {:?}", replayed.codes)
    };
    let shrunk: Vec<String> =
        shrink_from(&initial, &trace, found.code).iter().map(Action::to_string).collect();
    Err(TestCaseError::fail(format!(
        "{protocol} walk reported {} ({verdict}) after {} steps: {}\n  shrunk trace: {}",
        found.code,
        trace.len(),
        found.message,
        shrunk.join(" ")
    )))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// NaiveLazy converges on arbitrary placements under arbitrary
    /// interleavings (per-link FIFO is all it needs for single-primary
    /// items), and only ever sends to replica holders.
    #[test]
    fn naive_lazy_walks_converge(case in arb_case(false)) {
        check_walk(ProtocolId::NaiveLazy, case, None)?;
    }

    /// Thm 2.1: DAG(WT) on DAG placements is one-copy serializable at
    /// every step, converges, and routes strictly along tree edges.
    #[test]
    fn dag_wt_walks_are_serializable(case in arb_case(true)) {
        check_walk(ProtocolId::DagWt, case, None)?;
    }

    /// Thm 3.1: DAG(T) likewise — with heartbeat and epoch timers firing
    /// at arbitrary points — and sends only along copy-graph edges.
    #[test]
    fn dag_t_walks_are_serializable(case in arb_case(true)) {
        check_walk(ProtocolId::DagT, case, None)?;
    }

    /// §4: BackEdge on arbitrary (possibly cyclic) placements, eager
    /// phases victimized at random, every send on the site's tree path.
    #[test]
    fn backedge_walks_are_serializable(case in arb_case(false)) {
        check_walk(ProtocolId::BackEdge, case, None)?;
    }

    // Positive controls: the same walks over the same case budget must
    // *fail* on a machine with a load-bearing rule removed. The driver
    // these walks replaced asserted convergence and link discipline
    // only, and passed 2048 of 2048 DAG(T) cases with `SkipMinTimestamp`
    // seeded into every machine.

    #[test]
    #[should_panic(expected = "DAG(T) walk reported MC002 (reproduced by replay)")]
    fn skip_min_timestamp_fails_the_dag_t_walks(case in arb_case(true)) {
        check_walk(ProtocolId::DagT, case, Some(SeededBug::SkipMinTimestamp))?;
    }

    #[test]
    #[should_panic(expected = "DAG(WT) walk reported MC001 (reproduced by replay)")]
    fn skip_forward_fails_the_dag_wt_walks(case in arb_case(true)) {
        check_walk(ProtocolId::DagWt, case, Some(SeededBug::SkipForward))?;
    }

    #[test]
    #[should_panic(expected = "BackEdge walk reported MC001 (reproduced by replay)")]
    fn skip_forward_fails_the_backedge_walks(case in arb_case(false)) {
        check_walk(ProtocolId::BackEdge, case, Some(SeededBug::SkipForward))?;
    }
}

/// Found by `backedge_walks_are_serializable` at 2048 cases (case 540,
/// shrunk from a 5-site placement to this one): T1@s2's special is
/// prepared at ancestor s1, s2 commits and its lazy copy reaches s3,
/// while s1 — decision still in flight — applies T1@s0. s1 then holds
/// new `a` beside old `b`, s3 new `b` beside old `a`. That is no
/// anomaly: `b` at s1 is write-locked until the decision, so no reader
/// there can see the old copy, and the MC002 observer must not either.
#[test]
fn prepared_special_hides_its_items_from_the_observer() {
    let (s0, s1, s2, s3) = (SiteId(0), SiteId(1), SiteId(2), SiteId(3));
    let mut placement = DataPlacement::new(4);
    placement.add_item(s0, &[s1, s3]); // a
    placement.add_item(s2, &[s1, s3]); // b
    placement.add_item(s1, &[s2]); // closes the s1 <-> s2 cycle
    let txn = |site: SiteId, item| PlannedTxn {
        gid: GlobalTxnId::new(site, 1),
        writes: vec![(ItemId(item), Value::int(1))],
        reads: Vec::new(),
    };
    let plan = vec![vec![txn(s0, 0)], vec![], vec![txn(s2, 1)], vec![]];
    let budgets = Budgets { timers: Timers::Free, crashes: 0, allow_aborts: true };
    let initial = World::from_parts(ProtocolId::BackEdge, placement, plan, budgets, None).unwrap();
    let trace = [
        Action::Commit(s2),
        Action::Deliver(s2, s1),
        Action::Prep(s1),
        Action::Deliver(s1, s2),
        Action::Deliver(s2, s3),
        Action::Commit(s0),
        Action::Deliver(s0, s1),
        Action::Complete(s1),
        Action::Complete(s3),
    ];
    let r = replay_from(&initial, &trace);
    assert_eq!(r.executed, trace, "every step of the pinned schedule is enabled");
    assert!(r.codes.is_empty(), "{:?}", r.diagnostics);
}

/// DAG(T) on a site numbering that is not topological is a
/// configuration error, refused when the world is built (as `Engine::new`
/// and the runtime refuse it), not a walk that reports MC002. DAG(WT)
/// does not order by site id and takes the same placement.
#[test]
fn dag_t_refuses_a_numbering_that_is_not_topological() {
    let mut placement = DataPlacement::new(2);
    placement.add_item(SiteId(1), &[SiteId(0)]); // the one edge: s1 -> s0
    let plan = vec![vec![], vec![]];
    let budgets = Budgets { timers: Timers::Free, crashes: 0, allow_aborts: false };
    let build =
        |protocol| World::from_parts(protocol, placement.clone(), plan.clone(), budgets, None);
    let err = build(ProtocolId::DagT).err().expect("DAG(T) on s1 -> s0 builds");
    assert!(err.contains("topological order"), "{err}");
    assert!(build(ProtocolId::DagWt).is_ok());
}
