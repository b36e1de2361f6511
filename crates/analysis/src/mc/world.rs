//! The explored global state: machines, links, stores, and oracles.
//!
//! A [`World`] is one node of the model checker's state graph: the
//! fleet of [`SiteMachine`]s plus everything the drivers around them
//! would hold — per-directed-link FIFO queues, per-site committed
//! stores (with writer tags), the single applier slot, pending direct
//! prepares, workload cursors, fault bookkeeping, and site clocks. The
//! explorer clones a `World`, applies one [`Action`], and recurses.
//!
//! Lock modelling: local transactions are *instantaneous* (they read
//! their origin's current versions and install their writes atomically
//! at commit), except where the paper's correctness argument leans on
//! locks being *held*:
//!
//! * A prepared BackEdge special holds write locks until its decision
//!   (§4.1), so a local commit whose footprint intersects a prepared
//!   special's write set is disabled until the decision arrives, and
//!   the site's MC002 observer does not read those items: between the
//!   origin's commit and the decision's arrival the old copy is still
//!   there, but no reader can get a lock on it (the schedule where
//!   reading it anyway reports a false cycle is pinned in
//!   `tests/mc_walks.rs`).
//! * A BackEdge transaction in its eager phase holds its own read and
//!   write locks at the origin from commit intent to commit, so
//!   conflicting applies and prepares at the origin are disabled — this
//!   is exactly the mechanism that converts Example 4.1's write-skew
//!   interleavings into deadlocks (resolved by [`Action::AbortEager`])
//!   instead of anomalies.
//!
//! Every other interleaving a blocked lock-wait could produce is
//! already explored as the schedule where the blocked step simply runs
//! later, so the instantaneous model reaches the same histories.
//!
//! Oracle codes:
//!
//! * **MC001** — replicas diverge from their primary at quiescence, or
//!   the fleet dead-ends before quiescence (non-DAG(T); a DAG(T) branch
//!   that spent its timer budget is starved by the bound, not the
//!   protocol).
//! * **MC002** — the committed history plus per-site observer snapshots
//!   is not one-copy serializable (checked at every state).
//! * **MC003** — ordering discipline: a send off the protocol's legal
//!   links, an `Apply`/`Prepare` carrying an item the site holds no copy
//!   of, or a site applying one origin's subtransactions out of that
//!   origin's commit order.
//! * **MC004** — a site's DAG(T) epoch decreases.
//! * **MC005** — an input reaches (or a command leaves) a crashed site.
//! * **MC006** — a machine returns a [`ProtocolError`] on a legal input
//!   sequence, or violates an internal contract (double-booking the
//!   applier slot; an `ApplyMany`/`SendBatch`, which no machine
//!   emits).
//!
//! [`ProtocolError`]: repl_protocol::ProtocolError

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use repl_copygraph::{CopyGraph, DataPlacement, PropagationTree};
use repl_protocol::digest::{digest_gid, digest_payload, digest_site, digest_value, digest_writes};
use repl_protocol::{
    Command, Input, Payload, ProtocolId, Routing, SeededBug, SiteMachine, StableDigest, TreeKind,
    Tuning,
};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

use super::scenario::{PlannedTxn, Scenario};
use crate::diag::{Diagnostic, Witness};
use crate::history::History;

/// Sequence number of per-site observer transactions in the MC002
/// history (dummies already claim `u64::MAX`).
pub const OBSERVER_SEQ: u64 = u64::MAX - 1;

/// Sequence number of DAG(T) dummy subtransactions.
const DUMMY_SEQ: u64 = u64::MAX;

/// The machines' timers: `Tuning::PAPER` with the heartbeat on the
/// epoch's period, so a source's timers fall due at 1 µs and 50 000 µs
/// and its second `Timer` is its first epoch. `PAPER`'s own 25 ms
/// heartbeat puts a heartbeat-only firing between the two: the epoch
/// takes a third `Timer`, and the gate ten times the states.
const CHECKER_TUNING: Tuning =
    Tuning { heartbeat_period: Tuning::PAPER.epoch_period, ..Tuning::PAPER };

/// A transaction's write set.
pub type WriteSet = Vec<(ItemId, Value)>;

/// One schedulable step of the model checker's scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Action {
    /// Issue the site's next planned commit (intent + instant commit,
    /// or the start of a BackEdge eager phase).
    Commit(SiteId),
    /// Pop one payload off the `(from, to)` FIFO link.
    Deliver(SiteId, SiteId),
    /// Complete the applier-slot work (apply or queued prepare).
    Complete(SiteId),
    /// Complete the site's oldest direct (non-queued) prepare.
    Prep(SiteId),
    /// DAG(T): move this site's clock to its machine's next deadline and
    /// feed it [`Input::Timer`] (spends one of the site's [`Timers`]).
    Timer(SiteId),
    /// DAG(T), [`Timers::Free`] only: a dummy to every child now, the
    /// stand-in for the live site's on-apply dummy.
    Heartbeat(SiteId),
    /// DAG(T): crash this site (consumes the crash budget).
    Crash(SiteId),
    /// Recover a crashed site.
    Restart(SiteId),
    /// BackEdge: victimize this eager phase (deadlock/timeout).
    AbortEager(GlobalTxnId),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Commit(s) => write!(f, "commit({s})"),
            Action::Deliver(a, b) => write!(f, "deliver({a}->{b})"),
            Action::Complete(s) => write!(f, "complete({s})"),
            Action::Prep(s) => write!(f, "prep({s})"),
            Action::Timer(s) => write!(f, "timer({s})"),
            Action::Heartbeat(s) => write!(f, "heartbeat({s})"),
            Action::Crash(s) => write!(f, "crash({s})"),
            Action::Restart(s) => write!(f, "restart({s})"),
            Action::AbortEager(g) => write!(f, "abort-eager({g})"),
        }
    }
}

/// How often the scheduler may fire DAG(T)'s timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timers {
    /// Exhaustive exploration: each site may fire this many
    /// [`Action::Timer`]s, and nothing else sends a dummy.
    Budgeted(u32),
    /// Random walks: `Timer` without a budget, and the untimed
    /// [`Action::Heartbeat`] at any step. The state space is infinite;
    /// only a bounded walk makes sense of it.
    Free,
}

/// The bounds on otherwise-unbounded scheduler behaviour.
#[derive(Clone, Copy, Debug)]
pub struct Budgets {
    /// DAG(T)'s timers.
    pub timers: Timers,
    /// DAG(T): how many site crashes the scheduler may inject.
    pub crashes: u32,
    /// BackEdge: whether the scheduler may victimize eager phases.
    pub allow_aborts: bool,
}

/// The immutable part of a run, shared by every cloned [`World`].
pub(crate) struct Fleet {
    pub protocol: ProtocolId,
    pub placement: Arc<DataPlacement>,
    pub graph: Arc<CopyGraph>,
    pub tree: Option<Arc<PropagationTree>>,
    /// Planned commits per site, in issue order.
    pub plan: Vec<Vec<PlannedTxn>>,
    /// Plan entries by gid.
    pub txn_info: BTreeMap<GlobalTxnId, PlannedTxn>,
    pub budgets: Budgets,
}

/// Work occupying a site's single applier slot.
#[derive(Clone)]
struct PendingApply {
    gid: GlobalTxnId,
    writes: WriteSet,
    prepare: bool,
}

/// One explored global state.
#[derive(Clone)]
pub struct World {
    fleet: Arc<Fleet>,
    machines: Vec<SiteMachine>,
    /// Committed copy state per site: item → (value, writer tag).
    stores: Vec<BTreeMap<ItemId, (Value, Option<GlobalTxnId>)>>,
    /// Per-directed-link FIFO queues.
    links: BTreeMap<(SiteId, SiteId), VecDeque<Payload>>,
    applier: Vec<Option<PendingApply>>,
    /// Direct (non-queued) BackEdge prepares awaiting completion.
    direct_preps: Vec<VecDeque<(GlobalTxnId, WriteSet)>>,
    /// Per-site issue cursor into the plan.
    next_txn: Vec<usize>,
    committed: BTreeSet<GlobalTxnId>,
    /// Per-origin commit order (the per-item version order, since every
    /// writer of an item is a transaction of its primary site).
    commit_log: Vec<Vec<GlobalTxnId>>,
    /// gid → 1-based position in its origin's commit log.
    commit_index: BTreeMap<GlobalTxnId, u64>,
    /// Versions each transaction read at its origin, recorded at commit.
    txn_reads: BTreeMap<GlobalTxnId, Vec<(ItemId, Option<GlobalTxnId>)>>,
    /// BackEdge commits whose eager phase is in flight.
    eager_waiting: BTreeSet<GlobalTxnId>,
    aborted: BTreeSet<GlobalTxnId>,
    crashed: Vec<bool>,
    /// Per-site logical clock, µs: moved only by [`Action::Timer`].
    clock: Vec<u64>,
    timer_budget: Vec<u32>,
    crash_budget: u32,
    /// Write-lock footprints of prepared specials, per site (held from
    /// `Prepared` until the decision).
    special_locks: Vec<BTreeMap<GlobalTxnId, Vec<ItemId>>>,
    /// MC003: per site, origin → last applied commit index.
    last_applied: Vec<BTreeMap<SiteId, u64>>,
    /// MC004: per-site epoch high-water mark.
    epoch_floor: Vec<u64>,
    /// A machine returned an error or broke a contract; stop exploring.
    poisoned: bool,
}

impl World {
    /// Build the initial state of a scenario.
    pub fn new(scenario: &Scenario) -> Result<World, String> {
        let placement = scenario.topology.build_placement(scenario.sites)?;
        let plan = scenario.plan(&placement);
        let budgets = Budgets {
            timers: Timers::Budgeted(scenario.timer_budget),
            crashes: scenario.crash_budget,
            allow_aborts: scenario.allow_aborts,
        };
        World::from_parts(scenario.protocol, placement, plan, budgets, scenario.bug)
    }

    /// Build an initial state from explicit parts: any placement, any
    /// per-site commit plan (`plan[s]` is site `s`'s transactions in
    /// issue order, each writing items primary at `s`), any budgets.
    /// [`World::new`] is this on a [`Scenario`]'s canonical shapes; the
    /// random walks in `tests/mc_walks.rs` call it on generated ones.
    pub fn from_parts(
        protocol: ProtocolId,
        placement: DataPlacement,
        plan: Vec<Vec<PlannedTxn>>,
        budgets: Budgets,
        bug: Option<SeededBug>,
    ) -> Result<World, String> {
        let n = placement.num_sites() as usize;
        if plan.len() != n {
            return Err(format!("plan covers {} sites, placement has {n}", plan.len()));
        }
        // DAG(T) orders by site id; a misnumbered placement is refused
        // here, else a walk would report it as MC002.
        let Routing { graph, tree, .. } =
            Routing::build(protocol.into(), &placement, TreeKind::Chain)
                .map_err(|e| e.to_string())?;
        let mut txn_info = BTreeMap::new();
        for t in plan.iter().flatten() {
            txn_info.insert(t.gid, t.clone());
        }
        let placement = Arc::new(placement);
        let mut machines = Vec::with_capacity(n);
        for s in 0..n {
            let mut m = SiteMachine::new(
                SiteId(s as u32),
                protocol,
                placement.clone(),
                graph.clone(),
                tree.clone(),
            )
            .map_err(|e| format!("machine build failed: {e}"))?;
            if let Some(bug) = bug {
                m.inject_bug(bug);
            }
            machines.push(m.with_tuning(&CHECKER_TUNING));
        }
        let timers = match budgets.timers {
            Timers::Budgeted(per_site) => per_site,
            Timers::Free => u32::MAX,
        };
        let fleet = Arc::new(Fleet { protocol, placement, graph, tree, plan, txn_info, budgets });
        Ok(World {
            machines,
            stores: vec![BTreeMap::new(); n],
            links: BTreeMap::new(),
            applier: (0..n).map(|_| None).collect(),
            direct_preps: vec![VecDeque::new(); n],
            next_txn: vec![0; n],
            committed: BTreeSet::new(),
            commit_log: vec![Vec::new(); n],
            commit_index: BTreeMap::new(),
            txn_reads: BTreeMap::new(),
            eager_waiting: BTreeSet::new(),
            aborted: BTreeSet::new(),
            crashed: vec![false; n],
            clock: vec![0; n],
            timer_budget: vec![timers; n],
            crash_budget: fleet.budgets.crashes,
            special_locks: vec![BTreeMap::new(); n],
            last_applied: vec![BTreeMap::new(); n],
            epoch_floor: vec![0; n],
            poisoned: false,
            fleet,
        })
    }

    fn num_sites(&self) -> usize {
        self.machines.len()
    }

    /// True once a machine errored; the branch stops here.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    // ------------------------------------------------------------------
    // Lock footprints.
    // ------------------------------------------------------------------

    /// A planned transaction's lock footprint (reads ∪ writes).
    fn footprint(&self, t: &PlannedTxn) -> Vec<ItemId> {
        let mut items: Vec<ItemId> = t.writes.iter().map(|(i, _)| *i).collect();
        items.extend(&t.reads);
        items
    }

    /// Items locked at `site` by prepared specials and resident eager
    /// phases, excluding special `skip` (a prepare never conflicts with
    /// its own locks).
    fn locked_items(&self, site: SiteId, skip: Option<GlobalTxnId>) -> BTreeSet<ItemId> {
        let mut locked = BTreeSet::new();
        for (gid, items) in &self.special_locks[site.index()] {
            if Some(*gid) != skip {
                locked.extend(items.iter().copied());
            }
        }
        for gid in &self.eager_waiting {
            if gid.origin == site {
                if let Some(t) = self.fleet.txn_info.get(gid) {
                    locked.extend(self.footprint(t));
                }
            }
        }
        locked
    }

    fn conflicts(locked: &BTreeSet<ItemId>, items: &[ItemId]) -> bool {
        items.iter().any(|i| locked.contains(i))
    }

    // ------------------------------------------------------------------
    // Enabled actions.
    // ------------------------------------------------------------------

    /// Every action the scheduler may take in this state, in a fixed
    /// deterministic order.
    pub fn enabled_actions(&self) -> Vec<Action> {
        if self.poisoned {
            return Vec::new();
        }
        let mut acts = Vec::new();
        for s in 0..self.num_sites() {
            let site = SiteId(s as u32);
            if self.crashed[s] {
                acts.push(Action::Restart(site));
                continue;
            }
            if self.can_commit(site) {
                acts.push(Action::Commit(site));
            }
            if let Some(p) = &self.applier[s] {
                let skip = if p.prepare { Some(p.gid) } else { None };
                let locked = self.locked_items(site, skip);
                let items: Vec<ItemId> = p.writes.iter().map(|(i, _)| *i).collect();
                if !Self::conflicts(&locked, &items) {
                    acts.push(Action::Complete(site));
                }
            }
            if let Some((gid, writes)) = self.direct_preps[s].front() {
                let locked = self.locked_items(site, Some(*gid));
                let items: Vec<ItemId> = writes.iter().map(|(i, _)| *i).collect();
                if !Self::conflicts(&locked, &items) {
                    acts.push(Action::Prep(site));
                }
            }
            if self.fleet.protocol == ProtocolId::DagT {
                let m = &self.machines[s];
                if self.timer_budget[s] > 0 && m.next_deadline().is_some() {
                    acts.push(Action::Timer(site));
                }
                if self.fleet.budgets.timers == Timers::Free && m.children().next().is_some() {
                    acts.push(Action::Heartbeat(site));
                }
                if self.crash_budget > 0 {
                    acts.push(Action::Crash(site));
                }
            }
        }
        for ((from, to), q) in &self.links {
            if !q.is_empty() && !self.crashed[to.index()] {
                acts.push(Action::Deliver(*from, *to));
            }
        }
        if self.fleet.budgets.allow_aborts {
            for &gid in &self.eager_waiting {
                if !self.crashed[gid.origin.index()] {
                    acts.push(Action::AbortEager(gid));
                }
            }
        }
        acts
    }

    /// True if `a` is enabled right now (replay normalization).
    pub fn is_enabled(&self, a: Action) -> bool {
        self.enabled_actions().contains(&a)
    }

    /// Another planned commit may be issued at `site`: plan remains, at
    /// most one other eager phase of this origin is in flight (the
    /// runtime's two worker threads), and the transaction's 2PL
    /// footprint does not collide with locks held at the origin.
    fn can_commit(&self, site: SiteId) -> bool {
        let idx = self.next_txn[site.index()];
        if idx >= self.fleet.plan[site.index()].len() {
            return false;
        }
        if self.eager_waiting.iter().filter(|g| g.origin == site).count() >= 2 {
            return false;
        }
        let t = &self.fleet.plan[site.index()][idx];
        let locked = self.locked_items(site, None);
        !Self::conflicts(&locked, &self.footprint(t))
    }

    // ------------------------------------------------------------------
    // Applying actions.
    // ------------------------------------------------------------------

    /// Execute one action, appending any step-oracle violations. The
    /// caller guarantees `action` was enabled.
    pub fn apply(&mut self, action: Action, diags: &mut Vec<Diagnostic>) {
        match action {
            Action::Commit(site) => {
                let idx = self.next_txn[site.index()];
                self.next_txn[site.index()] += 1;
                let t = self.fleet.plan[site.index()][idx].clone();
                self.feed(site, Input::CommitIntent { gid: t.gid, writes: t.writes }, diags);
                if !self.committed.contains(&t.gid) && !self.aborted.contains(&t.gid) {
                    self.eager_waiting.insert(t.gid);
                }
            }
            Action::Deliver(from, to) => {
                if let Some(payload) = self.links.get_mut(&(from, to)).and_then(VecDeque::pop_front)
                {
                    self.feed(to, Input::Deliver { from, payload }, diags);
                }
            }
            Action::Complete(site) => {
                let Some(p) = self.applier[site.index()].take() else { return };
                if p.prepare {
                    let items = p.writes.iter().map(|(i, _)| *i).collect();
                    self.special_locks[site.index()].insert(p.gid, items);
                    self.feed(site, Input::Prepared { gid: p.gid }, diags);
                } else {
                    self.note_apply(site, p.gid, diags);
                    for (item, value) in p.writes {
                        self.stores[site.index()].insert(item, (value, Some(p.gid)));
                    }
                    self.feed(site, Input::Applied { gid: p.gid }, diags);
                }
            }
            Action::Prep(site) => {
                let Some((gid, writes)) = self.direct_preps[site.index()].pop_front() else {
                    return;
                };
                let items = writes.iter().map(|(i, _)| *i).collect();
                self.special_locks[site.index()].insert(gid, items);
                self.feed(site, Input::Prepared { gid }, diags);
            }
            Action::Timer(site) => {
                let s = site.index();
                self.timer_budget[s] -= 1;
                self.clock[s] = self.clock[s].max(self.machines[s].next_deadline().unwrap_or(0));
                self.feed(site, Input::Timer { now_us: self.clock[s] }, diags);
            }
            Action::Heartbeat(site) => {
                let idle_children = self.machines[site.index()].children().collect();
                self.feed(site, Input::HeartbeatTick { idle_children }, diags);
            }
            Action::Crash(site) => {
                self.crash_budget -= 1;
                self.feed(site, Input::Crashed, diags);
                self.crashed[site.index()] = true;
                // The store rolled the in-flight apply back (the machine
                // re-queued it); volatile prepare state is gone.
                self.applier[site.index()] = None;
                self.direct_preps[site.index()].clear();
                self.special_locks[site.index()].clear();
            }
            Action::Restart(site) => {
                // As an executor restarts: a `Timer` at the clock re-arms.
                self.crashed[site.index()] = false;
                self.feed(site, Input::Timer { now_us: self.clock[site.index()] }, diags);
            }
            Action::AbortEager(gid) => {
                self.eager_waiting.remove(&gid);
                self.aborted.insert(gid);
                self.feed(gid.origin, Input::AbortEager { gid }, diags);
            }
        }
        self.check_epochs(diags);
    }

    /// Record a violation that ends this branch.
    fn poison(&mut self, diags: &mut Vec<Diagnostic>, code: &'static str, message: String) {
        self.poisoned = true;
        diags.push(Diagnostic::error(code, message, Witness::None));
    }

    /// Feed one input to a machine and carry out its commands.
    fn feed(&mut self, site: SiteId, input: Input, diags: &mut Vec<Diagnostic>) {
        if self.crashed[site.index()] {
            self.poison(diags, "MC005", format!("input {input:?} routed to crashed site {site}"));
            return;
        }
        let machine = &mut self.machines[site.index()];
        machine.set_now(self.clock[site.index()]);
        match machine.on_input(input) {
            Ok(cmds) => self.run_commands(site, cmds, diags),
            Err(e) => self.poison(
                diags,
                "MC006",
                format!("protocol error at {site} on a legal input sequence: {e}"),
            ),
        }
    }

    fn run_commands(&mut self, site: SiteId, cmds: Vec<Command>, diags: &mut Vec<Diagnostic>) {
        for cmd in cmds {
            match cmd {
                Command::Send { to, payload } => {
                    if let Some(d) = self.check_link(site, to, &payload) {
                        self.poisoned = true;
                        diags.push(d);
                    } else {
                        self.links.entry((site, to)).or_default().push_back(payload);
                    }
                }
                // No machine emits these, so either is a machine bug.
                Command::SendBatch | Command::ApplyMany => self.poison(
                    diags,
                    "MC006",
                    format!("{site} issued a batched command, which no machine emits: {cmd:?}"),
                ),
                Command::CommitLocal { gid } => self.commit_local(site, gid, diags),
                Command::Apply { gid, writes } => {
                    self.occupy_applier(site, PendingApply { gid, writes, prepare: false }, diags);
                }
                Command::Prepare { gid, writes, queued, .. } => {
                    if queued {
                        self.occupy_applier(
                            site,
                            PendingApply { gid, writes, prepare: true },
                            diags,
                        );
                    } else if self.holds_copies(site, gid, &writes, diags) {
                        self.direct_preps[site.index()].push_back((gid, writes));
                    }
                }
                Command::CommitPrepared { gid, writes } => {
                    self.note_apply(site, gid, diags);
                    self.special_locks[site.index()].remove(&gid);
                    for (item, value) in writes {
                        self.stores[site.index()].insert(item, (value, Some(gid)));
                    }
                }
                Command::AbortPrepared { gid } => {
                    self.special_locks[site.index()].remove(&gid);
                    if self.applier[site.index()].as_ref().is_some_and(|p| p.gid == gid) {
                        self.applier[site.index()] = None;
                    } else {
                        self.direct_preps[site.index()].retain(|(g, _)| *g != gid);
                    }
                }
                Command::ArmEagerTimeout { .. } => {} // the scheduler is the clock
            }
        }
    }

    /// MC003: a secondary or special subtransaction reaches `site` with
    /// writes to held copies only.
    fn holds_copies(
        &mut self,
        site: SiteId,
        gid: GlobalTxnId,
        writes: &WriteSet,
        diags: &mut Vec<Diagnostic>,
    ) -> bool {
        let stray = writes.iter().find(|(i, _)| !self.fleet.placement.has_copy(site, *i));
        if let Some((item, _)) = stray {
            let message =
                format!("{site} was handed {gid} writing {item}, which it holds no copy of");
            self.poison(diags, "MC003", message);
        }
        stray.is_none()
    }

    /// Put an `Apply` or queued `Prepare` in the single applier slot
    /// (MC006 if the machine double-booked it).
    fn occupy_applier(&mut self, site: SiteId, work: PendingApply, diags: &mut Vec<Diagnostic>) {
        if self.applier[site.index()].is_some() {
            let what = if work.prepare { "queued Prepare" } else { "Apply" };
            let message =
                format!("{site} issued {what}({}) while its applier slot is busy", work.gid);
            self.poison(diags, "MC006", message);
        } else if self.holds_copies(site, work.gid, &work.writes, diags) {
            self.applier[site.index()] = Some(work);
        }
    }

    /// Execute `CommitLocal`: record the versions the transaction read
    /// at its origin, install its writes, append to the origin's commit
    /// log, and propagate.
    fn commit_local(&mut self, site: SiteId, gid: GlobalTxnId, diags: &mut Vec<Diagnostic>) {
        let Some(t) = self.fleet.txn_info.get(&gid).cloned() else {
            self.poison(
                diags,
                "MC006",
                format!("{site} issued CommitLocal for unknown transaction {gid}"),
            );
            return;
        };
        let reads: Vec<(ItemId, Option<GlobalTxnId>)> = t
            .reads
            .iter()
            .map(|&i| (i, self.stores[site.index()].get(&i).and_then(|(_, w)| *w)))
            .collect();
        self.txn_reads.insert(gid, reads);
        for (item, value) in &t.writes {
            self.stores[site.index()].insert(*item, (value.clone(), Some(gid)));
        }
        self.committed.insert(gid);
        self.commit_log[site.index()].push(gid);
        self.commit_index.insert(gid, self.commit_log[site.index()].len() as u64);
        self.eager_waiting.remove(&gid);
        self.feed(site, Input::Committed { gid, writes: t.writes }, diags);
    }

    /// MC003: a secondary apply (or prepared commit) of `gid` at `site`
    /// must respect the origin's commit order.
    fn note_apply(&mut self, site: SiteId, gid: GlobalTxnId, diags: &mut Vec<Diagnostic>) {
        if gid.seq == DUMMY_SEQ {
            return;
        }
        let Some(&idx) = self.commit_index.get(&gid) else {
            self.poison(
                diags,
                "MC003",
                format!("{site} applied {gid} before its origin committed it"),
            );
            return;
        };
        let last = self.last_applied[site.index()].entry(gid.origin).or_insert(0);
        if idx <= *last {
            diags.push(Diagnostic::error(
                "MC003",
                format!(
                    "{site} applied {gid} (commit index {idx} at {}) after already applying index {}",
                    gid.origin, *last
                ),
                Witness::None,
            ));
        } else {
            *last = idx;
        }
    }

    /// Link discipline: every `Send` targets a legal neighbour.
    fn check_link(&self, from: SiteId, to: SiteId, payload: &Payload) -> Option<Diagnostic> {
        let bad = |why: String| {
            Some(Diagnostic::error(
                "MC003",
                format!("illegal send {from} -> {to}: {why}"),
                Witness::None,
            ))
        };
        if to.index() >= self.num_sites() || to == from {
            return bad("unknown link".to_string());
        }
        match self.fleet.protocol {
            ProtocolId::NaiveLazy => {
                if let Payload::Subtxn(sub) = payload {
                    let ok = !sub.writes.is_empty()
                        && sub.writes.iter().all(|(i, _)| self.fleet.placement.has_copy(to, *i));
                    if !ok {
                        return bad(format!("{to} holds no copy of the payload's items"));
                    }
                }
            }
            ProtocolId::DagWt => {
                let tree = self.fleet.tree.as_ref().expect("DAG(WT) has a tree");
                if tree.parent(to) != Some(from) {
                    return bad("not a propagation-tree edge".to_string());
                }
            }
            ProtocolId::DagT => {
                if !self.fleet.graph.has_edge(from, to) {
                    return bad("not a copy-graph edge".to_string());
                }
            }
            ProtocolId::BackEdge => {
                let tree = self.fleet.tree.as_ref().expect("BackEdge has a tree");
                if !tree.is_ancestor(from, to) && !tree.is_ancestor(to, from) {
                    return bad("neither up nor down the tree".to_string());
                }
            }
        }
        None
    }

    /// MC004: no site's epoch ever decreases.
    fn check_epochs(&mut self, diags: &mut Vec<Diagnostic>) {
        for s in 0..self.num_sites() {
            let epoch = self.machines[s].site_ts().epoch;
            let floor = &mut self.epoch_floor[s];
            if epoch < *floor {
                diags.push(Diagnostic::error(
                    "MC004",
                    format!("epoch at {} regressed from {} to {}", SiteId(s as u32), floor, epoch),
                    Witness::None,
                ));
            } else {
                *floor = epoch;
            }
        }
    }

    // ------------------------------------------------------------------
    // State oracles.
    // ------------------------------------------------------------------

    /// All planned work done, network drained, appliers idle, no site
    /// down, machines holding nothing but (for DAG(T)) unconsumed
    /// dummies.
    pub fn quiescent(&self) -> bool {
        (0..self.num_sites()).all(|s| {
            self.next_txn[s] == self.fleet.plan[s].len()
                && self.applier[s].is_none()
                && self.direct_preps[s].is_empty()
                && !self.crashed[s]
        }) && self.links.values().all(VecDeque::is_empty)
            && self.eager_waiting.is_empty()
            && self.machines.iter().all(|m| {
                if self.fleet.protocol == ProtocolId::DagT {
                    m.no_pending_updates()
                } else {
                    m.secondaries_idle()
                }
            })
    }

    /// State-predicate oracles, run once per distinct state: MC002
    /// always, MC001 (convergence) when the state is quiescent.
    pub fn check_state(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        if let Err(cycle) = self.observed_history().check_serializability() {
            let rendered: Vec<String> = cycle
                .cycle
                .iter()
                .map(|g| {
                    if g.seq == OBSERVER_SEQ {
                        format!("observer@{}", g.origin)
                    } else {
                        format!("{g}")
                    }
                })
                .collect();
            diags.push(Diagnostic::error(
                "MC002",
                format!(
                    "committed history plus observer snapshots is not one-copy serializable \
                     (cycle: {})",
                    rendered.join(" -> ")
                ),
                Witness::None,
            ));
        }
        if self.quiescent() {
            for item in self.fleet.placement.items() {
                let primary = self.fleet.placement.primary_of(item);
                let want = self.stores[primary.index()]
                    .get(&item)
                    .map(|(v, _)| v.clone())
                    .unwrap_or_default();
                for &r in self.fleet.placement.replicas_of(item) {
                    let got = self.stores[r.index()]
                        .get(&item)
                        .map(|(v, _)| v.clone())
                        .unwrap_or_default();
                    if got != want {
                        diags.push(Diagnostic::error(
                            "MC001",
                            format!(
                                "at quiescence, {item} diverged at {r} \
                                 (primary {primary}: {want:?}, replica: {got:?})"
                            ),
                            Witness::None,
                        ));
                    }
                }
            }
        }
        diags
    }

    /// Oracle for a dead-end state: no enabled action, not quiescent.
    /// DAG(T) branches that starved their timer budget are bound
    /// artifacts and stay silent.
    pub fn check_stall(&self) -> Option<Diagnostic> {
        if self.poisoned || self.quiescent() || self.fleet.protocol == ProtocolId::DagT {
            return None;
        }
        Some(Diagnostic::error(
            "MC001",
            format!(
                "{} stalled before quiescence (links {:?})",
                self.fleet.protocol,
                self.links.iter().map(|(k, q)| (*k, q.len())).collect::<Vec<_>>()
            ),
            Witness::None,
        ))
    }

    /// The committed history this state's stores witness: every
    /// committed transaction (with the versions it read at its origin)
    /// in per-origin commit order, plus one read-only observer per site
    /// snapshotting every copy a reader there could get a lock on — all
    /// but those a prepared special still holds.
    fn observed_history(&self) -> History {
        let mut h: History = self
            .commit_log
            .iter()
            .flatten()
            .map(|gid| {
                let reads = self.txn_reads.get(gid).cloned().unwrap_or_default();
                (*gid, reads, self.fleet.txn_info[gid].writes.iter().map(|(i, _)| *i).collect())
            })
            .collect();
        for s in 0..self.num_sites() {
            let site = SiteId(s as u32);
            let reads: Vec<(ItemId, Option<GlobalTxnId>)> = self
                .fleet
                .placement
                .items_at(site)
                .iter()
                .filter(|i| !self.special_locks[s].values().any(|held| held.contains(i)))
                .map(|&i| (i, self.stores[s].get(&i).and_then(|(_, w)| *w)))
                .collect();
            h.record_commit(GlobalTxnId::new(site, OBSERVER_SEQ), reads, Vec::new());
        }
        h
    }

    // ------------------------------------------------------------------
    // Fingerprints and independence.
    // ------------------------------------------------------------------

    /// The state's canonical 128-bit fingerprint (dedup identity). All
    /// mutable state is hashed — machines, stores with writer tags,
    /// non-empty links, applier slots, prepare queues, cursors, commit
    /// logs, recorded reads, fault flags, budgets and clocks, and the oracle
    /// watermarks — so two equal fingerprints satisfy exactly the same
    /// present- and future-state oracles.
    pub fn fingerprint(&self) -> u128 {
        let mut d = StableDigest::new();
        for m in &self.machines {
            m.fingerprint(&mut d);
        }
        for store in &self.stores {
            d.write_usize(store.len());
            for (item, (value, writer)) in store {
                d.write_u32(item.0);
                digest_value(&mut d, value);
                match writer {
                    None => d.write_u8(0),
                    Some(g) => {
                        d.write_u8(1);
                        digest_gid(&mut d, *g);
                    }
                }
            }
        }
        d.write_usize(self.links.values().filter(|q| !q.is_empty()).count());
        for ((from, to), q) in &self.links {
            if q.is_empty() {
                continue;
            }
            digest_site(&mut d, *from);
            digest_site(&mut d, *to);
            d.write_usize(q.len());
            for p in q {
                digest_payload(&mut d, p);
            }
        }
        for slot in &self.applier {
            match slot {
                None => d.write_u8(0),
                Some(p) => {
                    d.write_u8(1);
                    digest_gid(&mut d, p.gid);
                    digest_writes(&mut d, &p.writes);
                    d.write_u8(u8::from(p.prepare));
                }
            }
        }
        for preps in &self.direct_preps {
            d.write_usize(preps.len());
            for (gid, writes) in preps {
                digest_gid(&mut d, *gid);
                digest_writes(&mut d, writes);
            }
        }
        for &c in &self.next_txn {
            d.write_usize(c);
        }
        for log in &self.commit_log {
            d.write_usize(log.len());
            for g in log {
                digest_gid(&mut d, *g);
            }
        }
        d.write_usize(self.txn_reads.len());
        for (gid, reads) in &self.txn_reads {
            digest_gid(&mut d, *gid);
            d.write_usize(reads.len());
            for (item, writer) in reads {
                d.write_u32(item.0);
                match writer {
                    None => d.write_u8(0),
                    Some(g) => {
                        d.write_u8(1);
                        digest_gid(&mut d, *g);
                    }
                }
            }
        }
        d.write_usize(self.eager_waiting.len());
        for g in &self.eager_waiting {
            digest_gid(&mut d, *g);
        }
        d.write_usize(self.aborted.len());
        for g in &self.aborted {
            digest_gid(&mut d, *g);
        }
        for &c in &self.crashed {
            d.write_u8(u8::from(c));
        }
        for (&b, &now) in self.timer_budget.iter().zip(&self.clock) {
            d.write_u32(b);
            d.write_u64(now);
        }
        d.write_u32(self.crash_budget);
        for applied in &self.last_applied {
            d.write_usize(applied.len());
            for (origin, idx) in applied {
                digest_site(&mut d, *origin);
                d.write_u64(*idx);
            }
        }
        for &e in &self.epoch_floor {
            d.write_u64(e);
        }
        d.finish()
    }

    /// Sleep-set independence: two enabled actions commute (and neither
    /// disables the other) when their touched-site sets are disjoint.
    /// Pushes and pops on a shared non-empty FIFO link commute, so a
    /// `Deliver` touches only its *receiver*. A `Timer` reads only its
    /// site's machine, clock and budget; two crashes share the crash
    /// budget.
    pub fn independent(&self, a: Action, b: Action) -> bool {
        if matches!(a, Action::Crash(_)) && matches!(b, Action::Crash(_)) {
            return false;
        }
        let ta = self.touched(a);
        let tb = self.touched(b);
        ta.iter().all(|s| !tb.contains(s))
    }

    /// The sites whose machine, store, slot, lock or cursor state the
    /// action reads or writes (link queues are excluded by the FIFO
    /// commutation argument above).
    fn touched(&self, a: Action) -> Vec<SiteId> {
        match a {
            Action::Commit(s) | Action::Complete(s) | Action::Prep(s) | Action::Crash(s) => vec![s],
            Action::Restart(s) | Action::Timer(s) | Action::Heartbeat(s) => vec![s],
            Action::Deliver(_, to) => vec![to],
            Action::AbortEager(g) => vec![g.origin],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::scenario::Topology;

    /// DAG(T) on `chain3` (s0 → s1 → s2, s0 → s2), one crash allowed.
    fn chain3(timers: u32) -> World {
        let mut s = Scenario::new(ProtocolId::DagT, Topology::Chain, 3, 2);
        (s.timer_budget, s.crash_budget) = (timers, 1);
        World::new(&s).expect("chain3 builds")
    }

    fn step(w: &mut World, a: Action) {
        let mut diags = Vec::new();
        assert!(w.is_enabled(a), "{a} is not enabled");
        w.apply(a, &mut diags);
        assert!(diags.is_empty() && !w.poisoned(), "{a}: {diags:?}");
    }

    /// Fire `Timer(s)` and check the clock moved to the deadline the
    /// machine predicted; the site's epoch after it.
    fn timer(w: &mut World, s: u32) -> u64 {
        let due = w.machines[s as usize].next_deadline();
        step(w, Action::Timer(SiteId(s)));
        assert_eq!(Some(w.clock[s as usize]), due);
        w.machines[s as usize].site_ts().epoch
    }

    /// s1 has a parent: eight timers move its clock past two epoch
    /// periods, and never its epoch.
    #[test]
    fn a_timer_at_a_non_source_never_moves_its_epoch() {
        let mut w = chain3(8);
        assert!((0..8).all(|_| timer(&mut w, 1) == 0));
        assert!(w.clock[1] > 100_000 && !w.is_enabled(Action::Timer(SiteId(1))));
    }

    /// Under the checker's tuning the second `Timer` is s0's first
    /// epoch, at 50 000 µs: the scenario's default budget.
    #[test]
    fn a_source_epoch_arrives_at_the_predicted_deadline() {
        let mut w = chain3(Scenario::new(ProtocolId::DagT, Topology::Chain, 3, 2).timer_budget);
        assert_eq!([timer(&mut w, 0), timer(&mut w, 0)], [0, 1]);
        assert_eq!(w.clock[0], 50_000);
    }

    /// The restart's `Timer` re-arms at the site's clock: a deadline
    /// again, and no dummy and no epoch from the re-arm itself.
    #[test]
    fn a_restart_re_arms_the_timers_and_fires_nothing() {
        let mut w = chain3(3);
        timer(&mut w, 0);
        step(&mut w, Action::Crash(SiteId(0)));
        assert_eq!(w.machines[0].next_deadline(), None);
        let sent = |w: &World| {
            (w.links.values().map(VecDeque::len).sum::<usize>(), w.machines[0].site_ts().epoch)
        };
        let before = sent(&w);
        step(&mut w, Action::Restart(SiteId(0)));
        assert_eq!(w.machines[0].next_deadline(), Some(w.clock[0] + 1));
        assert_eq!(sent(&w), before);
    }

    /// A `Timer` touches only its own site, so it commutes with every
    /// action at another one, a delivery out of its site included.
    #[test]
    fn a_timer_is_independent_of_other_sites_actions() {
        let (s0, s1, s2) = (SiteId(0), SiteId(1), SiteId(2));
        let w = chain3(3);
        let t = Action::Timer(s0);
        for x in [Action::Commit(s1), Action::Timer(s1), Action::Deliver(s0, s2), Action::Crash(s2)]
        {
            assert!(w.independent(t, x) && w.independent(x, t), "{x}");
        }
        for x in [Action::Commit(s0), Action::Crash(s0), Action::Deliver(s1, s0)] {
            assert!(!w.independent(t, x), "{x}");
        }
    }
}
