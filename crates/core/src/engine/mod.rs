//! The protocol engine: an event-driven multi-site simulator.
//!
//! One [`Engine`] owns every site, the network, the calendar, the recorded
//! history and the metrics. Propagation *decisions* — what to enqueue,
//! apply, stamp, forward or prepare — are made by the shared sans-I/O
//! [`repl_protocol::SiteMachine`]; the engine is a driver that costs the
//! resulting commands onto the simulated CPUs, locks and links. Protocol
//! behaviour is selected by [`crate::config::ProtocolKind`]; the shared
//! machinery (transaction driving, locking, timeouts, commit bookkeeping)
//! lives here and in the sibling modules:
//!
//! * [`primary`] — worker threads executing primary subtransactions;
//! * [`secondary`] — the per-site applier executing machine-issued
//!   `Apply` commands (DAG(WT), DAG(T), NaiveLazy, BackEdge's lazy half);
//! * [`remote`] — PSL/Eager remote locking via proxy transactions;
//! * [`backedge`] — the BackEdge eager phase (§4.1): executing machine-
//!   issued `Prepare` commands and the deadlock-breaking escape hatches.

pub mod event;
pub mod site;

mod backedge;
mod fault;
mod primary;
mod remote;
mod secondary;

use std::sync::Arc;

use repl_copygraph::{BackEdgeSet, DataPlacement, PropagationTree};
use repl_protocol::{
    Command as ProtoCommand, Input, ProtocolError, Routing, RoutingError, SiteMachine,
};
use repl_sim::{EventQueue, Network, SimDuration, SimTime};
use repl_storage::TxnId;
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

use crate::config::{ProtocolKind, SimParams, Tuning};
use crate::history::{History, SerializationCycle};
use crate::metrics::{Metrics, MetricsSummary};
use crate::scenario;

use event::{Event, Message, TimeoutScope};
use site::{Owner, SiteState};

/// Errors raised while assembling an engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// DAG(WT)/DAG(T) require an acyclic copy graph (§2/§3); run BackEdge
    /// instead (§4).
    CopyGraphCyclic,
    /// DAG(T) additionally requires the site numbering to be a
    /// topological order of the copy graph, because Definition 3.3
    /// compares tuples by site id (§3.1 "without loss of generality").
    SiteOrderNotTopological,
    /// Program shape does not match the placement (sites/threads).
    BadPrograms(String),
    /// The fault plan crashes a site under a protocol with no crash
    /// recovery. BackEdge's prepared specials and Eager's remote locks
    /// are lost with the site, and the paper gives neither a recovery
    /// path, so the run would diverge instead of recovering. The lazy
    /// protocols recover from the WAL and the delivery backlog (§3.3).
    CrashUnrecoverable {
        /// The protocol the plan was paired with.
        protocol: ProtocolKind,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::CopyGraphCyclic => {
                write!(f, "copy graph is cyclic; DAG protocols require a DAG (use BackEdge)")
            }
            BuildError::SiteOrderNotTopological => {
                write!(f, "DAG(T) requires site ids to form a topological order of the copy graph")
            }
            BuildError::BadPrograms(s) => write!(f, "bad program shape: {s}"),
            BuildError::CrashUnrecoverable { protocol } => write!(
                f,
                "the fault plan crashes a site but {} has no crash recovery",
                protocol.name()
            ),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<RoutingError> for BuildError {
    fn from(e: RoutingError) -> Self {
        match e {
            RoutingError::CopyGraphCyclic => BuildError::CopyGraphCyclic,
            RoutingError::SiteOrderNotTopological => BuildError::SiteOrderNotTopological,
        }
    }
}

/// How long a run under `protocol` may go without progress — no primary
/// commit and no replica application of an update anywhere — before it
/// stops. Progress events are finite (commits are at most the workload's
/// transactions, applications at most commits × replicas), so every run
/// ends within (progress events + 1) × this span of virtual time.
///
/// Each span has a margin over the longest progress-free gap of any
/// point that finishes, over the sweeps at quick and paper scale, seeds
/// 42–44, and the crash plans of `fault_sweep` and the fault tests
/// (EXPERIMENTS.md "One stop rule for the simulator" has the table).
/// BackEdge's livelocks of §4.1 global deadlocks can break on their own
/// after hours (6 498 s at paper-scale `fig3b`), so its span is four
/// hours, 2.2 times that. No other protocol went 5 s without progress
/// (4.8 s: PSL at 100 ms latency, whose lock timeouts are 2.5 s), so
/// theirs is one minute, 12.5 times that.
pub const fn progress_span(protocol: ProtocolKind) -> SimDuration {
    match protocol {
        ProtocolKind::BackEdge => SimDuration::secs(4 * 3_600),
        _ => SimDuration::secs(60),
    }
}

/// The outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Aggregate metrics (throughput, abort rate, response time, …).
    pub summary: MetricsSummary,
    /// Did the recorded history pass the one-copy-serializability check?
    pub serializable: bool,
    /// The witness cycle when it did not.
    pub cycle: Option<SerializationCycle>,
    /// True if the run stopped with work it could still do (see
    /// [`Engine::run`]): an up site had transactions left, or propagation
    /// was pending while every site was up.
    pub stalled: bool,
    /// When a primary last committed or a replica last applied an update.
    pub last_progress: SimTime,
    /// A stalled run's oldest applier occupant, if any up site has one.
    pub blocked: Option<QueueHead>,
}

/// The subtransaction that has held an up site's applier slot longest,
/// with what it still waits for: the queue head of a stalled run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueueHead {
    /// The site whose applier it occupies.
    pub site: SiteId,
    /// The transaction whose writes it applies.
    pub gid: GlobalTxnId,
    /// True for a BackEdge special, false for a secondary.
    pub special: bool,
    /// When the machine admitted it into the slot.
    pub since: SimTime,
    /// How many times a deadlock abort resubmitted it.
    pub resubmits: u64,
    /// The items it has still to write, each with the transactions that
    /// hold its lock and what each is doing.
    pub waits: Vec<(ItemId, Vec<(GlobalTxnId, &'static str)>)>,
}

impl std::fmt::Display for QueueHead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} applies {} ({}, at its applier since {:.3} s, resubmitted {} times)",
            self.site,
            self.gid,
            if self.special { "special" } else { "secondary" },
            self.since.as_secs_f64(),
            self.resubmits
        )?;
        for (i, (item, holders)) in self.waits.iter().enumerate() {
            f.write_str(if i == 0 { ", waiting for " } else { ", " })?;
            write!(f, "{item} (")?;
            if holders.is_empty() {
                f.write_str("free")?;
            }
            for (j, (gid, phase)) in holders.iter().enumerate() {
                write!(f, "{}held by {gid} {phase}", if j == 0 { "" } else { "; " })?;
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

/// The multi-site protocol engine.
pub struct Engine {
    pub(crate) params: SimParams,
    pub(crate) placement: Arc<DataPlacement>,
    /// Copy graph, propagation tree and backedge set.
    pub(crate) routing: Routing,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) net: Network,
    pub(crate) sites: Vec<SiteState>,
    pub(crate) history: History,
    pub(crate) metrics: Metrics,
    /// Threads that have not yet finished their programs.
    pub(crate) live_threads: u64,
    /// `params.tuning`, as [`Engine::new`] read it.
    pub(crate) eager_wait: SimDuration,
    pub(crate) mvcc: bool,
    pub(crate) group_commit: usize,
    /// Deterministic jitter source (see [`Engine::jitter`]).
    jitter_state: u64,
}

impl Engine {
    /// Assemble an engine from a placement, parameters and per-thread
    /// transaction programs (`programs[site][thread][txn]` = op list).
    ///
    /// This is the **canonical constructor**: every other way of making an
    /// engine (including [`Engine::build`]) delegates here. Bench and
    /// production code should call this (or the `repl-bench` runner on top
    /// of it) and handle the [`BuildError`]. It refuses what the protocols
    /// cannot run: program shape, what [`Routing::build`] refuses (a
    /// cyclic copy graph under DAG(WT)/DAG(T), a non-topological site
    /// order under DAG(T)), and a crash plan under a protocol without
    /// crash recovery.
    pub fn new(
        placement: &DataPlacement,
        params: &SimParams,
        programs: Vec<Vec<Vec<Vec<Op>>>>,
    ) -> Result<Self, BuildError> {
        if programs.len() != placement.num_sites() as usize {
            return Err(BuildError::BadPrograms(format!(
                "{} sites of programs for {} sites",
                programs.len(),
                placement.num_sites()
            )));
        }
        let routing = Routing::build(params.protocol, placement, params.tree)?;
        let unrecoverable = matches!(params.protocol, ProtocolKind::BackEdge | ProtocolKind::Eager);
        if unrecoverable && !params.faults.crashes.is_empty() {
            return Err(BuildError::CrashUnrecoverable { protocol: params.protocol });
        }

        // Sites and stores.
        let mut sites: Vec<SiteState> = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let id = SiteId(i as u32);
                let copies = placement.copies_at(id).map(|item| (item, Value::Initial));
                SiteState::new(id, p, copies.collect())
            })
            .collect();

        // The shared propagation machines (lazy protocols only; PSL and
        // Eager never ship subtransactions).
        let placement = Arc::new(placement.clone());
        if let Some(pid) = params.protocol.propagation() {
            for s in &mut sites {
                let (graph, tree) = (routing.graph.clone(), routing.tree.clone());
                let m = SiteMachine::new(s.id, pid, placement.clone(), graph, tree);
                let m = m.expect("the routing carries a tree for tree-routed protocols");
                s.machine = Some(m.with_tuning(&params.tuning));
            }
        }

        let num_sites = placement.num_sites();
        // No `..`: a new `Tuning` field fails to compile until read here.
        let sim = |d: std::time::Duration| SimDuration::micros(d.as_micros() as u64);
        let Tuning {
            epoch_period: _,
            heartbeat_period: _,
            eager_timeout,
            mvcc_reads,
            group_commit_batch,
        } = params.tuning;
        let mut engine = Engine {
            params: params.clone(),
            placement,
            routing,
            queue: EventQueue::new(),
            net: Network::new(num_sites, params.network_latency),
            sites,
            history: History::new(),
            metrics: Metrics::new(num_sites),
            live_threads: 0,
            eager_wait: sim(eager_timeout),
            mvcc: mvcc_reads,
            group_commit: group_commit_batch.get(),
            jitter_state: 0x243F_6A88_85A3_08D3,
        };
        engine.net.set_faults(params.faults.clone());
        engine.seed_events();
        engine.seed_fault_events();
        Ok(engine)
    }

    /// Convenience constructor: generate §5.2-style default programs
    /// (10 ops, 50% read-only transactions, 70% read operations) from
    /// `seed` and delegate to the canonical [`Engine::new`], which
    /// refuses what it cannot run. Tests and examples should call this
    /// (typically with `.expect(..)`); code that generates its own
    /// programs — the bench harness — should call [`Engine::new`].
    pub fn build(
        placement: &DataPlacement,
        params: &SimParams,
        seed: u64,
    ) -> Result<Self, BuildError> {
        let programs = scenario::generate_programs(
            placement,
            &scenario::WorkloadMix::default(),
            params.threads_per_site,
            params.txns_per_thread,
            seed,
        );
        Engine::new(placement, params, programs)
    }

    fn seed_events(&mut self) {
        for site in 0..self.sites.len() as u32 {
            for thread in 0..self.sites[site as usize].threads.len() as u32 {
                if !self.sites[site as usize].threads[thread as usize].finished() {
                    self.live_threads += 1;
                    self.queue.push_at(
                        SimTime::ZERO,
                        Event::StartThreadTxn { site: SiteId(site), thread },
                    );
                }
            }
        }
        for s in 0..self.sites.len() as u32 {
            self.arm_timer(SiteId(s));
        }
    }

    /// Run the simulation until it is done, its calendar is empty, or
    /// nothing has progressed for [`progress_span`], and report.
    pub fn run(&mut self) -> RunReport {
        let span = progress_span(self.params.protocol);
        while let Some(at) = self.queue.peek_time() {
            if at - self.metrics.last_progress() > span {
                break;
            }
            let (now, ev) = self.queue.pop().expect("an event was peeked");
            self.dispatch(now, ev);
            if self.done() {
                break;
            }
        }
        let stalled = self.stalled();
        let check = self.history.check_serializability();
        RunReport {
            summary: self.metrics.summarize(
                self.queue.now(),
                self.net.total_messages(),
                self.net.stall_time(),
            ),
            serializable: check.is_ok(),
            cycle: check.err(),
            stalled,
            last_progress: self.metrics.last_progress(),
            blocked: if stalled { self.queue_head() } else { None },
        }
    }

    /// True when the workload is finished and all propagation has landed.
    fn done(&self) -> bool {
        self.live_threads == 0
            && self.metrics.unpropagated() == 0
            && self.sites.iter().all(|s| s.secondaries_idle())
    }

    /// Whether the run stopped with work it could still do: an up site
    /// has transactions to run, or propagation is pending while every
    /// site is up (DAG(T) dummies left queued when the timers stop are
    /// not pending work). Otherwise it drained all a down site left it,
    /// and what never reached that site counts in
    /// `incomplete_propagations`.
    fn stalled(&self) -> bool {
        let work_left = |s: &SiteState| s.up && s.threads.iter().any(|t| !t.finished());
        let pending = self.metrics.unpropagated() > 0
            || !self.sites.iter().all(SiteState::no_pending_updates);
        self.sites.iter().any(work_left) || (pending && self.sites.iter().all(|s| s.up))
    }

    /// The subtransaction that has held an up site's applier longest, the
    /// items it has still to write and who holds their locks.
    fn queue_head(&self) -> Option<QueueHead> {
        let (st, a) = self
            .sites
            .iter()
            .filter(|s| s.up)
            .filter_map(|s| Some((s, s.applier.as_ref()?)))
            .min_by_key(|(s, a)| (a.since, s.id))?;
        let locks = st.store.locks();
        let holder = |txn| match st.owner.get(&txn)? {
            Owner::Primary { thread } => {
                let p = st.threads[*thread as usize].active.as_ref()?;
                Some((p.gid, p.phase.describe()))
            }
            Owner::Backedge { gid } => {
                let prepared = st.backedge_txns.get(gid).is_some_and(|r| r.prepared);
                Some((*gid, if prepared { "prepared special" } else { "executing special" }))
            }
            Owner::Proxy { gid } => Some((*gid, "proxy")),
            Owner::Secondary => None,
        };
        let waits = a.writes[a.write_idx..]
            .iter()
            .map(|&(item, _)| {
                (item, locks.holders_of(item).into_iter().filter_map(holder).collect())
            })
            .collect();
        Some(QueueHead {
            site: st.id,
            gid: a.gid,
            special: a.special,
            since: a.since,
            resubmits: a.resubmits,
            waits,
        })
    }

    fn dispatch(&mut self, now: SimTime, ev: Event) {
        // Crash gate: fault events always run; everything else at a down
        // site is parked. Deliveries are buffered (the sender's message
        // is not lost, §1.1's reliable links) and drained inline at
        // restart; local events (CPU completions, timeouts, ticks) died
        // with the crash and are dropped — their state was rolled back.
        match ev {
            Event::SiteCrash { site } => return self.site_crash(now, site),
            Event::SiteRestart { site } => return self.site_restart(now, site),
            _ => {}
        }
        if !self.sites[ev.site().index()].up {
            if let Event::Deliver { to, msg } = ev {
                self.sites[to.index()].backlog.push(msg);
            }
            return;
        }
        match ev {
            Event::StartThreadTxn { site, thread } => self.start_thread_txn(now, site, thread),
            Event::PrimaryOpDone { site, thread, gid } => {
                self.primary_op_done(now, site, thread, gid)
            }
            Event::PrimaryCommitDone { site, thread, gid } => {
                self.primary_commit_done(now, site, thread, gid)
            }
            Event::Timeout { site, scope, wait_seq } => {
                self.handle_timeout(now, site, scope, wait_seq)
            }
            Event::Deliver { to, msg } => self.deliver(now, to, msg),
            Event::SecondaryStepDone { site, gen } => self.secondary_step_done(now, site, gen),
            Event::SecondaryCommitDone { site, gen } => self.secondary_commit_done(now, site, gen),
            Event::RetryThread { site, thread } => self.retry_thread(now, site, thread),
            Event::Timer { site, gen } => self.timer(now, site, gen),
            Event::BackedgeStepDone { site, gid, idx } => {
                self.backedge_step_done(now, site, gid, idx)
            }
            Event::SiteCrash { .. } | Event::SiteRestart { .. } => unreachable!("handled above"),
        }
    }

    fn deliver(&mut self, now: SimTime, to: SiteId, msg: Message) {
        // Receiving a message costs CPU (pushes back other work at the
        // site) even when handling is otherwise instantaneous.
        self.sites[to.index()].cpu.run(now, self.params.msg_cpu);
        match msg {
            Message::Link { from, payload } => {
                let cmds = self.machine_input(to, Input::Deliver { from, payload });
                self.run_commands(now, to, cmds);
            }
            Message::BackedgeAbortReq { gid } => self.recv_backedge_abort_req(now, to, gid),
            Message::RemoteLockReq { item, exclusive, value, gid, origin_site, origin_thread } => {
                self.recv_remote_lock_req(
                    now,
                    to,
                    item,
                    exclusive,
                    value,
                    gid,
                    origin_site,
                    origin_thread,
                )
            }
            Message::RemoteLockGrant { gid, origin_thread, item, ok, writer } => {
                self.recv_remote_lock_grant(now, to, gid, origin_thread, item, ok, writer)
            }
            Message::ProxyRelease { gid, commit } => self.recv_proxy_release(now, to, gid, commit),
        }
    }

    // ------------------------------------------------------------------
    // The protocol-machine adapter.
    // ------------------------------------------------------------------

    /// Feed `input` to `site`'s propagation machine at the calendar's
    /// time and return the commands to execute. A
    /// [`repl_protocol::ProtocolError`] here means the engine fed the
    /// machine inconsistent structure — an internal invariant violation,
    /// so it aborts the simulation loudly.
    pub(crate) fn machine_input(&mut self, site: SiteId, input: Input) -> Vec<ProtoCommand> {
        let st = &mut self.sites[site.index()];
        let m = st.machine.as_mut().expect("lazy-protocol site has a machine");
        m.set_now(self.queue.now().as_micros());
        m.on_input(input).unwrap_or_else(|e| panic!("protocol invariant violated at {site}: {e}"))
    }

    /// Schedule `site`'s next [`Event::Timer`] at its machine's deadline.
    pub(crate) fn arm_timer(&mut self, site: SiteId) {
        let st = &self.sites[site.index()];
        if let Some(at) = st.machine.as_ref().and_then(SiteMachine::next_deadline) {
            self.queue.push_at(SimTime(at), Event::Timer { site, gen: st.tick_gen });
        }
    }

    /// Execute machine commands: cost them onto the simulated CPUs, locks
    /// and links. Completions (apply/prepare finishing) come back later
    /// as calendar events, which feed the machine again.
    pub(crate) fn run_commands(&mut self, now: SimTime, site: SiteId, cmds: Vec<ProtoCommand>) {
        for cmd in cmds {
            match cmd {
                ProtoCommand::Send { to, payload } => {
                    self.send(now, site, to, Message::Link { from: site, payload })
                }
                ProtoCommand::CommitLocal { gid } => self.commit_local_ready(now, site, gid),
                ProtoCommand::Apply { gid, writes } => {
                    self.start_applier(now, site, gid, writes, false)
                }
                ProtoCommand::Prepare { gid, origin, writes, queued } => {
                    if queued {
                        self.start_applier(now, site, gid, writes, true);
                    } else {
                        self.start_direct_special(now, site, gid, origin, writes);
                    }
                }
                ProtoCommand::CommitPrepared { gid, .. } => self.commit_prepared(now, site, gid),
                ProtoCommand::AbortPrepared { gid } => self.abort_prepared(now, site, gid),
                ProtoCommand::ArmEagerTimeout { gid } => self.arm_eager_timeout(now, site, gid),
                ProtoCommand::SendBatch | ProtoCommand::ApplyMany => {
                    let e = ProtocolError::UnrequestedBatch { at: site };
                    panic!("protocol invariant violated at {site}: {e}")
                }
            }
        }
        // Machine inputs can drain the last real update at a recovering
        // site (e.g. a dummy consumed inline), so check here.
        self.maybe_mark_recovered(now, site);
    }

    // ------------------------------------------------------------------
    // Shared helpers used by the protocol submodules.
    // ------------------------------------------------------------------

    /// Send `msg` from `from` to `to`, departing at time `depart`.
    pub(crate) fn send(&mut self, depart: SimTime, from: SiteId, to: SiteId, msg: Message) {
        let at = self.net.send(depart, from, to);
        self.queue.push_at(at, Event::Deliver { to, msg });
    }

    /// Resolve storage lock grants produced by a commit/abort/cancel into
    /// protocol-level resumptions.
    pub(crate) fn resume_granted(&mut self, now: SimTime, site: SiteId, granted: Vec<TxnId>) {
        for txn in granted {
            let owner = self.sites[site.index()].owner.get(&txn).copied();
            match owner {
                Some(Owner::Primary { thread }) => self.resume_primary(now, site, thread),
                Some(Owner::Secondary) => self.resume_secondary(now, site, txn),
                Some(Owner::Proxy { gid }) => self.resume_proxy(now, site, gid),
                Some(Owner::Backedge { gid }) => self.resume_backedge_exec(now, site, gid),
                None => {
                    debug_assert!(false, "granted lock for unowned txn {txn:?} at {site}");
                }
            }
        }
    }

    /// Deterministic jitter in `[0, base)`: the real prototype's timing
    /// noise (OS scheduling, TCP) broke retry symmetry for free; a pure
    /// discrete-event simulation must inject it explicitly or identical
    /// retries can re-deadlock forever (a livelock the paper's testbed
    /// could never exhibit). The sequence is a function of engine state
    /// only, so runs stay reproducible.
    pub(crate) fn jitter(&mut self, base: SimDuration) -> SimDuration {
        // splitmix64 step.
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimDuration::micros(z % base.as_micros().max(1))
    }

    /// Schedule a deadlock timeout (the paper's 50 ms interval, plus up
    /// to 10% jitter so simultaneous waiters do not expire in lockstep).
    pub(crate) fn schedule_timeout(
        &mut self,
        now: SimTime,
        site: SiteId,
        scope: TimeoutScope,
        wait_seq: u64,
    ) {
        let extra =
            self.jitter(SimDuration::micros(self.params.deadlock_timeout.as_micros() / 10 + 1));
        self.queue.push_at(
            now + self.params.deadlock_timeout + extra,
            Event::Timeout { site, scope, wait_seq },
        );
    }

    fn handle_timeout(&mut self, now: SimTime, site: SiteId, scope: TimeoutScope, wait_seq: u64) {
        match scope {
            TimeoutScope::PrimaryLocal { thread }
            | TimeoutScope::PrimaryRemote { thread }
            | TimeoutScope::PrimaryEager { thread } => {
                self.primary_timeout(now, site, thread, scope, wait_seq)
            }
            TimeoutScope::Secondary => self.secondary_timeout(now, site, wait_seq),
            TimeoutScope::BackedgeExec { gid } => {
                self.backedge_exec_timeout(now, site, gid, wait_seq)
            }
        }
    }

    /// Run waits-for deadlock detection at `site` after a block, aborting
    /// the latest-arriving victim (paper's fair policy). Only meaningful
    /// in [`crate::config::DeadlockMode::WaitsFor`].
    pub(crate) fn detect_and_break_deadlock(&mut self, now: SimTime, site: SiteId) {
        let Some(cycle) = self.sites[site.index()].store.locks().find_deadlock() else {
            return;
        };
        let victim = self.sites[site.index()].store.locks().pick_victim(&cycle);
        let owner = self.sites[site.index()].owner.get(&victim).copied();
        match owner {
            Some(Owner::Primary { thread }) => self.abort_primary(now, site, thread, true),
            Some(Owner::Secondary) => {
                let gen = self.sites[site.index()]
                    .applier
                    .as_ref()
                    .filter(|a| a.local == victim)
                    .map(|a| a.gen);
                if let Some(gen) = gen {
                    self.abort_and_resubmit_secondary(now, site, gen);
                }
            }
            Some(Owner::Proxy { gid }) => self.deny_proxy(now, site, gid),
            Some(Owner::Backedge { .. }) | None => {
                // Prepared backedge subtransactions never *wait*, so they
                // cannot be victims; an executing one is Owner::Secondary
                // (special in the applier) or resolved via its origin's
                // eager timeout.
            }
        }
    }

    // ------------------------------------------------------------------
    // Inspection (tests, examples).
    // ------------------------------------------------------------------

    /// The value and writer of `item`'s copy at `site` (non-transactional).
    pub fn value_at(&self, site: SiteId, item: ItemId) -> Option<(Value, Option<GlobalTxnId>)> {
        self.sites[site.index()].store.peek(item).map(|r| (r.value, r.writer))
    }

    /// The recorded multiversion history.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The propagation tree, if the protocol uses one.
    pub fn tree(&self) -> Option<&PropagationTree> {
        self.routing.tree.as_deref()
    }

    /// The backedge set, if the protocol is BackEdge.
    pub fn backedge_set(&self) -> Option<&BackEdgeSet> {
        self.routing.backedges.as_ref()
    }

    /// The data placement under simulation.
    pub fn placement(&self) -> &DataPlacement {
        &self.placement
    }
}
