//! The per-site engine the reactor drives.
//!
//! All propagation *decisions* — queue admission, DAG(T) timestamp
//! merging, tree routing, the BackEdge eager phase — are made by the
//! sans-I/O [`SiteMachine`] from `repl-protocol`, the same machine the
//! simulation engine drives. [`SiteCore`] feeds it transport frames and
//! client commits as [`Input`]s and carries out the returned
//! [`ProtoCommand`]s — local transactions against the store, WAL records,
//! outstanding-counter bookkeeping, handing [`Payload`]s to the reliable
//! link layer ([`Net`]) — plus the clock side of the DAG(T) timers.
//! Nothing in it blocks: an eager phase parks the *transaction*
//! ([`Started::immediate`] = false) until [`SiteCore::take_home`].
//!
//! A site shares nothing: its store, durable image, history log,
//! outstanding share and link logs are plain fields of the one reactor
//! thread that runs it. What outlives a crash ([`SiteParts`]) moves in
//! when the reactor boots and comes back out when it stops.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use repl_copygraph::DataPlacement;
use repl_net::{frame_state_page_into, HistoryLog, Payload, PAGE_BYTES};
use repl_protocol::{
    destinations, planned_writes, Command as ProtoCommand, Input, ProtocolError, Routing,
    SiteMachine, Timestamp, Tuning,
};
use repl_storage::{recover, CommitPipeline, Store};
use repl_types::{GlobalTxnId, ItemId, Op, OpKind, SiteId, Value};

use crate::cluster::{ClusterError, RuntimeProtocol};
use crate::durable::DurableSite;
use crate::link::{LinkState, Links};
use crate::policy::{RuntimeOptions, REPLAY_PERIOD};
use crate::transport::{Net, Transport};

/// DAG(T): skip heartbeats into a lane already this deep (a down or
/// slow peer must not accumulate unbounded dummies).
const HEARTBEAT_LANE_CAP: usize = 64;

/// The clock side of DAG(T)'s progress machinery (§3.3): when the last
/// real send per copy-graph child happened and when the epoch last
/// bumped. The *decision* of what a heartbeat or epoch tick does lives
/// in the machine; durations cannot, so they live here.
struct DagtTimers {
    /// [`Tuning::epoch_period`], at a site the machine calls a source
    /// ([`SiteMachine::is_source`]) only: it refuses a tick elsewhere.
    epoch: Option<Duration>,
    /// [`Tuning::heartbeat_period`].
    heartbeat: Duration,
    /// Copy-graph children: heartbeat targets.
    children: Vec<SiteId>,
    /// Last send (real or dummy) per child, same indexing as `children`.
    last_sent: Vec<Instant>,
    last_epoch: Instant,
}

impl DagtTimers {
    fn new(children: Vec<SiteId>, epoch: Option<Duration>, heartbeat: Duration) -> Self {
        let (now, n) = (Instant::now(), children.len());
        DagtTimers { epoch, heartbeat, children, last_sent: vec![now; n], last_epoch: now }
    }
}

/// Outcome of [`SiteCore::start_txn`]: the allocated gid, and whether
/// the machine committed locally at once (`immediate`) or opened a
/// BackEdge eager phase the driver must wait out before calling
/// [`SiteCore::complete_txn`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Started {
    pub gid: GlobalTxnId,
    pub immediate: bool,
}

/// The nonblocking per-site engine the reactor drives.
pub(crate) struct SiteCore {
    pub id: SiteId,
    pub store: Store,
    /// The reliable-link engine: outboxes over the site's wire.
    pub net: Net,
    pub placement: Arc<DataPlacement>,
    /// Every primary commit of this site, already in its
    /// `History`-reply encoding.
    pub history: HistoryLog,
    /// This site's share of the replica applications in flight (+ per
    /// destination of a commit here, −1 per application here).
    pub outstanding: i64,
    /// The site's stable storage, which outlives this core.
    pub durable: DurableSite,
    /// Deployment knobs (outbox high-water, nemesis, the [`Tuning`]).
    pub opts: Arc<RuntimeOptions>,
    /// [`Tuning::eager_timeout`] and [`Tuning::mvcc_reads`].
    eager_wait: Duration,
    mvcc: bool,
    /// The shared protocol state machine (also driven by the sim).
    machine: SiteMachine,
    /// DAG(T) timers, present iff the protocol is DAG(T).
    timers: Option<DagtTimers>,
    /// Set by a [`ProtoCommand::CommitLocal`] while an eager phase
    /// waits for its special to come home.
    home: Option<GlobalTxnId>,
    /// Armed by [`ProtoCommand::ArmEagerTimeout`]: abort the eager
    /// phase of `gid` if its special has not come home by the deadline.
    eager_deadline: Option<(GlobalTxnId, Instant)>,
    /// Last stall-replay sweep ([`SiteCore::tick`]).
    last_replay: Instant,
    /// Front-of-outbox sequence per peer at the last sweep; an
    /// unchanged non-empty front means no ack progress → replay.
    front_marks: Vec<u64>,
    /// The items each prepared BackEdge special holds until its
    /// decision ([`SiteCore::blocked`]).
    prepared: Vec<(GlobalTxnId, Vec<ItemId>)>,
    /// First protocol violation observed on the link path; reported to
    /// the next client instead of panicking the driver.
    poisoned: Option<ProtocolError>,
}

/// The state of a site that outlives a run of its reactor, as one
/// value: `repld` builds it fresh, the in-process `Cluster` moves it into
/// each run and parks what a crashed run hands back until the restart.
pub(crate) struct SiteParts {
    pub durable: DurableSite,
    pub links: Links,
    pub history: HistoryLog,
    pub outstanding: i64,
}

impl SiteParts {
    /// A site that has never run, in a cluster of `sites`.
    pub fn new(sites: usize) -> Self {
        SiteParts {
            durable: DurableSite::new(sites),
            links: (0..sites).map(|_| LinkState::default()).collect(),
            history: HistoryLog::default(),
            outstanding: 0,
        }
    }
}

/// The protocol half of a site, built *before* its reactor boots so a
/// structural protocol violation is a typed startup error (surfaced as
/// [`ClusterError::Protocol`] / a `repld` boot failure), not a mid-run
/// panic.
pub(crate) struct SiteSetup {
    machine: SiteMachine,
    /// DAG(T) only: the copy-graph children heartbeats go to.
    dagt_children: Option<Vec<SiteId>>,
    placement: Arc<DataPlacement>,
}

impl SiteSetup {
    pub(crate) fn new(
        id: SiteId,
        protocol: RuntimeProtocol,
        placement: Arc<DataPlacement>,
        Routing { graph, tree, .. }: &Routing,
    ) -> Result<Self, ProtocolError> {
        let dagt_children =
            (protocol == RuntimeProtocol::DagT).then(|| graph.children(id).collect());
        let (graph, tree) = (graph.clone(), tree.clone());
        let machine = SiteMachine::new(id, protocol, placement.clone(), graph, tree)?;
        Ok(SiteSetup { machine, dagt_children, placement })
    }

    /// The site this half belongs to.
    pub(crate) fn site(&self) -> SiteId {
        self.machine.me()
    }

    /// Join the protocol half with the site's surviving state and wire,
    /// recovering the store on the calling thread — the one the store
    /// is then confined to.
    pub(crate) fn into_core(
        self,
        mut parts: SiteParts,
        wire: Box<dyn Transport>,
        opts: Arc<RuntimeOptions>,
    ) -> SiteCore {
        let id = self.machine.me();
        let store = recovered_store(&self.placement, id, &mut parts.durable);
        // No `..`: a new `Tuning` field fails to compile until read here.
        let Tuning {
            epoch_period,
            heartbeat_period,
            eager_timeout,
            mvcc_reads,
            group_commit_batch,
        } = opts.tuning;
        // Recovery flushed the staged batch, so the pipeline is empty.
        parts.durable.pipeline = CommitPipeline::new(group_commit_batch.get());
        let epoch = self.machine.is_source().then_some(epoch_period);
        let timers = self.dagt_children.map(|c| DagtTimers::new(c, epoch, heartbeat_period));
        SiteCore {
            id,
            store,
            net: Net::new(id, parts.links, wire),
            front_marks: vec![0; self.placement.num_sites() as usize],
            placement: self.placement,
            history: parts.history,
            outstanding: parts.outstanding,
            durable: parts.durable,
            opts,
            eager_wait: eager_timeout,
            mvcc: mvcc_reads,
            machine: self.machine,
            timers,
            home: None,
            eager_deadline: None,
            last_replay: Instant::now(),
            prepared: Vec::new(),
            poisoned: None,
        }
    }
}

/// A site's store rebuilt from stable storage: its item set at the
/// initial values, streamed from the placement's runs, with the
/// checkpoint's written copies laid over it as they decode, then a
/// replay of the redo-WAL suffix. No list of items or cells is built.
/// With nothing logged yet this is the boot image; after a crash it is
/// the recovery image.
fn recovered_store(placement: &DataPlacement, site: SiteId, durable: &mut DurableSite) -> Store {
    // Commits still in the group-commit staging buffer are durable too.
    durable.flush_log();
    let written = (!durable.checkpoint.is_empty()).then(|| repl_net::cells_in(&durable.checkpoint));
    #[expect(clippy::expect_used, reason = "the image is this site's own encoding, kept in memory")]
    let mut written = written
        .transpose()
        .expect("a site's checkpoint is its own CopyState encoding")
        .into_iter()
        .flatten()
        .map(|cell| cell.expect("a site's checkpoint is its own CopyState encoding"))
        .peekable();
    let image = placement.copies_at(site).map(|item| {
        written.next_if(|(at, _, _)| *at == item).unwrap_or((item, Value::Initial, None))
    });
    recover(image, &durable.wal)
}

/// Write set of a local commit: item → final value.
type Writes = Vec<(ItemId, Value)>;
/// Read set of a local commit: item → version (writer gid) read.
type Reads = Vec<(ItemId, Option<GlobalTxnId>)>;

impl SiteCore {
    /// Periodic work every driver runs: the protocol-independent
    /// stall-replay sweep, then the DAG(T) heartbeat timer and, at a
    /// copy-graph source, the epoch timer. The
    /// driver measures idleness and period expiry, the machine decides
    /// what (if anything) to send.
    pub fn tick(&mut self) {
        // Group commit: a partially filled batch must not wait for more
        // traffic forever — drain it whenever the site comes up for air
        // (a no-op when the pipeline is empty or the batch size is 1).
        self.flush_log();
        self.retransmit_tick();
        let Some(t) = self.timers.as_mut() else { return };
        let now = Instant::now();
        if t.epoch.is_some_and(|epoch| now.duration_since(t.last_epoch) >= epoch) {
            t.last_epoch = now;
            let cmds = self.machine_input(Input::EpochTick);
            self.run_commands(cmds);
        }
        #[expect(clippy::expect_used, reason = "timers is Some for the lifetime of a DAG(T) site")]
        let t = self.timers.as_ref().expect("still DAG(T)");
        let idle_children: Vec<SiteId> = t
            .children
            .iter()
            .enumerate()
            .filter(|&(i, _)| now.duration_since(t.last_sent[i]) >= t.heartbeat)
            .map(|(_, &c)| c)
            .collect();
        self.send_dummies(idle_children);
    }

    /// DAG(T): feed the machine a heartbeat for `children`, less those
    /// whose lane is already [`HEARTBEAT_LANE_CAP`] deep.
    fn send_dummies(&mut self, mut children: Vec<SiteId>) {
        children.retain(|&c| self.net.lane_len(c) < HEARTBEAT_LANE_CAP);
        if !children.is_empty() {
            let cmds = self.machine_input(Input::HeartbeatTick { idle_children: children });
            self.run_commands(cmds);
        }
    }

    /// DAG(T): if the secondaries a delivery just applied moved the
    /// site timestamp past `before`, send every copy-graph child a dummy
    /// now, not at the idle fallback. The site never forwards, so each
    /// child got those transactions from their origin and may now be
    /// waiting on this site's column (§3.3); the timestamp only grows,
    /// so no frame sent before carries the moved one. When the merge
    /// left it where it was, nothing goes.
    fn dummies_after_merge(&mut self, before: &Timestamp) {
        if self.machine.site_ts() == before {
            return;
        }
        let children = self.timers.as_ref().map_or_else(Vec::new, |t| t.children.clone());
        self.send_dummies(children);
    }

    /// Stall recovery: every [`REPLAY_PERIOD`], replay any outgoing lane
    /// whose oldest unacknowledged sequence has not moved since the
    /// last sweep. A frame a nemesis (or a dying connection) swallowed
    /// is still in the outbox; the receiver's dedup/gap marks make the
    /// replay exactly-once, so replaying a lane that was merely slow is
    /// harmless. Lanes making ack progress are left alone — under a
    /// healthy wire this sweep sends nothing.
    fn retransmit_tick(&mut self) {
        if self.last_replay.elapsed() < REPLAY_PERIOD {
            return;
        }
        self.last_replay = Instant::now();
        for p in 0..self.front_marks.len() {
            let peer = SiteId(p as u32);
            if peer == self.id {
                continue;
            }
            match self.net.front_seq(peer) {
                None => self.front_marks[p] = 0,
                Some(front) => {
                    if self.front_marks[p] == front {
                        self.net.replay(peer);
                    }
                    self.front_marks[p] = front;
                }
            }
        }
    }

    /// Heap bytes of the protocol machine and the site's own per-peer
    /// marks, prepared specials and DAG(T) timers.
    pub fn machine_bytes(&self) -> usize {
        let timers = self.timers.as_ref().map_or(0, |t| {
            t.children.capacity() * size_of::<SiteId>()
                + t.last_sent.capacity() * size_of::<Instant>()
        });
        let prepared: usize = self.prepared.iter().map(|(_, items)| items.capacity() * 4).sum();
        self.machine.heap_bytes()
            + self.front_marks.capacity() * size_of::<u64>()
            + self.prepared.capacity() * size_of::<(GlobalTxnId, Vec<ItemId>)>()
            + prepared
            + timers
    }

    /// What outlives this run of the site, handed back as one value.
    pub fn into_parts(self) -> SiteParts {
        SiteParts {
            durable: self.durable,
            links: self.net.into_links(),
            history: self.history,
            outstanding: self.outstanding,
        }
    }

    /// If an armed eager-phase deadline has expired, abort the waiting
    /// transaction through the machine ([`Input::AbortEager`]: drop the
    /// pending special, tombstone the gid, send abort decisions down
    /// every path) and return its gid. The driver turns this into a
    /// typed client error.
    pub fn check_eager_timeout(&mut self) -> Option<GlobalTxnId> {
        let (gid, deadline) = self.eager_deadline?;
        if Instant::now() < deadline {
            return None;
        }
        self.eager_deadline = None;
        let cmds = self.machine_input(Input::AbortEager { gid });
        self.run_commands(cmds);
        Some(gid)
    }

    /// Begin a primary transaction: validate, allocate its durable gid,
    /// and feed the commit intent to the machine. Sites run one
    /// transaction at a time, so locks are always free; validation and
    /// the §1.1 ownership rule still apply. When `immediate` is false
    /// the driver must wait for [`SiteCore::take_home`] before calling
    /// [`SiteCore::complete_txn`].
    pub fn start_txn(&mut self, ops: &[Op]) -> Result<Started, ClusterError> {
        if let Some(e) = &self.poisoned {
            return Err(ClusterError::Protocol(e.clone()));
        }
        // Validate before touching the store. An id past the placement
        // names no copy anywhere, and the placement's answers assume one.
        for op in ops {
            if op.item.0 >= self.placement.num_items() {
                return Err(ClusterError::NoCopy(self.id, op.item));
            }
            match op.kind {
                OpKind::Read => {
                    if !self.placement.has_copy(self.id, op.item) {
                        return Err(ClusterError::NoCopy(self.id, op.item));
                    }
                }
                OpKind::Write => {
                    if self.placement.primary_of(op.item) != self.id {
                        return Err(ClusterError::NotPrimary(self.id, op.item));
                    }
                }
            }
        }
        // Admission control, after validation and before the gid is
        // allocated: a refused transaction consumes no gid, so a client
        // retry commits with the id the transaction would have had —
        // convergence stays byte-identical to an unthrottled run.
        if ops.iter().any(|op| op.kind == OpKind::Write) {
            for p in 0..self.front_marks.len() {
                let peer = SiteId(p as u32);
                if peer == self.id {
                    continue;
                }
                let queued = self.net.lane_len(peer);
                if queued >= self.opts.outbox_high_water {
                    return Err(ClusterError::Backpressure { peer, queued: queued as u64 });
                }
            }
        }
        let gid = self.fresh_gid();
        // The write set is known up front (last write per item), so the
        // machine can decide eager-vs-immediate before execution.
        let planned = planned_writes(ops);
        let cmds = match self.machine.on_input(Input::CommitIntent { gid, writes: planned }) {
            Ok(cmds) => cmds,
            Err(e) => {
                self.poisoned.get_or_insert(e.clone());
                return Err(ClusterError::Protocol(e));
            }
        };
        let immediate = cmds.iter().any(|c| matches!(c, ProtoCommand::CommitLocal { .. }));
        self.run_commands(cmds);
        if immediate {
            self.home = None;
        }
        Ok(Started { gid, immediate })
    }

    /// True while a prepared BackEdge special holds an item `ops` touch:
    /// the transaction waits for the decision, as for the special's
    /// locks (§4.1). Run now, it would read the copy the decision is
    /// about to overwrite after the special's origin committed.
    pub fn blocked(&self, ops: &[Op]) -> bool {
        let held = |item| self.prepared.iter().any(|(_, items)| items.contains(&item));
        ops.iter().any(|op| held(op.item))
    }

    /// True exactly once after the machine emitted `CommitLocal` for
    /// `gid` — the BackEdge special came home and the eager phase may
    /// complete.
    pub fn take_home(&mut self, gid: GlobalTxnId) -> bool {
        if self.home == Some(gid) {
            self.home = None;
            true
        } else {
            false
        }
    }

    /// Finish a started transaction: run it against the store, record
    /// WAL/history/outstanding, and hand the committed write set to the
    /// machine for propagation. All-read transactions are served from an
    /// MVCC snapshot when the deployment enables it — same gid, same
    /// machine inputs, but the store's lock manager is never touched.
    pub fn complete_txn(&mut self, gid: GlobalTxnId, ops: &[Op]) {
        let mvcc = self.mvcc && !ops.is_empty() && ops.iter().all(|op| op.kind == OpKind::Read);
        let (writes, reads) = if mvcc {
            (Vec::new(), self.run_snapshot_txn(ops))
        } else {
            self.run_local_txn(ops, gid)
        };
        self.finish_commit(gid, &reads, &writes);
        let cmds = self.machine_input(Input::Committed { gid, writes });
        self.run_commands(cmds);
    }

    /// Non-transactional read of one copy.
    pub fn peek(&self, item: ItemId) -> Option<(Value, Option<GlobalTxnId>)> {
        self.store.peek(item).map(|r| (r.value, r.writer))
    }

    /// Stage one commit's redo records, flushing the batch if that
    /// filled it.
    fn log_commit(&mut self, gid: GlobalTxnId, writes: &[(ItemId, Value)]) {
        if self.durable.stage_commit(gid, writes) {
            self.flush_log();
        }
    }

    /// Flush the staged commits into the redo log — after cutting it, if
    /// they would not fit its segment (see [`crate::durable`]): the
    /// store, which already holds every commit logged or staged, is
    /// checkpointed and the log starts its segment over. Every flush
    /// this driver makes goes through here, so the resident log never
    /// exceeds one segment plus the checkpoint.
    fn flush_log(&mut self) {
        if self.durable.flush_would_roll() {
            self.durable.install_checkpoint(&self.store, self.placement.copies_at(self.id));
        }
        self.durable.flush_log();
    }

    /// Id allocation is durable: a restarted site must never reuse a
    /// pre-crash gid (the history oracle keys on them).
    fn fresh_gid(&mut self) -> GlobalTxnId {
        let gid = GlobalTxnId::new(self.id, self.durable.next_seq);
        self.durable.next_seq += 1;
        gid
    }

    /// Feed one input to the machine; a protocol error poisons the site
    /// (reported to the next client) instead of panicking the driver.
    fn machine_input(&mut self, input: Input) -> Vec<ProtoCommand> {
        match self.machine.on_input(input) {
            Ok(cmds) => cmds,
            Err(e) => {
                self.poisoned.get_or_insert(e);
                Vec::new()
            }
        }
    }

    /// Carry out machine commands in order. Commands whose completion
    /// the machine waits for (`Apply`, `Prepare`) finish synchronously
    /// here, and their completion inputs' follow-up commands run
    /// depth-first — preserving the apply-then-forward order per
    /// subtransaction that per-link FIFO commit order relies on.
    fn run_commands(&mut self, cmds: Vec<ProtoCommand>) {
        let mut work: VecDeque<ProtoCommand> = cmds.into();
        while let Some(cmd) = work.pop_front() {
            let responses = match cmd {
                ProtoCommand::Send { to, payload } => {
                    self.note_sent(to, &payload);
                    self.net.send(to, &payload);
                    Vec::new()
                }
                ProtoCommand::Apply { gid, writes } => {
                    if !writes.is_empty() {
                        self.commit_replica_txn(gid, &writes);
                    }
                    self.machine_input(Input::Applied { gid })
                }
                // A serial site takes no locks: preparing records what
                // the special holds (the machine retains the writes),
                // so the completion report is immediate.
                ProtoCommand::Prepare { gid, writes, .. } => {
                    self.prepared.push((gid, writes.iter().map(|(item, _)| *item).collect()));
                    self.machine_input(Input::Prepared { gid })
                }
                ProtoCommand::CommitPrepared { gid, writes } => {
                    self.prepared.retain(|(g, _)| *g != gid);
                    if !writes.is_empty() {
                        self.commit_replica_txn(gid, &writes);
                    }
                    Vec::new()
                }
                ProtoCommand::AbortPrepared { gid } => {
                    self.prepared.retain(|(g, _)| *g != gid);
                    Vec::new()
                }
                ProtoCommand::CommitLocal { gid } => {
                    self.home = Some(gid);
                    if self.eager_deadline.is_some_and(|(g, _)| g == gid) {
                        self.eager_deadline = None;
                    }
                    Vec::new()
                }
                // Serial sites cannot deadlock inside the eager phase,
                // but a partitioned/down peer can swallow the special —
                // arm a real deadline; the driver polls
                // [`SiteCore::check_eager_timeout`] while waiting.
                ProtoCommand::ArmEagerTimeout { gid } => {
                    self.eager_deadline = Some((gid, Instant::now() + self.eager_wait));
                    Vec::new()
                }
                // No machine emits these (DESIGN.md §14).
                ProtoCommand::SendBatch | ProtoCommand::ApplyMany => {
                    self.poisoned.get_or_insert(ProtocolError::UnrequestedBatch { at: self.id });
                    Vec::new()
                }
            };
            for r in responses.into_iter().rev() {
                work.push_front(r);
            }
        }
    }

    /// Refresh the DAG(T) idle-tracking when a real subtransaction (or
    /// dummy) goes out to a copy-graph child.
    fn note_sent(&mut self, to: SiteId, payload: &Payload) {
        if let (Some(t), Payload::Subtxn(_)) = (self.timers.as_mut(), payload) {
            if let Some(i) = t.children.iter().position(|&c| c == to) {
                t.last_sent[i] = Instant::now();
            }
        }
    }

    /// The shared "apply at a replica" step: one local txn over the
    /// writes this site holds copies of, a WAL record, and one tick off
    /// the cluster-wide outstanding counter.
    fn commit_replica_txn(&mut self, gid: GlobalTxnId, writes: &[(ItemId, Value)]) {
        let txn = self.store.begin();
        for (item, value) in writes {
            #[expect(clippy::expect_used, reason = "one store txn at a time: no conflicts")]
            self.store.write(txn, *item, value.clone(), gid).expect("serial site: no conflicts");
        }
        #[expect(clippy::expect_used, reason = "one store txn at a time: no conflicts")]
        self.store.commit(txn).expect("commit secondary");
        self.log_commit(gid, writes);
        self.outstanding -= 1;
    }

    /// Run an all-read transaction against an MVCC snapshot: pin the
    /// committed state, read every item's visible version, release the
    /// snapshot. No store transaction is opened and no locks are taken.
    fn run_snapshot_txn(&mut self, ops: &[Op]) -> Reads {
        let snap = self.store.begin_snapshot();
        let reads = ops
            .iter()
            .map(|op| {
                #[expect(
                    clippy::expect_used,
                    reason = "ops are validated against the placement in start_txn"
                )]
                let r = self.store.read_snapshot(snap, op.item).expect("validated read");
                (op.item, r.writer)
            })
            .collect();
        self.store.end_snapshot(snap);
        reads
    }

    /// Run `ops` as one local transaction; returns the write set and
    /// read set of the commit.
    fn run_local_txn(&mut self, ops: &[Op], gid: GlobalTxnId) -> (Writes, Reads) {
        let txn = self.store.begin();
        for op in ops {
            match op.kind {
                OpKind::Read => {
                    #[expect(
                        clippy::expect_used,
                        reason = "one store txn at a time: no conflicts"
                    )]
                    self.store.read(txn, op.item).expect("serial site: no conflicts");
                }
                OpKind::Write => {
                    #[expect(
                        clippy::expect_used,
                        reason = "one store txn at a time: no conflicts"
                    )]
                    self.store
                        .write(txn, op.item, op.value.clone(), gid)
                        .expect("serial site: no conflicts");
                }
            }
        }
        #[expect(clippy::expect_used, reason = "one store txn at a time: no conflicts")]
        let (info, _) = self.store.commit(txn).expect("commit serial txn");
        // `commit` hands back the deduplicated write set.
        (info.writes, info.reads)
    }

    /// WAL, history and outstanding-counter bookkeeping of a local
    /// commit. The commit is recorded *before* any subtransaction can
    /// be applied elsewhere, so readers-from always find the writer.
    fn finish_commit(
        &mut self,
        gid: GlobalTxnId,
        reads: &[(ItemId, Option<GlobalTxnId>)],
        writes: &[(ItemId, Value)],
    ) {
        self.log_commit(gid, writes);
        let dests = destinations(&self.placement, self.id, writes);
        self.history.record_commit(gid, reads, writes.iter().map(|(i, _)| *i));
        self.outstanding += dests.len() as i64;
    }

    /// Apply one link frame. Delivery is exactly-once against the
    /// durable per-link high-water mark: a sequence at or below it is a
    /// retransmitted duplicate (already applied and forwarded — just
    /// re-ack the mark); one ahead of `mark + 1` raced past a message
    /// lost on the wire (still in its sender's outbox) and is dropped so
    /// the retransmission can arrive in FIFO order.
    pub fn apply_frame(&mut self, from: SiteId, seq: u64, payload: Payload) {
        // Any frame is liveness evidence, duplicates and gaps included.
        self.net.note_progress(from);
        let mark = self.durable.applied_from[from.index()];
        if seq <= mark {
            self.net.ack_received(from, mark);
            return;
        }
        if seq > mark + 1 {
            return;
        }
        self.durable.applied_from[from.index()] = seq;
        let cmds = self.machine_input(Input::Deliver { from, payload });
        // DAG(T): the site timestamp before this delivery's secondaries
        // apply (a delivered dummy has already merged inside `Deliver`).
        let before = self.timers.is_some().then(|| self.machine.site_ts().clone());
        self.run_commands(cmds);
        if let Some(before) = before {
            self.dummies_after_merge(&before);
        }
        self.net.ack_received(from, seq);
    }

    /// Append to `out` the reply frame to `CopyState { from }`: the
    /// copies from number `from` on, at most [`PAGE_BYTES`] of cells (a
    /// larger cell is a page of its own).
    pub fn frame_state_page(&self, from: u64, out: &mut Vec<u8>) {
        let from = usize::try_from(from).unwrap_or(usize::MAX);
        frame_state_page_into(out, self.copy_cells(from), PAGE_BYTES);
    }

    /// Every copy this site holds from number `from` on, ascending by
    /// item, with value and writer, read off the store as the iterator
    /// is consumed — the input of the shared copy-state codec
    /// ([`repl_net::encode_cells_into`]), so deployments can be compared
    /// byte-for-byte.
    pub fn copy_cells(
        &self,
        from: usize,
    ) -> impl ExactSizeIterator<Item = (ItemId, Value, Option<GlobalTxnId>)> + '_ {
        // Ascending: the placement hands out ids in order. The skip
        // steps over whole runs.
        self.placement.copies_at(self.id).skip(from).map(|i| cell(&self.store, i))
    }
}

/// The copy of `item` in `store`, with value and writer.
fn cell(store: &Store, item: ItemId) -> (ItemId, Value, Option<GlobalTxnId>) {
    #[expect(clippy::expect_used, reason = "every placement copy was seeded at site start")]
    let r = store.peek(item).expect("placement copy exists in store");
    (item, r.value, r.writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::join_state_pages;
    use crate::transport::Direct;
    use repl_core::History;
    use repl_net::{decode_cells, decode_framed, encode_cells, ClientReply, FrameReader, WireMsg};
    use repl_protocol::{ProtocolKind, SubtxnKind, TreeKind};

    /// The frames `site` sent since the last look: each peer's log
    /// flushed to a socket that takes everything, decoded.
    fn take_sent(site: &mut SiteCore) -> Vec<(SiteId, u64, Payload)> {
        let mut sent = Vec::new();
        for to in (0..site.placement.num_sites()).map(SiteId) {
            let mut bytes = Vec::new();
            let mut socket = |b: &[u8]| {
                bytes.extend_from_slice(b);
                Ok(b.len())
            };
            site.net.flush(to, &mut socket).unwrap();
            let mut reader = FrameReader::new();
            reader.feed(&bytes);
            while let Some(WireMsg::Link { seq, payload }) = reader.next_msg().unwrap() {
                sent.push((to, seq, payload));
            }
            assert_eq!(reader.buffered(), 0, "whole link frames only");
        }
        sent
    }

    /// `chain3` with one item a site (s0's copied at s1 and s2, s1's at
    /// s2), under `tuning`.
    fn chain3(protocol: RuntimeProtocol, tuning: Tuning) -> [SiteCore; 3] {
        let mut placement = DataPlacement::new(3);
        placement.add_run(SiteId(0), &[SiteId(1), SiteId(2)], 1);
        placement.add_run(SiteId(1), &[SiteId(2)], 1);
        placement.add_run(SiteId(2), &[], 1);
        let routing =
            Routing::build(protocol.into(), &placement, TreeKind::Chain).expect("chain3 is a DAG");
        let placement = Arc::new(placement);
        let opts = Arc::new(RuntimeOptions { tuning, ..RuntimeOptions::default() });
        [0, 1, 2].map(|s| {
            SiteSetup::new(SiteId(s), protocol, placement.clone(), &routing)
                .expect("chain3 site")
                .into_core(SiteParts::new(3), Box::new(Direct), opts.clone())
        })
    }

    /// Commit `value` to s0's item at s0; the frame that carries it to s1.
    fn commit_at_s0(s0: &mut SiteCore, value: i64) -> (u64, Payload) {
        let ops = [Op::write(ItemId(0), value)];
        let started = s0.start_txn(&ops).expect("s0 is the item's primary");
        assert!(started.immediate);
        s0.complete_txn(started.gid, &ops);
        let (_, seq, payload) =
            take_sent(s0).into_iter().find(|(to, ..)| *to == SiteId(1)).expect("a frame to s1");
        (seq, payload)
    }

    /// Under DAG(T), s2 holds s0's update from s0 itself and may wait on
    /// s1's column: the secondary s1 applies moves s1's timestamp, and
    /// s1 sends s2 one dummy carrying it before any timer runs. s1 is
    /// not a source, so it refuses an epoch tick; a dummy from s0 that
    /// leaves its timestamp where it was sends nothing. Under DAG(WT),
    /// s1 only forwards.
    #[test]
    fn an_applied_secondary_that_moves_the_timestamp_sends_the_child_a_dummy() {
        let [mut s0, mut s1, _] = chain3(RuntimeProtocol::DagT, Tuning::LIVE);
        let (seq, sub) = commit_at_s0(&mut s0, 1);
        let before = s1.machine.site_ts().clone();
        s1.apply_frame(SiteId(0), seq, sub);
        let ts = s1.machine.site_ts().clone();
        assert!(ts > before, "{before:?} -> {ts:?}");
        match &take_sent(&mut s1)[..] {
            [(SiteId(2), _, Payload::Subtxn(dummy))] => {
                assert_eq!(dummy.kind, SubtxnKind::Dummy);
                assert_eq!(dummy.ts.as_ref(), Some(&ts));
            }
            sent => panic!("expected one dummy to s2, sent {sent:?}"),
        }

        assert_eq!(
            s1.machine.on_input(Input::EpochTick),
            Err(ProtocolError::EpochAtNonSource { at: SiteId(1) })
        );
        s0.send_dummies(vec![SiteId(1)]);
        let (_, seq, dummy) = take_sent(&mut s0).pop().expect("a dummy to s1");
        s1.apply_frame(SiteId(0), seq, dummy);
        assert_eq!(s1.machine.site_ts(), &ts);
        assert_eq!(take_sent(&mut s1), []);

        let [mut s0, mut s1, _] = chain3(RuntimeProtocol::DagWt, Tuning::LIVE);
        let (seq, sub) = commit_at_s0(&mut s0, 1);
        s1.apply_frame(SiteId(0), seq, sub.clone());
        assert_eq!(take_sent(&mut s1), [(SiteId(2), 1, sub)]);
    }

    /// The DAG(T) epoch is the sources' alone. s1 of `chain3` runs its
    /// timers with its epoch due, then a local update that reads s0's
    /// item before it applies s0's write to it, so the update must
    /// serialize first. Had s1's epoch advanced, the update's timestamp
    /// would order it after s0's write at s2, and a reader at s2 between
    /// the two would close a cycle. No clock decides anything here: the
    /// epoch period is zero and the heartbeat period out of reach.
    #[test]
    fn a_non_source_epoch_never_orders_its_update_after_an_unapplied_parent_write() {
        let tuning = Tuning {
            epoch_period: Duration::ZERO,
            heartbeat_period: Duration::MAX,
            ..Tuning::LIVE
        };
        let mut sites = chain3(RuntimeProtocol::DagT, tuning);
        sites[1].tick();
        let commit = |site: &mut SiteCore, ops: &[Op]| {
            let started = site.start_txn(ops).expect("a valid transaction");
            assert!(started.immediate);
            site.complete_txn(started.gid, ops);
        };
        commit(&mut sites[0], &[Op::write(ItemId(0), 1)]);
        commit(&mut sites[1], &[Op::read(ItemId(0)), Op::write(ItemId(1), 1)]);
        // s2 hears from both origins, and a reader runs there, before
        // s1 applies s0's write.
        let mut to_s1 = Vec::new();
        for from in [SiteId(0), SiteId(1)] {
            for (to, seq, payload) in take_sent(&mut sites[from.index()]) {
                match to {
                    SiteId(2) => sites[2].apply_frame(from, seq, payload),
                    _ => to_s1.push((seq, payload)),
                }
            }
        }
        commit(&mut sites[2], &[Op::read(ItemId(0)), Op::read(ItemId(1))]);
        for (seq, payload) in to_s1 {
            sites[1].apply_frame(SiteId(0), seq, payload);
        }
        pump(&mut sites, |_, _| true);
        let history = History::from_iter(sites.iter().flat_map(|site| site.history.txns()));
        assert_eq!(history.check_serializability(), Ok(()));
    }

    /// `ring3` under BackEdge, one item a site — s0's copied at s1, s1's
    /// at s2, s2's at s0 — with `opts`: the copy edge s2 → s0 is the
    /// backedge, so a write at s2 to its item runs an eager phase whose
    /// special prepares at s0.
    fn ring3(opts: RuntimeOptions) -> [SiteCore; 3] {
        let mut placement = DataPlacement::new(3);
        placement.add_run(SiteId(0), &[SiteId(1)], 1);
        placement.add_run(SiteId(1), &[SiteId(2)], 1);
        placement.add_run(SiteId(2), &[SiteId(0)], 1);
        let protocol = RuntimeProtocol::BackEdge;
        let routing = Routing::build(protocol.into(), &placement, TreeKind::Chain)
            .expect("BackEdge takes any graph");
        let (placement, opts) = (Arc::new(placement), Arc::new(opts));
        [0, 1, 2].map(|s| {
            SiteSetup::new(SiteId(s), protocol, placement.clone(), &routing)
                .expect("ring3 site")
                .into_core(SiteParts::new(3), Box::new(Direct), opts.clone())
        })
    }

    /// Deliver what the sites sent, and what that makes them send, until
    /// nothing moves; a frame `pass(from, to)` refuses is lost.
    fn pump(sites: &mut [SiteCore; 3], pass: impl Fn(SiteId, SiteId) -> bool) {
        loop {
            let mut moved = false;
            for from in (0..3).map(SiteId) {
                for (to, seq, payload) in take_sent(&mut sites[from.index()]) {
                    if pass(from, to) {
                        sites[to.index()].apply_frame(from, seq, payload);
                        moved = true;
                    }
                }
            }
            if !moved {
                return;
            }
        }
    }

    /// s2's item, which its eager phase writes and s0's copy prepares.
    const BACK: ItemId = ItemId(2);

    /// A prepared special's commit decision: once the special has come
    /// home and s2 commits, the decision installs the write at s0, logs
    /// it, and releases the item a reader at s0 waited on.
    #[test]
    fn a_prepared_special_commits_on_its_decision_and_releases() {
        let mut sites = ring3(RuntimeOptions::default());
        let ops = [Op::write(BACK, 7)];
        let started = sites[2].start_txn(&ops).unwrap();
        assert!(!started.immediate, "a backedge write waits for its special");
        pump(&mut sites, |_, _| true);
        assert!(sites[0].blocked(&[Op::read(BACK)]), "s0 prepared the special");
        assert_eq!(sites[0].peek(BACK).map(|(v, _)| v), Some(Value::Initial));
        assert!(sites[2].take_home(started.gid), "the special came home");

        sites[2].complete_txn(started.gid, &ops);
        pump(&mut sites, |_, _| true);
        assert!(!sites[0].blocked(&[Op::read(BACK)]), "the decision released the item");
        assert_eq!(sites[0].peek(BACK), Some((Value::int(7), Some(started.gid))));
        assert!(sites[0].durable.wal.records().any(|r| r.writer == started.gid));
    }

    /// A prepared special's abort decision: s2's eager phase times out
    /// before its special comes home, and the abort it sends s0 leaves
    /// s0's store and log as they were and releases the item.
    #[test]
    fn a_prepared_special_aborts_on_its_decision_and_releases() {
        let tuning = Tuning { eager_timeout: Duration::ZERO, ..Tuning::LIVE };
        let opts = RuntimeOptions { tuning, ..RuntimeOptions::default() };
        let mut sites = ring3(opts);
        let wal = sites[0].durable.wal.encode();
        let started = sites[2].start_txn(&[Op::write(BACK, 7)]).unwrap();
        // Only s2's frames arrive: s0 prepares the special and loses it.
        pump(&mut sites, |from, _| from == SiteId(2));
        assert!(sites[0].blocked(&[Op::read(BACK)]), "s0 prepared the special");

        assert_eq!(sites[2].check_eager_timeout(), Some(started.gid));
        pump(&mut sites, |from, _| from == SiteId(2));
        assert!(!sites[0].blocked(&[Op::read(BACK)]), "the abort released the item");
        assert_eq!(sites[0].peek(BACK), Some((Value::Initial, None)));
        assert_eq!(sites[0].durable.wal.encode(), wal);
    }

    /// An eager phase past its deadline: `check_eager_timeout` aborts it
    /// and names it, an abort decision is in the log to the path site s0,
    /// and the special that then comes home completes nothing.
    #[test]
    fn an_eager_phase_past_its_deadline_aborts_down_its_path() {
        let tuning = Tuning { eager_timeout: Duration::ZERO, ..Tuning::LIVE };
        let opts = RuntimeOptions { tuning, ..RuntimeOptions::default() };
        let mut sites = ring3(opts);
        let started = sites[2].start_txn(&[Op::write(BACK, 7)]).unwrap();
        let special = take_sent(&mut sites[2]);
        assert!(!special.is_empty());

        assert_eq!(sites[2].check_eager_timeout(), Some(started.gid));
        let abort = Payload::Decision { gid: started.gid, commit: false };
        let sent = take_sent(&mut sites[2]);
        assert!(sent.iter().any(|(to, _, p)| *to == SiteId(0) && *p == abort), "{sent:?}");

        for (to, seq, payload) in special.into_iter().chain(sent) {
            sites[to.index()].apply_frame(SiteId(2), seq, payload);
        }
        pump(&mut sites, |_, _| true);
        assert!(!sites[2].take_home(started.gid), "an aborted eager phase came home");
        assert_eq!(sites[2].check_eager_timeout(), None);
        assert_eq!(sites[2].peek(BACK), Some((Value::Initial, None)));
    }

    /// A client naming an item past the placement gets a typed error,
    /// for a read and for a write, and the site serves the next request.
    #[test]
    fn an_item_past_the_placement_is_refused_not_a_panic() {
        let mut sites = ring3(RuntimeOptions::default());
        let past = ItemId(sites[0].placement.num_items());
        for op in [Op::read(past), Op::write(past, 1)] {
            let refused = sites[0].start_txn(&[op]).map(|started| started.gid);
            assert_eq!(refused, Err(ClusterError::NoCopy(SiteId(0), past)));
        }
        assert!(sites[0].start_txn(&[Op::read(ItemId(0))]).is_ok());
    }

    /// A store of 1000 integer copies and then 20 of 62 KiB values —
    /// 1.27 MB, past the frame cap — is served in pages of at most
    /// `PAGE_BYTES` of cells, a 62 KiB cell a page of its own, and the
    /// pages a client joins are the image of the whole store.
    #[test]
    fn copy_state_pages_join_into_the_whole_store_image() {
        const INTS: u32 = 1000;
        let mut placement = DataPlacement::new(1);
        placement.add_run(SiteId(0), &[], INTS + 20);
        let routing = Routing::build(ProtocolKind::DagWt, &placement, TreeKind::Chain).unwrap();
        let mut site =
            SiteSetup::new(SiteId(0), RuntimeProtocol::DagWt, placement.into(), &routing)
                .unwrap()
                .into_core(SiteParts::new(1), Box::new(Direct), Arc::default());
        for i in 0..INTS + 20 {
            let value =
                if i < INTS { Value::int(i.into()) } else { Value::Bytes(vec![i as u8; 62 << 10]) };
            let ops = [Op::write(ItemId(i), value)];
            let started = site.start_txn(&ops).unwrap();
            site.complete_txn(started.gid, &ops);
        }
        let whole = encode_cells(&site.copy_cells(0).collect::<Vec<_>>());
        assert!(whole.len() > repl_net::MAX_FRAME_LEN as usize);

        let mut pages = Vec::new();
        let image = join_state_pages(|from| {
            let mut frame = Vec::new();
            site.frame_state_page(from, &mut frame);
            let page = match decode_framed(&mut frame[..].into()).unwrap() {
                Some(WireMsg::Reply(ClientReply::State(page))) => page,
                other => panic!("not a state page: {other:?}"),
            };
            let cells = decode_cells(page.clone()).unwrap().len();
            // The cell count, then the cells; and a cell that does not
            // fit was never written into the buffer.
            assert!(page.len() - 4 <= PAGE_BYTES || cells == 1, "{} cells", cells);
            assert!(frame.capacity() <= 32 + PAGE_BYTES || cells == 1, "{}", frame.capacity());
            pages.push(cells);
            Ok(page)
        });
        assert_eq!(image.unwrap(), whole);
        // 26 bytes an integer cell: 630 to a page.
        let mut want = vec![630, 370];
        want.extend([1; 20]);
        want.push(0);
        assert_eq!(pages, want);
    }

    proptest::proptest! {
        /// Recovery from the checkpoint of written copies plus a WAL
        /// gives, cell by cell, value and writer, what recovery from an
        /// image of every copy (the checkpoint as it was before it held
        /// written copies only) plus the same WAL gives — at each site of
        /// `chain3` and `ring3`, for any written subset: a copy never
        /// written is `(Initial, None)` in both.
        #[test]
        fn a_checkpoint_of_written_copies_recovers_what_a_full_image_does(
            ring in proptest::bool::ANY,
            site in 0u32..3,
            written in proptest::collection::vec((0u32..60, 0u8..4, 0u32..3), 0..40),
            logged in proptest::collection::vec((0u32..60, 1i64..100), 0..12),
        ) {
            let spec = if ring { "3|0:1*20|1:2*20|2:0*20" } else { "3|0:1,2*20|1:2*20|2*20" };
            let placement = DataPlacement::from_spec(spec).unwrap();
            let site = SiteId(site);
            let boot = placement.copies_at(site).map(|i| (i, Value::Initial, None));
            let mut store = recover(boot, &repl_storage::WriteAheadLog::new());
            for (k, &(item, kind, origin)) in written.iter().enumerate() {
                let value = match kind {
                    0 => Value::Initial,
                    1 => Value::Bytes(vec![k as u8; k % 5]),
                    _ => Value::int(k as i64),
                };
                let writer = GlobalTxnId::new(SiteId(origin), k as u64);
                let txn = store.begin();
                if store.write(txn, ItemId(item), value, writer).is_ok() {
                    store.commit(txn).unwrap();
                }
            }
            let mut durable = DurableSite::new(3);
            durable.install_checkpoint(&store, placement.copies_at(site));
            for (k, &(item, v)) in logged.iter().enumerate() {
                if placement.has_copy(site, ItemId(item)) {
                    let gid = GlobalTxnId::new(site, 1000 + k as u64);
                    durable.stage_commit(gid, &[(ItemId(item), Value::int(v))]);
                    durable.flush_log();
                }
            }
            let mut full = Vec::new();
            let every = placement.copies_at(site).map(|i| {
                let r = store.peek(i).unwrap();
                (i, r.value, r.writer)
            });
            repl_net::encode_cells_into(&mut full, every);
            proptest::prop_assert!(durable.checkpoint.len() <= full.len());
            let from_full = recover(decode_cells(full.into()).unwrap(), &durable.wal);
            let from_written = recovered_store(&placement, site, &mut durable);
            for item in placement.items() {
                proptest::prop_assert_eq!(from_written.peek(item), from_full.peek(item), "{:?}", item);
            }
        }
    }
}
