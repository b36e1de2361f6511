//! The per-site driver: a deployment-independent core plus a thin
//! threaded shell.
//!
//! All propagation *decisions* — queue admission, DAG(T) timestamp
//! merging, tree routing, the BackEdge eager phase — are made by the
//! sans-I/O [`SiteMachine`] from `repl-protocol`, the same machine the
//! simulation engine drives. Around it, this module is split the same
//! way:
//!
//! * [`SiteCore`] is the *nonblocking* half every deployment shares: it
//!   feeds transport frames and client commits into the machine as
//!   [`Input`]s and carries out the returned [`ProtoCommand`]s — local
//!   transactions against the store, WAL records, outstanding-counter
//!   bookkeeping, handing [`Payload`]s to the reliable link layer
//!   ([`Net`]) — plus the clock side of the DAG(T) heartbeat/epoch
//!   timers. Nothing in it blocks, sleeps or waits, so the epoll
//!   reactor (`crate::reactor`) can drive it from a readiness loop.
//! * [`SiteRuntime`] is the threaded shell used by the in-process
//!   cluster: one OS thread owning the core, a command channel, and
//!   the blocking eager-phase wait loop.
//!
//! The split mirrors the eager phase's two shapes: a thread can park in
//! [`SiteRuntime::wait_for_home`] until the BackEdge special returns,
//! while a reactor parks the *transaction* ([`Started::immediate`] =
//! false) and completes it from the readiness loop when the special's
//! `CommitLocal` surfaces.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{RecvTimeoutError, Sender};
use parking_lot::Mutex;

use repl_copygraph::{CopyGraph, DataPlacement, PropagationTree};
use repl_net::{HistoryLog, Payload};
use repl_protocol::{
    destinations, planned_writes, Command as ProtoCommand, Input, ProtocolError, SiteMachine,
};
use repl_storage::Store;
use repl_types::{GlobalTxnId, ItemId, Op, OpKind, SiteId, Value};

use crate::chan::TracedReceiver;
use crate::cluster::{ClusterError, RuntimeProtocol};
use crate::durable::DurableSite;
use crate::policy::RuntimeOptions;
use crate::transport::{Net, TransportEvent};

/// Idle-receive window after which protocol timers run.
pub(crate) const TICK: Duration = Duration::from_millis(1);
/// DAG(T): send a dummy on a copy-graph child link idle this long.
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(2);
/// DAG(T): bump the epoch component this often.
const EPOCH_PERIOD: Duration = Duration::from_millis(20);
/// DAG(T): skip heartbeats into a lane already this deep (a down or
/// slow peer must not accumulate unbounded dummies).
const HEARTBEAT_LANE_CAP: usize = 64;

/// Commands a site thread processes. Link frames do not appear here:
/// they flow through the transport's event inbox
/// ([`Net::poll_events`]), and [`Command::Wake`] just nudges the thread
/// to drain it.
pub(crate) enum Command {
    /// Execute a whole transaction and reply with its outcome.
    Execute { ops: Vec<Op>, reply: Sender<Result<GlobalTxnId, ClusterError>> },
    /// Non-transactional inspection of one copy.
    Peek { item: ItemId, reply: Sender<Option<(Value, Option<GlobalTxnId>)>> },
    /// Serialize the site's full copy state (every item it holds, in
    /// ascending item order, with values and writer ids) — the
    /// byte-comparable convergence oracle across deployments.
    CopyState { reply: Sender<bytes::Bytes> },
    /// Serialize the site's redo log (crash-recovery support: replaying
    /// the returned image over an empty store reproduces the site).
    SnapshotWal { reply: Sender<bytes::Bytes> },
    /// The transport queued events for this site; wake and drain them.
    Wake,
    /// Wake the thread so it notices its crash flag. Carries no state:
    /// the flag, not the command, is the kill switch, so a crash takes
    /// effect at the *next* command rather than after the queue drains.
    Crash,
    /// Drain and exit.
    Shutdown,
}

/// The clock side of DAG(T)'s progress machinery (§3.3): when the last
/// real send per copy-graph child happened and when the epoch last
/// bumped. The *decision* of what a heartbeat or epoch tick does lives
/// in the machine; durations cannot, so they live here.
struct DagtTimers {
    /// Copy-graph children: heartbeat targets.
    children: Vec<SiteId>,
    /// Last send (real or dummy) per child, same indexing as `children`.
    last_sent: Vec<Instant>,
    last_epoch: Instant,
}

impl DagtTimers {
    fn new(me: SiteId, graph: &CopyGraph) -> Self {
        let now = Instant::now();
        let children: Vec<SiteId> = graph.children(me).collect();
        DagtTimers { last_sent: vec![now; children.len()], children, last_epoch: now }
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

/// The nonblocking per-site engine shared by the threaded shell and the
/// epoll reactor.
pub(crate) struct SiteCore {
    pub id: SiteId,
    pub store: Store,
    /// The reliable-link engine (outboxes + whichever wire this
    /// deployment runs on).
    pub net: Arc<Net>,
    pub placement: Arc<DataPlacement>,
    /// Every primary commit of this site (under channels: of the whole
    /// cluster), already in its `History`-reply encoding.
    pub history: Arc<Mutex<HistoryLog>>,
    /// Replica applications still in flight, cluster-wide (under TCP:
    /// this process's share; clients sum across processes).
    pub outstanding: Arc<AtomicI64>,
    /// The site's stable storage, shared with the cluster so it
    /// survives this driver.
    pub durable: Arc<Mutex<DurableSite>>,
    /// Deployment timing/bound knobs (retry, eager timeout, outbox
    /// high-water, replay cadence, health windows).
    pub opts: Arc<RuntimeOptions>,
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
    /// First protocol violation observed on the link path; reported to
    /// the next client instead of panicking the driver.
    poisoned: Option<ProtocolError>,
}

/// The protocol half of a site, built *before* its driver starts so a
/// structural protocol violation is a typed startup error (surfaced as
/// [`ClusterError::Protocol`] / a `repld` boot failure), not a mid-run
/// panic. The store half is recovered on the driver itself (see the
/// note in `Cluster::spawn_site`) and joined in
/// [`SiteSetup::into_core`] / [`SiteSetup::into_runtime`].
pub(crate) struct SiteSetup {
    machine: SiteMachine,
    timers: Option<DagtTimers>,
}

impl SiteSetup {
    pub(crate) fn new(
        id: SiteId,
        protocol: RuntimeProtocol,
        placement: Arc<DataPlacement>,
        graph: Arc<CopyGraph>,
        tree: Option<Arc<PropagationTree>>,
    ) -> Result<Self, ProtocolError> {
        let timers = (protocol == RuntimeProtocol::DagT).then(|| DagtTimers::new(id, &graph));
        let machine = SiteMachine::new(id, protocol.protocol_id(), placement, graph, tree)?;
        Ok(SiteSetup { machine, timers })
    }

    /// Join the protocol half with the I/O half into the shared core.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn into_core(
        self,
        store: Store,
        net: Arc<Net>,
        placement: Arc<DataPlacement>,
        history: Arc<Mutex<HistoryLog>>,
        outstanding: Arc<AtomicI64>,
        durable: Arc<Mutex<DurableSite>>,
        opts: Arc<RuntimeOptions>,
    ) -> SiteCore {
        let sites = placement.num_sites() as usize;
        SiteCore {
            id: self.machine.me(),
            store,
            net,
            placement,
            history,
            outstanding,
            durable,
            opts,
            machine: self.machine,
            timers: self.timers,
            home: None,
            eager_deadline: None,
            last_replay: Instant::now(),
            front_marks: vec![0; sites],
            poisoned: None,
        }
    }

    /// Join the protocol half with the I/O half into a runnable
    /// threaded site.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn into_runtime(
        self,
        store: Store,
        rx: TracedReceiver<Command>,
        net: Arc<Net>,
        placement: Arc<DataPlacement>,
        history: Arc<Mutex<HistoryLog>>,
        outstanding: Arc<AtomicI64>,
        durable: Arc<Mutex<DurableSite>>,
        crashed: Arc<AtomicBool>,
        opts: Arc<RuntimeOptions>,
    ) -> SiteRuntime {
        let core = self.into_core(store, net, placement, history, outstanding, durable, opts);
        SiteRuntime { core, rx, crashed, pending: VecDeque::new() }
    }
}

/// Write set of a local commit: item → final value.
type Writes = Vec<(ItemId, Value)>;
/// Read set of a local commit: item → version (writer gid) read.
type Reads = Vec<(ItemId, Option<GlobalTxnId>)>;

impl SiteCore {
    /// Periodic work every driver runs: the protocol-independent
    /// stall-replay sweep, then the DAG(T) heartbeat/epoch timers. The
    /// driver measures idleness and period expiry, the machine decides
    /// what (if anything) to send.
    pub fn tick(&mut self) {
        // Group commit: a partially filled batch must not wait for more
        // traffic forever — drain it whenever the site comes up for air
        // (a no-op when the pipeline is empty or the batch size is 1).
        self.flush_log(&mut self.durable.lock());
        self.retransmit_tick();
        let Some(t) = self.timers.as_mut() else { return };
        let now = Instant::now();
        if now.duration_since(t.last_epoch) >= EPOCH_PERIOD {
            t.last_epoch = now;
            let cmds = self.machine_input(Input::EpochTick);
            self.run_commands(cmds);
        }
        // replint: allow(RL008) -- timers is Some for the lifetime of a DAG(T) site
        let t = self.timers.as_ref().expect("still DAG(T)");
        let idle_children: Vec<SiteId> = t
            .children
            .iter()
            .enumerate()
            .filter(|&(i, _)| now.duration_since(t.last_sent[i]) >= HEARTBEAT_PERIOD)
            .filter(|&(_, &c)| self.net.lane_len(self.id, c) < HEARTBEAT_LANE_CAP)
            .map(|(_, &c)| c)
            .collect();
        if !idle_children.is_empty() {
            let cmds = self.machine_input(Input::HeartbeatTick { idle_children });
            self.run_commands(cmds);
        }
    }

    /// Stall recovery: every `replay_period`, replay any outgoing lane
    /// whose oldest unacknowledged sequence has not moved since the
    /// last sweep. A frame a nemesis (or a dying connection) swallowed
    /// is still in the outbox; the receiver's dedup/gap marks make the
    /// replay exactly-once, so replaying a lane that was merely slow is
    /// harmless. Lanes making ack progress are left alone — under a
    /// healthy wire this sweep sends nothing.
    fn retransmit_tick(&mut self) {
        if self.last_replay.elapsed() < self.opts.replay_period {
            return;
        }
        self.last_replay = Instant::now();
        for p in 0..self.front_marks.len() {
            let peer = SiteId(p as u32);
            if peer == self.id {
                continue;
            }
            match self.net.front_seq(self.id, peer) {
                None => self.front_marks[p] = 0,
                Some(front) => {
                    if self.front_marks[p] == front {
                        self.net.resume(self.id, peer, 0);
                    }
                    self.front_marks[p] = front;
                }
            }
        }
    }

    /// Peer-health counts for this site's stats: `(up, suspect, down)`.
    pub fn health_counts(&self) -> (u32, u32, u32) {
        self.net.health_counts(self.id, self.opts.suspect_after, self.opts.down_after)
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

    /// Drain the transport inbox and apply every queued frame.
    pub fn drain_net(&mut self) {
        for TransportEvent { from, seq, payload } in self.net.poll_events(self.id) {
            self.apply_frame(from, seq, payload);
        }
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
        // Validate before touching the store.
        for op in ops {
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
                let queued = self.net.lane_len(self.id, peer);
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
        let mvcc =
            self.opts.mvcc_reads && !ops.is_empty() && ops.iter().all(|op| op.kind == OpKind::Read);
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

    /// The serialized resident redo log — every commit since the last
    /// checkpoint cut, which is every commit until the log first fills a
    /// segment. Staged group commits are flushed first so the image
    /// holds them too.
    pub fn snapshot_wal(&self) -> bytes::Bytes {
        let mut d = self.durable.lock();
        self.flush_log(&mut d);
        d.wal.encode()
    }

    /// Stage one commit's redo records, flushing the batch if that
    /// filled it.
    fn log_commit(&self, gid: GlobalTxnId, writes: &[(ItemId, Value)]) {
        let mut d = self.durable.lock();
        if d.stage_commit(gid, writes) {
            self.flush_log(&mut d);
        }
    }

    /// Flush the staged commits into the redo log — after cutting it, if
    /// they would not fit its segment (see [`crate::durable`]): the
    /// store, which already holds every commit logged or staged, is
    /// checkpointed and the log starts its segment over. Every flush
    /// this driver makes goes through here, so the resident log never
    /// exceeds one segment plus the checkpoint.
    fn flush_log(&self, d: &mut DurableSite) {
        if d.flush_would_roll() {
            d.install_checkpoint(self.copy_cells());
        }
        d.flush_log();
    }

    /// Id allocation is durable: a restarted site must never reuse a
    /// pre-crash gid (the history oracle keys on them).
    fn fresh_gid(&self) -> GlobalTxnId {
        let mut d = self.durable.lock();
        let gid = GlobalTxnId::new(self.id, d.next_seq);
        d.next_seq += 1;
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
                    let _ = self.net.send(self.id, to, payload);
                    Vec::new()
                }
                ProtoCommand::Apply { gid, writes } => {
                    if !writes.is_empty() {
                        self.commit_replica_txn(gid, &writes);
                    }
                    self.machine_input(Input::Applied { gid })
                }
                // A serial site holds no locks: preparing is pure
                // bookkeeping (the machine retains the writes), so the
                // completion report is immediate.
                ProtoCommand::Prepare { gid, .. } => self.machine_input(Input::Prepared { gid }),
                ProtoCommand::CommitPrepared { gid, writes } => {
                    if !writes.is_empty() {
                        self.commit_replica_txn(gid, &writes);
                    }
                    Vec::new()
                }
                ProtoCommand::AbortPrepared { .. } => Vec::new(),
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
                    self.eager_deadline = Some((gid, Instant::now() + self.opts.eager_timeout));
                    Vec::new()
                }
                // Only a machine whose apply window or send coalescing
                // was widened emits these, and this driver widens
                // neither: one transaction at a time has nothing to
                // overlap (DESIGN.md §14.4).
                ProtoCommand::SendBatch { .. } | ProtoCommand::ApplyMany { .. } => {
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
            // replint: allow(RL008) -- one store txn at a time: conflicts are impossible
            self.store.write(txn, *item, value.clone(), gid).expect("serial site: no conflicts");
        }
        // replint: allow(RL008) -- same single-txn invariant
        self.store.commit(txn).expect("commit secondary");
        self.log_commit(gid, writes);
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
    }

    /// Run an all-read transaction against an MVCC snapshot: pin the
    /// committed state, read every item's visible version, release the
    /// snapshot. No store transaction is opened and no locks are taken.
    fn run_snapshot_txn(&mut self, ops: &[Op]) -> Reads {
        let snap = self.store.begin_snapshot();
        let reads = ops
            .iter()
            .map(|op| {
                // replint: allow(RL008) -- ops validated against the placement in start_txn
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
                    // replint: allow(RL008) -- one store txn at a time: conflicts are impossible
                    self.store.read(txn, op.item).expect("serial site: no conflicts");
                }
                OpKind::Write => {
                    self.store
                        .write(txn, op.item, op.value.clone(), gid)
                        // replint: allow(RL008) -- one store txn at a time: conflicts are impossible
                        .expect("serial site: no conflicts");
                }
            }
        }
        // replint: allow(RL008) -- one store txn at a time: conflicts are impossible
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
        self.history.lock().record_commit(gid, reads, writes.iter().map(|(i, _)| *i));
        self.outstanding.fetch_add(dests.len() as i64, Ordering::SeqCst);
    }

    /// Apply one link frame. Delivery is exactly-once against the
    /// durable per-link high-water mark: a sequence at or below it is a
    /// retransmitted duplicate (already applied and forwarded — just
    /// re-ack it); one ahead of `mark + 1` raced past a message lost on
    /// the wire (still in its sender's outbox) and is dropped so the
    /// retransmission can arrive in FIFO order.
    pub fn apply_frame(&mut self, from: SiteId, seq: u64, payload: Payload) {
        // Any frame is liveness evidence, duplicates and gaps included.
        self.net.note_peer_progress(self.id, from);
        {
            let mut d = self.durable.lock();
            let mark = d.applied_from[from.index()];
            if seq <= mark {
                drop(d);
                self.net.ack_received(from, self.id, seq);
                return;
            }
            if seq > mark + 1 {
                return;
            }
            d.applied_from[from.index()] = seq;
        }
        let cmds = self.machine_input(Input::Deliver { from, payload });
        self.run_commands(cmds);
        self.net.ack_received(from, self.id, seq);
    }

    /// Every copy this site holds, ascending by item, with value and
    /// writer, read off the store as the iterator is consumed — the
    /// input of the shared copy-state codec
    /// ([`repl_net::encode_cells_into`]), so deployments can be compared
    /// byte-for-byte.
    pub fn copy_cells(
        &self,
    ) -> impl ExactSizeIterator<Item = (ItemId, Value, Option<GlobalTxnId>)> + '_ {
        // `items_at` is ascending: the placement hands out ids in order.
        self.placement.items_at(self.id).iter().map(|&i| {
            // replint: allow(RL008) -- every placement copy was seeded at site start
            let r = self.store.peek(i).expect("placement copy exists in store");
            (i, r.value, r.writer)
        })
    }

    /// The serialized copy state ([`SiteCore::copy_cells`] through the
    /// shared wire codec).
    pub fn copy_state(&self) -> bytes::Bytes {
        let cells = self.copy_cells();
        // An integer cell with a writer is 26 bytes.
        let mut image = bytes::BytesMut::with_capacity(4 + cells.len() * 26);
        repl_net::encode_cells_into(&mut image, cells);
        image.freeze()
    }
}

/// The threaded shell: one OS thread owning a [`SiteCore`], fed by a
/// command channel.
pub(crate) struct SiteRuntime {
    core: SiteCore,
    rx: TracedReceiver<Command>,
    /// Set by [`crate::Cluster::crash`]: abandon ship at the next
    /// command, losing the store and everything still queued.
    crashed: Arc<AtomicBool>,
    /// Commands deferred while an eager phase was waiting for its
    /// special to return home (BackEdge only).
    pending: VecDeque<Command>,
}

impl SiteRuntime {
    /// The thread body: process commands until shutdown or crash.
    ///
    /// A crash exit is abrupt by design: the command that woke us is
    /// *not* processed and the channel queue is dropped un-drained.
    /// Whatever was lost is exactly what retransmission from the
    /// senders' outboxes must recover.
    pub fn run(mut self) {
        loop {
            if self.crashed.load(Ordering::SeqCst) {
                return;
            }
            self.core.drain_net();
            let cmd = if let Some(cmd) = self.pending.pop_front() {
                cmd
            } else {
                match self.rx.recv_timeout(TICK) {
                    Ok(cmd) => cmd,
                    Err(RecvTimeoutError::Timeout) => {
                        self.core.tick();
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            };
            if self.crashed.load(Ordering::SeqCst) {
                return;
            }
            match cmd {
                Command::Execute { ops, reply } => {
                    let result = self.execute(ops);
                    let _ = reply.send(result);
                }
                Command::Peek { item, reply } => {
                    let _ = reply.send(self.core.peek(item));
                }
                Command::CopyState { reply } => {
                    let _ = reply.send(self.core.copy_state());
                }
                Command::SnapshotWal { reply } => {
                    let _ = reply.send(self.core.snapshot_wal());
                }
                Command::Wake => {} // events were drained at the loop head
                Command::Crash => return,
                Command::Shutdown => break,
            }
            self.core.tick();
        }
    }

    /// Execute a primary transaction, blocking through the eager phase
    /// if the machine opens one.
    fn execute(&mut self, ops: Vec<Op>) -> Result<GlobalTxnId, ClusterError> {
        let started = self.core.start_txn(&ops)?;
        if !started.immediate {
            match self.wait_for_home(started.gid) {
                WaitOutcome::Home => {}
                // The eager deadline expired: the machine aborted the
                // phase (tombstone + abort decisions down every path),
                // so nothing committed anywhere.
                WaitOutcome::Aborted => return Err(ClusterError::EagerTimeout(started.gid)),
                // Crashed or torn down mid-eager-phase; the transaction
                // never committed anywhere (prepared writes are not
                // applied without a decision).
                WaitOutcome::Dead => return Err(ClusterError::Disconnected),
            }
        }
        self.core.complete_txn(started.gid, &ops);
        Ok(started.gid)
    }

    /// Serve the inbox until our special returns home (§4: the machine
    /// emits `CommitLocal` when it pops our special off the FIFO
    /// queue). Client transactions and shutdown are deferred (the site
    /// is inside a commit); link traffic, reads and snapshots proceed.
    fn wait_for_home(&mut self, gid: GlobalTxnId) -> WaitOutcome {
        loop {
            self.core.drain_net();
            if self.core.take_home(gid) {
                return WaitOutcome::Home;
            }
            if self.core.check_eager_timeout() == Some(gid) {
                return WaitOutcome::Aborted;
            }
            if self.crashed.load(Ordering::SeqCst) {
                return WaitOutcome::Dead;
            }
            let cmd = match self.rx.recv_timeout(TICK) {
                Ok(cmd) => cmd,
                Err(RecvTimeoutError::Timeout) => {
                    // Keep the stall replay running: the special (or
                    // the decision coming back) may be exactly what a
                    // partition swallowed.
                    self.core.tick();
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return WaitOutcome::Dead,
            };
            match cmd {
                Command::Wake => {} // drained at the loop head
                Command::Peek { item, reply } => {
                    let _ = reply.send(self.core.peek(item));
                }
                Command::CopyState { reply } => {
                    let _ = reply.send(self.core.copy_state());
                }
                Command::SnapshotWal { reply } => {
                    let _ = reply.send(self.core.snapshot_wal());
                }
                Command::Crash => return WaitOutcome::Dead,
                cmd @ (Command::Execute { .. } | Command::Shutdown) => self.pending.push_back(cmd),
            }
        }
    }
}

/// How an eager-phase wait ended.
enum WaitOutcome {
    /// The special came home; complete the commit.
    Home,
    /// The eager deadline expired and the machine aborted the phase.
    Aborted,
    /// The site crashed or was torn down while waiting.
    Dead,
}
