//! Per-site runtime state.
//!
//! Propagation decisions (queues, timestamps, routing) live in the
//! shared `repl_protocol::SiteMachine`; this module keeps only the
//! driver-side state the simulator owns — storage transactions, CPU
//! accounting, threads, lock waits and crash/recovery bookkeeping.

use std::collections::BTreeMap;

use repl_protocol::SiteMachine;
use repl_sim::{CpuQueue, SimTime};
use repl_storage::{SnapshotId, Store, TxnId};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId};

use super::event::Message;
use super::RunKind;

/// Who a site-local storage transaction belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Owner {
    /// A primary subtransaction run by worker thread `thread`.
    Primary {
        /// Thread index.
        thread: u32,
    },
    /// A subtransaction the runner executes for the machine.
    Run(RunKey),
    /// A BackEdge special prepared here, holding its locks until the
    /// decision (§4.1).
    Prepared {
        /// The logical transaction it belongs to.
        gid: GlobalTxnId,
    },
    /// A PSL/Eager proxy holding locks for remote transaction `gid`.
    Proxy {
        /// The remote transaction.
        gid: GlobalTxnId,
    },
}

/// Where a run lives: the applier slot (a secondary or a queued special,
/// one at a time in the machine's admission order), or, for a direct
/// special (`S1` at the farthest ancestor, §4.1), its transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunKey {
    /// The site's applier slot.
    Applier,
    /// The direct special of this transaction.
    Direct(GlobalTxnId),
}

/// Execution phase of an active primary subtransaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrimaryPhase {
    /// Executing operations (a CPU slice may be in flight).
    Executing,
    /// Blocked on a local lock.
    WaitingLock,
    /// Blocked on a remote lock grant (PSL/Eager). Payload: how many
    /// grants are still outstanding for the current operation.
    WaitingRemote(u32),
    /// BackEdge eager phase: executed, holding locks, waiting for the
    /// special subtransaction to arrive home (§4.1 step 3).
    WaitingBackedge,
    /// Commit CPU slice in flight.
    Committing,
}

impl PrimaryPhase {
    /// The phase in words, for a stall report.
    pub fn describe(self) -> &'static str {
        match self {
            PrimaryPhase::Executing => "executing",
            PrimaryPhase::WaitingLock => "waiting for a local lock",
            PrimaryPhase::WaitingRemote(_) => "waiting for a remote lock",
            PrimaryPhase::WaitingBackedge => "in its eager phase",
            PrimaryPhase::Committing => "committing",
        }
    }
}

/// An in-flight primary subtransaction attempt.
#[derive(Clone, Debug)]
pub struct ActivePrimary {
    /// This attempt's globally unique id (fresh per attempt).
    pub gid: GlobalTxnId,
    /// The local storage transaction.
    pub local: TxnId,
    /// Program counter into the thread's current op list.
    pub pc: usize,
    /// When the *first* attempt of this logical transaction started.
    pub first_started: SimTime,
    /// Current phase.
    pub phase: PrimaryPhase,
    /// Guard: bumped on every phase change so stale timeouts are ignored.
    pub wait_seq: u64,
    /// PSL: reads served remotely, as `(item, version writer)`.
    pub remote_reads: Vec<(ItemId, Option<GlobalTxnId>)>,
    /// Sites where a proxy holds locks for this attempt.
    pub proxy_sites: Vec<SiteId>,
    /// MVCC: the snapshot this read-only transaction reads from. `Some`
    /// only when `Tuning::mvcc_reads` is on and every operation
    /// is a read with a local copy; such attempts take zero locks.
    pub snapshot: Option<SnapshotId>,
    /// MVCC: reads served from the snapshot, as `(item, version writer)`.
    pub snap_reads: Vec<(ItemId, Option<GlobalTxnId>)>,
}

/// The program a worker thread executes: a fixed list of transactions,
/// each a list of operations (§5.2: 1000 transactions of 10 operations).
#[derive(Clone, Debug)]
pub struct ThreadState {
    /// Transactions remaining, including the current one.
    pub programs: Vec<Vec<Op>>,
    /// Index of the transaction currently being executed.
    pub next_txn: usize,
    /// The in-flight attempt, if any.
    pub active: Option<ActivePrimary>,
}

impl ThreadState {
    /// The op list of the transaction currently being attempted.
    pub fn current_ops(&self) -> &[Op] {
        &self.programs[self.next_txn]
    }

    /// True once every transaction in the program has committed.
    pub fn finished(&self) -> bool {
        self.next_txn >= self.programs.len()
    }
}

/// A storage subtransaction the runner executes for the machine. The
/// machine picked it and pre-filtered the writes to this site's copies;
/// the runner executes them under the local lock manager.
#[derive(Clone, Debug)]
pub struct Run {
    /// The transaction whose writes these are.
    pub gid: GlobalTxnId,
    /// What it is, and so how it ends: a secondary commits, a special is
    /// *prepared* (§4.1).
    pub kind: RunKind,
    /// The site of that transaction (deadlock breaking routes a
    /// special's abort requests there).
    pub origin: SiteId,
    /// Writes applicable at this site (pre-filtered by the machine).
    pub writes: Vec<(ItemId, repl_types::Value)>,
    /// Local storage transaction of the current execution attempt.
    pub local: TxnId,
    /// Progress through `writes`.
    pub write_idx: usize,
    /// The arrival ordinal an applier run keeps across deadlock
    /// resubmissions, for the fair victim policy (§2). A direct special
    /// keeps the one the lock manager gave it.
    pub arrival: Option<u64>,
    /// Generation guard: unique per run (and bumped on deadlock
    /// resubmission), so stale CPU-completion events are ignored.
    pub gen: u64,
    /// True while blocked on a local lock.
    pub blocked: bool,
    /// True once every write executed and the commit CPU slice is in
    /// flight.
    pub committing: bool,
    /// Wait-sequence guard for this run's lock-wait timeouts.
    pub wait_seq: u64,
    /// When the machine handed it to the engine (kept across deadlock
    /// resubmissions).
    pub since: SimTime,
    /// How many times a deadlock abort resubmitted it.
    pub resubmits: u64,
}

/// A BackEdge special prepared at a site (§4.1): its writes executed,
/// it holds their locks until the distributed-commit decision.
#[derive(Clone, Debug)]
pub struct PreparedHold {
    /// The local storage transaction holding the locks.
    pub local: TxnId,
    /// The site whose eager phase this special belongs to (deadlock
    /// breaking routes abort requests there).
    pub origin: SiteId,
    /// Writes applicable at this site (pre-filtered by the machine).
    pub writes: Vec<(ItemId, repl_types::Value)>,
}

/// A PSL/Eager proxy at a primary site, holding locks on behalf of a
/// remote transaction.
#[derive(Clone, Debug)]
pub struct ProxyState {
    /// The proxy's local storage transaction.
    pub local: TxnId,
    /// A blocked request: `(item, exclusive, value, origin_site,
    /// origin_thread)` awaiting a lock grant.
    pub pending: Option<PendingProxyReq>,
}

/// A proxy lock request that is currently blocked.
#[derive(Clone, Debug)]
pub struct PendingProxyReq {
    /// Item requested.
    pub item: ItemId,
    /// Exclusive (Eager write) or shared (PSL read).
    pub exclusive: bool,
    /// Value to install once granted (Eager writes).
    pub value: Option<repl_types::Value>,
    /// Where the grant goes.
    pub origin_site: SiteId,
    /// Thread blocked at the origin.
    pub origin_thread: u32,
}

/// All mutable state of one site.
#[derive(Debug)]
pub struct SiteState {
    /// This site's id.
    pub id: SiteId,
    /// The local storage engine (the DataBlitz instance).
    pub store: Store,
    /// The site CPU.
    pub cpu: CpuQueue,
    /// Worker threads.
    pub threads: Vec<ThreadState>,
    /// Owner map for local storage transactions.
    pub owner: BTreeMap<TxnId, Owner>,
    /// The sans-I/O propagation state machine for this site. `None` for
    /// PSL/Eager, which do not propagate lazily.
    pub machine: Option<SiteMachine>,
    /// The run in the applier slot, mirroring the machine's: one at a
    /// time, so the site commit order is the machine's admission order.
    pub applier: Option<Run>,
    /// BackEdge: direct specials executing here, keyed by transaction.
    pub direct: BTreeMap<GlobalTxnId, Run>,
    /// Monotone generation counter for run guards.
    pub run_gen: u64,
    /// Wait-sequence counter for every run's lock-wait timeouts, the
    /// applier's and the direct specials' alike: each wait draws its
    /// own, so a timeout acts only on the wait that armed it.
    pub run_wait_seq: u64,
    /// Arrival ordinal source for secondaries (fair victim policy).
    pub next_arrival: u64,
    /// Per-attempt counter feeding [`GlobalTxnId`]s.
    pub next_seq: u64,
    /// `next_seq` at the site's last crash: every attempt numbered below
    /// it is over, and no release will follow a lock request of one that
    /// the crash ended.
    pub crash_seq: u64,
    /// PSL/Eager proxies keyed by remote transaction.
    pub proxies: BTreeMap<GlobalTxnId, ProxyState>,
    /// BackEdge: prepared specials keyed by transaction.
    pub prepared: BTreeMap<GlobalTxnId, PreparedHold>,
    /// False while the site is crashed (fault plan); its event stream is
    /// parked and deliveries are buffered into `backlog`.
    pub up: bool,
    /// Messages that arrived while the site was down, in delivery order;
    /// drained inline at restart so per-link FIFO survives the outage.
    pub backlog: Vec<Message>,
    /// Committed item-writes logged at this site — the redo-WAL length
    /// that prices crash recovery (`replay_cpu` per record).
    pub wal_len: u64,
    /// When the most recent WAL replay finishes (recovery-latency floor).
    pub replay_done: SimTime,
    /// True between a restart and the moment the site has caught up
    /// (applier idle, queues drained).
    pub recovering: bool,
    /// Generation of the site's DAG(T) timer chain; bumped at crash so
    /// the pre-crash timer dies and the restart re-arms exactly one.
    pub tick_gen: u64,
    /// Update commits since the last fsync-equivalent (group commit):
    /// every `Tuning::group_commit_batch`-th one pays `fsync_cpu`.
    pub commits_since_fsync: usize,
}

impl SiteState {
    /// Fresh state for site `id` over its populated `store`, with
    /// `threads` worker threads whose programs are `programs[thread]`.
    pub fn new(id: SiteId, programs: Vec<Vec<Vec<Op>>>, store: Store) -> Self {
        SiteState {
            id,
            store,
            cpu: CpuQueue::new(),
            threads: programs
                .into_iter()
                .map(|p| ThreadState { programs: p, next_txn: 0, active: None })
                .collect(),
            owner: BTreeMap::new(),
            machine: None,
            applier: None,
            direct: BTreeMap::new(),
            run_gen: 0,
            run_wait_seq: 0,
            next_arrival: 0,
            next_seq: 0,
            crash_seq: 0,
            proxies: BTreeMap::new(),
            prepared: BTreeMap::new(),
            up: true,
            backlog: Vec::new(),
            wal_len: 0,
            replay_done: SimTime::ZERO,
            recovering: false,
            tick_gen: 0,
            commits_since_fsync: 0,
        }
    }

    /// Allocate a fresh attempt id.
    pub fn fresh_gid(&mut self) -> GlobalTxnId {
        let gid = GlobalTxnId::new(self.id, self.next_seq);
        self.next_seq += 1;
        gid
    }

    /// True when every incoming queue is empty and no applier is active.
    pub fn secondaries_idle(&self) -> bool {
        self.applier.is_none() && self.machine.as_ref().is_none_or(SiteMachine::secondaries_idle)
    }

    /// The run at `key`, if any.
    pub fn run_mut(&mut self, key: RunKey) -> Option<&mut Run> {
        match key {
            RunKey::Applier => self.applier.as_mut(),
            RunKey::Direct(gid) => self.direct.get_mut(&gid),
        }
    }

    /// The run at `key`, if its generation guard is `gen`.
    pub fn run_by_gen(&mut self, key: RunKey, gen: u64) -> Option<&mut Run> {
        self.run_mut(key).filter(|r| r.gen == gen)
    }

    /// Take the run at `key` out of the runner.
    pub fn take_run(&mut self, key: RunKey) -> Option<Run> {
        match key {
            RunKey::Applier => self.applier.take(),
            RunKey::Direct(gid) => self.direct.remove(&gid),
        }
    }

    /// True when no *update-carrying* secondary work is pending: the
    /// applier is idle and the queues hold at most DAG(T) dummies.
    /// Dummies are progress chatter that flows continuously while the
    /// workload runs, so a recovering site with several parents would
    /// never see fully-empty queues — but once only dummies remain, its
    /// backlog of real updates has been applied.
    pub fn no_pending_updates(&self) -> bool {
        self.applier.is_none() && self.machine.as_ref().is_none_or(SiteMachine::no_pending_updates)
    }
}
