//! Per-site runtime state.
//!
//! Propagation decisions (queues, timestamps, routing) live in the
//! shared `repl_protocol::SiteMachine`; this module keeps only the
//! driver-side state the simulator owns — storage transactions, CPU
//! accounting, threads, lock waits and crash/recovery bookkeeping.

use std::collections::HashMap;

use repl_protocol::SiteMachine;
use repl_sim::{CpuQueue, SimTime};
use repl_storage::{SnapshotId, Store, TxnId};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId};

use super::event::Message;

/// Who a site-local storage transaction belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Owner {
    /// A primary subtransaction run by worker thread `thread`.
    Primary {
        /// Thread index.
        thread: u32,
    },
    /// The site's secondary applier.
    Secondary,
    /// A prepared BackEdge backedge/special subtransaction.
    Backedge {
        /// The logical transaction it belongs to.
        gid: GlobalTxnId,
    },
    /// A PSL/Eager proxy holding locks for remote transaction `gid`.
    Proxy {
        /// The remote transaction.
        gid: GlobalTxnId,
    },
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
    /// only when `SimParams::snapshot_reads` is on and every operation
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

/// The secondary subtransaction in a site's applier slot. The machine
/// picked it and pre-filtered the writes to this site's copies; the
/// driver just executes them under the local lock manager.
#[derive(Clone, Debug)]
pub struct ActiveSecondary {
    /// The transaction whose writes these are.
    pub gid: GlobalTxnId,
    /// Writes applicable at this site (pre-filtered by the machine).
    pub writes: Vec<(ItemId, repl_types::Value)>,
    /// True for a BackEdge special occupying the applier slot: on
    /// completion it is *prepared*, not committed (§4.1).
    pub special: bool,
    /// Local storage transaction of the current execution attempt.
    pub local: TxnId,
    /// Progress through `writes`.
    pub write_idx: usize,
    /// Arrival ordinal retained across deadlock resubmissions, for the
    /// fair victim policy (§2).
    pub arrival_ord: u64,
    /// Generation guard: unique per admitted applier (and bumped on
    /// deadlock resubmission), so stale CPU-completion events are
    /// ignored.
    pub gen: u64,
    /// True while blocked on a local lock.
    pub blocked: bool,
    /// True once every write executed and the commit CPU slice is in
    /// flight.
    pub committing: bool,
    /// Wait-sequence guard for this applier's lock-wait timeouts.
    pub wait_seq: u64,
}

/// A BackEdge backedge/special subtransaction executing or prepared at a
/// site (§4.1): it holds its locks until the distributed-commit decision.
#[derive(Clone, Debug)]
pub struct BackedgeRun {
    /// The local storage transaction holding the locks.
    pub local: TxnId,
    /// The site whose eager phase this special belongs to (deadlock
    /// breaking routes abort requests there).
    pub origin: SiteId,
    /// Writes applicable at this site (pre-filtered by the machine).
    pub writes: Vec<(ItemId, repl_types::Value)>,
    /// Progress through `writes`.
    pub idx: usize,
    /// True once execution finished and the special was forwarded; the
    /// transaction then only awaits its commit/abort decision.
    pub prepared: bool,
    /// True while blocked on a local lock.
    pub blocked: bool,
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
    pub owner: HashMap<TxnId, Owner>,
    /// The sans-I/O propagation state machine for this site. `None` for
    /// PSL/Eager, which do not propagate lazily.
    pub machine: Option<SiteMachine>,
    /// The subtransaction being applied, mirroring the machine's
    /// applier slot: one at a time, so the site commit order is the
    /// machine's admission order.
    pub applier: Option<ActiveSecondary>,
    /// Monotone generation counter for applier guards.
    pub applier_gen: u64,
    /// Wait-sequence counter for the applier's timeouts.
    pub sec_wait_seq: u64,
    /// Arrival ordinal source for secondaries (fair victim policy).
    pub next_arrival: u64,
    /// DAG(T): last time anything was sent to each copy-graph child
    /// (drives dummy generation, §3.3).
    pub last_sent: HashMap<SiteId, SimTime>,
    /// Per-attempt counter feeding [`GlobalTxnId`]s.
    pub next_seq: u64,
    /// PSL/Eager proxies keyed by remote transaction.
    pub proxies: HashMap<GlobalTxnId, ProxyState>,
    /// BackEdge: executing or prepared backedge/special subtransactions
    /// keyed by transaction.
    pub backedge_txns: HashMap<GlobalTxnId, BackedgeRun>,
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
    /// Generation of the site's DAG(T) tick chains (epoch/heartbeat);
    /// bumped at crash so pre-crash ticks die and the restart can re-arm
    /// exactly one chain of each.
    pub tick_gen: u64,
    /// Update commits since the last fsync-equivalent (group commit):
    /// every `SimParams::group_commit_batch`-th one pays `fsync_cpu`.
    pub commits_since_fsync: u32,
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
            owner: HashMap::new(),
            machine: None,
            applier: None,
            applier_gen: 0,
            sec_wait_seq: 0,
            next_arrival: 0,
            last_sent: HashMap::new(),
            next_seq: 0,
            proxies: HashMap::new(),
            backedge_txns: HashMap::new(),
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

    /// The applier, if its generation guard is `gen`.
    pub fn applier_by_gen(&mut self, gen: u64) -> Option<&mut ActiveSecondary> {
        self.applier.as_mut().filter(|a| a.gen == gen)
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
