//! Events on the simulation calendar and messages on the network.
//!
//! The propagation vocabulary (subtransactions, dummies, specials,
//! decisions) lives in `repl-protocol`; the engine ships it between
//! sites as [`Message::Link`] and keeps only the simulator-specific
//! remote-locking and deadlock-resolution messages here.

use repl_protocol::Payload;
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

/// Network messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Message {
    /// A protocol payload (subtransaction, dummy, special or decision)
    /// travelling a copy-graph or tree edge; `from` identifies the
    /// sending site (the incoming-queue key at the receiver).
    Link {
        /// Sending site (the queue key at the receiver).
        from: SiteId,
        /// The protocol payload.
        payload: Payload,
    },
    /// PSL / Eager: request a lock at the primary site of `item` on
    /// behalf of remote transaction `gid`.
    RemoteLockReq {
        /// Item whose primary copy lives at the receiving site.
        item: ItemId,
        /// True for an exclusive (Eager write) lock; false for the PSL
        /// shared read lock.
        exclusive: bool,
        /// Value to provisionally install (Eager writes).
        value: Option<Value>,
        /// Requesting transaction.
        gid: GlobalTxnId,
        /// Where to send the grant.
        origin_site: SiteId,
        /// Thread at the origin blocked on this request.
        origin_thread: u32,
    },
    /// PSL / Eager: the grant (or denial, if the proxy was chosen as a
    /// deadlock victim) for an earlier [`Message::RemoteLockReq`].
    RemoteLockGrant {
        /// Transaction the grant is for.
        gid: GlobalTxnId,
        /// Thread at the origin blocked on this request.
        origin_thread: u32,
        /// Item the lock covers.
        item: ItemId,
        /// False when the proxy was aborted (origin must abort too).
        ok: bool,
        /// PSL read grants ship the logical writer of the value read
        /// (outer `Some` for reads; inner is the version's writer).
        writer: Option<Option<GlobalTxnId>>,
    },
    /// BackEdge distributed-deadlock resolution: a timed-out lock wait at
    /// some site found its blocker to be a prepared backedge
    /// subtransaction of `gid`; ask `gid`'s origin to abort its eager
    /// phase (the Example 4.1 "T2 will be aborted" rule).
    BackedgeAbortReq {
        /// The transaction whose eager phase should abort.
        gid: GlobalTxnId,
    },
    /// PSL / Eager: the origin has committed (or aborted); the proxy
    /// holding locks for `gid` at the receiving site must do the same.
    ProxyRelease {
        /// Transaction whose proxy should finish.
        gid: GlobalTxnId,
        /// True = commit, false = abort.
        commit: bool,
    },
}

/// The scope of a pending lock-wait timeout.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimeoutScope {
    /// A primary subtransaction blocked on a local lock.
    PrimaryLocal {
        /// The blocked thread.
        thread: u32,
    },
    /// A primary blocked on a remote lock grant (PSL / Eager).
    PrimaryRemote {
        /// The blocked thread.
        thread: u32,
    },
    /// A primary in the BackEdge eager phase waiting for its special
    /// subtransaction to come home (global-deadlock backstop).
    PrimaryEager {
        /// The waiting thread.
        thread: u32,
    },
    /// The site's secondary applier blocked on a local lock.
    Secondary,
    /// A directly-sent backedge subtransaction (`S1`) blocked on a local
    /// lock; the timeout re-inspects its blockers rather than aborting it
    /// (§4.1: aborting the secondary "does not help").
    BackedgeExec {
        /// The transaction the subtransaction belongs to.
        gid: GlobalTxnId,
    },
}

/// Simulation events.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Event {
    /// A worker thread begins its next transaction.
    StartThreadTxn {
        /// Site of the thread.
        site: SiteId,
        /// Thread index within the site.
        thread: u32,
    },
    /// CPU slice for one primary operation finished.
    PrimaryOpDone {
        /// Site of the thread.
        site: SiteId,
        /// Thread index.
        thread: u32,
        /// Attempt the slice belongs to (stale-event guard).
        gid: GlobalTxnId,
    },
    /// CPU slice for primary commit processing finished.
    PrimaryCommitDone {
        /// Site of the thread.
        site: SiteId,
        /// Thread index.
        thread: u32,
        /// Attempt the slice belongs to.
        gid: GlobalTxnId,
    },
    /// A deadlock timeout fired.
    Timeout {
        /// Site the wait is at.
        site: SiteId,
        /// What was waiting.
        scope: TimeoutScope,
        /// Wait-sequence guard: stale timeouts are ignored.
        wait_seq: u64,
    },
    /// A network message arrives.
    Deliver {
        /// Receiving site.
        to: SiteId,
        /// Payload.
        msg: Message,
    },
    /// CPU slice for one secondary item-write finished.
    SecondaryStepDone {
        /// Site whose applier stepped.
        site: SiteId,
        /// Applier-generation guard.
        gen: u64,
    },
    /// CPU slice for a secondary commit finished.
    SecondaryCommitDone {
        /// Site whose applier is committing.
        site: SiteId,
        /// Applier-generation guard.
        gen: u64,
    },
    /// A deadlock-aborted thread retries its transaction.
    RetryThread {
        /// Site of the thread.
        site: SiteId,
        /// Thread index.
        thread: u32,
    },
    /// DAG(T): a source site increments its epoch (§3.3).
    EpochTick {
        /// The source site.
        site: SiteId,
        /// Tick-chain generation (stale after a crash).
        gen: u64,
    },
    /// DAG(T): check idle links and send dummy subtransactions (§3.3).
    HeartbeatTick {
        /// The sending site.
        site: SiteId,
        /// Tick-chain generation (stale after a crash).
        gen: u64,
    },
    /// CPU slice for one write of a directly-sent backedge
    /// subtransaction (`S1`, §4.1) finished.
    BackedgeStepDone {
        /// Site executing the backedge subtransaction.
        site: SiteId,
        /// The transaction it belongs to.
        gid: GlobalTxnId,
        /// Write index the slice covered (stale-event guard).
        idx: usize,
    },
    /// The site fails abruptly (fault plan): in-flight local work is
    /// aborted (its buffered writes dropped), volatile state is lost, and its event
    /// stream parks until the matching [`Event::SiteRestart`].
    SiteCrash {
        /// The failing site.
        site: SiteId,
    },
    /// The site rejoins: it replays its WAL, drains the message backlog
    /// buffered while it was down, and (DAG(T)) bumps its epoch so
    /// post-recovery timestamps dominate (§3.3).
    SiteRestart {
        /// The recovering site.
        site: SiteId,
    },
}

impl Event {
    /// The site at which this event executes (the crash gate uses this to
    /// park a down site's event stream).
    pub fn site(&self) -> SiteId {
        match *self {
            Event::StartThreadTxn { site, .. }
            | Event::PrimaryOpDone { site, .. }
            | Event::PrimaryCommitDone { site, .. }
            | Event::Timeout { site, .. }
            | Event::SecondaryStepDone { site, .. }
            | Event::SecondaryCommitDone { site, .. }
            | Event::RetryThread { site, .. }
            | Event::EpochTick { site, .. }
            | Event::HeartbeatTick { site, .. }
            | Event::BackedgeStepDone { site, .. }
            | Event::SiteCrash { site }
            | Event::SiteRestart { site } => site,
            Event::Deliver { to, .. } => to,
        }
    }
}
