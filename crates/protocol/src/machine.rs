//! The per-site protocol state machine.
//!
//! One [`SiteMachine`] holds everything a site needs to *decide* what the
//! propagation protocol does next — incoming subtransaction queues, the
//! DAG(T) site timestamp, BackEdge prepared-special bookkeeping — and
//! nothing it needs to *do* it. Every state transition is a call to
//! [`SiteMachine::on_input`], which returns the [`Command`]s the driver
//! must carry out. The machine never blocks, never sleeps, never
//! allocates a transaction id, and never looks at a clock: timers are
//! inputs ([`Input::HeartbeatTick`], [`Input::EpochTick`]) fired by the
//! driver, and durations live entirely on the driver's side.
//!
//! The split of responsibilities:
//!
//! * **machine** — queue admission (which parent link feeds which queue),
//!   the DAG(T) §3.2.3 minimum-timestamp scheduling rule, dummy and epoch
//!   handling (§3.3), tree routing (§2 relevant children), the BackEdge
//!   eager special phase (§4.1: farthest-ancestor targeting, the
//!   prepare/forward snake, home arrival through the FIFO queue,
//!   decisions), and abort tombstones.
//! * **driver** — executing [`Command::Apply`] against a real store
//!   (locks, CPU cost, WAL, metrics), shipping [`Command::Send`] payloads
//!   over a transport with reliable-FIFO delivery, allocating transaction
//!   ids, measuring idleness for heartbeats, and arming real timeouts.
//!
//! The driver reports completion of the slow commands back as inputs
//! ([`Input::Applied`], [`Input::Prepared`]), which is what lets the
//! simulator stretch an apply over simulated lock waits while the live
//! runtime finishes it synchronously — same machine, same decisions.

use alloc::collections::{BTreeMap, BTreeSet, VecDeque};
use alloc::sync::Arc;
use alloc::vec;
use alloc::vec::Vec;
use core::fmt;

use repl_copygraph::{CopyGraph, DataPlacement, PropagationTree};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

use crate::digest::StableDigest;
use crate::digest::{digest_gid, digest_site, digest_subtxn, digest_timestamp, digest_writes};
use crate::route::{destinations, dummy_gid, writes_for_site};
use crate::timestamp::Timestamp;
use crate::wire::{Payload, Subtxn, SubtxnKind};

/// Which propagation protocol a machine runs.
///
/// Only the four *propagation* protocols have a machine. The PSL and
/// Eager baselines are synchronous locking schemes with no propagation
/// state: their *names* live here too ([`ProtocolKind`]), their logic
/// stays in the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolId {
    /// Indiscriminate direct propagation (Example 1.1's failure mode).
    NaiveLazy,
    /// DAG(WT): tree-routed FIFO forwarding (§2).
    DagWt,
    /// DAG(T): timestamped propagation with dummies and epochs (§3).
    DagT,
    /// BackEdge: DAG(WT) plus the eager special phase for back edges (§4).
    BackEdge,
}

impl ProtocolId {
    /// The protocol's display name (shared by figures and fingerprints).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolId::NaiveLazy => "NaiveLazy",
            ProtocolId::DagWt => "DAG(WT)",
            ProtocolId::DagT => "DAG(T)",
            ProtocolId::BackEdge => "BackEdge",
        }
    }

    /// Parse a command-line/config spelling; every [`ProtocolId::name`]
    /// parses back to its protocol.
    pub fn parse(s: &str) -> Option<ProtocolId> {
        match s.to_ascii_lowercase().as_str() {
            "dagwt" | "dag(wt)" | "dag-wt" => Some(ProtocolId::DagWt),
            "dagt" | "dag(t)" | "dag-t" => Some(ProtocolId::DagT),
            "backedge" | "back-edge" => Some(ProtocolId::BackEdge),
            "naive" | "naivelazy" | "naive-lazy" => Some(ProtocolId::NaiveLazy),
            _ => None,
        }
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Every protocol a deployment or an experiment can name: the four
/// propagation protocols and the two baselines that have no machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolKind {
    /// Indiscriminate lazy propagation — the commercial-style strawman of
    /// §1/Example 1.1. **Not serializable**; included to demonstrate the
    /// anomaly against the checker.
    NaiveLazy,
    /// DAG(WT): lazy propagation along a propagation tree, FIFO per
    /// parent (§2). Requires an acyclic copy graph.
    DagWt,
    /// DAG(T): lazy propagation along copy-graph edges, ordered by
    /// timestamps with epochs (§3). Requires an acyclic copy graph whose
    /// site numbering is a topological order.
    DagT,
    /// BackEdge: eager along backedges, DAG(WT)-lazy elsewhere (§4).
    /// Handles arbitrary copy graphs.
    BackEdge,
    /// Primary-site locking (§5.1): remote S-locks + value shipping for
    /// replica reads, no explicit propagation. The paper's baseline.
    Psl,
    /// Eager read-one-write-all with a commit broadcast (the §1
    /// motivation for laziness; not in the paper's measurements).
    Eager,
}

impl ProtocolKind {
    /// All protocols, for exhaustive test sweeps.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::NaiveLazy,
        ProtocolKind::DagWt,
        ProtocolKind::DagT,
        ProtocolKind::BackEdge,
        ProtocolKind::Psl,
        ProtocolKind::Eager,
    ];

    /// All protocols that guarantee serializability.
    pub const SERIALIZABLE: [ProtocolKind; 5] = [
        ProtocolKind::DagWt,
        ProtocolKind::DagT,
        ProtocolKind::BackEdge,
        ProtocolKind::Psl,
        ProtocolKind::Eager,
    ];

    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::NaiveLazy => "NaiveLazy",
            ProtocolKind::DagWt => "DAG(WT)",
            ProtocolKind::DagT => "DAG(T)",
            ProtocolKind::BackEdge => "BackEdge",
            ProtocolKind::Psl => "PSL",
            ProtocolKind::Eager => "Eager",
        }
    }

    /// True if the protocol requires the copy graph to be a DAG.
    pub fn requires_dag(self) -> bool {
        matches!(self, ProtocolKind::DagWt | ProtocolKind::DagT)
    }

    /// The machine this protocol runs on, or `None` for the baselines,
    /// which never ship a subtransaction.
    pub fn propagation(self) -> Option<ProtocolId> {
        match self {
            ProtocolKind::NaiveLazy => Some(ProtocolId::NaiveLazy),
            ProtocolKind::DagWt => Some(ProtocolId::DagWt),
            ProtocolKind::DagT => Some(ProtocolId::DagT),
            ProtocolKind::BackEdge => Some(ProtocolId::BackEdge),
            ProtocolKind::Psl | ProtocolKind::Eager => None,
        }
    }
}

impl From<ProtocolId> for ProtocolKind {
    fn from(id: ProtocolId) -> Self {
        match id {
            ProtocolId::NaiveLazy => ProtocolKind::NaiveLazy,
            ProtocolId::DagWt => ProtocolKind::DagWt,
            ProtocolId::DagT => ProtocolKind::DagT,
            ProtocolId::BackEdge => ProtocolKind::BackEdge,
        }
    }
}

/// A typed protocol violation. Construction errors (a tree protocol
/// without a tree) surface at cluster build time; step errors (a frame
/// from a site the protocol has no link from) indicate a routing bug or
/// a misconfigured peer and poison the affected site rather than
/// panicking the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// A tree-routed protocol was built without a propagation tree.
    MissingTree {
        /// The protocol that required the tree.
        protocol: ProtocolId,
    },
    /// A subtransaction arrived from a site this machine has no incoming
    /// protocol link from.
    UnknownLink {
        /// The receiving site.
        at: SiteId,
        /// The claimed sender.
        from: SiteId,
    },
    /// A DAG(T) subtransaction arrived without a timestamp.
    MissingTimestamp {
        /// The unstamped record.
        gid: GlobalTxnId,
    },
    /// A prepared BackEdge special found no tree route back toward its
    /// origin.
    NoRouteToOrigin {
        /// The site holding the prepared special.
        at: SiteId,
        /// The origin it must reach.
        origin: SiteId,
    },
    /// The driver reported [`Input::Applied`] for a subtransaction that
    /// is not the one in the applier slot. The machine changes nothing
    /// on this error.
    OutOfOrderCompletion {
        /// The subtransaction reported applied.
        gid: GlobalTxnId,
        /// The subtransaction in the slot (`None`: nothing was in
        /// flight).
        front: Option<GlobalTxnId>,
    },
    /// A driver was handed [`Command::ApplyMany`] or
    /// [`Command::SendBatch`], which no machine emits. Raised by the
    /// driver, not by the machine: it is the machine's invariant that
    /// was broken.
    UnrequestedBatch {
        /// The site whose machine emitted the command.
        at: SiteId,
    },
    /// [`Input::EpochTick`] at a site with copy-graph parents. Epochs
    /// dominate the timestamp comparison, so a bump there would order
    /// the site's next local transactions after every parent update it
    /// has not applied yet (§3.3 bumps at the sources). The machine
    /// changes nothing on this error.
    EpochAtNonSource {
        /// The site that was fed the tick.
        at: SiteId,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::MissingTree { protocol } => {
                write!(f, "{protocol} requires a propagation tree")
            }
            ProtocolError::UnknownLink { at, from } => {
                write!(f, "{at} has no incoming protocol link from {from}")
            }
            ProtocolError::MissingTimestamp { gid } => {
                write!(f, "DAG(T) record {gid} carries no timestamp")
            }
            ProtocolError::NoRouteToOrigin { at, origin } => {
                write!(f, "{at} has no tree route toward origin {origin}")
            }
            ProtocolError::OutOfOrderCompletion { gid, front: Some(front) } => {
                write!(f, "{gid} reported applied while {front} holds the applier slot")
            }
            ProtocolError::OutOfOrderCompletion { gid, front: None } => {
                write!(f, "{gid} reported applied with nothing in flight")
            }
            ProtocolError::UnrequestedBatch { at } => {
                write!(f, "{at} emitted a batched command, which no machine emits")
            }
            ProtocolError::EpochAtNonSource { at } => {
                write!(f, "{at} has copy-graph parents and may not bump its epoch")
            }
        }
    }
}

impl core::error::Error for ProtocolError {}

/// An event fed into the machine by its driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Input {
    /// A local transaction finished executing and wants to commit.
    /// `writes` is its final write set (one entry per item). The machine
    /// answers with [`Command::CommitLocal`] when the commit may proceed
    /// immediately, or starts the BackEdge eager phase (§4.1) and
    /// withholds `CommitLocal` until the special comes home.
    CommitIntent {
        /// The committing transaction.
        gid: GlobalTxnId,
        /// Its write set.
        writes: Vec<(ItemId, Value)>,
    },
    /// The local commit of `gid` is durable; propagate it.
    Committed {
        /// The committed transaction.
        gid: GlobalTxnId,
        /// Its write set.
        writes: Vec<(ItemId, Value)>,
    },
    /// A payload arrived on the reliable FIFO link from `from`.
    Deliver {
        /// The sending site.
        from: SiteId,
        /// The delivered payload.
        payload: Payload,
    },
    /// The driver finished a [`Command::Apply`] for `gid`.
    Applied {
        /// The applied subtransaction.
        gid: GlobalTxnId,
    },
    /// The driver finished a [`Command::Prepare`] for `gid`: writes are
    /// executed and the prepared state is held (locks in the simulator).
    Prepared {
        /// The prepared special.
        gid: GlobalTxnId,
    },
    /// The driver aborted the eager phase of local transaction `gid`
    /// (deadlock victimization or timeout).
    AbortEager {
        /// The abandoned eager transaction.
        gid: GlobalTxnId,
    },
    /// DAG(T) heartbeat timer: `idle_children` are the copy-graph
    /// children whose links have been quiet for at least one heartbeat
    /// period (idleness is a clock question, so the driver computes it).
    HeartbeatTick {
        /// Children due for a dummy.
        idle_children: Vec<SiteId>,
    },
    /// DAG(T) epoch timer (§3.3): increment the epoch number. Only a
    /// copy-graph source ([`SiteMachine::is_source`]) takes it; anywhere
    /// else it is refused with [`ProtocolError::EpochAtNonSource`].
    EpochTick,
    /// The site crashed: volatile protocol state (in-flight applies,
    /// prepared specials, pending eager phases) is lost; queue contents
    /// survive because the reliable link layer redelivers anything not
    /// durably applied.
    Crashed,
}

/// An effect the driver must carry out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Commit the locally waiting transaction `gid` now.
    CommitLocal {
        /// The transaction to commit.
        gid: GlobalTxnId,
    },
    /// Apply `writes` (already filtered to this site's copies; possibly
    /// empty) as secondary subtransaction `gid`, then feed back
    /// [`Input::Applied`].
    Apply {
        /// The subtransaction to apply.
        gid: GlobalTxnId,
        /// The writes relevant at this site.
        writes: Vec<(ItemId, Value)>,
    },
    /// Execute `writes` for BackEdge special `gid` and hold them
    /// prepared (§4.1), then feed back [`Input::Prepared`]. `queued` is
    /// true when the special occupied the applier slot (it arrived
    /// through the FIFO queue rather than directly from its origin).
    Prepare {
        /// The special to prepare.
        gid: GlobalTxnId,
        /// The site whose eager phase this special belongs to (drivers
        /// that break deadlocks route abort requests there).
        origin: SiteId,
        /// The writes relevant at this site.
        writes: Vec<(ItemId, Value)>,
        /// Whether the applier slot is held while preparing.
        queued: bool,
    },
    /// Commit the prepared writes of special `gid`.
    CommitPrepared {
        /// The decided special.
        gid: GlobalTxnId,
        /// The writes that were held prepared.
        writes: Vec<(ItemId, Value)>,
    },
    /// Discard the prepared (or still-preparing) state of special `gid`.
    AbortPrepared {
        /// The aborted special.
        gid: GlobalTxnId,
    },
    /// Ship `payload` on the reliable FIFO link to `to`.
    Send {
        /// The destination site.
        to: SiteId,
        /// The payload to ship.
        payload: Payload,
    },
    /// Nothing emits this. It named the coalesced sends of the removed
    /// batching study; the variant stays only because the benchmark
    /// package's probe still matches it, and it goes when that arm does.
    /// A driver handed it reports [`ProtocolError::UnrequestedBatch`].
    SendBatch,
    /// Nothing emits this. It named the overlapped applies of the
    /// removed apply window; it stays, and goes, with
    /// [`Command::SendBatch`].
    ApplyMany,
    /// Arm a safety timeout for the eager phase of `gid` (drivers
    /// without timeout machinery may ignore this).
    ArmEagerTimeout {
        /// The transaction whose eager phase just started.
        gid: GlobalTxnId,
    },
}

/// A deliberately seeded protocol bug, for verifying that the `replmc`
/// model checker (and any other correctness harness) actually detects
/// protocol violations.
///
/// Production drivers never set one of these; they exist so a test can
/// ask "if the machine *were* wrong in this known way, would the
/// checker catch it?" — the protocol-machine analogue of the fault
/// plans the simulator uses for crash testing. Each variant disables
/// one load-bearing rule of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeededBug {
    /// DAG(T): ignore the §3.2.3 minimum-timestamp scheduling rule and
    /// greedily run the first non-empty queue, even while other queues
    /// are empty. Breaks the total-order apply discipline Theorem 3.1
    /// rests on.
    SkipMinTimestamp,
    /// DAG(WT)/BackEdge: "forget" to forward an applied subtransaction
    /// to the relevant tree children (§2's atomic commit-and-forward).
    /// Updates strand at interior sites and replicas diverge.
    SkipForward,
}

/// The subtransaction occupying a site's applier slot.
#[derive(Clone)]
struct InFlight {
    /// The admitted record.
    sub: Subtxn,
    /// The queue it was admitted from (a crash puts it back there).
    queue: usize,
    /// True when the slot holds a BackEdge special executing toward
    /// prepared rather than a normal apply.
    prepare: bool,
}

/// The pure protocol state machine for one site. See the module docs for
/// the machine/driver split.
#[derive(Clone)]
pub struct SiteMachine {
    me: SiteId,
    protocol: ProtocolId,
    placement: Arc<DataPlacement>,
    graph: Arc<CopyGraph>,
    tree: Option<Arc<PropagationTree>>,
    /// Incoming subtransaction queues, keyed by sender. NaiveLazy: one
    /// arrival-ordered catch-all (keyed by the local site). DAG(WT)/
    /// BackEdge: the tree parent's queue. DAG(T): one per copy-graph
    /// parent.
    queues: Vec<(SiteId, VecDeque<Subtxn>)>,
    /// The applier slot: the one admitted subtransaction being applied
    /// (or, for a queued BackEdge special, prepared). One at a time is
    /// §3.2.3's simplifying assumption and what FIFO commit order in
    /// DAG(WT) requires.
    busy: Option<InFlight>,
    /// DAG(T) local transaction counter (§3.1).
    lts: u64,
    /// DAG(T) site timestamp (§3.2).
    site_ts: Timestamp,
    /// BackEdge specials executing toward prepared, by gid (direct
    /// arrivals from the origin; a queued one lives in `busy`).
    preparing: BTreeMap<GlobalTxnId, Subtxn>,
    /// BackEdge specials holding prepared writes, awaiting a decision.
    prepared: BTreeMap<GlobalTxnId, Vec<(ItemId, Value)>>,
    /// Eager phases this site originated: gid → the path of sites that
    /// prepared the special and must receive the decision (§4.1).
    pending_eager: BTreeMap<GlobalTxnId, Vec<SiteId>>,
    /// Aborted eager gids whose special may still arrive; consumed on
    /// arrival.
    tombstones: BTreeSet<GlobalTxnId>,
    /// A deliberately injected protocol bug ([`SeededBug`]), used only
    /// by correctness harnesses; `None` in every production driver.
    bug: Option<SeededBug>,
}

impl fmt::Debug for SiteMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SiteMachine")
            .field("me", &self.me)
            .field("protocol", &self.protocol)
            .field("queues", &self.queue_summary())
            .field("busy", &self.busy_gid())
            .field("site_ts", &self.site_ts)
            .finish_non_exhaustive()
    }
}

impl SiteMachine {
    /// Heap bytes of the machine's queues and maps: the queues'
    /// capacities and the records they hold, and a map entry as its key
    /// and value (neither a B-tree's nodes nor what an entry's vector
    /// holds: those are in-flight BackEdge specials, gone at rest). The
    /// placement, graph and tree are shared, not the machine's.
    pub fn heap_bytes(&self) -> usize {
        fn record(sub: &Subtxn) -> usize {
            sub.writes.capacity() * size_of::<(ItemId, Value)>()
                + sub.dest_sites.capacity() * size_of::<SiteId>()
                + sub.ts.as_ref().map_or(0, Timestamp::heap_bytes)
        }
        let queues: usize = self
            .queues
            .iter()
            .map(|(_, q)| q.capacity() * size_of::<Subtxn>() + q.iter().map(record).sum::<usize>())
            .sum();
        let entry = size_of::<GlobalTxnId>();
        self.queues.capacity() * size_of::<(SiteId, VecDeque<Subtxn>)>()
            + queues
            + self.busy.as_ref().map_or(0, |busy| record(&busy.sub))
            + self.site_ts.heap_bytes()
            + self.preparing.len() * (entry + size_of::<Subtxn>())
            + self.prepared.len() * (entry + size_of::<Vec<(ItemId, Value)>>())
            + self.pending_eager.len() * (entry + size_of::<Vec<SiteId>>())
            + self.tombstones.len() * entry
    }

    /// Build the machine for site `me`. Fails with
    /// [`ProtocolError::MissingTree`] if a tree-routed protocol is
    /// configured without a propagation tree.
    pub fn new(
        me: SiteId,
        protocol: ProtocolId,
        placement: Arc<DataPlacement>,
        graph: Arc<CopyGraph>,
        tree: Option<Arc<PropagationTree>>,
    ) -> Result<Self, ProtocolError> {
        if matches!(protocol, ProtocolId::DagWt | ProtocolId::BackEdge) && tree.is_none() {
            return Err(ProtocolError::MissingTree { protocol });
        }
        let queues: Vec<(SiteId, VecDeque<Subtxn>)> = match protocol {
            // A single arrival-ordered catch-all queue (indiscriminate).
            ProtocolId::NaiveLazy => vec![(me, VecDeque::new())],
            // The tree parent's strict-FIFO queue (§2).
            ProtocolId::DagWt | ProtocolId::BackEdge => tree
                .as_ref()
                .and_then(|t| t.parent(me))
                .map(|p| (p, VecDeque::new()))
                .into_iter()
                .collect(),
            // One queue per copy-graph parent (§3.2.3).
            ProtocolId::DagT => graph.parents(me).map(|p| (p, VecDeque::new())).collect(),
        };
        Ok(SiteMachine {
            me,
            protocol,
            placement,
            graph,
            tree,
            queues,
            busy: None,
            lts: 0,
            site_ts: Timestamp::initial(me),
            preparing: BTreeMap::new(),
            prepared: BTreeMap::new(),
            pending_eager: BTreeMap::new(),
            tombstones: BTreeSet::new(),
            bug: None,
        })
    }

    /// Seed a known protocol bug into this machine (verification
    /// harnesses only — see [`SeededBug`]).
    pub fn inject_bug(&mut self, bug: SeededBug) {
        self.bug = Some(bug);
    }

    /// This machine's site.
    pub fn me(&self) -> SiteId {
        self.me
    }

    /// This machine's protocol.
    pub fn protocol(&self) -> ProtocolId {
        self.protocol
    }

    /// True when this site has no copy-graph parents: the only place a
    /// DAG(T) epoch may advance ([`Input::EpochTick`]).
    pub fn is_source(&self) -> bool {
        self.graph.parents(self.me).next().is_none()
    }

    /// The current DAG(T) site timestamp.
    pub fn site_ts(&self) -> &Timestamp {
        &self.site_ts
    }

    /// True when the applier slot is empty and every incoming queue is
    /// empty (the quiescence test drivers poll).
    pub fn secondaries_idle(&self) -> bool {
        self.busy.is_none() && self.queues.iter().all(|(_, q)| q.is_empty())
    }

    /// True when nothing but DAG(T) dummies is queued and nothing is
    /// applying: a recovering site with this property has caught up.
    pub fn no_pending_updates(&self) -> bool {
        self.busy.is_none()
            && self.queues.iter().all(|(_, q)| q.iter().all(|sub| sub.kind == SubtxnKind::Dummy))
    }

    /// Queue occupancy by sender, for stall diagnostics.
    pub fn queue_summary(&self) -> Vec<(SiteId, usize)> {
        self.queues.iter().map(|(s, q)| (*s, q.len())).collect()
    }

    /// The subtransaction in the applier slot, if any.
    pub fn busy_gid(&self) -> Option<GlobalTxnId> {
        self.busy.as_ref().map(|f| f.sub.gid)
    }

    /// Absorb this machine's full protocol state into `d`, canonically.
    ///
    /// Two machines with equal state produce equal digests regardless of
    /// how that state was reached: every internal collection iterates in
    /// a deterministic order (`Vec` insertion order for queues, key
    /// order for the BTree maps/sets) and every variable-length field is
    /// length-prefixed. The static configuration (placement, copy graph,
    /// tree) is *not* hashed — callers fingerprinting a fleet share one
    /// configuration and hash the things that vary.
    ///
    /// This is the state-identity the `replmc` model checker
    /// deduplicates on; widening the machine with a new piece of mutable
    /// state without extending this method would silently merge distinct
    /// states, so keep the two in lockstep.
    pub fn fingerprint(&self, d: &mut StableDigest) {
        digest_site(d, self.me);
        d.write_u8(match self.protocol {
            ProtocolId::NaiveLazy => 0,
            ProtocolId::DagWt => 1,
            ProtocolId::DagT => 2,
            ProtocolId::BackEdge => 3,
        });
        d.write_usize(self.queues.len());
        for (sender, q) in &self.queues {
            digest_site(d, *sender);
            d.write_usize(q.len());
            for sub in q {
                digest_subtxn(d, sub);
            }
        }
        // A slot count of 0 or 1, then the entry: the bytes a window of
        // in-flight entries wrote, so digests predating the single slot
        // still match.
        d.write_usize(usize::from(self.busy.is_some()));
        if let Some(f) = &self.busy {
            digest_subtxn(d, &f.sub);
            d.write_usize(f.queue);
            d.write_u8(u8::from(f.prepare));
        }
        d.write_u64(self.lts);
        digest_timestamp(d, &self.site_ts);
        d.write_usize(self.preparing.len());
        for (gid, sub) in &self.preparing {
            digest_gid(d, *gid);
            digest_subtxn(d, sub);
        }
        d.write_usize(self.prepared.len());
        for (gid, writes) in &self.prepared {
            digest_gid(d, *gid);
            digest_writes(d, writes);
        }
        d.write_usize(self.pending_eager.len());
        for (gid, path) in &self.pending_eager {
            digest_gid(d, *gid);
            d.write_usize(path.len());
            for s in path {
                digest_site(d, *s);
            }
        }
        d.write_usize(self.tombstones.len());
        for gid in &self.tombstones {
            digest_gid(d, *gid);
        }
    }

    /// Advance the machine by one input. The returned commands must be
    /// carried out in order.
    pub fn on_input(&mut self, input: Input) -> Result<Vec<Command>, ProtocolError> {
        let mut out = Vec::new();
        match input {
            Input::CommitIntent { gid, writes } => self.commit_intent(gid, writes, &mut out),
            Input::Committed { gid, writes } => self.committed(gid, &writes, &mut out)?,
            Input::Deliver { from, payload } => self.deliver(from, payload, &mut out)?,
            Input::Applied { gid } => self.applied(gid, &mut out)?,
            Input::Prepared { gid } => self.prepared_done(gid, &mut out)?,
            Input::AbortEager { gid } => self.abort_eager(gid, &mut out),
            Input::HeartbeatTick { idle_children } => self.heartbeat(&idle_children, &mut out),
            Input::EpochTick if self.is_source() => self.site_ts.epoch += 1,
            Input::EpochTick => return Err(ProtocolError::EpochAtNonSource { at: self.me }),
            Input::Crashed => self.crashed(),
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Local commits.
    // ------------------------------------------------------------------

    /// §4.1 step 1: if any destination is a tree ancestor, the commit
    /// must wait for the eager special phase; otherwise it may proceed
    /// immediately (every protocol but BackEdge always may).
    fn commit_intent(
        &mut self,
        gid: GlobalTxnId,
        writes: Vec<(ItemId, Value)>,
        out: &mut Vec<Command>,
    ) {
        if self.protocol == ProtocolId::BackEdge {
            let tree = self.tree.as_ref().expect("validated at construction");
            let dests = destinations(&self.placement, self.me, &writes);
            let ancestors: Vec<SiteId> =
                dests.iter().copied().filter(|&d| tree.is_ancestor(d, self.me)).collect();
            if let Some(&farthest) = ancestors.iter().min_by_key(|&&a| (tree.depth(a), a)) {
                // The special visits every site on the tree path from the
                // farthest ancestor back down to (but excluding) us; each
                // prepares it and passes it along (§4.1 step 2).
                let mut path = vec![farthest];
                let mut cur = farthest;
                while let Some(next) = tree.next_hop_toward(cur, self.me) {
                    if next == self.me {
                        break;
                    }
                    path.push(next);
                    cur = next;
                }
                self.pending_eager.insert(gid, path);
                let special = Subtxn {
                    gid,
                    origin: self.me,
                    kind: SubtxnKind::Special,
                    ts: None,
                    writes,
                    dest_sites: Vec::new(),
                };
                out.push(Command::Send { to: farthest, payload: Payload::Subtxn(special) });
                out.push(Command::ArmEagerTimeout { gid });
                return;
            }
        }
        out.push(Command::CommitLocal { gid });
    }

    /// Commit-time propagation (§2 / §3.2.2 / §4.1 step 4).
    fn committed(
        &mut self,
        gid: GlobalTxnId,
        writes: &[(ItemId, Value)],
        out: &mut Vec<Command>,
    ) -> Result<(), ProtocolError> {
        let dests = destinations(&self.placement, self.me, writes);
        if let Some(path) = self.pending_eager.remove(&gid) {
            // The eager phase succeeded: decisions to the prepared path,
            // ordinary lazy propagation to tree descendants.
            let tree = self.tree.as_ref().expect("validated at construction");
            for p in path {
                out.push(Command::Send { to: p, payload: Payload::Decision { gid, commit: true } });
            }
            let descendants: Vec<SiteId> =
                dests.iter().copied().filter(|&d| tree.is_ancestor(self.me, d)).collect();
            if !descendants.is_empty() {
                let sub = Subtxn {
                    gid,
                    origin: self.me,
                    kind: SubtxnKind::Normal,
                    ts: None,
                    writes: writes.to_vec(),
                    dest_sites: descendants,
                };
                self.forward_down_tree(&sub, out);
            }
            return Ok(());
        }
        match self.protocol {
            ProtocolId::NaiveLazy => {
                // Blast directly to every replica site, in whatever order
                // the network delivers — Example 1.1's failure mode.
                for d in dests {
                    let sub = Subtxn {
                        gid,
                        origin: self.me,
                        kind: SubtxnKind::Normal,
                        ts: None,
                        writes: writes_for_site(&self.placement, d, writes),
                        dest_sites: vec![d],
                    };
                    out.push(Command::Send { to: d, payload: Payload::Subtxn(sub) });
                }
            }
            ProtocolId::DagWt | ProtocolId::BackEdge => {
                // §2: forward once down the tree to relevant children.
                let sub = Subtxn {
                    gid,
                    origin: self.me,
                    kind: SubtxnKind::Normal,
                    ts: None,
                    writes: writes.to_vec(),
                    dest_sites: dests,
                };
                self.forward_down_tree(&sub, out);
            }
            ProtocolId::DagT => {
                // §3.2.2: bump LTS, stamp, send directly to every
                // relevant copy-graph child (every destination is one, by
                // construction).
                self.lts += 1;
                self.site_ts.bump_local(self.me);
                let ts = self.site_ts.clone();
                for d in dests {
                    debug_assert!(
                        self.graph.has_edge(self.me, d),
                        "DAG(T) destination {d} is not a copy-graph child of {}",
                        self.me
                    );
                    let sub = Subtxn {
                        gid,
                        origin: self.me,
                        kind: SubtxnKind::Normal,
                        ts: Some(ts.clone()),
                        writes: writes_for_site(&self.placement, d, writes),
                        dest_sites: vec![d],
                    };
                    out.push(Command::Send { to: d, payload: Payload::Subtxn(sub) });
                }
            }
        }
        Ok(())
    }

    /// Tear down an eager phase this site originated: abort decisions to
    /// every path site, and a tombstone in case the special still comes
    /// home through the queue.
    fn abort_eager(&mut self, gid: GlobalTxnId, out: &mut Vec<Command>) {
        if let Some(path) = self.pending_eager.remove(&gid) {
            self.tombstones.insert(gid);
            for p in path {
                out.push(Command::Send {
                    to: p,
                    payload: Payload::Decision { gid, commit: false },
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Link deliveries.
    // ------------------------------------------------------------------

    fn deliver(
        &mut self,
        from: SiteId,
        payload: Payload,
        out: &mut Vec<Command>,
    ) -> Result<(), ProtocolError> {
        match payload {
            Payload::Decision { gid, commit } => self.decision(gid, commit, out),
            Payload::Subtxn(sub) => {
                // A special arriving from anywhere but our queue parent is
                // the origin's direct send to its farthest ancestor
                // (§4.1 step 1): prepare it without the applier slot.
                if sub.kind == SubtxnKind::Special && self.queue_index(from).is_none() {
                    return self.direct_special(sub, out);
                }
                let qi = match self.protocol {
                    ProtocolId::NaiveLazy => 0,
                    _ => self
                        .queue_index(from)
                        .ok_or(ProtocolError::UnknownLink { at: self.me, from })?,
                };
                self.queues[qi].1.push_back(sub);
                self.pump(out)
            }
        }
    }

    /// A commit/abort decision for a prepared (or still-preparing)
    /// special (§4.1 step 4).
    fn decision(
        &mut self,
        gid: GlobalTxnId,
        commit: bool,
        out: &mut Vec<Command>,
    ) -> Result<(), ProtocolError> {
        if let Some(writes) = self.prepared.remove(&gid) {
            out.push(if commit {
                Command::CommitPrepared { gid, writes }
            } else {
                Command::AbortPrepared { gid }
            });
        } else if self.preparing.remove(&gid).is_some() {
            // Still executing toward prepared: only an abort can race the
            // Prepared report (a commit decision is triggered by the
            // special coming home, which requires our forward first).
            debug_assert!(!commit, "commit decision for a special not yet prepared");
            out.push(Command::AbortPrepared { gid });
        } else if self.take_prepare(gid).is_some() {
            debug_assert!(!commit, "commit decision for a special not yet prepared");
            out.push(Command::AbortPrepared { gid });
            // The applier slot is free again; schedule the next arrival.
            self.pump(out)?;
        } else if !commit {
            // The special has not arrived yet: leave a tombstone so it is
            // dropped on arrival.
            self.tombstones.insert(gid);
        }
        Ok(())
    }

    /// §4.1 step 2 at the farthest ancestor (or any site the origin
    /// addresses directly): execute and hold prepared, off the queue.
    fn direct_special(&mut self, sub: Subtxn, out: &mut Vec<Command>) -> Result<(), ProtocolError> {
        if self.tombstones.remove(&sub.gid) {
            return Ok(());
        }
        let writes = writes_for_site(&self.placement, self.me, &sub.writes);
        let gid = sub.gid;
        let origin = sub.origin;
        self.preparing.insert(gid, sub);
        out.push(Command::Prepare { gid, origin, writes, queued: false });
        Ok(())
    }

    /// The driver holds `gid` prepared: forward the special one hop down
    /// the tree path toward its origin (§4.1 step 2).
    fn prepared_done(
        &mut self,
        gid: GlobalTxnId,
        out: &mut Vec<Command>,
    ) -> Result<(), ProtocolError> {
        let (sub, from_queue) = if let Some(inflight) = self.take_prepare(gid) {
            (inflight.sub, true)
        } else if let Some(sub) = self.preparing.remove(&gid) {
            (sub, false)
        } else {
            // Aborted while the driver was executing it; nothing to hold.
            return Ok(());
        };
        let writes = writes_for_site(&self.placement, self.me, &sub.writes);
        self.prepared.insert(gid, writes);
        let tree = self.tree.as_ref().expect("validated at construction");
        let next = tree
            .next_hop_toward(self.me, sub.origin)
            .ok_or(ProtocolError::NoRouteToOrigin { at: self.me, origin: sub.origin })?;
        out.push(Command::Send { to: next, payload: Payload::Subtxn(sub) });
        if from_queue {
            self.pump(out)?;
        }
        Ok(())
    }

    /// The driver finished applying the subtransaction in the slot:
    /// forward (DAG(WT)/BackEdge) or merge the timestamp (DAG(T)), then
    /// schedule the next one.
    fn applied(&mut self, gid: GlobalTxnId, out: &mut Vec<Command>) -> Result<(), ProtocolError> {
        let inflight = match self.busy.take() {
            Some(f) if f.sub.gid == gid => f,
            other => {
                let front = other.as_ref().map(|f| f.sub.gid);
                self.busy = other;
                return Err(ProtocolError::OutOfOrderCompletion { gid, front });
            }
        };
        match self.protocol {
            ProtocolId::DagWt | ProtocolId::BackEdge => {
                // §2: committed secondaries are forwarded to relevant
                // children, atomically with commit order — unless the
                // seeded forwarding bug is strand-testing the checker.
                if self.bug != Some(SeededBug::SkipForward) {
                    self.forward_down_tree(&inflight.sub, out);
                }
            }
            ProtocolId::DagT => self.merge_ts(&inflight.sub)?,
            ProtocolId::NaiveLazy => {}
        }
        self.pump(out)
    }

    // ------------------------------------------------------------------
    // Queue scheduling.
    // ------------------------------------------------------------------

    /// While the slot is free and the protocol's ordering rule picks a
    /// queue head, start it. Dummies and home-coming specials are
    /// consumed inline (they occupy no applier time), so this loops
    /// until the slot is taken or nothing is admissible.
    fn pump(&mut self, out: &mut Vec<Command>) -> Result<(), ProtocolError> {
        while let Some(qi) = self.pick()? {
            let sub = self.queues[qi].1.pop_front().expect("picked queue is non-empty");
            match sub.kind {
                SubtxnKind::Dummy => {
                    // §3.3: dummies only push the site timestamp forward.
                    self.merge_ts(&sub)?;
                }
                SubtxnKind::Special => {
                    if self.tombstones.remove(&sub.gid) {
                        // Its origin aborted the eager phase; drop it.
                        continue;
                    }
                    if sub.origin == self.me {
                        // It came home through the FIFO queue — everything
                        // received before it has committed, so the waiting
                        // primary may now commit (§4.1 step 3).
                        if self.pending_eager.contains_key(&sub.gid) {
                            out.push(Command::CommitLocal { gid: sub.gid });
                        }
                        continue;
                    }
                    // A mid-path special: prepare it in the applier slot
                    // (it holds the slot until the driver reports
                    // Prepared, keeping FIFO commit order behind it).
                    let writes = writes_for_site(&self.placement, self.me, &sub.writes);
                    let gid = sub.gid;
                    let origin = sub.origin;
                    self.busy = Some(InFlight { sub, queue: qi, prepare: true });
                    out.push(Command::Prepare { gid, origin, writes, queued: true });
                }
                SubtxnKind::Normal => {
                    let writes = writes_for_site(&self.placement, self.me, &sub.writes);
                    let gid = sub.gid;
                    self.busy = Some(InFlight { sub, queue: qi, prepare: false });
                    out.push(Command::Apply { gid, writes });
                }
            }
        }
        Ok(())
    }

    /// Index of the queue fed by `from`, if any.
    fn queue_index(&self, from: SiteId) -> Option<usize> {
        self.queues.iter().position(|(s, _)| *s == from)
    }

    /// The queue whose head may start now under the protocol's ordering
    /// rule; `None` while the slot is taken or nothing is admissible.
    fn pick(&self) -> Result<Option<usize>, ProtocolError> {
        if self.busy.is_some() {
            return Ok(None);
        }
        match self.protocol {
            ProtocolId::DagT => self.pick_min_timestamp(),
            // First (only) non-empty queue, strict FIFO.
            _ => Ok(self.queues.iter().position(|(_, q)| !q.is_empty())),
        }
    }

    /// DAG(T) §3.2.3: only when every incoming queue is non-empty, pick
    /// the minimum-timestamp head (ties to the lowest queue index).
    fn pick_min_timestamp(&self) -> Result<Option<usize>, ProtocolError> {
        if self.queues.is_empty() {
            return Ok(None);
        }
        if self.bug == Some(SeededBug::SkipMinTimestamp) {
            // Seeded bug: greedy FIFO without the wait-for-all-queues
            // minimum rule (what the checker must catch).
            return Ok(self.queues.iter().position(|(_, q)| !q.is_empty()));
        }
        let mut best: Option<(usize, &Timestamp)> = None;
        for (i, (_, q)) in self.queues.iter().enumerate() {
            // Any empty queue ⇒ wait (progress via dummies, §3.3).
            let Some(head) = q.front() else { return Ok(None) };
            let ts = head.ts.as_ref().ok_or(ProtocolError::MissingTimestamp { gid: head.gid })?;
            match best {
                Some((_, bts)) if ts >= bts => {}
                _ => best = Some((i, ts)),
            }
        }
        Ok(best.map(|(i, _)| i))
    }

    /// Empty the slot if it holds the queued special `gid` (its decision
    /// or its prepared report arrived).
    fn take_prepare(&mut self, gid: GlobalTxnId) -> Option<InFlight> {
        self.busy.take_if(|f| f.prepare && f.sub.gid == gid)
    }

    /// §3.2.3: merge a subtransaction's timestamp into the site
    /// timestamp, guarded so a crash-induced epoch bump (§3.3) is not
    /// regressed by pre-crash-epoch stragglers.
    fn merge_ts(&mut self, sub: &Subtxn) -> Result<(), ProtocolError> {
        let ts = sub.ts.as_ref().ok_or(ProtocolError::MissingTimestamp { gid: sub.gid })?;
        let new_ts = ts.concat_site(self.me, self.lts, ts.epoch);
        if new_ts > self.site_ts {
            self.site_ts = new_ts;
        }
        Ok(())
    }

    /// Forward a subtransaction to the tree children whose subtrees
    /// contain destinations (§2 relevant children).
    fn forward_down_tree(&self, sub: &Subtxn, out: &mut Vec<Command>) {
        let tree = self.tree.as_ref().expect("tree protocol");
        for c in tree.relevant_children(self.me, &sub.dest_sites) {
            out.push(Command::Send { to: c, payload: Payload::Subtxn(sub.clone()) });
        }
    }

    // ------------------------------------------------------------------
    // Timers and faults.
    // ------------------------------------------------------------------

    /// §3.3: dummy subtransactions on idle links so children can always
    /// compute their minimum.
    fn heartbeat(&mut self, idle_children: &[SiteId], out: &mut Vec<Command>) {
        if self.protocol != ProtocolId::DagT {
            return;
        }
        for &c in idle_children {
            debug_assert!(self.graph.has_edge(self.me, c), "heartbeat to non-child {c}");
            let sub = Subtxn {
                gid: dummy_gid(self.me),
                origin: self.me,
                kind: SubtxnKind::Dummy,
                ts: Some(self.site_ts.clone()),
                writes: Vec::new(),
                dest_sites: vec![c],
            };
            out.push(Command::Send { to: c, payload: Payload::Subtxn(sub) });
        }
    }

    /// Crash semantics: the subtransaction in the slot goes back to the
    /// front of its queue (the driver's store rolled it back; the link
    /// layer's durable high-water mark means it will not be
    /// redelivered, so the machine must keep it). All prepare/eager
    /// bookkeeping is volatile and lost. Queue contents and the site
    /// timestamp survive: the former are re-fed by the reliable link
    /// layer's replay against the durable applied marks, the latter is
    /// reconstructed by WAL replay before the machine is consulted
    /// again. Tombstones persist so a post-restart special arrival is
    /// still dropped.
    fn crashed(&mut self) {
        if let Some(f) = self.busy.take() {
            self.queues[f.queue].1.push_front(f.sub);
        }
        self.preparing.clear();
        self.prepared.clear();
        self.pending_eager.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid(seq: u64) -> GlobalTxnId {
        GlobalTxnId::new(SiteId(0), seq)
    }

    #[test]
    fn every_name_parses_back_and_nothing_else_does() {
        for id in [ProtocolId::NaiveLazy, ProtocolId::DagWt, ProtocolId::DagT, ProtocolId::BackEdge]
        {
            assert_eq!(ProtocolId::parse(id.name()), Some(id));
        }
        assert_eq!(ProtocolId::parse("dag-t"), Some(ProtocolId::DagT));
        assert_eq!(ProtocolId::parse("naive"), Some(ProtocolId::NaiveLazy));
        assert_eq!(ProtocolId::parse("eager"), None);
    }

    /// A protocol with a machine names it under the same name, and the
    /// baselines have none.
    #[test]
    fn every_kind_with_a_machine_round_trips_through_its_id() {
        for kind in ProtocolKind::ALL {
            match kind.propagation() {
                Some(id) => {
                    assert_eq!(ProtocolKind::from(id), kind);
                    assert_eq!(id.name(), kind.name());
                }
                None => assert!(matches!(kind, ProtocolKind::Psl | ProtocolKind::Eager)),
            }
        }
    }

    /// Site 1 of a two-site DAG(WT) chain, and two items s0 replicates
    /// there.
    fn replica() -> (SiteMachine, ItemId, ItemId) {
        let mut placement = DataPlacement::new(2);
        let a = placement.add_item(SiteId(0), &[SiteId(1)]);
        let b = placement.add_item(SiteId(0), &[SiteId(1)]);
        let graph = CopyGraph::from_placement(&placement);
        let tree = PropagationTree::chain(&graph).expect("a two-site DAG has a chain tree");
        let m = SiteMachine::new(
            SiteId(1),
            ProtocolId::DagWt,
            Arc::new(placement),
            Arc::new(graph),
            Some(Arc::new(tree)),
        )
        .expect("tree supplied");
        (m, a, b)
    }

    fn deliver(m: &mut SiteMachine, seq: u64, item: ItemId) -> Vec<Command> {
        let sub = Subtxn {
            gid: gid(seq),
            origin: SiteId(0),
            kind: SubtxnKind::Normal,
            ts: None,
            writes: vec![(item, Value::int(seq as i64))],
            dest_sites: vec![SiteId(1)],
        };
        m.on_input(Input::Deliver { from: SiteId(0), payload: Payload::Subtxn(sub) })
            .expect("deliver")
    }

    fn queued(m: &SiteMachine) -> Vec<u64> {
        m.queues[0].1.iter().map(|sub| sub.gid.seq).collect()
    }

    /// One subtransaction at a time: a write-disjoint second arrival
    /// waits in the queue until the first is reported applied.
    #[test]
    fn nothing_is_admitted_while_the_slot_is_busy() {
        let (mut m, a, b) = replica();
        assert!(
            matches!(deliver(&mut m, 1, a)[..], [Command::Apply { gid: g, .. }] if g == gid(1))
        );
        assert_eq!(deliver(&mut m, 2, b), Vec::new());
        assert_eq!(m.busy_gid(), Some(gid(1)));
        assert_eq!(queued(&m), vec![2]);
        assert!(matches!(
            m.on_input(Input::Applied { gid: gid(1) }).expect("applied")[..],
            [Command::Apply { gid: g, .. }] if g == gid(2)
        ));
        assert_eq!(m.on_input(Input::Applied { gid: gid(2) }), Ok(Vec::new()));
        assert!(m.secondaries_idle());
    }

    /// A crash puts the subtransaction in the slot back at the front of
    /// its queue, ahead of the ones queued behind it, and the restarted
    /// machine admits them in the original order.
    #[test]
    fn a_crash_puts_the_slot_back_at_the_front_of_its_queue() {
        let (mut m, a, b) = replica();
        deliver(&mut m, 1, a);
        deliver(&mut m, 2, b);
        deliver(&mut m, 3, a);
        assert_eq!(m.on_input(Input::Crashed), Ok(Vec::new()));
        assert_eq!(m.busy_gid(), None);
        assert_eq!(queued(&m), vec![1, 2, 3]);
        // The next delivery pumps the queue from its restored front.
        assert!(
            matches!(deliver(&mut m, 4, b)[..], [Command::Apply { gid: g, .. }] if g == gid(1))
        );
        assert_eq!(queued(&m), vec![2, 3, 4]);
    }

    /// An `Applied` for a gid that is not in the slot is a typed error
    /// (a driver poisons its site on one) and changes nothing.
    #[test]
    fn an_applied_for_a_gid_not_in_the_slot_is_refused_and_changes_nothing() {
        let (mut m, a, b) = replica();
        deliver(&mut m, 1, a);
        deliver(&mut m, 2, b);
        let before = m.clone();
        let digest = |m: &SiteMachine| {
            let mut d = StableDigest::new();
            m.fingerprint(&mut d);
            d.finish()
        };
        assert_eq!(
            m.on_input(Input::Applied { gid: gid(2) }),
            Err(ProtocolError::OutOfOrderCompletion { gid: gid(2), front: Some(gid(1)) })
        );
        assert_eq!(digest(&m), digest(&before));
        assert!(matches!(
            m.on_input(Input::Applied { gid: gid(1) }).expect("applied")[..],
            [Command::Apply { gid: g, .. }] if g == gid(2)
        ));
        assert_eq!(m.on_input(Input::Applied { gid: gid(2) }), Ok(Vec::new()));
        let idle = m.clone();
        assert_eq!(
            m.on_input(Input::Applied { gid: gid(2) }),
            Err(ProtocolError::OutOfOrderCompletion { gid: gid(2), front: None })
        );
        assert_eq!(digest(&m), digest(&idle));
        assert!(m.secondaries_idle());
    }

    /// Only a copy-graph source bumps its epoch: s1 of the two-site
    /// chain has s0 as a parent and refuses the tick, unchanged.
    #[test]
    fn an_epoch_tick_off_a_source_is_refused_and_changes_nothing() {
        let (mut m, ..) = replica();
        assert!(!m.is_source());
        let before = m.site_ts().clone();
        assert_eq!(
            m.on_input(Input::EpochTick),
            Err(ProtocolError::EpochAtNonSource { at: SiteId(1) })
        );
        assert_eq!(m.site_ts(), &before);
    }
}
