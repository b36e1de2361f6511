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

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use repl_copygraph::{CopyGraph, DataPlacement, PropagationTree};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

use crate::digest::StableDigest;
use crate::digest::{digest_gid, digest_site, digest_subtxn, digest_timestamp, digest_writes};
use crate::route::{destinations, dummy_gid, writes_for_site};
use crate::sched::{ApplyScheduler, InFlight};
use crate::timestamp::Timestamp;
use crate::wire::{Payload, Subtxn, SubtxnKind};

/// Which propagation protocol a machine runs.
///
/// Only the four *propagation* protocols live here; the PSL and Eager
/// baselines are synchronous locking schemes with no propagation state
/// machine and remain simulator-only.
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
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
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
    /// is not the oldest one in the apply window. Completions are
    /// released in admission order; a driver that reports them in any
    /// other order has committed them in that order too.
    OutOfOrderCompletion {
        /// The subtransaction reported applied.
        gid: GlobalTxnId,
        /// The window front it should have been (`None`: nothing was in
        /// flight).
        front: Option<GlobalTxnId>,
    },
    /// A driver that never widened the apply window nor enabled send
    /// coalescing was handed [`Command::ApplyMany`] or
    /// [`Command::SendBatch`]. Raised by such drivers, not by the
    /// machine: it is the machine's invariant that was broken.
    UnrequestedBatch {
        /// The site whose machine emitted the command.
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
                write!(f, "{gid} reported applied ahead of the apply-window front {front}")
            }
            ProtocolError::OutOfOrderCompletion { gid, front: None } => {
                write!(f, "{gid} reported applied with nothing in flight")
            }
            ProtocolError::UnrequestedBatch { at } => {
                write!(f, "{at} emitted a batched command its driver never enabled")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

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
    /// DAG(T) epoch timer (§3.3): increment the epoch number.
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
    /// Ship `payloads` on the reliable FIFO link to `to`, in order, as
    /// one coalesced batch (one simulated message). Equivalent to the
    /// same sequence of [`Command::Send`]s; emitted only when the driver
    /// opted in via [`SiteMachine::set_send_coalescing`] — which only
    /// the simulator does — and only for runs of at least two payloads.
    SendBatch {
        /// The destination site.
        to: SiteId,
        /// The payloads to ship, in send order.
        payloads: Vec<Payload>,
    },
    /// Apply several non-conflicting secondary subtransactions whose
    /// executions may overlap. Admission (vector) order is the serial
    /// order: the driver must commit them in that order and feed back
    /// one [`Input::Applied`] per entry, in that order, even if the
    /// executions themselves ran in parallel. Emitted only when the
    /// driver widened the apply window past 1
    /// ([`SiteMachine::set_apply_window`]) — which only the simulator
    /// does — and only for at least two admissions in one scheduling
    /// pass.
    ApplyMany {
        /// `(gid, site-filtered writes)` per admitted subtransaction,
        /// in admission order.
        subs: Vec<(GlobalTxnId, Vec<(ItemId, Value)>)>,
    },
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

/// The pure protocol state machine for one site. See the module docs for
/// the machine/driver split.
#[derive(Clone)]
pub struct SiteMachine {
    me: SiteId,
    protocol: ProtocolId,
    placement: Arc<DataPlacement>,
    graph: Arc<CopyGraph>,
    tree: Option<Arc<PropagationTree>>,
    /// The partial-order apply scheduler: owns the incoming per-parent
    /// queues and the in-flight window. With the default window of 1 it
    /// is exactly the seed's single applier slot (§3.2.3's simplifying
    /// assumption; what FIFO commit order in DAG(WT) requires).
    sched: ApplyScheduler,
    /// Merge adjacent same-destination sends into [`Command::SendBatch`]
    /// (driver opt-in; off by default so existing drivers see an
    /// unchanged command stream).
    coalesce_sends: bool,
    /// DAG(T) local transaction counter (§3.1).
    lts: u64,
    /// DAG(T) site timestamp (§3.2).
    site_ts: Timestamp,
    /// BackEdge specials executing toward prepared, by gid (direct
    /// arrivals from the origin; queued ones live in `busy`).
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
            .field("window", &self.sched.window())
            .field("site_ts", &self.site_ts)
            .finish_non_exhaustive()
    }
}

impl SiteMachine {
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
            sched: ApplyScheduler::new(queues),
            coalesce_sends: false,
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

    /// The current DAG(T) site timestamp.
    pub fn site_ts(&self) -> &Timestamp {
        &self.site_ts
    }

    /// Widen the apply window to `window` concurrent secondary
    /// subtransactions (clamped to at least 1). With a window above 1
    /// the machine may emit [`Command::ApplyMany`]; the driver must then
    /// overlap executions but commit — and report
    /// [`Input::Applied`] — in admission order, or the machine answers
    /// [`ProtocolError::OutOfOrderCompletion`]. Call once at
    /// construction time, before any input: the window is driver
    /// configuration, not protocol state.
    ///
    /// This and [`SiteMachine::set_send_coalescing`] are the simulator's
    /// `prop_sweep` study: its virtual worker pool overlaps executions
    /// and completes them in admission order. The live site runs one
    /// transaction at a time, so a window there overlapped nothing, and
    /// it never calls either (DESIGN.md §14.4).
    pub fn set_apply_window(&mut self, window: usize) {
        self.sched.set_window(window);
    }

    /// The configured apply window.
    pub fn apply_window(&self) -> usize {
        self.sched.window()
    }

    /// Opt in to [`Command::SendBatch`]: adjacent same-destination sends
    /// in one input's command list are merged into a single batch
    /// command. Off by default; see [`SiteMachine::set_apply_window`]
    /// for who turns it on.
    pub fn set_send_coalescing(&mut self, on: bool) {
        self.coalesce_sends = on;
    }

    /// True when the apply window is empty and every incoming queue is
    /// empty (the quiescence test drivers poll).
    pub fn secondaries_idle(&self) -> bool {
        self.sched.idle()
    }

    /// True when nothing but DAG(T) dummies is queued and nothing is
    /// applying: a recovering site with this property has caught up.
    pub fn no_pending_updates(&self) -> bool {
        self.sched.only_dummies_queued()
    }

    /// Queue occupancy by sender, for stall diagnostics.
    pub fn queue_summary(&self) -> Vec<(SiteId, usize)> {
        self.sched.queue_summary()
    }

    /// The oldest in-flight subtransaction, if any (the only one, under
    /// the default window of 1).
    pub fn busy_gid(&self) -> Option<GlobalTxnId> {
        self.sched.front_gid()
    }

    /// Number of subtransactions currently occupying apply-window slots.
    pub fn inflight_len(&self) -> usize {
        self.sched.inflight_len()
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
        self.sched.fingerprint(d);
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
            Input::EpochTick => self.site_ts.epoch += 1,
            Input::Crashed => self.crashed(),
        }
        if self.coalesce_sends {
            out = coalesce_send_runs(out);
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
                if sub.kind == SubtxnKind::Special && self.sched.queue_index(from).is_none() {
                    return self.direct_special(sub, out);
                }
                let qi = match self.protocol {
                    ProtocolId::NaiveLazy => 0,
                    _ => self
                        .sched
                        .queue_index(from)
                        .ok_or(ProtocolError::UnknownLink { at: self.me, from })?,
                };
                self.sched.enqueue(qi, sub);
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
        } else if self.sched.take_prepare(gid).is_some() {
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
        let (sub, from_queue) = if let Some(inflight) = self.sched.take_prepare(gid) {
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

    /// The driver finished applying the in-flight subtransaction:
    /// forward (DAG(WT)/BackEdge) or merge the timestamp (DAG(T)), then
    /// schedule the next one.
    fn applied(&mut self, gid: GlobalTxnId, out: &mut Vec<Command>) -> Result<(), ProtocolError> {
        // Completions are released in admission order: the driver
        // commits overlapped applies in admission order, so the front of
        // the window is always the next legal completion.
        let Some(inflight) = self.sched.complete_front(gid) else {
            return Err(ProtocolError::OutOfOrderCompletion { gid, front: self.sched.front_gid() });
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

    /// While the scheduler admits something — window capacity free, the
    /// protocol's ordering rule picks a queue head, and (past the first
    /// slot) write sets are disjoint — start it. Dummies and home-coming
    /// specials are consumed inline (they occupy no applier time), so
    /// this loops until nothing is admissible.
    ///
    /// With a window above 1 a single pass may admit several
    /// non-conflicting normals; those are emitted as one
    /// [`Command::ApplyMany`] so the driver can overlap their
    /// executions. A single admission stays a plain [`Command::Apply`],
    /// which keeps the default window's command stream byte-identical to
    /// the seed's single-slot machine.
    fn pump(&mut self, out: &mut Vec<Command>) -> Result<(), ProtocolError> {
        let mut admitted: Vec<(GlobalTxnId, Vec<(ItemId, Value)>)> = Vec::new();
        while let Some(qi) = self.sched.pick(self.protocol, self.bug)? {
            let sub = self.sched.admit(qi);
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
                    self.sched.begin(InFlight { sub, queue: qi, prepare: true });
                    out.push(Command::Prepare { gid, origin, writes, queued: true });
                }
                SubtxnKind::Normal => {
                    let writes = writes_for_site(&self.placement, self.me, &sub.writes);
                    let gid = sub.gid;
                    self.sched.begin(InFlight { sub, queue: qi, prepare: false });
                    admitted.push((gid, writes));
                }
            }
        }
        match admitted.len() {
            0 => {}
            1 => {
                let (gid, writes) = admitted.pop().expect("len checked");
                out.push(Command::Apply { gid, writes });
            }
            _ => out.push(Command::ApplyMany { subs: admitted }),
        }
        Ok(())
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

    /// Crash semantics: every in-flight subtransaction goes back to the
    /// front of its queue (the driver's store rolled them back; the link
    /// layer's durable high-water mark means they will not be
    /// redelivered, so the machine must keep them). All prepare/eager
    /// bookkeeping is volatile and lost. Queue contents and the site
    /// timestamp survive: the former are re-fed by the reliable link
    /// layer's replay against the durable applied marks, the latter is
    /// reconstructed by WAL replay before the machine is consulted
    /// again. Tombstones persist so a post-restart special arrival is
    /// still dropped.
    fn crashed(&mut self) {
        self.sched.crashed();
        self.preparing.clear();
        self.prepared.clear();
        self.pending_eager.clear();
    }
}

/// Merge adjacent runs of [`Command::Send`] to the same destination into
/// one [`Command::SendBatch`] per run. Non-send commands and singleton
/// runs pass through untouched, and relative order is preserved — the
/// batch is exactly the same payload sequence the serial commands would
/// have shipped.
fn coalesce_send_runs(cmds: Vec<Command>) -> Vec<Command> {
    let mut out: Vec<Command> = Vec::with_capacity(cmds.len());
    for cmd in cmds {
        let Command::Send { to, payload } = cmd else {
            out.push(cmd);
            continue;
        };
        // Extend a batch already forming for this destination, or start
        // one by folding in the previous single send.
        let same_dest_batch =
            matches!(out.last(), Some(Command::SendBatch { to: prev, .. }) if *prev == to);
        let same_dest_single =
            matches!(out.last(), Some(Command::Send { to: prev, .. }) if *prev == to);
        if same_dest_batch {
            if let Some(Command::SendBatch { payloads, .. }) = out.last_mut() {
                payloads.push(payload);
            }
        } else if same_dest_single {
            if let Some(Command::Send { payload: first, .. }) = out.pop() {
                out.push(Command::SendBatch { to, payloads: vec![first, payload] });
            }
        } else {
            out.push(Command::Send { to, payload });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The order that wedged a live DAG(T) replica under `--apply-pool 4`:
    /// two admitted subtransactions, the younger one reported applied
    /// first. The machine must refuse it with a typed error (a driver
    /// poisons its site on one) and still accept the right order after.
    #[test]
    fn out_of_order_completion_is_a_typed_error_at_window_two() {
        let mut placement = DataPlacement::new(2);
        let a = placement.add_item(SiteId(0), &[SiteId(1)]);
        let b = placement.add_item(SiteId(0), &[SiteId(1)]);
        let graph = CopyGraph::from_placement(&placement);
        let tree = PropagationTree::chain(&graph).expect("a two-site DAG has a chain tree");
        let mut m = SiteMachine::new(
            SiteId(1),
            ProtocolId::DagWt,
            Arc::new(placement),
            Arc::new(graph),
            Some(Arc::new(tree)),
        )
        .expect("tree supplied");
        m.set_apply_window(2);

        let gid = |seq| GlobalTxnId::new(SiteId(0), seq);
        let deliver = |m: &mut SiteMachine, seq, item| {
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
        };
        assert!(
            matches!(deliver(&mut m, 1, a)[..], [Command::Apply { gid: g, .. }] if g == gid(1))
        );
        // Write-disjoint from T1, so the second slot admits it at once.
        assert!(
            matches!(deliver(&mut m, 2, b)[..], [Command::Apply { gid: g, .. }] if g == gid(2))
        );
        assert_eq!(m.inflight_len(), 2);

        assert_eq!(
            m.on_input(Input::Applied { gid: gid(2) }),
            Err(ProtocolError::OutOfOrderCompletion { gid: gid(2), front: Some(gid(1)) })
        );
        // The refusal changed nothing: admission order still completes.
        assert_eq!(m.inflight_len(), 2);
        assert_eq!(m.on_input(Input::Applied { gid: gid(1) }), Ok(Vec::new()));
        assert_eq!(m.on_input(Input::Applied { gid: gid(2) }), Ok(Vec::new()));
        assert!(m.secondaries_idle());
        assert_eq!(
            m.on_input(Input::Applied { gid: gid(2) }),
            Err(ProtocolError::OutOfOrderCompletion { gid: gid(2), front: None })
        );
    }
}
