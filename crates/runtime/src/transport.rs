//! The transport abstraction: one reliable-link engine, two wires.
//!
//! [`Net`] owns the sequencing/outbox/ack/replay logic (state in
//! [`crate::link::Links`]) and delegates the steps that differ between
//! deployments to a [`Transport`] — an *event-oriented, nonblocking*
//! seam shared by both back ends:
//!
//! * [`ChannelRaw`]: the in-process deployment. "The wire" is a
//!   per-site event inbox drained by the destination's site thread
//!   (woken through its command channel), and an ack is a direct prune
//!   of the shared outbox table (standing in for the ack message a
//!   networked deployment would send).
//! * the epoll reactor's wire (`crate::reactor`): real sockets. A send
//!   appends a framed [`repl_net::WireMsg::Link`] to a per-peer write
//!   buffer flushed by the readiness loop, an ack is a framed
//!   [`repl_net::WireMsg::Ack`] buffered back toward the same
//!   connection, with typed [`SendStatus::Backpressure`] once a buffer
//!   is full — nothing in the send path can block or sleep.
//!
//! `crate::nemesis::ChaosWire` decorates either with a fault plan.
//!
//! Every attempt is **single-shot and nonblocking**: a send either
//! reaches the wire ([`SendStatus::Sent`]), is refused by a full buffer
//! ([`SendStatus::Backpressure`]), or finds the wire down
//! ([`SendStatus::Down`]). In all three outcomes the payload is already
//! enrolled in the outbox, so delivery is recovered by replay — a
//! reconnect ([`Net::resume`]), a site restart
//! ([`Net::retransmit_to`]), or a backpressure drain — and the
//! receiver's durable dedup/gap marks make the replays exactly-once.
//!
//! Lock discipline: [`Net::send`] assigns the sequence number, enrolls
//! the payload and performs the delivery attempt *while holding the
//! lane lock*. That makes wire order equal sequence order per link — a
//! reconnect replay ([`Net::resume`]) takes the same lock, so a fresh
//! send can never jump ahead of a replayed predecessor on the stream.
//! Nothing slow happens under the lock: a channel send is lock-free
//! and a reactor send is a memcpy into a write buffer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use repl_net::Payload;
use repl_types::SiteId;

use crate::chan::TracedSender;
use crate::link::Links;
use crate::site::Command;

/// Liveness classification of one peer, as seen from one site.
///
/// Driven by *progress*, not pings: receiving any frame from the peer,
/// receiving an ack for traffic we sent it, or a successful dial all
/// count as progress (heartbeats flow every `HEARTBEAT_PERIOD`, so a
/// healthy idle link still makes progress). A peer is only demoted
/// while we are actually trying to talk to it — a silent peer with
/// nothing queued and no failing dials stays `Up`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerHealth {
    /// Progress recently, or nothing pending to judge by.
    Up,
    /// Traffic pending (or dials failing) with no progress for
    /// `suspect_after`.
    Suspect,
    /// No progress for `down_after`; the retry policy keeps probing.
    Down,
}

/// Per-(me, peer) progress record backing [`PeerHealth`].
struct HealthCell {
    last_progress: Instant,
    dial_failures: u32,
}

/// `cells[me][peer]` — every site judges every peer independently (an
/// asymmetric partition really does look different from each end).
struct HealthTable {
    cells: Vec<Vec<parking_lot::Mutex<HealthCell>>>,
}

impl HealthTable {
    fn new(n: usize) -> Self {
        HealthTable {
            cells: (0..n)
                .map(|_| {
                    (0..n)
                        .map(|_| {
                            parking_lot::Mutex::new(HealthCell {
                                last_progress: Instant::now(),
                                dial_failures: 0,
                            })
                        })
                        .collect()
                })
                .collect(),
        }
    }

    fn note_progress(&self, me: SiteId, peer: SiteId) {
        let mut cell = self.cells[me.index()][peer.index()].lock();
        cell.last_progress = Instant::now();
        cell.dial_failures = 0;
    }

    fn note_dial(&self, me: SiteId, peer: SiteId, ok: bool) {
        let mut cell = self.cells[me.index()][peer.index()].lock();
        if ok {
            cell.last_progress = Instant::now();
            cell.dial_failures = 0;
        } else {
            cell.dial_failures = cell.dial_failures.saturating_add(1);
        }
    }

    fn classify(
        &self,
        me: SiteId,
        peer: SiteId,
        pending: bool,
        suspect_after: Duration,
        down_after: Duration,
    ) -> PeerHealth {
        let cell = self.cells[me.index()][peer.index()].lock();
        if !pending && cell.dial_failures == 0 {
            return PeerHealth::Up;
        }
        let silent = cell.last_progress.elapsed();
        if silent < suspect_after {
            PeerHealth::Up
        } else if silent < down_after {
            PeerHealth::Suspect
        } else {
            PeerHealth::Down
        }
    }
}

/// Typed outcome of one nonblocking delivery attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SendStatus {
    /// The message reached the wire (or a buffer the wire will drain).
    Sent,
    /// The wire is up but its buffer is full; the message stays in the
    /// outbox and a later drain replays it.
    Backpressure,
    /// The wire is down; the message stays in the outbox and the next
    /// reconnect/restart replays it.
    Down,
}

/// One reliable-link message the wire delivered to this site on the
/// `from -> me` link, surfaced by [`Transport::poll_events`] and fed
/// into the protocol machine by the site driver (thread or reactor).
#[derive(Debug)]
pub(crate) struct TransportEvent {
    /// Sending site.
    pub from: SiteId,
    /// Sequence number on that link.
    pub seq: u64,
    /// The propagation payload.
    pub payload: Payload,
}

/// One wire between sites: nonblocking single-attempt sends plus an
/// event inbox. Implementations own whatever readers/buffers the wire
/// needs; the reliable-link engine ([`Net`]) and the site drivers stay
/// byte-identical across deployments.
pub(crate) trait Transport: Send + Sync {
    /// Try once, without blocking, to hand `(seq, payload)` to `to` on
    /// the `from -> to` link.
    fn try_send(&self, from: SiteId, to: SiteId, seq: u64, payload: &Payload) -> SendStatus;

    /// Convey the receiver-side acknowledgement of `seq` on the
    /// `from -> me` link back to the sender. Best-effort: a lost ack
    /// only delays pruning (the handshake `resume_seq` re-synchronizes
    /// on reconnect) and a duplicate delivery is re-acked.
    fn send_ack(&self, from: SiteId, me: SiteId, seq: u64) -> SendStatus;

    /// Drain every event the wire has queued for `me`, in per-link
    /// arrival order. Nonblocking; an empty vec means nothing pending.
    fn poll_events(&self, me: SiteId) -> Vec<TransportEvent>;
}

/// The reliable-link engine shared by every transport.
pub(crate) struct Net {
    links: Arc<Links>,
    raw: Arc<dyn Transport>,
    health: HealthTable,
}

impl Net {
    pub fn new(links: Arc<Links>, raw: Arc<dyn Transport>) -> Self {
        let n = links.num_sites();
        Net { links, raw, health: HealthTable::new(n) }
    }

    /// Enroll `payload` on the `from -> to` link and attempt delivery
    /// once. The message is in the outbox before the attempt, so a
    /// failed (or half-failed: queued at a receiver that dies before
    /// applying) delivery is always recoverable by replay — there is no
    /// retry loop and no sleeping here, which is what lets the same
    /// engine run inside a single-threaded reactor.
    pub fn send(&self, from: SiteId, to: SiteId, payload: Payload) -> SendStatus {
        let mut lane = self.links.lane(from, to).lock();
        lane.next_seq += 1;
        let seq = lane.next_seq;
        lane.unacked.push_back((seq, payload));
        // replint: allow(RL008) -- back() of a deque pushed to on the previous line
        let (_, payload) = lane.unacked.back().expect("just pushed");
        self.raw.try_send(from, to, seq, payload)
    }

    /// Receiver side: report `seq` on the `from -> me` link durably
    /// applied, so the sender can prune its outbox.
    pub fn ack_received(&self, from: SiteId, me: SiteId, seq: u64) {
        let _ = self.raw.send_ack(from, me, seq);
    }

    /// Sender side: the destination acknowledged everything up to `seq`
    /// on the `from -> to` link.
    pub fn on_ack(&self, from: SiteId, to: SiteId, seq: u64) {
        self.links.prune(from, to, seq);
        // An ack is proof the peer is alive and applying.
        self.health.note_progress(from, to);
    }

    /// Receiver side: a frame from `from` arrived at `me` — progress
    /// for `me`'s view of `from`, whatever the frame was.
    pub fn note_peer_progress(&self, me: SiteId, from: SiteId) {
        self.health.note_progress(me, from);
    }

    /// A dial attempt from `me` to `peer` finished (TCP deployments).
    pub fn note_dial(&self, me: SiteId, peer: SiteId, ok: bool) {
        self.health.note_dial(me, peer, ok);
    }

    /// Classify every peer of `me` and count them per
    /// [`PeerHealth`] bucket: `(up, suspect, down)`. A peer only counts
    /// as pending-judgement while its outgoing lane is non-empty or its
    /// dials are failing.
    pub fn health_counts(
        &self,
        me: SiteId,
        suspect_after: Duration,
        down_after: Duration,
    ) -> (u32, u32, u32) {
        let (mut up, mut suspect, mut down) = (0, 0, 0);
        for peer in 0..self.links.num_sites() {
            let peer = SiteId(peer as u32);
            if peer == me {
                continue;
            }
            let pending = self.links.lane_len(me, peer) > 0;
            match self.health.classify(me, peer, pending, suspect_after, down_after) {
                PeerHealth::Up => up += 1,
                PeerHealth::Suspect => suspect += 1,
                PeerHealth::Down => down += 1,
            }
        }
        (up, suspect, down)
    }

    /// Sequence number at the head of the `from -> to` outbox (the
    /// oldest unacknowledged message), or `None` when the lane is
    /// empty. The stall-replay driver watches this: a non-empty lane
    /// whose front does not move between checks has made no ack
    /// progress and gets replayed.
    pub fn front_seq(&self, from: SiteId, to: SiteId) -> Option<u64> {
        self.links.front_seq(from, to)
    }

    /// Drain the wire's pending events for `me` (frames to feed the
    /// protocol machine).
    pub fn poll_events(&self, me: SiteId) -> Vec<TransportEvent> {
        self.raw.poll_events(me)
    }

    /// Re-synchronize the `from -> to` link after the destination
    /// rejoined (site restart), the connection was re-established (TCP
    /// reconnect), or a backpressured buffer drained: prune everything
    /// the destination reports durably applied (`acked`, the
    /// handshake's `resume_seq`), then replay the rest in sequence
    /// order. Replay stops at the first non-[`SendStatus::Sent`]
    /// attempt — the receiver would gap-drop everything after the hole
    /// anyway, and the next resume picks the tail up.
    ///
    /// Holding the lane lock across the replay orders it before any
    /// racing fresh send on the lane (sequence assignment and delivery
    /// take the same lock), and per-link FIFO of the wire preserves
    /// that order downstream.
    pub fn resume(&self, from: SiteId, to: SiteId, acked: u64) {
        let mut lane = self.links.lane(from, to).lock();
        while lane.unacked.front().is_some_and(|(s, _)| *s <= acked) {
            lane.unacked.pop_front();
        }
        for (seq, payload) in &lane.unacked {
            if self.raw.try_send(from, to, *seq, payload) != SendStatus::Sent {
                break;
            }
        }
    }

    /// Replay every outbox targeting `dest` (site restart under the
    /// channel transport: nothing was acked while it was down).
    pub fn retransmit_to(&self, dest: SiteId) {
        for from in 0..self.links.num_sites() {
            self.resume(SiteId(from as u32), dest, 0);
        }
    }

    /// Messages awaiting acknowledgement on one lane (send throttling).
    pub fn lane_len(&self, from: SiteId, to: SiteId) -> usize {
        self.links.lane_len(from, to)
    }

    /// Total messages awaiting acknowledgement towards `to`.
    pub fn queued_for(&self, to: SiteId) -> usize {
        self.links.queued_for(to)
    }
}

/// The mutable routing table: the current command sender of every site.
/// A restarted site gets a fresh channel, so senders look the route up
/// per delivery instead of caching a channel handle.
pub(crate) struct Routes {
    slots: Vec<parking_lot::Mutex<TracedSender<Command>>>,
}

impl Routes {
    pub fn new(senders: Vec<TracedSender<Command>>) -> Self {
        Routes { slots: senders.into_iter().map(parking_lot::Mutex::new).collect() }
    }

    pub fn to(&self, dest: SiteId) -> TracedSender<Command> {
        self.slots[dest.index()].lock().clone()
    }

    pub fn replace(&self, dest: SiteId, tx: TracedSender<Command>) {
        *self.slots[dest.index()].lock() = tx;
    }
}

/// In-process wire: per-site event inboxes drained by the site threads,
/// wake-ups through the command channels, acks as direct prunes of the
/// cluster-shared outbox table.
pub(crate) struct ChannelRaw {
    pub routes: Arc<Routes>,
    pub links: Arc<Links>,
    /// `inboxes[s]`: frames awaiting site `s`. Pushed under the sender's
    /// lane lock, so per-link FIFO order is preserved into the queue.
    pub inboxes: Vec<parking_lot::Mutex<std::collections::VecDeque<TransportEvent>>>,
}

impl ChannelRaw {
    pub fn new(routes: Arc<Routes>, links: Arc<Links>) -> Self {
        let n = links.num_sites();
        ChannelRaw {
            routes,
            links,
            inboxes: (0..n)
                .map(|_| parking_lot::Mutex::new(std::collections::VecDeque::new()))
                .collect(),
        }
    }
}

impl Transport for ChannelRaw {
    fn try_send(&self, from: SiteId, to: SiteId, seq: u64, payload: &Payload) -> SendStatus {
        // The inbox outlives crash/restart cycles; stale frames from a
        // pre-crash generation are deduplicated (or gap-dropped and
        // later replayed) against the durable per-link marks, exactly
        // like retransmitted duplicates. The wake-up is the only part
        // that can fail — a crashed site's channel is gone — and the
        // restart path replays the outbox anyway, so report Down only
        // to keep the status honest for observers.
        self.inboxes[to.index()].lock().push_back(TransportEvent {
            from,
            seq,
            payload: payload.clone(),
        });
        // The route is re-read per send so a restart's fresh channel is
        // picked up immediately.
        match self.routes.to(to).send(Command::Wake) {
            Ok(()) => SendStatus::Sent,
            Err(_) => SendStatus::Down,
        }
    }

    fn send_ack(&self, from: SiteId, me: SiteId, seq: u64) -> SendStatus {
        self.links.prune(from, me, seq);
        SendStatus::Sent
    }

    fn poll_events(&self, me: SiteId) -> Vec<TransportEvent> {
        std::mem::take(&mut *self.inboxes[me.index()].lock()).into()
    }
}
