//! The transport abstraction: one site's reliable-link engine over its
//! wire.
//!
//! [`Net`] owns the site's sequencing/log/ack/replay logic (state in
//! [`crate::link::Links`]) and delegates the one step that touches the
//! wire to a [`Transport`], which is offered framed bytes: the link's
//! log from its send cursor on. The wire is the epoll reactor's: it
//! copies the whole frames it takes into a per-peer write buffer the
//! readiness loop flushes, and takes none once the buffer is full or
//! the link is down — nothing in the send path can block.
//! `crate::nemesis::ChaosWire` decorates it with a fault plan. Arriving
//! frames do not pass through here: the reactor applies them.
//!
//! Every attempt is **single-shot and nonblocking**: the cursor moves
//! past the frames the wire took, and every frame stays in the log
//! until acknowledged, so delivery is recovered by sending on from the
//! cursor when a full buffer drains ([`Net::offer`]) or by replay — a
//! reconnect ([`Net::resume`] from the peer's `HelloAck.resume_seq`,
//! which is also how a restarted site catches up) or a stalled lane's
//! periodic replay — and the receiver's
//! durable dedup/gap marks make the replays exactly-once.
//!
//! Lock discipline: [`Net::send`] assigns the sequence number, encodes
//! the frame into the log and performs the delivery attempt *while holding the
//! lane lock*. That makes wire order equal sequence order per link — a
//! reconnect replay ([`Net::resume`]) takes the same lock, so a fresh
//! send can never jump ahead of a replayed predecessor on the stream.
//! Nothing slow happens under the lock: a send is an encode and a
//! memcpy.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use repl_net::Payload;
use repl_types::SiteId;

use crate::link::{LinkState, Links};

/// This site's progress record of one peer.
struct HealthCell {
    last_progress: Instant,
    dial_failures: u32,
}

/// One site's wire to its peers: nonblocking single-attempt sends.
/// Implementations own whatever buffers the wire needs; the
/// reliable-link engine ([`Net`]) above it is the same with or without
/// a fault plan in between.
pub(crate) trait Transport: Send + Sync {
    /// Try once, without blocking, to hand `to` the whole `Link` frames
    /// in `frames`, in order. Returns the bytes of the leading frames it
    /// took: 0 while the link is down or its buffer is full.
    fn try_send(&self, to: SiteId, frames: &[u8]) -> usize;

    /// Convey the acknowledgement of `seq` on the `from -> me` link back
    /// to `from`. Best-effort: a lost ack only delays pruning (the
    /// handshake `resume_seq` re-synchronizes on reconnect) and a
    /// duplicate delivery is re-acked.
    fn send_ack(&self, from: SiteId, seq: u64);

    /// Once a reactor pass: release frames held back that are now due.
    fn tick(&self) {}
}

/// The reliable-link engine of one site.
pub(crate) struct Net {
    me: SiteId,
    links: Arc<Links>,
    raw: Arc<dyn Transport>,
    /// Indexed by peer: every site judges every peer on its own (an
    /// asymmetric partition really does look different from each end).
    health: Vec<Mutex<HealthCell>>,
}

impl Net {
    pub fn new(me: SiteId, links: Arc<Links>, raw: Arc<dyn Transport>) -> Self {
        let fresh = || Mutex::new(HealthCell { last_progress: Instant::now(), dial_failures: 0 });
        Net { me, health: (0..links.num_sites()).map(|_| fresh()).collect(), links, raw }
    }

    /// Encode `payload` into the log to `to` and attempt delivery once.
    /// The frame is in the log before the attempt, so a failed (or
    /// half-failed: queued at a receiver that dies before applying)
    /// delivery is always recoverable by replay — there is no retry loop
    /// and no sleeping here, which is what lets the engine run inside a
    /// single-threaded reactor.
    pub fn send(&self, to: SiteId, payload: &Payload) {
        let mut lane = self.links.lane(to).lock();
        lane.push(payload);
        self.attempt(to, &mut lane);
    }

    /// Offer the wire the frames of the locked lane past its cursor.
    fn attempt(&self, to: SiteId, lane: &mut LinkState) {
        lane.offer(|frames| self.raw.try_send(to, frames));
    }

    /// Send on from the cursor: the wire's full buffer for `to` drained.
    pub fn offer(&self, to: SiteId) {
        self.attempt(to, &mut self.links.lane(to).lock());
    }

    /// Receiver side: report `seq` on the link from `from` durably
    /// applied, so the sender can prune its log.
    pub fn ack_received(&self, from: SiteId, seq: u64) {
        self.raw.send_ack(from, seq);
    }

    /// Sender side: `to` acknowledged everything up to `seq`.
    pub fn on_ack(&self, to: SiteId, seq: u64) {
        self.links.lane(to).lock().prune(seq);
        // An ack is proof the peer is alive and applying.
        self.note_progress(to);
    }

    /// A frame or an ack came from `peer`, whatever it was.
    pub fn note_progress(&self, peer: SiteId) {
        let mut cell = self.health[peer.index()].lock();
        cell.last_progress = Instant::now();
        cell.dial_failures = 0;
    }

    /// A dial attempt to `peer` finished.
    pub fn note_dial(&self, peer: SiteId, ok: bool) {
        if ok {
            self.note_progress(peer);
        } else {
            let mut cell = self.health[peer.index()].lock();
            cell.dial_failures = cell.dial_failures.saturating_add(1);
        }
    }

    /// Count the peers this site sees `(up, suspect, down)`. Health is
    /// *progress* — a frame, an ack or a successful dial — not pings,
    /// and a peer is only demoted while we are trying to talk to it
    /// (its lane non-empty or its dials failing).
    pub fn health_counts(&self, suspect_after: Duration, down_after: Duration) -> (u32, u32, u32) {
        let (mut up, mut suspect, mut down) = (0, 0, 0);
        for (p, cell) in self.health.iter().enumerate() {
            let peer = SiteId(p as u32);
            if peer == self.me {
                continue;
            }
            let cell = cell.lock();
            let pending = self.lane_len(peer) > 0 || cell.dial_failures > 0;
            let silent = cell.last_progress.elapsed();
            if !pending || silent < suspect_after {
                up += 1;
            } else if silent < down_after {
                suspect += 1;
            } else {
                down += 1;
            }
        }
        (up, suspect, down)
    }

    /// Sequence number at the head of the log to `to` (the oldest
    /// unacknowledged message), or `None` when the lane is empty. The
    /// stall-replay driver watches this: a non-empty lane whose front
    /// does not move between checks has made no ack progress and gets
    /// replayed.
    pub fn front_seq(&self, to: SiteId) -> Option<u64> {
        self.links.lane(to).lock().front_seq()
    }

    /// Let the wire release what it holds back (see [`Transport::tick`]).
    pub fn tick(&self) {
        self.raw.tick();
    }

    /// Re-synchronize the link to `to` after the connection was
    /// re-established (a reconnect, or the destination restarted) or the
    /// lane stalled: prune everything the destination reports durably
    /// applied (`acked`, the handshake's `resume_seq`), then rewind the
    /// cursor and offer the rest in sequence order.
    ///
    /// Holding the lane lock across the replay orders it before any
    /// racing fresh send on the lane (sequence assignment and delivery
    /// take the same lock), and per-link FIFO of the wire preserves
    /// that order downstream.
    pub fn resume(&self, to: SiteId, acked: u64) {
        let mut lane = self.links.lane(to).lock();
        lane.rewind(acked);
        self.attempt(to, &mut lane);
    }

    /// Messages awaiting acknowledgement on the lane to `to` (send
    /// throttling).
    pub fn lane_len(&self, to: SiteId) -> usize {
        self.links.lane(to).lock().len()
    }
}
