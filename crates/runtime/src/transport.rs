//! The transport abstraction: one site's reliable-link engine over its
//! wire.
//!
//! [`Net`] owns the site's sequencing/log/ack/replay logic and its
//! state — the link logs ([`crate::link::Links`]), the peer-health
//! records and the owed acks, all plain data of the one reactor thread
//! that runs the site — and delegates the one step that touches the
//! socket to a [`Transport`] it owns too. A send only appends the frame
//! to the link's log; the reactor's flush step ([`Net::flush`]) then
//! offers the wire the log from its send cursor together with the
//! peer's socket, and the wire writes what the socket takes. [`Direct`] writes the
//! log's bytes straight to the socket, so a frame is never copied on its
//! way out, and part of a frame the kernel refused stays in the log
//! behind the cursor. `crate::nemesis::ChaosWire` interprets a fault plan
//! instead and is the one wire that stages bytes of its own. Arriving
//! frames do not pass through here: the reactor applies them.
//!
//! Every write is **single-shot and nonblocking**: the cursor moves past
//! the bytes the socket took, and every frame stays in the log until
//! acknowledged, so delivery is recovered by writing on from the cursor
//! on the next pass or by replay — a reconnect ([`Net::resume`] from the
//! peer's `HelloAck.resume_seq`, which is also how a restarted site
//! catches up) or a stalled lane's periodic replay ([`Net::replay`]) —
//! and the receiver's durable dedup/gap marks make the replays
//! exactly-once.
//!
//! Only [`Net::flush`] can call [`Transport::try_send`]: the call takes
//! a [`SendPermit`], which only this module can make. So every byte on
//! a peer socket is a link log's, written from its send cursor; a frame
//! written around the log would have no replay entry and no place in
//! the receiver's sequence.
//!
//! The receiving half is one owed mark per peer: the highest sequence
//! applied from it ([`Net::ack_received`]), written as one cumulative
//! `Ack` when the reactor next flushes that peer's connection
//! ([`Net::take_ack`]).

use std::io;
use std::time::Instant;

use repl_net::Payload;
use repl_types::SiteId;

use crate::link::{write_taken, LinkState, Links, Sink};
use crate::policy::{DOWN_AFTER, SUSPECT_AFTER};

/// This site's progress record of one peer.
#[derive(Clone)]
struct HealthCell {
    last_progress: Instant,
    dial_failures: u32,
}

/// Leave to write to a peer's socket: [`Net::flush`] makes one for each
/// [`Transport::try_send`], and nothing outside this module can.
pub(crate) struct SendPermit(());

impl SendPermit {
    /// A permit for a wire's unit tests, which drive it without a `Net`.
    #[cfg(test)]
    pub(crate) fn for_test() -> SendPermit {
        SendPermit(())
    }
}

/// One site's wire to its peers: nonblocking single-shot writes to a
/// connected peer's socket. The reliable-link engine ([`Net`]) above it
/// is the same with or without a fault plan in between.
pub(crate) trait Transport: Send {
    /// Write to `sink`, `to`'s socket, without blocking, what it takes
    /// of `frames`: the link log from its send cursor, which starts on a
    /// frame boundary unless this wire left one half-written. Returns the
    /// bytes of `frames` taken; an error means the connection is broken.
    fn try_send(
        &mut self,
        permit: SendPermit,
        to: SiteId,
        frames: &[u8],
        sink: &mut Sink<'_>,
    ) -> io::Result<usize>;

    /// Whether an acknowledgement may go to `from` now. A withheld one
    /// only delays pruning: the next is cumulative, and the handshake's
    /// `resume_seq` re-synchronizes after drops.
    fn passes_ack(&self, _from: SiteId) -> bool {
        true
    }

    /// A new connection to `to`: forget what was staged for the old one.
    fn reset(&mut self, _to: SiteId) {}
}

/// The wire without a fault plan: the log's bytes go straight to the
/// socket, as many as it takes.
pub(crate) struct Direct;

impl Transport for Direct {
    fn try_send(
        &mut self,
        _: SendPermit,
        _: SiteId,
        frames: &[u8],
        sink: &mut Sink<'_>,
    ) -> io::Result<usize> {
        write_taken(sink, frames)
    }
}

/// The reliable-link engine of one site.
pub(crate) struct Net {
    me: SiteId,
    /// Indexed by destination.
    links: Links,
    raw: Box<dyn Transport>,
    /// Indexed by peer: every site judges every peer on its own (an
    /// asymmetric partition really does look different from each end).
    health: Vec<HealthCell>,
    /// Indexed by peer: the highest sequence applied from it that its
    /// connection has not been told of (0: none owed).
    owed: Vec<u64>,
}

impl Net {
    pub fn new(me: SiteId, links: Links, raw: Box<dyn Transport>) -> Self {
        let n = links.len();
        let fresh = HealthCell { last_progress: Instant::now(), dial_failures: 0 };
        Net { me, health: vec![fresh; n], owed: vec![0; n], links, raw }
    }

    /// The outgoing links, indexed by destination.
    pub fn links(&self) -> &[LinkState] {
        &self.links
    }

    /// Hand the links back: they outlive this run of the site.
    pub fn into_links(self) -> Links {
        self.links
    }

    /// Heap bytes of the link logs and the per-peer link state (the
    /// wire's own staging, a nemesis's, is not counted).
    pub fn heap_bytes(&self) -> usize {
        self.links.capacity() * size_of::<LinkState>()
            + self.links.iter().map(LinkState::heap_bytes).sum::<usize>()
            + self.health.capacity() * size_of::<HealthCell>()
            + self.owed.capacity() * size_of::<u64>()
    }

    /// Encode `payload` into the log to `to`. The frame is in the log
    /// before any write, so a failed (or half-failed: queued at a
    /// receiver that dies before applying) delivery is always
    /// recoverable by replay — there is no retry loop and no sleeping
    /// here, which is what lets the engine run inside a single-threaded
    /// reactor.
    pub fn send(&mut self, to: SiteId, payload: &Payload) {
        self.links[to.index()].push(payload);
    }

    /// Write the log to `to` from its cursor to `sink`, `to`'s socket, as
    /// far as it takes it. An error means the connection is broken.
    pub fn flush(&mut self, to: SiteId, sink: &mut Sink<'_>) -> io::Result<()> {
        let raw = &mut self.raw;
        self.links[to.index()].offer(|frames| raw.try_send(SendPermit(()), to, frames, sink))
    }

    /// Receiver side: `seq` on the link from `from` is durably applied;
    /// the sender is owed the news.
    pub fn ack_received(&mut self, from: SiteId, seq: u64) {
        let owed = &mut self.owed[from.index()];
        *owed = (*owed).max(seq);
    }

    /// Receiver side: the mark `from` is owed, to write as one
    /// cumulative `Ack` — `None` when nothing is owed, or the wire
    /// withholds it (then it is not owed any more either).
    pub fn take_ack(&mut self, from: SiteId) -> Option<u64> {
        let seq = std::mem::take(&mut self.owed[from.index()]);
        (seq > 0 && self.raw.passes_ack(from)).then_some(seq)
    }

    /// Sender side: `to` acknowledged everything up to `seq`.
    pub fn on_ack(&mut self, to: SiteId, seq: u64) {
        self.links[to.index()].prune(seq);
        // An ack is proof the peer is alive and applying.
        self.note_progress(to);
    }

    /// A frame or an ack came from `peer`, whatever it was.
    pub fn note_progress(&mut self, peer: SiteId) {
        self.health[peer.index()] = HealthCell { last_progress: Instant::now(), dial_failures: 0 };
    }

    /// A dial attempt to `peer` finished.
    pub fn note_dial(&mut self, peer: SiteId, ok: bool) {
        if ok {
            self.note_progress(peer);
        } else {
            let cell = &mut self.health[peer.index()];
            cell.dial_failures = cell.dial_failures.saturating_add(1);
        }
    }

    /// Count the peers this site sees `(up, suspect, down)`. Health is
    /// *progress* — a frame, an ack or a successful dial — not pings,
    /// and a peer is only demoted while we are trying to talk to it
    /// (its lane non-empty or its dials failing).
    pub fn health_counts(&self) -> (u32, u32, u32) {
        let (mut up, mut suspect, mut down) = (0, 0, 0);
        for (p, cell) in self.health.iter().enumerate() {
            let peer = SiteId(p as u32);
            if peer == self.me {
                continue;
            }
            let pending = self.lane_len(peer) > 0 || cell.dial_failures > 0;
            let silent = cell.last_progress.elapsed();
            if !pending || silent < SUSPECT_AFTER {
                up += 1;
            } else if silent < DOWN_AFTER {
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
        self.links[to.index()].front_seq()
    }

    /// Re-synchronize the link to `to` on a new connection (a reconnect,
    /// or the destination restarted): prune everything the destination
    /// reports durably applied (`acked`, the handshake's `resume_seq`),
    /// and write the rest from the log's front on the next flush.
    pub fn resume(&mut self, to: SiteId, acked: u64) {
        self.links[to.index()].resume(acked);
        self.raw.reset(to);
    }

    /// The lane to `to` stalled: write its log again from the front, on
    /// the connection it has, once the frame in progress is whole.
    pub fn replay(&mut self, to: SiteId) {
        self.links[to.index()].replay();
    }

    /// Messages awaiting acknowledgement on the lane to `to` (send
    /// throttling).
    pub fn lane_len(&self, to: SiteId) -> usize {
        self.links[to.index()].len()
    }
}
