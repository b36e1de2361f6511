//! The transport abstraction: one site's reliable-link engine over its
//! wire.
//!
//! [`Net`] owns the site's sequencing/log/ack logic and its state — the
//! link logs ([`crate::link::Links`]), the peer-health records and the
//! owed acks, all plain data of the one reactor thread that runs the
//! site — and delegates the one step that touches the socket to a
//! [`Transport`] it owns too. A send only appends the frame to the
//! link's log; the reactor's flush step ([`Net::flush`]) then offers the
//! wire the log from its send cursor together with the peer's socket,
//! and the wire writes what the socket takes. [`Direct`] writes the
//! log's bytes straight to the socket, so a frame is never copied on its
//! way out, and part of a frame the kernel refused stays in the log
//! behind the cursor. `crate::nemesis::ChaosWire` interprets a fault plan
//! instead and is the one wire that stages bytes of its own. Arriving
//! frames do not pass through here: the reactor applies them.
//!
//! Every write is **single-shot and nonblocking**: the cursor moves past
//! the bytes the socket took, and every frame stays in the log until
//! acknowledged. A live connection is a reliable FIFO stream (TCP), so
//! it carries each sequence number at most once: what the socket
//! refused goes on the next pass from the cursor, and nothing is written
//! twice. A frame is lost only with the connection carrying it, and is
//! written again only on the next one: [`Net::resume`] prunes to the
//! peer's `HelloAck.resume_seq` and writes the rest from the log's front
//! (which is also how a restarted site catches up). The receiver's
//! durable per-link mark makes that overlap exactly-once.
//!
//! Time is the reactor's: [`Net::set_now`] tells the pass's time once,
//! in microseconds since the site booted, and peer health and the wire's
//! fault windows decide by it. [`Net::next_deadline`] says when the link
//! layer next needs a pass.
//!
//! Only [`Net::flush`] can call [`Transport::try_send`]: the call takes
//! a [`SendPermit`], which only this module can make. So every byte on
//! a peer socket is a link log's, written from its send cursor; a frame
//! written around the log would have no place in the receiver's
//! sequence, and none in a resumed stream.
//!
//! The receiving half is one owed mark per peer: the highest sequence
//! applied from it ([`Net::ack_received`]), written as one cumulative
//! `Ack` when the reactor next flushes that peer's connection
//! ([`Net::take_ack`]). A mark the wire withholds stays owed: nothing
//! else would make the receiver ack again.

use std::io;

use repl_net::Payload;
use repl_types::SiteId;

use crate::link::{write_taken, LinkState, Links, Sink};
use crate::policy::{micros, DOWN_AFTER, SUSPECT_AFTER};

/// This site's progress record of one peer.
#[derive(Clone)]
struct HealthCell {
    /// When a frame, an ack or a dial last came through (µs since boot).
    last_progress: u64,
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
    /// of `frames` at `now`: the link log from its send cursor, which
    /// starts on a frame boundary unless this wire left one
    /// half-written. Returns the bytes of `frames` taken; an error means
    /// the connection is broken.
    fn try_send(
        &mut self,
        permit: SendPermit,
        now: u64,
        to: SiteId,
        frames: &[u8],
        sink: &mut Sink<'_>,
    ) -> io::Result<usize>;

    /// Whether an acknowledgement may go to `from` at `now`. A withheld
    /// one stays owed ([`Net::take_ack`]) and goes once the wire passes
    /// it: acks are cumulative, so the later mark covers the earlier.
    fn passes_ack(&self, _now: u64, _from: SiteId) -> bool {
        true
    }

    /// A new connection to `to`: forget what was staged for the old one.
    fn reset(&mut self, _to: SiteId) {}

    /// The first time after `now` at which this wire would write what it
    /// withholds: a held frame falling due, or a cut healing. A frame
    /// already due and still held waits on its connection (a refused
    /// write, or no connection yet), whose I/O wakes the reactor instead.
    fn next_deadline(&self, _now: u64) -> Option<u64> {
        None
    }
}

/// The wire without a fault plan: the log's bytes go straight to the
/// socket, as many as it takes.
pub(crate) struct Direct;

impl Transport for Direct {
    fn try_send(
        &mut self,
        _: SendPermit,
        _: u64,
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
    /// The pass's time, µs since the site booted ([`Net::set_now`]).
    now: u64,
}

impl Net {
    /// The link layer of a site booting now (time 0).
    pub fn new(me: SiteId, links: Links, raw: Box<dyn Transport>) -> Self {
        let n = links.len();
        let fresh = HealthCell { last_progress: 0, dial_failures: 0 };
        Net { me, health: vec![fresh; n], owed: vec![0; n], now: 0, links, raw }
    }

    /// The pass's time, µs since the site booted: what the peer health
    /// and the wire decide by until the next call.
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
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
    /// before any write, so a delivery the connection lost (or that was
    /// queued at a receiver that died before applying it) goes again on
    /// the next connection ([`Net::resume`]) — there is no retry loop and
    /// no sleeping here, which is what lets the engine run inside a
    /// single-threaded reactor.
    pub fn send(&mut self, to: SiteId, payload: &Payload) {
        self.links[to.index()].push(payload);
    }

    /// Write the log to `to` from its cursor to `sink`, `to`'s socket, as
    /// far as it takes it. An error means the connection is broken.
    pub fn flush(&mut self, to: SiteId, sink: &mut Sink<'_>) -> io::Result<()> {
        let (raw, now) = (&mut self.raw, self.now);
        self.links[to.index()].offer(|frames| raw.try_send(SendPermit(()), now, to, frames, sink))
    }

    /// Receiver side: `seq` on the link from `from` is durably applied;
    /// the sender is owed the news.
    pub fn ack_received(&mut self, from: SiteId, seq: u64) {
        let owed = &mut self.owed[from.index()];
        *owed = (*owed).max(seq);
    }

    /// Receiver side: the mark `from` is owed, to write as one
    /// cumulative `Ack` — `None` when nothing is owed, or the wire
    /// withholds it. A withheld mark stays owed: the sender's log holds
    /// its frames until an ack comes, and no other frame would provoke one.
    pub fn take_ack(&mut self, from: SiteId) -> Option<u64> {
        let owed = &mut self.owed[from.index()];
        if *owed == 0 || !self.raw.passes_ack(self.now, from) {
            return None;
        }
        Some(std::mem::take(owed))
    }

    /// Sender side: `to` acknowledged everything up to `seq`.
    pub fn on_ack(&mut self, to: SiteId, seq: u64) {
        self.links[to.index()].prune(seq);
        // An ack is proof the peer is alive and applying.
        self.note_progress(to);
    }

    /// A frame or an ack came from `peer`, whatever it was.
    pub fn note_progress(&mut self, peer: SiteId) {
        self.health[peer.index()] = HealthCell { last_progress: self.now, dial_failures: 0 };
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
            let silent = self.now.saturating_sub(cell.last_progress);
            if !pending || silent < micros(SUSPECT_AFTER) {
                up += 1;
            } else if silent < micros(DOWN_AFTER) {
                suspect += 1;
            } else {
                down += 1;
            }
        }
        (up, suspect, down)
    }

    /// Re-synchronize the link to `to` on a new connection (a reconnect,
    /// or the destination restarted): prune everything the destination
    /// reports durably applied (`acked`, the handshake's `resume_seq`),
    /// and write the rest from the log's front on the next flush.
    pub fn resume(&mut self, to: SiteId, acked: u64) {
        self.links[to.index()].resume(acked);
        self.raw.reset(to);
    }

    /// When the link layer next needs a pass: when the wire next writes
    /// what it withholds (a held frame falling due, a cut healing).
    /// `None` while it withholds nothing: a lane's unwritten bytes wait on
    /// their connection's I/O, or on its handshake.
    pub fn next_deadline(&self) -> Option<u64> {
        self.raw.next_deadline(self.now)
    }

    /// Messages awaiting acknowledgement on the lane to `to` (send
    /// throttling).
    pub fn lane_len(&self, to: SiteId) -> usize {
        self.links[to.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkState;
    use crate::nemesis::{ChaosWire, NetFaultPlan};

    const PEER: SiteId = SiteId(1);

    fn net(raw: Box<dyn Transport>) -> Net {
        Net::new(SiteId(0), (0..2).map(|_| LinkState::default()).collect(), raw)
    }

    fn decision(n: u64) -> Payload {
        Payload::Decision { gid: repl_types::GlobalTxnId::new(SiteId(0), n), commit: true }
    }

    /// The bytes a flush to [`PEER`] writes to a socket that takes all.
    fn flushed(net: &mut Net) -> usize {
        let mut written = 0;
        let mut socket = |bytes: &[u8]| {
            written += bytes.len();
            Ok(bytes.len())
        };
        net.flush(PEER, &mut socket).unwrap();
        written
    }

    /// A lane whose front stands still — the peer applies nothing and
    /// acks nothing — for a second of passes, one a millisecond, on one
    /// live connection: the flushes write each frame's bytes exactly
    /// once, and the link layer asks for no pass of its own. Only an ack
    /// or a new connection moves the lane.
    #[test]
    fn a_stalled_lane_writes_each_frame_once_on_its_connection() {
        let mut net = net(Box::new(Direct));
        let t = 7_000;
        net.set_now(t);
        net.send(PEER, &decision(1));
        net.send(PEER, &decision(2));
        let mut stream = Vec::new();
        for now in (t..=t + 1_000_000).step_by(1_000) {
            net.set_now(now);
            let mut socket = |bytes: &[u8]| {
                stream.extend_from_slice(bytes);
                Ok(bytes.len())
            };
            net.flush(PEER, &mut socket).unwrap();
            assert_eq!(net.next_deadline(), None, "a pass asked for at {now}");
        }
        let frame =
            |seq| repl_net::encode_framed(&repl_net::WireMsg::Link { seq, payload: decision(seq) });
        assert_eq!(stream, [&frame(1)[..], &frame(2)[..]].concat());
        assert_eq!(net.lane_len(PEER), 2);

        // A reconnect writes what the peer has not applied, from the front.
        net.resume(PEER, 1);
        assert_eq!(flushed(&mut net), frame(2).len());
        net.on_ack(PEER, 2);
        assert_eq!((net.lane_len(PEER), flushed(&mut net)), (0, 0));
    }

    /// A frame a nemesis holds is the wire's deadline: due at its release
    /// time, written then and not a microsecond before, and no deadline
    /// once it went.
    #[test]
    fn a_held_frame_is_due_at_its_release_time() {
        // The first seed whose first frame draws a delay.
        let (mut net, due) = (0..)
            .find_map(|seed| {
                let plan = NetFaultPlan::seeded(seed).jitter(40);
                let mut net = net(Box::new(ChaosWire::new(SiteId(0), plan, 2)));
                net.set_now(3_000);
                net.send(PEER, &decision(1));
                if flushed(&mut net) > 0 {
                    return None;
                }
                let due = net.raw.next_deadline(3_000)?;
                Some((net, due))
            })
            .unwrap();
        assert!(3_000 < due && due <= 3_000 + 40_000, "{due}");
        assert_eq!(net.next_deadline(), Some(due));

        net.set_now(due - 1);
        assert_eq!(flushed(&mut net), 0, "released before its time");
        net.set_now(due);
        assert!(flushed(&mut net) > 0);
        assert_eq!(net.raw.next_deadline(due), None);
    }

    /// An ack the wire withholds while the ack direction is cut stays
    /// owed, and goes — the later, cumulative mark — once the cut heals,
    /// which is the wire's deadline meanwhile.
    #[test]
    fn a_withheld_ack_stays_owed_until_the_cut_heals() {
        // Site 0 acks to PEER over the cut 0 → 1 for 0..10 ms.
        let plan = NetFaultPlan::seeded(1).oneway(SiteId(0), PEER, 0, 10);
        let mut net = net(Box::new(ChaosWire::new(SiteId(0), plan, 2)));
        net.set_now(2_000);
        net.ack_received(PEER, 3);
        assert_eq!(net.take_ack(PEER), None);
        assert_eq!(net.next_deadline(), Some(10_000));
        net.ack_received(PEER, 4);
        net.set_now(9_999);
        assert_eq!(net.take_ack(PEER), None);
        net.set_now(10_000);
        assert_eq!(net.take_ack(PEER), Some(4));
        assert_eq!((net.take_ack(PEER), net.next_deadline()), (None, None));
    }
}
