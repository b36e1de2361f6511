//! Reliable inter-site links: the transport-independent half.
//!
//! A wire loses what it holds when a connection or a site dies. This
//! module holds the state of the classic reliable-FIFO-link
//! construction the paper assumes of its network (§2 "messages sent
//! from one site to another are received in the same order"):
//!
//! * Every directed site pair has a [`LinkState`]: a monotone sequence
//!   counter and a **log** of unacknowledged messages, each encoded once
//!   as its `Link` frame, with a cursor at the first one the wire has
//!   not taken. The log lives in a [`Links`] table outside the sending
//!   reactor, so it survives the *sender* crashing too — it models the
//!   durable commit record from which a recovering site can always
//!   re-derive its propagation obligations.
//! * The receiver drops anything ahead of its durable per-link
//!   high-water mark (a gap: the missing message is still in the log
//!   and will arrive in order) and re-acks anything at or below it (a
//!   duplicate), so delivery is exactly-once and per-link FIFO even
//!   across crash/retransmit and reconnect/replay races.
//! * Acknowledgement is receiver-driven: after durably applying
//!   sequence `s`, the receiver acks it, which prunes the log's frames
//!   `<= s` at the sender.
//!
//! Only the "one nonblocking attempt to put bytes on the wire" step is
//! the wire's ([`crate::transport::Transport`]); the sequencing,
//! logging, acking and replay logic exists exactly once, here and in
//! [`crate::transport::Net`].

use parking_lot::Mutex;

use repl_net::{frame_link_into, Payload};
use repl_types::SiteId;

/// Bytes of the frame at the front of `bytes`, its prefix included.
fn frame_len(bytes: &[u8]) -> usize {
    let body = bytes.first_chunk().map_or(0, |prefix| u32::from_be_bytes(*prefix) as usize);
    (4 + body).min(bytes.len())
}

/// The frames of `bytes`, front to back, prefixes included: the log
/// and every wire hold whole frames only.
pub(crate) fn frames(mut bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (frame, rest) = bytes.split_at(frame_len(bytes));
        bytes = rest;
        (!frame.is_empty()).then_some(frame)
    })
}

/// Past this capacity a drained [`WriteBuf`] gives its allocation back:
/// it grew for one burst (a `History` or `CopyState` reply, a backlog
/// behind a partition), not for steady traffic.
const WBUF_KEEP_CAP: usize = 64 * 1024;

/// A byte queue: frame encoders append to it in place, and it is
/// consumed from the front — a socket's write buffer as nonblocking
/// writes drain it, a link's log as acks prune it. Contiguous — the
/// live bytes are `buf[head..]` — so a frame is encoded once, where it
/// is sent from, and a flush is one `write` of one slice.
#[derive(Default)]
pub(crate) struct WriteBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed.
    head: usize,
}

impl WriteBuf {
    /// The vector frame encoders append to. Appending is the only
    /// mutation they may make: the bytes before the returned vector's
    /// current length are not theirs.
    pub(crate) fn tail(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }

    /// Drop the first `n` live bytes, reclaiming the consumed prefix
    /// once it outweighs what is left, so the footprint tracks the
    /// backlog, not the traffic since it began.
    pub(crate) fn consume(&mut self, n: usize) {
        self.head += n;
        if self.is_empty() && self.buf.capacity() > WBUF_KEEP_CAP {
            *self = WriteBuf::default();
        } else if self.head > self.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

/// Sender-side state of one directed link.
#[derive(Default)]
pub(crate) struct LinkState {
    /// Last sequence number assigned (the first message is 1).
    last: u64,
    /// Last sequence number pruned: the log holds `acked + 1..=last`.
    acked: u64,
    /// Their frames, in sequence order.
    log: WriteBuf,
    /// Bytes of the log the wire has taken.
    cursor: usize,
}

impl LinkState {
    /// Assign `payload` the next sequence number and append its frame.
    pub(crate) fn push(&mut self, payload: &Payload) {
        self.last += 1;
        frame_link_into(self.log.tail(), self.last, payload);
    }

    /// Messages awaiting acknowledgement.
    pub(crate) fn len(&self) -> usize {
        (self.last - self.acked) as usize
    }

    /// Offer `wire` the frames past the cursor, in sequence order, and
    /// move the cursor past the bytes of the whole frames it takes.
    pub(crate) fn offer(&mut self, wire: impl FnOnce(&[u8]) -> usize) {
        self.cursor += wire(&self.log.bytes()[self.cursor..]);
    }

    /// Drop every frame with a sequence number `<= seq`. Idempotent.
    pub(crate) fn prune(&mut self, seq: u64) {
        let mut pruned = 0;
        while self.acked < seq.min(self.last) {
            pruned += frame_len(&self.log.bytes()[pruned..]);
            self.acked += 1;
        }
        self.log.consume(pruned);
        self.cursor = self.cursor.saturating_sub(pruned);
    }

    /// Prune to `seq`; the next offer replays the log from its front.
    pub(crate) fn rewind(&mut self, seq: u64) {
        self.prune(seq);
        self.cursor = 0;
    }

    /// Sequence number of the oldest unacknowledged message, if any.
    pub(crate) fn front_seq(&self) -> Option<u64> {
        (self.acked < self.last).then_some(self.acked + 1)
    }
}

/// One site's outgoing links, indexed by destination.
pub(crate) struct Links {
    lanes: Vec<Mutex<LinkState>>,
}

impl Links {
    pub fn new(sites: usize) -> Self {
        Links { lanes: (0..sites).map(|_| Mutex::new(LinkState::default())).collect() }
    }

    /// Number of sites the table is dimensioned for.
    pub fn num_sites(&self) -> usize {
        self.lanes.len()
    }

    pub(crate) fn lane(&self, to: SiteId) -> &Mutex<LinkState> {
        &self.lanes[to.index()]
    }

    /// Messages on the link to `to` past the destination's durable
    /// applied mark: unlike [`LinkState::len`], not waiting for acks.
    pub fn unapplied(&self, to: SiteId, applied: u64) -> usize {
        let lane = self.lane(to).lock();
        lane.last.saturating_sub(lane.acked.max(applied)) as usize
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::Arc;

    use proptest::prelude::*;
    use repl_net::{encode_framed, FrameReader, Subtxn, SubtxnKind, WireMsg};
    use repl_types::{GlobalTxnId, ItemId, Value};

    use super::*;
    use crate::transport::{Net, Transport};

    const PEER: SiteId = SiteId(1);

    /// A wire whose buffer has `room` bytes left, recording every offer
    /// and every byte it took.
    #[derive(Default)]
    struct Gate(Mutex<GateState>);

    #[derive(Default)]
    struct GateState {
        room: usize,
        offers: Vec<Vec<u8>>,
        taken: Vec<u8>,
    }

    impl Transport for Gate {
        fn try_send(&self, _: SiteId, offered: &[u8]) -> usize {
            let mut gate = self.0.lock();
            // Whole frames, while it has room, as the reactor's lanes do.
            let mut taken = 0;
            for frame in frames(offered) {
                if taken >= gate.room {
                    break;
                }
                taken += frame.len();
            }
            gate.room = gate.room.saturating_sub(taken);
            gate.offers.push(offered.to_vec());
            gate.taken.extend_from_slice(&offered[..taken]);
            taken
        }

        fn send_ack(&self, _: SiteId, _: u64) {}
    }

    fn net_over_gate() -> (Net, Arc<Links>, Arc<Gate>) {
        let (links, gate) = (Arc::new(Links::new(2)), Arc::new(Gate::default()));
        (Net::new(SiteId(0), links.clone(), gate.clone()), links, gate)
    }

    /// The sequence numbers of the `Link` frames in `bytes`.
    fn seqs(bytes: &[u8]) -> Vec<u64> {
        let mut reader = FrameReader::new();
        reader.feed(bytes);
        let mut seqs = Vec::new();
        while let Some(WireMsg::Link { seq, .. }) = reader.next_msg().unwrap() {
            seqs.push(seq);
        }
        assert_eq!(reader.buffered(), 0, "whole link frames only");
        seqs
    }

    /// A payload whose frame is `writes` values of `bytes` bytes long (a
    /// decision when `writes` is 0), so frames differ in length.
    fn payload(n: u64, writes: usize, bytes: usize) -> Payload {
        let gid = GlobalTxnId::new(SiteId(0), n);
        if writes == 0 {
            return Payload::Decision { gid, commit: n.is_multiple_of(2) };
        }
        Payload::Subtxn(Subtxn {
            gid,
            origin: SiteId(0),
            kind: SubtxnKind::Normal,
            ts: None,
            writes: (0..writes).map(|i| (ItemId(i as u32), Value::Bytes(vec![7; bytes]))).collect(),
            dest_sites: vec![PEER],
        })
    }

    /// A lane with room for half of eight frames takes four and refuses
    /// the rest; once it drains, the link sends on from its cursor. Every
    /// sequence number reaches the wire exactly once — a drain that
    /// replayed from the front would offer the four taken frames again.
    #[test]
    fn a_drained_lane_sends_on_from_the_cursor_and_repeats_no_frame() {
        let (net, _, gate) = net_over_gate();
        let frame = encode_framed(&WireMsg::Link { seq: 1, payload: payload(0, 0, 0) }).len();
        gate.0.lock().room = 4 * frame;
        for n in 0..8 {
            net.send(PEER, &payload(n, 0, 0));
        }
        assert_eq!(seqs(&gate.0.lock().taken), [1, 2, 3, 4]);
        assert_eq!(net.lane_len(PEER), 8);

        gate.0.lock().room = usize::MAX;
        net.offer(PEER);
        assert_eq!(seqs(&gate.0.lock().taken), (1..=8).collect::<Vec<_>>());
        // An ack prunes what the wire took; nothing is offered twice.
        net.on_ack(PEER, 8);
        net.offer(PEER);
        assert_eq!(seqs(&gate.0.lock().taken), (1..=8).collect::<Vec<_>>());
        assert_eq!((net.lane_len(PEER), net.front_seq(PEER)), (0, None));
    }

    #[derive(Clone, Debug)]
    enum Step {
        /// Send a payload of `writes` values of `bytes` bytes.
        Send { writes: usize, bytes: usize },
        /// The peer acks the `k`-th unacknowledged message (0: an ack
        /// below the front).
        Ack(u64),
        /// A reconnect, the peer having applied the first `k`.
        Resume(u64),
        /// The wire's buffer has `room` bytes left.
        Room(usize),
        /// The buffer drains and the link sends on from its cursor.
        Drain,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => (0usize..4, 0usize..40).prop_map(|(writes, bytes)| Step::Send { writes, bytes }),
            2 => (0u64..6).prop_map(Step::Ack),
            1 => (0u64..6).prop_map(Step::Resume),
            2 => (0usize..300).prop_map(Step::Room),
            1 => Just(Step::Drain),
        ]
    }

    /// The link as the outbox of decoded payloads it replaced: the
    /// unacknowledged `(seq, payload)` pairs, and how many of them the
    /// wire has taken.
    #[derive(Default)]
    struct Model {
        unacked: VecDeque<(u64, Payload)>,
        next_seq: u64,
        sent: usize,
    }

    impl Model {
        fn front(&self) -> u64 {
            self.unacked.front().map_or(self.next_seq + 1, |(seq, _)| *seq)
        }

        fn prune(&mut self, seq: u64) {
            while self.unacked.front().is_some_and(|(s, _)| *s <= seq) {
                self.unacked.pop_front();
                self.sent = self.sent.saturating_sub(1);
            }
        }

        /// The frames of the pairs from the `from`-th on.
        fn encoded(&self, from: usize) -> Vec<u8> {
            let mut bytes = Vec::new();
            for (seq, payload) in self.unacked.iter().skip(from) {
                let frame = WireMsg::Link { seq: *seq, payload: payload.clone() };
                bytes.extend_from_slice(&encode_framed(&frame));
            }
            bytes
        }
    }

    proptest! {
        /// Random sends, acks, reconnects, refusals and drains against
        /// the outbox of decoded payloads: every offer is exactly the
        /// model's frames from its cursor — after a rewind, all of them,
        /// in order — the wire takes whole frames, and the counts the
        /// site reads (`lane_len`, `front_seq`, `unapplied`) agree. The
        /// log holds the frames' encoded bytes and nothing else.
        #[test]
        fn the_link_log_offers_what_the_payload_outbox_would(
            steps in prop::collection::vec(step(), 1..60),
        ) {
            let (net, links, gate) = net_over_gate();
            gate.0.lock().room = usize::MAX;
            let mut model = Model::default();
            for (n, step) in steps.into_iter().enumerate() {
                let (offers, taken) = {
                    let gate = gate.0.lock();
                    (gate.offers.len(), gate.taken.len())
                };
                match step {
                    Step::Send { writes, bytes } => {
                        let p = payload(n as u64, writes, bytes);
                        model.next_seq += 1;
                        model.unacked.push_back((model.next_seq, p.clone()));
                        net.send(PEER, &p);
                    }
                    Step::Ack(k) => {
                        let seq = (model.front() + k).saturating_sub(1).min(model.next_seq);
                        model.prune(seq);
                        net.on_ack(PEER, seq);
                    }
                    Step::Resume(k) => {
                        let seq = (model.front() + k).saturating_sub(1).min(model.next_seq);
                        model.prune(seq);
                        model.sent = 0;
                        net.resume(PEER, seq);
                    }
                    Step::Room(room) => gate.0.lock().room = room,
                    Step::Drain => {
                        gate.0.lock().room = usize::MAX;
                        net.offer(PEER);
                    }
                }
                let gate = gate.0.lock();
                if let Some(offer) = gate.offers.get(offers) {
                    // One attempt, of the model's frames past its cursor;
                    // the wire took the leading ones, whole.
                    prop_assert_eq!(gate.offers.len(), offers + 1);
                    prop_assert_eq!(offer, &model.encoded(model.sent));
                    let took = seqs(&gate.taken[taken..]);
                    let next = model.unacked.iter().skip(model.sent).map(|(seq, _)| *seq);
                    prop_assert_eq!(&took, &next.take(took.len()).collect::<Vec<_>>());
                    model.sent += took.len();
                }
                drop(gate);
                prop_assert_eq!(net.lane_len(PEER), model.unacked.len());
                prop_assert_eq!(net.front_seq(PEER), model.unacked.front().map(|(s, _)| *s));
                for applied in [0, model.front().saturating_sub(1), model.front() + 1, model.next_seq] {
                    let want = model.unacked.iter().filter(|(s, _)| *s > applied).count();
                    prop_assert_eq!(links.unapplied(PEER, applied), want);
                }
                let live = links.lane(PEER).lock().log.len();
                prop_assert_eq!(live, model.encoded(0).len());
            }
        }
    }
}
