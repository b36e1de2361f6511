//! Reliable inter-site links: the transport-independent half.
//!
//! A wire loses what it holds when a connection or a site dies. This
//! module holds the state of the classic reliable-FIFO-link
//! construction the paper assumes of its network (§2 "messages sent
//! from one site to another are received in the same order"):
//!
//! * Every directed site pair has a [`LinkState`]: a monotone sequence
//!   counter and a **log** of unacknowledged messages, each encoded once
//!   as its `Link` frame, with a byte cursor at the first byte the
//!   socket has not taken. The log is the one copy of a frame on its way
//!   out: the reactor writes it to the peer's socket straight from the
//!   cursor, and the kernel may take part of a frame, so the cursor can
//!   stop inside one. The log is part of what a site hands back when
//!   it crashes (`SiteParts`), so it survives the *sender* crashing too
//!   — it models the durable commit record from which a recovering site
//!   can always re-derive its propagation obligations.
//! * One connection carries each sequence number at most once: the
//!   cursor only moves forward while the connection lives. A connection
//!   that dies loses what it carried; the next one starts a fresh stream
//!   at the log's front, on a frame boundary, after pruning to the
//!   receiver's durable mark ([`LinkState::resume`]).
//! * The receiver re-acks anything at or below its durable per-link
//!   high-water mark (a duplicate) and drops anything ahead of
//!   `mark + 1` (a gap), so delivery is exactly-once and per-link FIFO
//!   even across crash and reconnect races.
//! * Acknowledgement is receiver-driven and cumulative: the receiver
//!   owes the sender its highest durably applied sequence `s`, and
//!   writes that mark once a reactor pass; it prunes the log's frames
//!   `<= s` at the sender.
//!
//! Only the "one nonblocking write of the log's bytes" step is the
//! wire's ([`crate::transport::Transport`]); the sequencing, logging and
//! acking logic exists exactly once, here and in
//! [`crate::transport::Net`].

use std::io;

use repl_net::{frame_link_into, Payload};

/// Bytes of the frame at the front of `bytes`, its prefix included.
fn frame_len(bytes: &[u8]) -> usize {
    let body = bytes.first_chunk().map_or(0, |prefix| u32::from_be_bytes(*prefix) as usize);
    (4 + body).min(bytes.len())
}

/// The frames of `bytes`, front to back, prefixes included: the log
/// holds whole frames only.
pub(crate) fn frames(mut bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (frame, rest) = bytes.split_at(frame_len(bytes));
        bytes = rest;
        (!frame.is_empty()).then_some(frame)
    })
}

/// A peer socket as the link layer sees it: one nonblocking `write`,
/// returning the bytes it took or `WouldBlock`. The reactor hands its
/// audited `write_some` helper in, so the raw write stays there.
pub(crate) type Sink<'a> = dyn FnMut(&[u8]) -> io::Result<usize> + 'a;

/// Write `bytes` to `sink` until it has taken them all or would block,
/// and return how many it took. Any other error means the connection is
/// broken.
pub(crate) fn write_taken(sink: &mut Sink<'_>, bytes: &[u8]) -> io::Result<usize> {
    let mut taken = 0;
    while taken < bytes.len() {
        match sink(&bytes[taken..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => taken += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(taken)
}

/// Past this capacity a drained [`WriteBuf`] gives its allocation back:
/// it grew for one burst (a backlog behind a partition), not for steady
/// traffic.
const WBUF_KEEP_CAP: usize = 64 * 1024;

/// A byte queue: frame encoders append to it in place, and it is
/// consumed from the front — a connection's private write buffer as
/// nonblocking writes drain it, a link's log as acks prune it.
/// Contiguous — the live bytes are `buf[head..]` — so a frame is encoded
/// once, where it is sent from, and a flush is one `write` of one slice.
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

    pub(crate) fn heap_bytes(&self) -> usize {
        self.buf.capacity()
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

    /// Write the live bytes to `sink` until it would block, consuming
    /// what it takes.
    pub(crate) fn flush(&mut self, sink: &mut Sink<'_>) -> io::Result<()> {
        let taken = write_taken(sink, self.bytes())?;
        self.consume(taken);
        Ok(())
    }
}

/// Sender-side state of one directed link.
#[derive(Default)]
pub(crate) struct LinkState {
    /// Last sequence number assigned (the first message is 1).
    last: u64,
    /// Highest sequence number acknowledged.
    acked: u64,
    /// Last sequence number dropped: the log holds `dropped + 1..=last`.
    /// Behind `acked` only while the socket is partway through a frame
    /// the ack covers ([`LinkState::prune`]).
    dropped: u64,
    /// Their frames, in sequence order.
    log: WriteBuf,
    /// Bytes of the log the wire has taken on this connection: whole
    /// frames, and part of the next one when the socket took only part
    /// of it.
    cursor: usize,
}

impl LinkState {
    /// Heap bytes of the log.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.log.heap_bytes()
    }

    /// Assign `payload` the next sequence number and append its frame.
    pub(crate) fn push(&mut self, payload: &Payload) {
        self.last += 1;
        frame_link_into(self.log.tail(), self.last, payload);
    }

    /// Messages awaiting acknowledgement.
    pub(crate) fn len(&self) -> usize {
        (self.last - self.acked) as usize
    }

    /// Offer `wire` the log past the cursor, and move the cursor past
    /// the bytes it takes.
    pub(crate) fn offer(
        &mut self,
        wire: impl FnOnce(&[u8]) -> io::Result<usize>,
    ) -> io::Result<()> {
        self.cursor += wire(&self.log.bytes()[self.cursor..])?;
        // An ack that came while the socket was inside a frame it covers.
        self.prune(self.acked);
        Ok(())
    }

    /// Drop every frame with a sequence number `<= seq`, except one the
    /// socket is partway through and those after it: the rest of that
    /// frame must still go, and they go once it has. Idempotent.
    pub(crate) fn prune(&mut self, seq: u64) {
        self.acked = self.acked.max(seq.min(self.last));
        let mut pruned = 0;
        while self.dropped < self.acked {
            let end = pruned + frame_len(&self.log.bytes()[pruned..]);
            if pruned < self.cursor && self.cursor < end {
                break;
            }
            pruned = end;
            self.dropped += 1;
        }
        self.log.consume(pruned);
        self.cursor = self.cursor.saturating_sub(pruned);
    }

    /// A new connection: prune to `seq`, the peer's durable mark, and
    /// send the log from its front — a fresh stream starts on a frame.
    pub(crate) fn resume(&mut self, seq: u64) {
        self.cursor = 0;
        self.prune(seq);
    }
}

/// One site's outgoing links, indexed by destination.
pub(crate) type Links = Vec<LinkState>;

/// Per peer, `(sent, applied)`: the last sequence number `links` assigned
/// toward it, and the highest one `applied` from it — the link marks a
/// site serves in its `Stats` (`(0, 0)` for itself).
pub(crate) fn link_marks(links: &[LinkState], applied: &[u64]) -> Vec<(u64, u64)> {
    links.iter().zip(applied).map(|(lane, &applied)| (lane.last, applied)).collect()
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, VecDeque};

    use proptest::prelude::*;
    use repl_net::{encode_framed, FrameReader, Subtxn, SubtxnKind, WireMsg};
    use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

    use super::*;
    use crate::transport::{Direct, Net};

    const PEER: SiteId = SiteId(1);

    /// A socket whose kernel buffer has `room` bytes left and that takes
    /// at most `chunk` bytes a `write`, keeping every byte it took.
    struct Socket {
        room: usize,
        chunk: usize,
        taken: Vec<u8>,
    }

    impl Socket {
        fn new(room: usize) -> Self {
            Socket { room, chunk: usize::MAX, taken: Vec::new() }
        }

        fn sink(&mut self) -> impl FnMut(&[u8]) -> io::Result<usize> + '_ {
            |bytes| {
                let n = bytes.len().min(self.room).min(self.chunk);
                if n == 0 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                self.room -= n;
                self.taken.extend_from_slice(&bytes[..n]);
                Ok(n)
            }
        }
    }

    fn net() -> Net {
        Net::new(SiteId(0), (0..2).map(|_| LinkState::default()).collect(), Box::new(Direct))
    }

    /// The link to [`PEER`].
    fn lane(net: &Net) -> &LinkState {
        &net.links()[PEER.index()]
    }

    /// Sequence number of the oldest unacknowledged message, if any.
    fn front_seq(lane: &LinkState) -> Option<u64> {
        (lane.acked < lane.last).then_some(lane.acked + 1)
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

    /// A socket with room for four and a half of eight frames takes that
    /// much — the cursor stops inside the fifth — and once it drains the
    /// link writes on from the cursor. Every sequence number reaches the
    /// socket exactly once, whole, and an ack that comes while the socket
    /// is inside a frame it covers drops that frame once it is written.
    #[test]
    fn a_drained_lane_sends_on_from_the_cursor_and_repeats_no_frame() {
        let mut net = net();
        let frame = encode_framed(&WireMsg::Link { seq: 1, payload: payload(0, 0, 0) }).len();
        for n in 0..8 {
            net.send(PEER, &payload(n, 0, 0));
        }
        let mut socket = Socket::new(4 * frame + frame / 2);
        net.flush(PEER, &mut socket.sink()).unwrap();
        assert_eq!(socket.taken.len(), 4 * frame + frame / 2);
        assert_eq!(seqs(&socket.taken[..4 * frame]), [1, 2, 3, 4]);
        assert_eq!(net.lane_len(PEER), 8);

        // The peer applied 1..=5 (from an earlier copy): all but the
        // fifth frame, whose rest is still to go, leave the log.
        net.on_ack(PEER, 5);
        assert_eq!((net.lane_len(PEER), lane(&net).dropped), (3, 4));
        socket.room = usize::MAX;
        net.flush(PEER, &mut socket.sink()).unwrap();
        assert_eq!(seqs(&socket.taken), (1..=8).collect::<Vec<_>>());
        assert_eq!(lane(&net).log.len(), 3 * frame);
        net.on_ack(PEER, 8);
        net.flush(PEER, &mut socket.sink()).unwrap();
        assert_eq!(seqs(&socket.taken), (1..=8).collect::<Vec<_>>());
        assert_eq!((net.lane_len(PEER), front_seq(lane(&net))), (0, None));
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
        /// Flush to a socket with `room` bytes left that takes at most
        /// `chunk` a write.
        Flush { room: usize, chunk: usize },
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => (0usize..4, 0usize..40).prop_map(|(writes, bytes)| Step::Send { writes, bytes }),
            2 => (0u64..6).prop_map(Step::Ack),
            1 => (0u64..6).prop_map(Step::Resume),
            3 => (prop_oneof![0usize..300, Just(usize::MAX)], 1usize..100)
                .prop_map(|(room, chunk)| Step::Flush { room, chunk }),
        ]
    }

    /// The link as the outbox of decoded payloads it replaced, and what
    /// one connection's byte stream delivered of it.
    #[derive(Default)]
    struct Model {
        unacked: VecDeque<(u64, Payload)>,
        next_seq: u64,
        /// Every payload sent, by sequence number - 1.
        sent: Vec<Payload>,
        /// The current connection's stream, as the peer decodes it.
        stream: FrameReader,
        /// The last sequence number the stream delivered, if any.
        last: Option<u64>,
        /// The sequence numbers the stream delivered.
        delivered: BTreeSet<u64>,
    }

    impl Model {
        fn front(&self) -> u64 {
            self.unacked.front().map_or(self.next_seq + 1, |(seq, _)| *seq)
        }

        fn prune(&mut self, seq: u64) {
            while self.unacked.front().is_some_and(|(s, _)| *s <= seq) {
                self.unacked.pop_front();
            }
        }

        /// The frames of the sequence numbers past `from`.
        fn encoded(&self, from: u64) -> Vec<u8> {
            let mut bytes = Vec::new();
            for seq in from + 1..=self.next_seq {
                let payload = self.sent[seq as usize - 1].clone();
                bytes.extend_from_slice(&encode_framed(&WireMsg::Link { seq, payload }));
            }
            bytes
        }
    }

    proptest! {
        /// Random sends, acks, reconnects and flushes to a socket that
        /// takes any number of bytes a write, against the outbox of
        /// decoded payloads: the bytes a connection carries decode to
        /// whole frames of the model's payloads, in sequence order,
        /// skipping only acknowledged ones, each sequence number at most
        /// once — a frame goes again only on a new connection, from a
        /// frame boundary — and a flush the socket takes whole leaves
        /// every unacknowledged frame delivered. The counts the site reads
        /// (`lane_len`, `front_seq`, the sent mark) agree with the model,
        /// and the log holds the frames' encoded bytes and nothing else.
        #[test]
        fn the_link_log_offers_what_the_payload_outbox_would(
            steps in prop::collection::vec(step(), 1..60),
        ) {
            let mut net = net();
            let mut model = Model::default();
            for (n, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Send { writes, bytes } => {
                        let p = payload(n as u64, writes, bytes);
                        model.next_seq += 1;
                        model.unacked.push_back((model.next_seq, p.clone()));
                        model.sent.push(p.clone());
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
                        (model.stream, model.last) = (FrameReader::new(), None);
                        model.delivered.clear();
                        net.resume(PEER, seq);
                    }
                    Step::Flush { room, chunk } => {
                        let mut socket = Socket { room, chunk, taken: Vec::new() };
                        net.flush(PEER, &mut socket.sink()).unwrap();
                        model.stream.feed(&socket.taken);
                        while let Some(msg) = model.stream.next_msg().unwrap() {
                            let WireMsg::Link { seq, payload } = msg else {
                                panic!("not a link frame: {msg:?}");
                            };
                            prop_assert_eq!(&payload, &model.sent[seq as usize - 1]);
                            prop_assert!(model.delivered.insert(seq), "{} twice", seq);
                            if let Some(last) = model.last {
                                // Forward, skipping only what the peer acknowledged.
                                prop_assert!(seq - 1 == last || (last < seq && seq <= model.front()));
                            }
                            model.last = Some(seq);
                        }
                        if room == usize::MAX {
                            for (seq, _) in &model.unacked {
                                prop_assert!(model.delivered.contains(seq), "{} undelivered", seq);
                            }
                        }
                    }
                }
                prop_assert_eq!(net.lane_len(PEER), model.unacked.len());
                prop_assert_eq!(front_seq(lane(&net)), model.unacked.front().map(|(s, _)| *s));
                let lane = lane(&net);
                prop_assert_eq!(link_marks(net.links(), &[0, 0])[PEER.index()], (model.next_seq, 0));
                let kept = model.encoded(lane.dropped);
                prop_assert_eq!(lane.log.bytes(), kept.as_slice());
                if lane.dropped < lane.acked {
                    // Kept for the rest of the frame the socket is inside.
                    prop_assert!(0 < lane.cursor && lane.cursor < frame_len(lane.log.bytes()));
                }
            }
        }
    }
}
