//! Message types and their binary encoding.
//!
//! One tag space covers every message that can appear on a connection;
//! which tags are *expected* depends on the connection's role (peer
//! link vs. client session), but decoding is uniform so a misdirected
//! message fails loudly at the protocol layer, not in the parser.
//!
//! | tag | message | direction |
//! |-----|---------|-----------|
//! | 1 | [`Hello`] | dialer → accepter, first frame of a peer link |
//! | 2 | [`HelloAck`] | accepter → dialer |
//! | 3 | `Reject` | accepter → dialer (handshake refused) |
//! | 4 | `Link` (seq + [`Payload`]) | dialer → accepter |
//! | 5 | `Ack` (seq) | accepter → dialer |
//! | 6 | [`ClientMsg`] | client → repld |
//! | 7 | [`ClientReply`] | repld → client |
//! | 8 | `Batch` (first_seq + N [`Payload`]s) | dialer → accepter, version ≥ 2 |

use std::fmt::{self, Write as _};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use repl_protocol::timestamp::Timestamp;
use repl_storage::codec::{self, CodecError};
use repl_types::{GlobalTxnId, ItemId, Op, OpKind, SiteId, Value};

use crate::conn::MAGIC;

/// Errors raised while decoding wire bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The frame ended mid-field.
    Truncated,
    /// Unknown message, payload, kind or value tag.
    BadTag(u8),
    /// A length prefix exceeds [`crate::frame::MAX_FRAME_LEN`].
    Oversized(u64),
    /// A `Hello` whose magic number is not [`MAGIC`].
    BadMagic(u32),
    /// A varint that is padded or does not fit its field.
    Overlong,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Truncated => write!(f, "frame truncated"),
            NetError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            NetError::Oversized(n) => write!(f, "frame length {n} exceeds the frame cap"),
            NetError::BadMagic(m) => write!(f, "bad protocol magic {m:#010x}"),
            NetError::Overlong => write!(f, "over-long varint"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => NetError::Truncated,
            CodecError::BadTag(t) => NetError::BadTag(t),
            CodecError::Overlong => NetError::Overlong,
        }
    }
}

// The propagation-record vocabulary (Subtxn, SubtxnKind, Payload) is
// defined by the sans-I/O protocol core; this crate owns only its wire
// encoding, and re-exports the types for existing users.
pub use repl_protocol::{Payload, Subtxn, SubtxnKind};

/// First frame of a peer connection, sent by the dialer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Dialing site.
    pub site: SiteId,
    /// Lowest protocol version the dialer speaks.
    pub version_min: u16,
    /// Highest protocol version the dialer speaks.
    pub version_max: u16,
    /// Fingerprint of (placement, protocol); both ends must agree they
    /// are in the same cluster before any propagation record flows.
    pub cluster: u64,
}

/// The accepter's handshake reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HelloAck {
    /// Negotiated protocol version (≤ both sides' max).
    pub version: u16,
    /// Accepting site.
    pub site: SiteId,
    /// The accepter's durable high-water mark for the dialer's link:
    /// every sequence ≤ this is already applied, so the dialer prunes
    /// its outbox to here and retransmits the rest (the rejoin
    /// handshake).
    pub resume_seq: u64,
}

/// A typed transaction-execution error carried over the client protocol
/// (mirrors the runtime's `ClusterError` without depending on it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The site holds no copy of an item the transaction reads.
    NoCopy(SiteId, ItemId),
    /// The transaction writes an item whose primary is elsewhere.
    NotPrimary(SiteId, ItemId),
    /// Site id out of range.
    NoSuchSite(SiteId),
    /// The site is down or shutting down.
    Disconnected,
    /// The site is shedding load: its outbox towards `peer` holds
    /// `queued` unacknowledged messages, at or past the configured
    /// high-water mark. Retry later; the transaction was not admitted.
    Backpressure {
        /// The congested peer.
        peer: SiteId,
        /// Messages queued towards it when the transaction was refused.
        queued: u64,
    },
    /// A BackEdge eager phase outlived its deadline and the transaction
    /// was aborted everywhere: nothing of it committed.
    EagerTimeout(GlobalTxnId),
    /// Anything else, as text.
    Other(String),
}

/// Requests a client session sends to a `repld` process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientMsg {
    /// Execute a transaction and reply [`ClientReply::Executed`].
    Execute(Vec<Op>),
    /// Non-transactional read of one copy; reply [`ClientReply::Cell`].
    Peek(ItemId),
    /// Progress counters; reply [`ClientReply::Stats`].
    Stats,
    /// A page of the canonical bytes of the site's copy state; reply
    /// [`ClientReply::State`]. A cursor fetch, like
    /// [`ClientMsg::History`]: the reply images the site's copies from
    /// number `from` on (ascending by item), as many as fit one storage
    /// segment of cells, and none at the end. Joining the pages gives
    /// the image a whole-store reply would, however large the store.
    CopyState {
        /// Copies of this site the caller already holds.
        from: u64,
    },
    /// Install the peer address map and start dialing; reply
    /// [`ClientReply::Ok`]. Used by launchers that bind listeners on
    /// ephemeral ports and only then learn the cluster's addresses.
    Peers(Vec<(SiteId, String)>),
    /// Fault injection: drop both connections to/from `peer`, forcing a
    /// reconnect + retransmission cycle; reply [`ClientReply::Ok`].
    KillConn(SiteId),
    /// Stop the site process gracefully; reply [`ClientReply::Ok`].
    Shutdown,
    /// A page of the site's committed-transaction history (for the
    /// one-copy serializability checker); reply
    /// [`ClientReply::History`]. A cursor fetch: the caller passes how
    /// many of the site's transactions it already holds and adds the
    /// length of each page to that count until a page comes back empty.
    /// A page ends where the site's storage segment does, so a reply
    /// stays far below the frame cap however long the history is.
    History {
        /// Transactions of this site the caller already holds.
        from: u64,
    },
}

/// One committed transaction in a [`ClientReply::History`] reply:
/// `(gid, reads, writes)` — `reads` pairing each item with the gid of
/// the version read (`None` for the initial version). Plain tuples
/// rather than the analysis crate's types so the wire layer stays
/// dependency-free; the checker reassembles them.
pub type HistoryTxn = (GlobalTxnId, Vec<(ItemId, Option<GlobalTxnId>)>, Vec<ItemId>);

/// Replies a `repld` process sends on a client session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientReply {
    /// Outcome of [`ClientMsg::Execute`].
    Executed(Result<GlobalTxnId, ExecError>),
    /// Outcome of [`ClientMsg::Peek`].
    Cell(Option<(Value, Option<GlobalTxnId>)>),
    /// Outcome of [`ClientMsg::Stats`].
    Stats {
        /// This process's contribution to the cluster-wide count of
        /// replica applications still in flight (commits here add the
        /// destination count, applications here subtract one; may be
        /// negative per process, sums to ≥ 0 cluster-wide).
        outstanding: i64,
        /// Transactions committed at this site.
        committed: u64,
        /// Malformed, oversized or mis-typed client frames this process
        /// has refused (each one also got a typed [`ClientReply::Err`]
        /// before its connection was dropped).
        decode_errors: u64,
        /// Peers this site currently classifies `Up`.
        peers_up: u32,
        /// Peers this site currently classifies `Suspect` (traffic
        /// pending, no ack/frame progress for the suspect window).
        peers_suspect: u32,
        /// Peers this site currently classifies `Down` (no progress for
        /// the down window; the retry policy keeps probing).
        peers_down: u32,
        /// Per site, indexed by id, this site's link marks `(sent,
        /// applied)`: the last link sequence it assigned toward that
        /// site, and the highest it durably applied from it (`(0, 0)`
        /// for itself).
        links: Vec<(u64, u64)>,
        /// The site's byte census: heap bytes per structure it owns, in
        /// the order of the runtime's census table.
        census: Vec<u64>,
    },
    /// Outcome of [`ClientMsg::CopyState`]: one page, itself an image
    /// in the [`encode_cells`] format.
    State(Bytes),
    /// Generic success.
    Ok,
    /// Generic failure, as text.
    Err(String),
    /// Outcome of [`ClientMsg::History`]: the transactions committed
    /// at this site from the requested position on, in local commit
    /// order, up to the end of one storage segment; empty at the end of
    /// the history.
    History(Vec<HistoryTxn>),
}

/// Any message that can appear on a connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMsg {
    /// Peer handshake request.
    Hello(Hello),
    /// Peer handshake reply.
    HelloAck(HelloAck),
    /// Handshake refused (version ranges disjoint, wrong cluster, …).
    Reject(String),
    /// One reliable-link message: the link's sequence number plus the
    /// payload. The sending site is the connection's dialer, established
    /// by its `Hello` — it is not repeated per frame.
    Link {
        /// Sequence number on the dialer → accepter link.
        seq: u64,
        /// The payload.
        payload: Payload,
    },
    /// Cumulative acknowledgement: every link sequence ≤ `seq` received
    /// on this connection has been accepted durably.
    Ack {
        /// The acknowledged high-water mark.
        seq: u64,
    },
    /// Several consecutive link messages coalesced into one frame: the
    /// payloads carry sequence numbers `first_seq`, `first_seq + 1`, …,
    /// `first_seq + N - 1`. Decoding caps `N` at [`MAX_BATCH_PAYLOADS`].
    /// No site sends one (a peer link that carries one is closed); the
    /// codec stays only because the benchmark package times its
    /// encoding (`net.encode_batch8_ns_per_payload`) and goes with that
    /// probe.
    Batch {
        /// Sequence number of the first payload on the link.
        first_seq: u64,
        /// The coalesced payloads, in sequence order (≥ 1).
        payloads: Vec<Payload>,
    },
    /// A client request.
    Client(ClientMsg),
    /// A client reply.
    Reply(ClientReply),
}

impl WireMsg {
    /// The message's kind, for error reporting ("expected X, got Y").
    pub fn kind_name(&self) -> &'static str {
        match self {
            WireMsg::Hello(_) => "Hello",
            WireMsg::HelloAck(_) => "HelloAck",
            WireMsg::Reject(_) => "Reject",
            WireMsg::Link { .. } => "Link",
            WireMsg::Ack { .. } => "Ack",
            WireMsg::Client(_) => "Client",
            WireMsg::Reply(_) => "Reply",
            WireMsg::Batch { .. } => "Batch",
        }
    }
}

/// Hard cap on the payload count of one [`WireMsg::Batch`]. A decoded
/// count past this is rejected as [`NetError::Oversized`] before any
/// payload is parsed, bounding allocation from hostile length prefixes.
pub const MAX_BATCH_PAYLOADS: usize = 4096;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_timestamp(buf: &mut impl BufMut, ts: &Timestamp) {
    buf.put_u64(ts.epoch);
    buf.put_u32(ts.tuples.len() as u32);
    for (site, lts) in &ts.tuples {
        buf.put_u32(site.0);
        buf.put_u64(*lts);
    }
}

fn get_timestamp(buf: &mut Bytes) -> Result<Timestamp, NetError> {
    let epoch = codec::get_u64(buf)?;
    let n = codec::get_u32(buf)? as usize;
    let mut tuples = Vec::with_capacity(n.min(buf.len() / 12));
    for _ in 0..n {
        let site = SiteId(codec::get_u32(buf)?);
        let lts = codec::get_u64(buf)?;
        tuples.push((site, lts));
    }
    Ok(Timestamp { epoch, tuples })
}

fn put_subtxn(buf: &mut impl BufMut, sub: &Subtxn) {
    codec::put_gid(buf, sub.gid);
    buf.put_u32(sub.origin.0);
    buf.put_u8(match sub.kind {
        SubtxnKind::Normal => 0,
        SubtxnKind::Dummy => 1,
        SubtxnKind::Special => 2,
    });
    match &sub.ts {
        None => buf.put_u8(0),
        Some(ts) => {
            buf.put_u8(1);
            put_timestamp(buf, ts);
        }
    }
    buf.put_u32(sub.writes.len() as u32);
    for (item, value) in &sub.writes {
        buf.put_u32(item.0);
        codec::put_value(buf, value);
    }
    buf.put_u32(sub.dest_sites.len() as u32);
    for d in &sub.dest_sites {
        buf.put_u32(d.0);
    }
}

fn get_subtxn(buf: &mut Bytes) -> Result<Subtxn, NetError> {
    let gid = codec::get_gid(buf)?;
    let origin = SiteId(codec::get_u32(buf)?);
    let kind = match codec::get_u8(buf)? {
        0 => SubtxnKind::Normal,
        1 => SubtxnKind::Dummy,
        2 => SubtxnKind::Special,
        t => return Err(NetError::BadTag(t)),
    };
    let ts = match codec::get_u8(buf)? {
        0 => None,
        1 => Some(get_timestamp(buf)?),
        t => return Err(NetError::BadTag(t)),
    };
    let n_writes = codec::get_u32(buf)? as usize;
    let mut writes = Vec::with_capacity(n_writes.min(buf.len() / 5));
    for _ in 0..n_writes {
        let item = ItemId(codec::get_u32(buf)?);
        let value = codec::get_value(buf)?;
        writes.push((item, value));
    }
    let n_dests = codec::get_u32(buf)? as usize;
    let mut dest_sites = Vec::with_capacity(n_dests.min(buf.len() / 4));
    for _ in 0..n_dests {
        dest_sites.push(SiteId(codec::get_u32(buf)?));
    }
    Ok(Subtxn { gid, origin, kind, ts, writes, dest_sites })
}

fn put_payload(buf: &mut impl BufMut, payload: &Payload) {
    match payload {
        Payload::Subtxn(sub) => {
            buf.put_u8(1);
            put_subtxn(buf, sub);
        }
        Payload::Decision { gid, commit } => {
            buf.put_u8(2);
            codec::put_gid(buf, *gid);
            buf.put_u8(u8::from(*commit));
        }
    }
}

fn get_payload(buf: &mut Bytes) -> Result<Payload, NetError> {
    match codec::get_u8(buf)? {
        1 => Ok(Payload::Subtxn(get_subtxn(buf)?)),
        2 => {
            let gid = codec::get_gid(buf)?;
            let commit = match codec::get_u8(buf)? {
                0 => false,
                1 => true,
                t => return Err(NetError::BadTag(t)),
            };
            Ok(Payload::Decision { gid, commit })
        }
        t => Err(NetError::BadTag(t)),
    }
}

fn put_ops(buf: &mut impl BufMut, ops: &[Op]) {
    buf.put_u32(ops.len() as u32);
    for op in ops {
        buf.put_u8(match op.kind {
            OpKind::Read => 0,
            OpKind::Write => 1,
        });
        buf.put_u32(op.item.0);
        codec::put_value(buf, &op.value);
    }
}

fn get_ops(buf: &mut Bytes) -> Result<Vec<Op>, NetError> {
    let n = codec::get_u32(buf)? as usize;
    let mut ops = Vec::with_capacity(n.min(buf.len() / 6));
    for _ in 0..n {
        let kind = match codec::get_u8(buf)? {
            0 => OpKind::Read,
            1 => OpKind::Write,
            t => return Err(NetError::BadTag(t)),
        };
        let item = ItemId(codec::get_u32(buf)?);
        let value = codec::get_value(buf)?;
        ops.push(Op { item, kind, value });
    }
    Ok(ops)
}

fn put_exec_error(buf: &mut impl BufMut, e: &ExecError) {
    match e {
        ExecError::NoCopy(s, i) => {
            buf.put_u8(1);
            buf.put_u32(s.0);
            buf.put_u32(i.0);
        }
        ExecError::NotPrimary(s, i) => {
            buf.put_u8(2);
            buf.put_u32(s.0);
            buf.put_u32(i.0);
        }
        ExecError::NoSuchSite(s) => {
            buf.put_u8(3);
            buf.put_u32(s.0);
        }
        ExecError::Disconnected => buf.put_u8(4),
        ExecError::Other(msg) => {
            buf.put_u8(5);
            codec::put_str(buf, msg);
        }
        ExecError::Backpressure { peer, queued } => {
            buf.put_u8(6);
            buf.put_u32(peer.0);
            buf.put_u64(*queued);
        }
        ExecError::EagerTimeout(gid) => {
            buf.put_u8(7);
            codec::put_gid(buf, *gid);
        }
    }
}

fn get_exec_error(buf: &mut Bytes) -> Result<ExecError, NetError> {
    Ok(match codec::get_u8(buf)? {
        1 => ExecError::NoCopy(SiteId(codec::get_u32(buf)?), ItemId(codec::get_u32(buf)?)),
        2 => ExecError::NotPrimary(SiteId(codec::get_u32(buf)?), ItemId(codec::get_u32(buf)?)),
        3 => ExecError::NoSuchSite(SiteId(codec::get_u32(buf)?)),
        4 => ExecError::Disconnected,
        5 => ExecError::Other(codec::get_str(buf)?),
        6 => ExecError::Backpressure {
            peer: SiteId(codec::get_u32(buf)?),
            queued: codec::get_u64(buf)?,
        },
        7 => ExecError::EagerTimeout(codec::get_gid(buf)?),
        t => return Err(NetError::BadTag(t)),
    })
}

fn put_client(buf: &mut impl BufMut, msg: &ClientMsg) {
    match msg {
        ClientMsg::Execute(ops) => {
            buf.put_u8(1);
            put_ops(buf, ops);
        }
        ClientMsg::Peek(item) => {
            buf.put_u8(2);
            buf.put_u32(item.0);
        }
        ClientMsg::Stats => buf.put_u8(3),
        ClientMsg::CopyState { from } => {
            buf.put_u8(4);
            buf.put_u64(*from);
        }
        ClientMsg::Peers(addrs) => {
            buf.put_u8(5);
            buf.put_u32(addrs.len() as u32);
            for (site, addr) in addrs {
                buf.put_u32(site.0);
                codec::put_str(buf, addr);
            }
        }
        ClientMsg::KillConn(peer) => {
            buf.put_u8(6);
            buf.put_u32(peer.0);
        }
        ClientMsg::Shutdown => buf.put_u8(7),
        ClientMsg::History { from } => {
            buf.put_u8(8);
            buf.put_u64(*from);
        }
    }
}

fn get_client(buf: &mut Bytes) -> Result<ClientMsg, NetError> {
    Ok(match codec::get_u8(buf)? {
        1 => ClientMsg::Execute(get_ops(buf)?),
        2 => ClientMsg::Peek(ItemId(codec::get_u32(buf)?)),
        3 => ClientMsg::Stats,
        4 => ClientMsg::CopyState { from: codec::get_u64(buf)? },
        5 => {
            let n = codec::get_u32(buf)? as usize;
            let mut addrs = Vec::with_capacity(n.min(buf.len() / 8));
            for _ in 0..n {
                let site = SiteId(codec::get_u32(buf)?);
                let addr = codec::get_str(buf)?;
                addrs.push((site, addr));
            }
            ClientMsg::Peers(addrs)
        }
        6 => ClientMsg::KillConn(SiteId(codec::get_u32(buf)?)),
        7 => ClientMsg::Shutdown,
        8 => ClientMsg::History { from: codec::get_u64(buf)? },
        t => return Err(NetError::BadTag(t)),
    })
}

fn put_reply(buf: &mut impl BufMut, reply: &ClientReply) {
    match reply {
        ClientReply::Executed(Ok(gid)) => {
            buf.put_u8(1);
            codec::put_gid(buf, *gid);
        }
        ClientReply::Executed(Err(e)) => {
            buf.put_u8(2);
            put_exec_error(buf, e);
        }
        ClientReply::Cell(cell) => {
            buf.put_u8(3);
            match cell {
                None => buf.put_u8(0),
                Some((value, writer)) => {
                    buf.put_u8(1);
                    codec::put_value(buf, value);
                    match writer {
                        None => buf.put_u8(0),
                        Some(gid) => {
                            buf.put_u8(1);
                            codec::put_gid(buf, *gid);
                        }
                    }
                }
            }
        }
        ClientReply::Stats {
            outstanding,
            committed,
            decode_errors,
            peers_up,
            peers_suspect,
            peers_down,
            links,
            census,
        } => {
            buf.put_u8(4);
            buf.put_i64(*outstanding);
            buf.put_u64(*committed);
            buf.put_u64(*decode_errors);
            buf.put_u32(*peers_up);
            buf.put_u32(*peers_suspect);
            buf.put_u32(*peers_down);
            buf.put_u32(links.len() as u32);
            for (sent, applied) in links {
                buf.put_u64(*sent);
                buf.put_u64(*applied);
            }
            buf.put_u32(census.len() as u32);
            census.iter().for_each(|&bytes| buf.put_u64(bytes));
        }
        ClientReply::State(bytes) => {
            buf.put_u8(REPLY_STATE);
            buf.put_u64(bytes.len() as u64);
            buf.put_slice(bytes);
        }
        ClientReply::Ok => buf.put_u8(6),
        ClientReply::Err(msg) => {
            buf.put_u8(7);
            codec::put_str(buf, msg);
        }
        ClientReply::History(txns) => {
            buf.put_u8(REPLY_HISTORY);
            buf.put_u32(txns.len() as u32);
            for (gid, reads, writes) in txns {
                put_history_txn(buf, *gid, reads, writes.iter().copied());
            }
        }
    }
}

/// Tag of [`WireMsg::Reply`] in the message tag space.
pub(crate) const MSG_REPLY: u8 = 7;
/// Tag of [`ClientReply::State`] within a reply.
pub(crate) const REPLY_STATE: u8 = 5;
/// Tag of [`ClientReply::History`] within a reply.
pub(crate) const REPLY_HISTORY: u8 = 8;

/// The fields of one transaction of a [`ClientReply::History`] body, in
/// encoding order, each of which is written as a varint
/// ([`codec::put_varint`]): the gid as origin and sequence, the read
/// count, each read as its item followed by `0` for the initial version
/// or the writer's origin + 1 and sequence, the write count, each
/// written item.
fn history_txn_fields(
    gid: GlobalTxnId,
    reads: &[(ItemId, Option<GlobalTxnId>)],
    writes: impl ExactSizeIterator<Item = ItemId>,
    mut field: impl FnMut(u64),
) {
    field(u64::from(gid.origin.0));
    field(gid.seq);
    field(reads.len() as u64);
    for (item, version) in reads {
        field(u64::from(item.0));
        match version {
            None => field(0),
            Some(writer) => {
                field(u64::from(writer.origin.0) + 1);
                field(writer.seq);
            }
        }
    }
    field(writes.len() as u64);
    writes.for_each(|item| field(u64::from(item.0)));
}

/// Encode one transaction of a [`ClientReply::History`] body. Shared
/// with [`crate::HistoryLog`], which keeps a site's history in exactly
/// this form — the one structure a site grows with every commit, hence
/// all varints: a Table-1 update (6 reads, 4 writes) is 43 bytes while
/// ids and sequence numbers stay below 2¹⁴.
pub(crate) fn put_history_txn(
    buf: &mut impl BufMut,
    gid: GlobalTxnId,
    reads: &[(ItemId, Option<GlobalTxnId>)],
    writes: impl ExactSizeIterator<Item = ItemId>,
) {
    history_txn_fields(gid, reads, writes, |v| codec::put_varint(buf, v));
}

/// Bytes [`put_history_txn`] writes for this transaction.
pub(crate) fn history_txn_len(
    gid: GlobalTxnId,
    reads: &[(ItemId, Option<GlobalTxnId>)],
    writes: impl ExactSizeIterator<Item = ItemId>,
) -> usize {
    let mut len = 0;
    history_txn_fields(gid, reads, writes, |v| len += codec::varint_len(v));
    len
}

/// Decode one transaction written by [`put_history_txn`].
pub(crate) fn get_history_txn(buf: &mut impl Buf) -> Result<HistoryTxn, NetError> {
    let gid = GlobalTxnId::new(SiteId(codec::get_varint_u32(buf)?), codec::get_varint(buf)?);
    // A claimed count is capped by what the bytes left could hold: a
    // read is at least two bytes, a write one.
    let reads_n = usize::try_from(codec::get_varint(buf)?).map_err(|_| NetError::Overlong)?;
    let mut reads = Vec::with_capacity(reads_n.min(buf.remaining() / 2));
    for _ in 0..reads_n {
        let item = ItemId(codec::get_varint_u32(buf)?);
        let version = match codec::get_varint(buf)? {
            0 => None,
            origin => {
                let origin = u32::try_from(origin - 1).map_err(|_| NetError::Overlong)?;
                Some(GlobalTxnId::new(SiteId(origin), codec::get_varint(buf)?))
            }
        };
        reads.push((item, version));
    }
    let writes_n = usize::try_from(codec::get_varint(buf)?).map_err(|_| NetError::Overlong)?;
    let mut writes = Vec::with_capacity(writes_n.min(buf.remaining()));
    for _ in 0..writes_n {
        writes.push(ItemId(codec::get_varint_u32(buf)?));
    }
    Ok((gid, reads, writes))
}

fn get_reply(buf: &mut Bytes) -> Result<ClientReply, NetError> {
    Ok(match codec::get_u8(buf)? {
        1 => ClientReply::Executed(Ok(codec::get_gid(buf)?)),
        2 => ClientReply::Executed(Err(get_exec_error(buf)?)),
        3 => match codec::get_u8(buf)? {
            0 => ClientReply::Cell(None),
            1 => {
                let value = codec::get_value(buf)?;
                let writer = match codec::get_u8(buf)? {
                    0 => None,
                    1 => Some(codec::get_gid(buf)?),
                    t => return Err(NetError::BadTag(t)),
                };
                ClientReply::Cell(Some((value, writer)))
            }
            t => return Err(NetError::BadTag(t)),
        },
        4 => {
            if buf.len() < 40 {
                return Err(NetError::Truncated);
            }
            let outstanding = buf.get_i64();
            let committed = buf.get_u64();
            let decode_errors = buf.get_u64();
            let peers_up = buf.get_u32();
            let peers_suspect = buf.get_u32();
            let peers_down = buf.get_u32();
            // The count is the sender's claim: the bytes left must hold
            // it, 16 a site.
            let n = buf.get_u32() as usize;
            if buf.len() / 16 < n {
                return Err(NetError::Truncated);
            }
            let links = (0..n).map(|_| (buf.get_u64(), buf.get_u64())).collect();
            // So is the census count, at 8 bytes an entry.
            let n = codec::get_u32(buf)? as usize;
            if buf.len() / 8 < n {
                return Err(NetError::Truncated);
            }
            let census = (0..n).map(|_| buf.get_u64()).collect();
            ClientReply::Stats {
                outstanding,
                committed,
                decode_errors,
                peers_up,
                peers_suspect,
                peers_down,
                links,
                census,
            }
        }
        5 => {
            let len = codec::get_u64(buf)? as usize;
            if buf.len() < len {
                return Err(NetError::Truncated);
            }
            ClientReply::State(buf.copy_to_bytes(len))
        }
        6 => ClientReply::Ok,
        7 => ClientReply::Err(codec::get_str(buf)?),
        8 => {
            let n = codec::get_u32(buf)? as usize;
            // Smallest possible txn: a two-byte gid + two zero counts.
            let mut txns = Vec::with_capacity(n.min(buf.len() / 4));
            for _ in 0..n {
                txns.push(get_history_txn(buf)?);
            }
            ClientReply::History(txns)
        }
        t => return Err(NetError::BadTag(t)),
    })
}

impl WireMsg {
    /// Encode the message body (tag + fields), without a length prefix.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        self.encode_body_into(&mut buf);
        buf.freeze()
    }

    /// Append the message body (tag + fields) to `buf`.
    pub(crate) fn encode_body_into(&self, buf: &mut impl BufMut) {
        match self {
            WireMsg::Hello(h) => {
                buf.put_u8(1);
                buf.put_u32(MAGIC);
                buf.put_u32(h.site.0);
                buf.put_u16(h.version_min);
                buf.put_u16(h.version_max);
                buf.put_u64(h.cluster);
            }
            WireMsg::HelloAck(a) => {
                buf.put_u8(2);
                buf.put_u16(a.version);
                buf.put_u32(a.site.0);
                buf.put_u64(a.resume_seq);
            }
            WireMsg::Reject(reason) => {
                buf.put_u8(3);
                codec::put_str(buf, reason);
            }
            WireMsg::Link { seq, payload } => put_link(buf, *seq, payload),
            WireMsg::Ack { seq } => {
                buf.put_u8(5);
                buf.put_u64(*seq);
            }
            WireMsg::Client(msg) => {
                buf.put_u8(6);
                put_client(buf, msg);
            }
            WireMsg::Reply(reply) => {
                buf.put_u8(MSG_REPLY);
                put_reply(buf, reply);
            }
            WireMsg::Batch { first_seq, payloads } => {
                debug_assert!(
                    !payloads.is_empty() && payloads.len() <= MAX_BATCH_PAYLOADS,
                    "batch senders split before encoding"
                );
                buf.put_u8(MSG_BATCH);
                buf.put_u64(*first_seq);
                buf.put_u32(payloads.len() as u32);
                for payload in payloads {
                    put_payload(buf, payload);
                }
            }
        }
    }

    /// Decode one message body (tag + fields). Total: every input yields
    /// `Ok` or a clean error. Trailing bytes after a well-formed message
    /// are an error — frames carry exactly one message.
    pub fn decode(mut buf: Bytes) -> Result<WireMsg, NetError> {
        let msg = match codec::get_u8(&mut buf)? {
            1 => {
                let magic = codec::get_u32(&mut buf)?;
                if magic != MAGIC {
                    return Err(NetError::BadMagic(magic));
                }
                let site = SiteId(codec::get_u32(&mut buf)?);
                if buf.len() < 4 {
                    return Err(NetError::Truncated);
                }
                let version_min = buf.get_u16();
                let version_max = buf.get_u16();
                let cluster = codec::get_u64(&mut buf)?;
                WireMsg::Hello(Hello { site, version_min, version_max, cluster })
            }
            2 => {
                if buf.len() < 2 {
                    return Err(NetError::Truncated);
                }
                let version = buf.get_u16();
                let site = SiteId(codec::get_u32(&mut buf)?);
                let resume_seq = codec::get_u64(&mut buf)?;
                WireMsg::HelloAck(HelloAck { version, site, resume_seq })
            }
            3 => WireMsg::Reject(codec::get_str(&mut buf)?),
            4 => {
                let seq = codec::get_u64(&mut buf)?;
                let payload = get_payload(&mut buf)?;
                WireMsg::Link { seq, payload }
            }
            5 => WireMsg::Ack { seq: codec::get_u64(&mut buf)? },
            6 => WireMsg::Client(get_client(&mut buf)?),
            7 => WireMsg::Reply(get_reply(&mut buf)?),
            8 => {
                let first_seq = codec::get_u64(&mut buf)?;
                let n = codec::get_u32(&mut buf)? as usize;
                if n == 0 || n > MAX_BATCH_PAYLOADS {
                    // An oversized count is rejected outright — not
                    // silently split — so both ends keep identical
                    // sequence accounting.
                    return Err(NetError::Oversized(n as u64));
                }
                let mut payloads = Vec::with_capacity(n.min(buf.len() / 8).max(1));
                for _ in 0..n {
                    payloads.push(get_payload(&mut buf)?);
                }
                WireMsg::Batch { first_seq, payloads }
            }
            t => return Err(NetError::BadTag(t)),
        };
        if !buf.is_empty() {
            // Trailing garbage means the sender and receiver disagree on
            // the layout; surface it rather than silently dropping bytes.
            return Err(NetError::BadTag(0));
        }
        Ok(msg)
    }
}

/// Tag of [`WireMsg::Link`] in the message tag space.
const MSG_LINK: u8 = 4;
/// Tag of [`WireMsg::Batch`] in the message tag space.
const MSG_BATCH: u8 = 8;

/// Body of a [`WireMsg::Link`], from a borrowed payload (the outbox
/// keeps the payload until it is acknowledged; the wire only reads it).
pub(crate) fn put_link(buf: &mut impl BufMut, seq: u64, payload: &Payload) {
    buf.put_u8(MSG_LINK);
    buf.put_u64(seq);
    put_payload(buf, payload);
}

// ---------------------------------------------------------------------
// Copy-state images and cluster fingerprints
// ---------------------------------------------------------------------

/// Encode a site's copy state as canonical bytes: cell count, then
/// `(item, value, writer)` cells which the caller must supply in
/// ascending item order. Two sites replaying the same committed history
/// produce byte-identical images — the equivalence oracle of the
/// transport tests.
pub fn encode_cells(cells: &[(ItemId, Value, Option<GlobalTxnId>)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + cells.len() * 24);
    encode_cells_into(&mut buf, cells.iter().map(|(item, value, writer)| (*item, value, *writer)));
    buf.freeze()
}

/// [`encode_cells`] appending to `buf`, from cells produced on the fly
/// (by reference or by value) — a site streams its store through this
/// without first collecting the cells.
pub fn encode_cells_into<V: std::borrow::Borrow<Value>>(
    buf: &mut impl BufMut,
    cells: impl ExactSizeIterator<Item = (ItemId, V, Option<GlobalTxnId>)>,
) {
    buf.put_u32(cells.len() as u32);
    for (item, value, writer) in cells {
        codec::put_cell(buf, item, value.borrow(), writer);
    }
}

/// Decode an image produced by [`encode_cells`].
pub fn decode_cells(buf: Bytes) -> Result<Vec<(ItemId, Value, Option<GlobalTxnId>)>, NetError> {
    let cells = cells_in(&buf)?;
    // The count is the sender's claim: reserve what the bytes can hold.
    let mut out = Vec::with_capacity(cells.len().min(buf.len() / 6));
    for cell in cells {
        out.push(cell?);
    }
    Ok(out)
}

/// The cells of an image in the [`encode_cells`] format, decoded one at
/// a time from the borrowed bytes as the iterator is consumed — nothing
/// is collected. A cell that does not decode is the last item.
pub fn cells_in(mut image: &[u8]) -> Result<CellsIn<'_>, NetError> {
    let left = codec::get_u32(&mut image)?;
    Ok(CellsIn { image, left })
}

/// [`cells_in`]'s iterator.
#[derive(Debug)]
pub struct CellsIn<'a> {
    image: &'a [u8],
    /// Cells the image claims are still to come; 0 after an error.
    left: u32,
}

impl CellsIn<'_> {
    /// Cells the image claims are still to come (a claim, not a
    /// promise: the bytes may end first).
    pub fn len(&self) -> usize {
        self.left as usize
    }

    /// True when the image claims no more cells.
    pub fn is_empty(&self) -> bool {
        self.left == 0
    }
}

impl Iterator for CellsIn<'_> {
    type Item = Result<(ItemId, Value, Option<GlobalTxnId>), NetError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let cell = codec::get_cell(&mut self.image).map_err(NetError::from);
        if cell.is_err() {
            self.left = 0;
        }
        Some(cell)
    }
}

/// FNV-1a over whatever is formatted into it.
struct Fnv1a(u64);

impl Fnv1a {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.feed(s.as_bytes());
        Ok(())
    }
}

/// Fingerprint of a cluster's identity — FNV-1a over the placement spec
/// and protocol name. Carried in [`Hello`] so two processes configured
/// for different clusters refuse to exchange propagation records.
///
/// The spec is hashed as it is formatted, so a placement can be passed
/// as its `DataPlacement::per_item_spec()` — the form every build hashes
/// — without building the spec string; the value is the one the string
/// itself gives.
pub fn cluster_fingerprint(placement_spec: impl fmt::Display, protocol: &str) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    // The sink never fails.
    let _ = write!(h, "{placement_spec}");
    h.feed(&[0]);
    h.feed(protocol.as_bytes());
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: WireMsg) {
        let body = msg.encode();
        let decoded = WireMsg::decode(body.clone()).unwrap();
        assert_eq!(decoded, msg);
        // In-place framing appends exactly length prefix + body, after
        // whatever the buffer already holds.
        let mut expected = vec![0xEE; 5];
        expected.extend_from_slice(&(body.len() as u32).to_be_bytes());
        expected.extend_from_slice(&body);
        let mut out = vec![0xEE; 5];
        msg.encode_framed_into(&mut out);
        assert_eq!(out, expected);
        assert_eq!(crate::encode_framed(&msg).as_slice(), &expected[5..]);
    }

    #[test]
    fn handshake_roundtrips() {
        roundtrip(WireMsg::Hello(Hello {
            site: SiteId(2),
            version_min: 1,
            version_max: 3,
            cluster: 0xDEADBEEF,
        }));
        roundtrip(WireMsg::HelloAck(HelloAck { version: 1, site: SiteId(0), resume_seq: 17 }));
        roundtrip(WireMsg::Reject("version ranges disjoint".into()));
    }

    #[test]
    fn link_roundtrips() {
        let ts = Timestamp { epoch: 3, tuples: vec![(SiteId(0), 5), (SiteId(2), 1)] };
        roundtrip(WireMsg::Link {
            seq: 9,
            payload: Payload::Subtxn(Subtxn {
                gid: GlobalTxnId::new(SiteId(1), 44),
                origin: SiteId(1),
                kind: SubtxnKind::Normal,
                ts: Some(ts),
                writes: vec![(ItemId(0), Value::int(-3)), (ItemId(4), Value::Bytes(vec![1]))],
                dest_sites: vec![SiteId(0), SiteId(2)],
            }),
        });
        roundtrip(WireMsg::Link {
            seq: 1,
            payload: Payload::Decision { gid: GlobalTxnId::new(SiteId(0), 7), commit: true },
        });
        roundtrip(WireMsg::Ack { seq: 12 });
    }

    #[test]
    fn batch_roundtrips() {
        roundtrip(WireMsg::Batch {
            first_seq: 41,
            payloads: vec![
                Payload::Subtxn(Subtxn {
                    gid: GlobalTxnId::new(SiteId(1), 44),
                    origin: SiteId(1),
                    kind: SubtxnKind::Normal,
                    ts: None,
                    writes: vec![(ItemId(0), Value::int(7))],
                    dest_sites: vec![SiteId(0)],
                }),
                Payload::Decision { gid: GlobalTxnId::new(SiteId(0), 7), commit: false },
            ],
        });
    }

    #[test]
    fn oversized_or_empty_batch_rejected() {
        for n in [0u32, (MAX_BATCH_PAYLOADS + 1) as u32] {
            let mut raw = BytesMut::new();
            raw.put_u8(8);
            raw.put_u64(5);
            raw.put_u32(n);
            assert!(matches!(
                WireMsg::decode(raw.freeze()),
                Err(NetError::Oversized(m)) if m == u64::from(n)
            ));
        }
    }

    #[test]
    fn client_roundtrips() {
        roundtrip(WireMsg::Client(ClientMsg::Execute(vec![
            Op::write(ItemId(1), 9),
            Op::read(ItemId(0)),
        ])));
        roundtrip(WireMsg::Client(ClientMsg::Peek(ItemId(3))));
        roundtrip(WireMsg::Client(ClientMsg::Stats));
        roundtrip(WireMsg::Client(ClientMsg::CopyState { from: 0 }));
        roundtrip(WireMsg::Client(ClientMsg::CopyState { from: 2520 }));
        roundtrip(WireMsg::Client(ClientMsg::Peers(vec![
            (SiteId(0), "127.0.0.1:9000".into()),
            (SiteId(1), "127.0.0.1:9001".into()),
        ])));
        roundtrip(WireMsg::Client(ClientMsg::KillConn(SiteId(1))));
        roundtrip(WireMsg::Client(ClientMsg::Shutdown));
        roundtrip(WireMsg::Client(ClientMsg::History { from: 0 }));
        roundtrip(WireMsg::Client(ClientMsg::History { from: u64::MAX - 1 }));
    }

    #[test]
    fn reply_roundtrips() {
        roundtrip(WireMsg::Reply(ClientReply::Executed(Ok(GlobalTxnId::new(SiteId(0), 3)))));
        roundtrip(WireMsg::Reply(ClientReply::Executed(Err(ExecError::NotPrimary(
            SiteId(1),
            ItemId(2),
        )))));
        roundtrip(WireMsg::Reply(ClientReply::Executed(Err(ExecError::Other("boom".into())))));
        roundtrip(WireMsg::Reply(ClientReply::Cell(None)));
        roundtrip(WireMsg::Reply(ClientReply::Cell(Some((
            Value::int(5),
            Some(GlobalTxnId::new(SiteId(2), 1)),
        )))));
        roundtrip(WireMsg::Reply(ClientReply::Executed(Err(ExecError::Backpressure {
            peer: SiteId(2),
            queued: 100_000,
        }))));
        roundtrip(WireMsg::Reply(ClientReply::Executed(Err(ExecError::EagerTimeout(
            GlobalTxnId::new(SiteId(2), 17),
        )))));
        roundtrip(WireMsg::Reply(ClientReply::Stats {
            outstanding: -2,
            committed: 10,
            decode_errors: 3,
            peers_up: 2,
            peers_suspect: 1,
            peers_down: 1,
            links: vec![(0, 0), (7, 3), (u64::MAX, 1)],
            census: vec![120_000, 0, u64::MAX],
        }));
        roundtrip(WireMsg::Reply(ClientReply::State(Bytes::from_static(&[1, 2, 3]))));
        roundtrip(WireMsg::Reply(ClientReply::Ok));
        roundtrip(WireMsg::Reply(ClientReply::Err("nope".into())));
        roundtrip(WireMsg::Reply(ClientReply::History(vec![
            (
                GlobalTxnId::new(SiteId(0), 1),
                vec![(ItemId(0), None), (ItemId(1), Some(GlobalTxnId::new(SiteId(1), 4)))],
                vec![ItemId(0)],
            ),
            (GlobalTxnId::new(SiteId(2), 9), vec![], vec![ItemId(2), ItemId(3)]),
        ])));
    }

    /// A `Stats` reply's link and census counts are the sender's claims:
    /// one past what its bytes hold, or `u32::MAX`, is refused as
    /// truncated before anything is reserved for it, and a reply cut
    /// before its census count is truncated too.
    #[test]
    fn stats_link_count_is_checked_against_the_bytes() {
        let stats = WireMsg::Reply(ClientReply::Stats {
            outstanding: 0,
            committed: 0,
            decode_errors: 0,
            peers_up: 0,
            peers_suspect: 0,
            peers_down: 0,
            links: vec![(1, 2)],
            census: vec![3, 4],
        });
        let raw = stats.encode().to_vec();
        let census = raw.len() - 2 * 8 - 4;
        let links = census - 16 - 4;
        for (at, claim) in [(links, 2), (links, u32::MAX), (census, 3), (census, u32::MAX)] {
            let mut raw = raw.clone();
            raw[at..at + 4].copy_from_slice(&claim.to_be_bytes());
            assert!(matches!(WireMsg::decode(Bytes::from(raw)), Err(NetError::Truncated)));
        }
        for cut in [census, census + 3, raw.len() - 1] {
            let raw = raw[..cut].to_vec();
            assert!(matches!(WireMsg::decode(Bytes::from(raw)), Err(NetError::Truncated)));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let hello =
            WireMsg::Hello(Hello { site: SiteId(0), version_min: 1, version_max: 1, cluster: 1 });
        let mut raw = hello.encode().to_vec();
        raw[1] ^= 0xFF; // corrupt the magic
        assert!(matches!(WireMsg::decode(Bytes::from(raw)), Err(NetError::BadMagic(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = WireMsg::Ack { seq: 1 }.encode().to_vec();
        raw.push(0);
        assert!(WireMsg::decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn cells_roundtrip_and_are_canonical() {
        let cells = vec![
            (ItemId(0), Value::int(5), Some(GlobalTxnId::new(SiteId(0), 1))),
            (ItemId(3), Value::Initial, None),
        ];
        let img = encode_cells(&cells);
        assert_eq!(decode_cells(img.clone()).unwrap(), cells);
        assert_eq!(img, encode_cells(&cells));
    }

    #[test]
    fn fingerprint_distinguishes_clusters() {
        let a = cluster_fingerprint("3|0:1,2|1:2", "dagwt");
        assert_eq!(a, cluster_fingerprint("3|0:1,2|1:2", "dagwt"));
        assert_ne!(a, cluster_fingerprint("3|0:1,2|1:2", "dagt"));
        assert_ne!(a, cluster_fingerprint("3|0:1,2", "dagwt"));
        // Hashed as it is formatted: however the text arrives in pieces,
        // the value is the whole string's.
        assert_eq!(a, cluster_fingerprint(format_args!("{}|{}:{},{}|1:2", 3, 0, 1, 2), "dagwt"));
    }
}
