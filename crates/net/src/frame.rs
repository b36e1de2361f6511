//! Length-prefixed framing over byte streams.
//!
//! A frame is a `u32` big-endian length `L` (0 < L ≤ [`MAX_FRAME_LEN`])
//! followed by `L` bytes holding exactly one encoded [`WireMsg`]. The
//! length is validated *before* any allocation, so a hostile or corrupt
//! peer claiming a multi-gigabyte frame costs four bytes of reading, not
//! memory.

use std::io::{self, Read, Write};

use bytes::{BufMut, Bytes, BytesMut};
use repl_types::{GlobalTxnId, ItemId, Value};

use repl_storage::codec;

use crate::msg::{self, NetError, Payload, WireMsg, MSG_REPLY, REPLY_STATE};

/// Upper bound on a frame body. Generously above any legitimate message
/// (a propagation record is bounded by transaction size), far below
/// anything that could act as an allocation amplifier.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Most bytes of whole records one page of a paged client reply carries
/// — the transactions of a `History` page, the cells of a `CopyState`
/// one; a record or cell larger than this is a page of its own. A site
/// frames a page straight into the asking connection's write buffer, so
/// this bounds what a bulk fetch stages there. It is the log segment
/// size, so a `History` page is the rest of one segment. A constant, not
/// a knob.
pub const PAGE_BYTES: usize = repl_storage::SEGMENT_BYTES;

/// Errors raised while reading a frame from a stream.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying stream failed or closed.
    Io(io::Error),
    /// The frame arrived intact but its body did not decode.
    Decode(NetError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "read failed: {e}"),
            ReadError::Decode(e) => write!(f, "frame malformed: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<NetError> for ReadError {
    fn from(e: NetError) -> Self {
        ReadError::Decode(e)
    }
}

/// Encode `msg` as one frame: length prefix plus body.
pub fn encode_framed(msg: &WireMsg) -> Bytes {
    let mut out = Vec::with_capacity(4 + 64);
    msg.encode_framed_into(&mut out);
    Bytes::from(out)
}

/// Append one frame to `out`: reserve the length prefix, let `body`
/// append the frame body in place, then patch the prefix. Every frame
/// encoder funnels through here, so a frame is written once, directly
/// where it will be sent from.
pub(crate) fn framed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = out.len() - at - 4;
    debug_assert!(len as u64 <= u64::from(MAX_FRAME_LEN));
    out[at..at + 4].copy_from_slice(&(len as u32).to_be_bytes());
}

impl WireMsg {
    /// Append this message as one frame to `out` — the bytes
    /// [`encode_framed`] returns, without the intermediate buffers.
    pub fn encode_framed_into(&self, out: &mut Vec<u8>) {
        framed(out, |buf| self.encode_body_into(buf));
    }
}

/// Append the frame of `WireMsg::Link { seq, payload }` to `out` from a
/// borrowed payload.
pub fn frame_link_into(out: &mut Vec<u8>, seq: u64, payload: &Payload) {
    framed(out, |buf| msg::put_link(buf, seq, payload));
}

/// Append the frame of a [`crate::ClientReply::State`] page to `out`:
/// the copy-state encoding (as for [`crate::encode_cells`], ascending
/// item order) of the leading `cells` whose encodings fit `budget`
/// bytes — at least one, so a cell past the budget is a page of its
/// own — written straight into the frame. A cell that does not fit is
/// not written, so `out` grows by the page and its header, no more.
/// Returns how many cells the page holds.
pub fn frame_state_page_into<V: std::borrow::Borrow<Value>>(
    out: &mut Vec<u8>,
    cells: impl Iterator<Item = (ItemId, V, Option<GlobalTxnId>)>,
    budget: usize,
) -> usize {
    // An integer cell with a writer is 26 bytes.
    out.reserve(32 + budget.min(cells.size_hint().0.saturating_mul(26)));
    let mut count = 0;
    framed(out, |buf| {
        buf.put_u8(MSG_REPLY);
        buf.put_u8(REPLY_STATE);
        buf.put_u64(0); // the image length, patched below
        let image_at = buf.len();
        buf.put_u32(0); // the cell count, patched below
        for (item, value, writer) in cells {
            let len = codec::cell_len(value.borrow(), writer);
            if count > 0 && buf.len() - image_at - 4 + len > budget {
                break;
            }
            codec::put_cell(buf, item, value.borrow(), writer);
            count += 1;
        }
        let len = (buf.len() - image_at) as u64;
        buf[image_at - 8..image_at].copy_from_slice(&len.to_be_bytes());
        buf[image_at..image_at + 4].copy_from_slice(&(count as u32).to_be_bytes());
    });
    count
}

/// Decode one frame from `buf`, if a complete one is present.
///
/// Returns `Ok(None)` when more bytes are needed, `Ok(Some(msg))` after
/// consuming a whole frame, and an error for an invalid length prefix or
/// body — the connection should then be dropped, since framing is lost.
pub fn decode_framed(buf: &mut BytesMut) -> Result<Option<WireMsg>, NetError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(NetError::Oversized(u64::from(len)));
    }
    let len = len as usize;
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let body = Bytes::from(&buf[4..4 + len]);
    buf.advance(4 + len);
    WireMsg::decode(body).map(Some)
}

/// An incremental frame decoder for nonblocking readers.
///
/// A reader reads whatever bytes the socket has ready, [`feed`]s them
/// in, and pulls complete messages with [`next_msg`] — the
/// sans-I/O counterpart of the blocking [`read_msg`]. Partial frames
/// simply stay buffered until more bytes arrive; a decode error means
/// framing is lost and the connection should be dropped.
///
/// A reader that owns its read buffer can skip the copy:
/// [`next_from`] decodes whole frames where they lie in that buffer and
/// keeps only a frame the read cut short, so the reader holds at most
/// one partial frame between reads.
///
/// [`feed`]: FrameReader::feed
/// [`next_msg`]: FrameReader::next_msg
/// [`next_from`]: FrameReader::next_from
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: BytesMut,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Append bytes received from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }

    /// Decode the next complete message, if one is buffered.
    ///
    /// `Ok(None)` means more bytes are needed. Call in a loop after each
    /// [`FrameReader::feed`] — one read may complete several frames.
    pub fn next_msg(&mut self) -> Result<Option<WireMsg>, NetError> {
        decode_framed(&mut self.buf)
    }

    /// Decode the next whole frame from the buffered partial frame, if
    /// any, followed by `input`, and advance `input` past the bytes
    /// used. A frame that lies wholly in `input` is decoded in place;
    /// a partial one at its end is copied into the reader, and
    /// `Ok(None)` then means `input` is used up. A buffer above
    /// 512 bytes that a completed frame empties is given
    /// back.
    pub fn next_from(&mut self, input: &mut &[u8]) -> Result<Option<WireMsg>, NetError> {
        if self.buf.is_empty() {
            if let Some(len) = frame_len(input)? {
                if let Some((frame, rest)) = input.split_at_checked(4 + len) {
                    *input = rest;
                    return WireMsg::decode(Bytes::from(&frame[4..])).map(Some);
                }
            }
            self.buf.put_slice(input);
            *input = &[];
            return Ok(None);
        }
        // Top up the partial frame: its length prefix, then its body.
        let mut top_up = |buf: &mut BytesMut, upto: usize| {
            let (head, rest) = input.split_at(input.len().min(upto.saturating_sub(buf.len())));
            buf.put_slice(head);
            *input = rest;
        };
        top_up(&mut self.buf, 4);
        let Some(len) = frame_len(&self.buf)? else { return Ok(None) };
        top_up(&mut self.buf, 4 + len);
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let msg = decode_framed(&mut self.buf);
        if self.buf.is_empty() && self.buf.capacity() > KEPT_PARTIAL_BYTES {
            self.buf = BytesMut::new();
        }
        msg
    }

    /// Bytes buffered but not yet decoded (observability, tests).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Heap bytes of the buffer.
    pub fn heap_bytes(&self) -> usize {
        self.buf.capacity()
    }
}

/// The largest buffer a [`FrameReader`] keeps once a partial frame it
/// held completes: room for any link frame, so a steady stream of
/// them, each cut by a read at a different place, allocates nothing.
const KEPT_PARTIAL_BYTES: usize = 512;

/// The body length a frame's 4-byte prefix announces, once `bytes`
/// holds the prefix; an error if no frame may have that length.
fn frame_len(bytes: &[u8]) -> Result<Option<usize>, NetError> {
    let Some(prefix) = bytes.first_chunk::<4>() else { return Ok(None) };
    let len = u32::from_be_bytes(*prefix);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(NetError::Oversized(u64::from(len)));
    }
    Ok(Some(len as usize))
}

/// Write one framed message to a stream.
pub fn write_msg(w: &mut impl Write, msg: &WireMsg) -> io::Result<()> {
    w.write_all(&encode_framed(msg))?;
    w.flush()
}

/// Read one framed message from a stream (blocking).
///
/// The length prefix is validated before the body buffer is allocated.
pub fn read_msg(r: &mut impl Read) -> Result<WireMsg, ReadError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(ReadError::Decode(NetError::Oversized(u64::from(len))));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(WireMsg::decode(Bytes::from(body))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framed_roundtrip_through_incremental_buffer() {
        let msgs =
            vec![WireMsg::Ack { seq: 1 }, WireMsg::Ack { seq: 2 }, WireMsg::Reject("x".into())];
        let mut stream = BytesMut::new();
        for m in &msgs {
            stream.put_slice(&encode_framed(m));
        }
        // Feed the bytes one at a time, as a socket might deliver them.
        let mut rx = BytesMut::new();
        let mut out = Vec::new();
        for &b in stream.freeze().as_slice() {
            rx.put_u8(b);
            while let Some(m) = decode_framed(&mut rx).unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn zero_and_oversized_lengths_rejected() {
        let mut zero = BytesMut::from(&[0u8, 0, 0, 0, 9][..]);
        assert!(matches!(decode_framed(&mut zero), Err(NetError::Oversized(0))));
        let mut big = BytesMut::from(&u32::MAX.to_be_bytes()[..]);
        assert!(matches!(decode_framed(&mut big), Err(NetError::Oversized(_))));
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let msgs =
            vec![WireMsg::Ack { seq: 7 }, WireMsg::Reject("busy".into()), WireMsg::Ack { seq: 8 }];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode_framed(m));
        }
        // Feed in ragged chunks, as a nonblocking read would deliver.
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for chunk in wire.chunks(3) {
            reader.feed(chunk);
            while let Some(m) = reader.next_msg().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
        assert_eq!(reader.buffered(), 0);
    }

    /// 10 000 frames arriving in one chunk decode in one pass (the
    /// shim's `draining_many_frames_compacts_at_most_twice` pins the
    /// buffer work this costs; before the start cursor it was a memmove
    /// of the whole backlog per frame).
    #[test]
    fn frame_reader_drains_a_large_backlog() {
        let mut wire = Vec::new();
        for seq in 0..10_000u64 {
            WireMsg::Ack { seq }.encode_framed_into(&mut wire);
        }
        let mut reader = FrameReader::new();
        reader.feed(&wire);
        let mut next = 0u64;
        while let Some(m) = reader.next_msg().unwrap() {
            assert_eq!(m, WireMsg::Ack { seq: next });
            next += 1;
        }
        assert_eq!((next, reader.buffered()), (10_000, 0));
    }

    #[test]
    fn link_frame_matches_the_typed_encoding() {
        let payload =
            Payload::Decision { gid: GlobalTxnId::new(repl_types::SiteId(0), 3), commit: true };
        let mut out = Vec::new();
        frame_link_into(&mut out, 9, &payload);
        let typed = encode_framed(&WireMsg::Link { seq: 9, payload });
        assert_eq!(out, typed.as_slice());
    }

    #[test]
    fn state_reply_frame_matches_the_typed_encoding() {
        let cells = vec![
            (ItemId(0), Value::int(5), Some(GlobalTxnId::new(repl_types::SiteId(0), 1))),
            (ItemId(3), Value::Initial, None),
            (ItemId(9), Value::Bytes(vec![1, 2, 3]), None),
        ];
        let typed =
            encode_framed(&WireMsg::Reply(crate::ClientReply::State(crate::encode_cells(&cells))));
        let mut out = vec![7u8];
        assert_eq!(frame_state_page_into(&mut out, cells.iter().cloned(), usize::MAX), 3);
        assert_eq!(&out[1..], typed.as_slice());
        // A budget ends the page at the last cell that fits, and never
        // before the first.
        let page_of = |count: usize| {
            encode_framed(&WireMsg::Reply(crate::ClientReply::State(crate::encode_cells(
                &cells[..count],
            ))))
        };
        for count in 1..=cells.len() {
            let fits = crate::encode_cells(&cells[..count]).len() - 4;
            for (budget, want) in [(fits, count), (fits - 1, (count - 1).max(1))] {
                let mut out = Vec::new();
                assert_eq!(frame_state_page_into(&mut out, cells.iter().cloned(), budget), want);
                assert_eq!(out, page_of(want).as_slice(), "budget {budget}");
            }
        }
    }

    #[test]
    fn frame_reader_surfaces_bad_prefix() {
        let mut reader = FrameReader::new();
        reader.feed(&u32::MAX.to_be_bytes());
        assert!(matches!(reader.next_msg(), Err(NetError::Oversized(_))));
    }

    /// Decoding in place from each read gives the frames `feed` and
    /// `next_msg` give, whatever the reads' sizes, and between reads
    /// the reader holds at most the one frame a read cut short.
    #[test]
    fn next_from_decodes_in_place_and_keeps_one_partial_frame() {
        let msgs: Vec<WireMsg> = (0..40)
            .map(|k| match k % 3 {
                0 => WireMsg::Ack { seq: k },
                1 => WireMsg::Reject("x".repeat(k as usize * 37)),
                _ => WireMsg::Link {
                    seq: k,
                    payload: Payload::Decision {
                        gid: GlobalTxnId::new(repl_types::SiteId(1), k),
                        commit: true,
                    },
                },
            })
            .collect();
        let mut wire = Vec::new();
        msgs.iter().for_each(|m| wire.extend_from_slice(&encode_framed(m)));
        let longest = msgs.iter().map(|m| encode_framed(m).len()).max().unwrap();
        for chunk in [1, 2, 3, 4, 5, 7, 64, 100, 1000, wire.len()] {
            let mut reader = FrameReader::new();
            let mut out = Vec::new();
            for mut read in wire.chunks(chunk) {
                while let Some(m) = reader.next_from(&mut read).unwrap() {
                    out.push(m);
                }
                assert!(read.is_empty());
                assert!(reader.buffered() < longest, "{chunk}: {} buffered", reader.buffered());
                assert!(reader.heap_bytes() <= longest.max(KEPT_PARTIAL_BYTES) * 2);
            }
            assert_eq!(out, msgs, "reads of {chunk}");
            assert_eq!(reader.buffered(), 0);
            assert!(reader.heap_bytes() <= KEPT_PARTIAL_BYTES, "{chunk}");
        }
        // Bytes `feed` left whole stay decodable through `next_from`.
        let mut reader = FrameReader::new();
        reader.feed(&wire[..wire.len() / 2]);
        let mut rest = &wire[wire.len() / 2..];
        let mut out = Vec::new();
        while let Some(m) = reader.next_from(&mut rest).unwrap() {
            out.push(m);
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn next_from_surfaces_a_bad_prefix_split_or_whole() {
        let bad = u32::MAX.to_be_bytes();
        let mut reader = FrameReader::new();
        assert!(matches!(reader.next_from(&mut &bad[..]), Err(NetError::Oversized(_))));
        let mut reader = FrameReader::new();
        assert!(reader.next_from(&mut &bad[..2]).unwrap().is_none());
        assert!(matches!(reader.next_from(&mut &bad[2..]), Err(NetError::Oversized(_))));
        let mut reader = FrameReader::new();
        assert!(matches!(reader.next_from(&mut &[0u8, 0, 0, 0][..]), Err(NetError::Oversized(0))));
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let msg = WireMsg::Ack { seq: 42 };
        let mut wire = Vec::new();
        write_msg(&mut wire, &msg).unwrap();
        let mut reader = &wire[..];
        assert_eq!(read_msg(&mut reader).unwrap(), msg);
    }

    #[test]
    fn stream_read_rejects_oversized_prefix_without_allocating() {
        let wire = u32::MAX.to_be_bytes();
        let mut reader = &wire[..];
        assert!(matches!(read_msg(&mut reader), Err(ReadError::Decode(NetError::Oversized(_)))));
    }
}
