//! Offline shim for `bytes` (see `shims/README.md`).
//!
//! The WAL encodes with `BytesMut`/`BufMut` and decodes by consuming a
//! `Bytes` through `Buf`. `Bytes` here is an `Arc<[u8]>` window — cloning
//! and `slice` are O(1) and zero-copy, `get_*` advance the window, exactly
//! the subset the storage and runtime crates use. `BytesMut` is a vector
//! plus a start cursor, so a frame reader consumes from the front in
//! O(1); `Vec<u8>` is a `BufMut` and `&[u8]` a `Buf`, as in the real
//! crate.

use std::ops::Range;
use std::sync::Arc;

/// A cheaply cloneable, sliceable view of immutable bytes.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Length of the remaining view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when no bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The remaining view as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copy the remaining view into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A zero-copy sub-view of the remaining bytes.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "advance past end of buffer");
        let s = self.start;
        self.start += n;
        &self.data[s..s + n]
    }

    /// A view of a static byte slice (allocates in this shim; the real
    /// crate is zero-copy here, which callers must not rely on).
    pub fn from_static(v: &'static [u8]) -> Self {
        Bytes::from(v)
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: v.into(), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

/// Growable byte buffer for encoding, consumable from the front.
///
/// The live bytes are `data[start..]`: [`BytesMut::advance`] and
/// [`BytesMut::split_to`] move `start` instead of shifting the tail, so
/// draining a buffer frame by frame costs O(bytes consumed), not
/// O(frames × bytes buffered). The dead prefix is reclaimed on the next
/// append once it exceeds half the allocation's contents.
#[derive(Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
    start: usize,
}

#[cfg(test)]
thread_local! {
    /// Compactions performed by this thread's buffers.
    static COMPACTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { data: Vec::with_capacity(cap), start: 0 }
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freeze into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(&self[..])
    }

    /// Discard the first `n` bytes.
    ///
    /// # Panics
    /// Panics if `n > len()`.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        self.start += n;
        if self.start == self.data.len() {
            self.data.clear();
            self.start = 0;
        }
    }

    /// Split off and return the first `n` bytes, leaving the rest. Only
    /// the `n` head bytes are copied.
    ///
    /// # Panics
    /// Panics if `n > len()`.
    pub fn split_to(&mut self, n: usize) -> BytesMut {
        assert!(n <= self.len(), "split past end of buffer");
        let head = BytesMut::from(&self[..n]);
        self.advance(n);
        head
    }

    /// Reclaim the consumed prefix before an append, once it outweighs
    /// the live bytes (so each byte is moved at most once per time it is
    /// buffered).
    fn compact_for_append(&mut self) {
        if self.start > self.data.len() / 2 {
            self.data.drain(..self.start);
            self.start = 0;
            #[cfg(test)]
            COMPACTIONS.with(|c| c.set(c.get() + 1));
        }
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..]
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut { data: v.to_vec(), start: 0 }
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for BytesMut {}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:?})", &**self)
    }
}

/// Read access to a byte cursor; all integers are big-endian.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// Consume one byte.
    fn get_u8(&mut self) -> u8;
    /// Consume a big-endian `u16`.
    fn get_u16(&mut self) -> u16;
    /// Consume a big-endian `u32`.
    fn get_u32(&mut self) -> u32;
    /// Consume a big-endian `u64`.
    fn get_u64(&mut self) -> u64;
    /// Consume a big-endian `i64`.
    fn get_i64(&mut self) -> i64;
    /// Consume `n` bytes into an owned [`Bytes`].
    fn copy_to_bytes(&mut self, n: usize) -> Bytes;
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take(2).try_into().expect("2 bytes"))
    }

    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    fn get_i64(&mut self) -> i64 {
        i64::from_be_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        Bytes::from(self.take(n))
    }
}

/// A byte slice is a cursor over itself: `get_*` shrink it from the
/// front. Lets decoders walk bytes they already hold without first
/// copying them into a [`Bytes`].
impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        take_front(self, 1)[0]
    }

    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(take_front(self, 2).try_into().expect("2 bytes"))
    }

    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(take_front(self, 4).try_into().expect("4 bytes"))
    }

    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(take_front(self, 8).try_into().expect("8 bytes"))
    }

    fn get_i64(&mut self) -> i64 {
        i64::from_be_bytes(take_front(self, 8).try_into().expect("8 bytes"))
    }

    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        Bytes::from(take_front(self, n))
    }
}

fn take_front<'a>(cursor: &mut &'a [u8], n: usize) -> &'a [u8] {
    assert!(n <= cursor.len(), "advance past end of buffer");
    let (head, rest) = cursor.split_at(n);
    *cursor = rest;
    head
}

/// Write access to a growable buffer; all integers are big-endian.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Append a big-endian `i64`.
    fn put_i64(&mut self, v: i64);
    /// Append a slice verbatim.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.compact_for_append();
        self.data.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.compact_for_append();
        self.data.extend_from_slice(src);
    }
}

/// Encoders can append straight to a plain vector (a socket write
/// buffer, a log arena) without an intermediate [`BytesMut`].
impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_i64(&mut self, v: i64) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(7);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(u64::MAX - 1);
        buf.put_i64(-42);
        buf.put_slice(b"tail");
        let mut b = buf.freeze();
        assert_eq!(b.remaining(), 1 + 4 + 8 + 8 + 4);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32(), 0xDEAD_BEEF);
        assert_eq!(b.get_u64(), u64::MAX - 1);
        assert_eq!(b.get_i64(), -42);
        assert_eq!(b.copy_to_bytes(4).to_vec(), b"tail");
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn slice_is_a_window() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let mut s = b.slice(2..5);
        assert_eq!(s.to_vec(), vec![2, 3, 4]);
        assert_eq!(s.get_u8(), 2);
        assert_eq!(s.remaining(), 2);
        // Original is untouched.
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn bytes_mut_consumes_from_the_front() {
        let mut b = BytesMut::from(&[1u8, 2, 3, 4, 5, 6][..]);
        b.advance(1);
        assert_eq!(&b[..], &[2, 3, 4, 5, 6]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[2, 3]);
        assert_eq!((b.len(), &b[..]), (3, &[4u8, 5, 6][..]));
        // Appending after the dead prefix outgrew the live bytes compacts.
        b.put_u8(7);
        assert_eq!(&b[..], &[4, 5, 6, 7]);
        assert_eq!(b, BytesMut::from(&[4u8, 5, 6, 7][..]));
        assert_eq!(b.clone().freeze().to_vec(), vec![4, 5, 6, 7]);
        b.advance(4);
        assert!(b.is_empty());
    }

    /// 10 000 `Ack` frames (4-byte length + 9-byte body) arriving in one
    /// chunk, consumed the way `repl_net::decode_framed` consumes them,
    /// then a ragged tail: the buffer is compacted at most twice, where
    /// a `drain` per `advance` moved the whole tail 20 000 times.
    #[test]
    fn draining_many_frames_compacts_at_most_twice() {
        const FRAMES: u64 = 10_000;
        let mut wire = Vec::new();
        for seq in 0..FRAMES {
            wire.put_u32(9);
            wire.put_u8(5);
            wire.put_u64(seq);
        }
        let before = COMPACTIONS.with(std::cell::Cell::get);
        let mut buf = BytesMut::new();
        // All but the last 5 bytes in one chunk, then the rest.
        let (chunk, tail) = wire.split_at(wire.len() - 5);
        let mut seqs = Vec::new();
        for part in [chunk, tail] {
            buf.put_slice(part);
            while buf.len() >= 4 {
                let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                if buf.len() < 4 + len {
                    break;
                }
                buf.advance(4);
                let mut body = buf.split_to(len).freeze();
                assert_eq!(body.get_u8(), 5);
                seqs.push(body.get_u64());
            }
        }
        assert!(buf.is_empty());
        assert_eq!(seqs, (0..FRAMES).collect::<Vec<_>>());
        let compactions = COMPACTIONS.with(std::cell::Cell::get) - before;
        assert!(compactions <= 2, "{compactions} compactions");
    }

    #[test]
    fn slices_and_vectors_are_cursors_too() {
        let mut out: Vec<u8> = Vec::new();
        out.put_u16(0xBEEF);
        out.put_i64(-9);
        out.put_slice(b"xy");
        let mut cur = &out[..];
        assert_eq!(cur.get_u16(), 0xBEEF);
        assert_eq!(cur.get_i64(), -9);
        assert_eq!(cur.copy_to_bytes(2).to_vec(), b"xy");
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn overread_panics() {
        let mut b = Bytes::from(vec![1, 2]);
        b.get_u32();
    }
}
