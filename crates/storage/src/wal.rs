//! Redo logging and recovery.
//!
//! DataBlitz was a *recoverable* main-memory storage manager; the paper's
//! protocols additionally assume a committed transaction's updates are
//! never lost (a secondary subtransaction is forwarded only after the
//! upstream commit is durable). This module provides the corresponding
//! machinery for [`crate::Store`]:
//!
//! * a redo [`WriteAheadLog`] holding one record per committed write,
//!   in commit order, stored in its serialized byte form
//!   ([`WriteAheadLog::encode`] / [`WriteAheadLog::decode`]) so it can
//!   be shipped or persisted as is; [`LogRecord`]s are decoded on
//!   demand ([`WriteAheadLog::records`]). The bytes sit in 16 KiB
//!   segments ([`crate::SegLog`]), so the log grows without copying and
//!   [`WriteAheadLog::clear`] behind a checkpoint keeps the one segment
//!   it refills instead of allocating another;
//! * [`checkpoint`] — snapshot a store's committed state, values and
//!   writers;
//! * [`recover`] — rebuild a store from a checkpointed (or initial)
//!   image plus a log suffix, idempotently (replaying a prefix twice is
//!   harmless because records install absolute values, not deltas).
//!
//! Aborted transactions never reach the log — nor the store: their
//! writes are dropped with the transaction. The redo log is purely
//! "commit order of installed values" — which is also exactly the
//! order secondary subtransactions carry updates in.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use repl_types::{GlobalTxnId, ItemId, Value};

use crate::codec::{self, CodecError};
use crate::seglog::SegLog;
use crate::store::Store;

/// One committed write, as replayed during recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Item written.
    pub item: ItemId,
    /// Value installed.
    pub value: Value,
    /// Logical writer of the version.
    pub writer: GlobalTxnId,
}

pub(crate) fn put_record(buf: &mut impl BufMut, item: ItemId, writer: GlobalTxnId, value: &Value) {
    buf.put_u32(item.0);
    codec::put_gid(buf, writer);
    codec::put_value(buf, value);
}

/// Bytes [`put_record`] writes for a record installing `value`.
fn record_len(value: &Value) -> usize {
    4 + 12 + codec::value_len(value)
}

fn get_record(buf: &mut impl Buf) -> Result<LogRecord, CodecError> {
    let item = ItemId(codec::get_u32(buf)?);
    let writer = codec::get_gid(buf)?;
    let value = codec::get_value(buf)?;
    Ok(LogRecord { item, value, writer })
}

/// Length of the record at the front of `bytes`, which are a log's own.
fn encoded_record_len(bytes: &[u8]) -> usize {
    let mut rest = bytes;
    get_record(&mut rest).expect("the log holds only records it encoded or validated");
    bytes.len() - rest.len()
}

/// An in-memory redo log with a stable wire encoding.
///
/// Records are kept in their encoded form — the body of
/// [`WriteAheadLog::encode`]'s image — so a record costs its wire size
/// (25 bytes for an integer write) instead of a heap `LogRecord`. The
/// bytes live in a [`SegLog`]: the log grows a 16 KiB segment at a time
/// without ever copying what it holds, and [`WriteAheadLog::clear`]
/// behind a checkpoint frees every segment but one.
#[derive(Clone, Debug, Default)]
pub struct WriteAheadLog {
    /// The records, each `item ‖ writer ‖ value`. Only [`put_record`]
    /// and a validated [`WriteAheadLog::decode`] write here, so the
    /// bytes always parse as exactly `records.len()` records.
    records: SegLog,
}

/// Errors raised when decoding a log image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// The buffer ended mid-record.
    Truncated,
    /// Unknown value-type tag.
    BadTag(u8),
    /// An over-long varint (log records hold none; kept total over
    /// [`CodecError`]).
    Overlong,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Truncated => write!(f, "log image truncated"),
            WalError::BadTag(t) => write!(f, "unknown value tag {t}"),
            WalError::Overlong => write!(f, "over-long varint in log image"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<CodecError> for WalError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => WalError::Truncated,
            CodecError::BadTag(t) => WalError::BadTag(t),
            CodecError::Overlong => WalError::Overlong,
        }
    }
}

/// Decoding iterator over a log's records ([`WriteAheadLog::records`]).
#[derive(Clone, Debug)]
pub struct Records<'a> {
    log: &'a SegLog,
    /// The next segment to read once `rest` is used up.
    next_seg: usize,
    rest: &'a [u8],
    left: usize,
}

impl Iterator for Records<'_> {
    type Item = LogRecord;

    fn next(&mut self) -> Option<LogRecord> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        while self.rest.is_empty() {
            self.rest = self.log.page(self.next_seg).expect("records left to read").bytes;
            self.next_seg += 1;
        }
        Some(
            get_record(&mut self.rest).expect("the log holds only records it encoded or validated"),
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Records<'_> {}

impl WriteAheadLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a committed write.
    pub fn append(&mut self, record: LogRecord) {
        self.append_commit(record.writer, &[(record.item, record.value)]);
    }

    /// Append every write of a commit, in write order.
    pub fn append_commit(&mut self, writer: GlobalTxnId, writes: &[(ItemId, Value)]) {
        if writes.is_empty() {
            return;
        }
        let len = writes.iter().map(|(_, value)| record_len(value)).sum();
        self.records.append(writes.len(), len, |buf| {
            for (item, value) in writes {
                put_record(buf, *item, writer, value);
            }
        });
    }

    /// Append `records` records that [`put_record`] wrote back to back
    /// into `bytes` — one copy when they fit the segment being filled
    /// (the group-commit flush).
    pub(crate) fn append_encoded(&mut self, bytes: &[u8], records: usize) {
        self.records.append_run(bytes, records, encoded_record_len);
    }

    /// Forget every record — all of them are covered by a checkpoint —
    /// keeping one segment's allocation for the records to come.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Bytes the log's records occupy (the image minus its header).
    pub fn encoded_len(&self) -> usize {
        self.records.byte_len()
    }

    /// Bytes of records the log can still take before it needs another
    /// 16 KiB segment. A log cut ([`WriteAheadLog::clear`]) behind a
    /// checkpoint whenever the next append would not fit stays in the
    /// one segment it first allocated, however much is logged.
    pub fn room(&self) -> usize {
        self.records.room()
    }

    /// The records, in commit order, decoded as they are visited.
    pub fn records(&self) -> Records<'_> {
        Records { log: &self.records, next_seg: 0, rest: &[], left: self.records.len() }
    }

    /// Serialize the whole log: record count, then the records.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + self.records.byte_len());
        buf.put_u64(self.records.len() as u64);
        for page in self.records.pages() {
            buf.put_slice(page.bytes);
        }
        buf.freeze()
    }

    /// Deserialize a log image produced by [`WriteAheadLog::encode`].
    /// The claimed record count is distrusted: every record is parsed
    /// once here, and only the bytes that parsed are kept.
    pub fn decode(mut buf: Bytes) -> Result<Self, WalError> {
        if buf.remaining() < 8 {
            return Err(WalError::Truncated);
        }
        let n = buf.get_u64();
        let mut rest = buf.as_slice();
        let mut count = 0usize;
        while (count as u64) < n {
            get_record(&mut rest)?;
            count += 1;
        }
        let parsed = buf.len() - rest.len();
        let mut records = SegLog::new();
        records.append_run(&buf[..parsed], count, encoded_record_len);
        Ok(WriteAheadLog { records })
    }
}

/// A snapshot of a store's committed item state.
#[derive(Clone, Debug, Default)]
pub struct Checkpoint {
    /// `(item, value, writer)` triples for every copy at the site.
    pub cells: Vec<(ItemId, Value, Option<GlobalTxnId>)>,
}

impl Checkpoint {
    /// The checkpointed `(item, value, writer)` image, as [`recover`]
    /// takes it.
    pub fn image(
        &self,
    ) -> impl ExactSizeIterator<Item = (ItemId, Value, Option<GlobalTxnId>)> + '_ {
        self.cells.iter().cloned()
    }
}

/// Snapshot `store`'s committed state. Open and prepared transactions
/// do not show: their writes are not in any cell until they commit.
pub fn checkpoint(store: &Store, items: impl Iterator<Item = ItemId>) -> Checkpoint {
    let cells =
        items.filter_map(|item| store.peek(item).map(|r| (item, r.value, r.writer))).collect();
    Checkpoint { cells }
}

/// Rebuild a store from an `(item, value, writer)` image — a
/// [`Checkpoint::image`], or a site's item set at its initial values
/// (no writer) when nothing was checkpointed yet — and replay a
/// redo-log suffix over it.
///
/// Replay is idempotent: records install absolute values, so replaying an
/// already-applied prefix changes nothing.
pub fn recover(
    image: impl IntoIterator<Item = (ItemId, Value, Option<GlobalTxnId>)>,
    log: &WriteAheadLog,
) -> Store {
    let mut store: Store = image.into_iter().collect();
    // An item the log suffix does not write keeps the image's value
    // *and* writer: a recovered copy must be indistinguishable from one
    // that never crashed.
    for r in log.records() {
        if store.has_item(r.item) {
            let txn = store.begin();
            store
                .write(txn, r.item, r.value, r.writer)
                .expect("recovery replays onto an idle store");
            store.commit(txn).expect("recovery commit");
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use repl_types::SiteId;

    fn gid(site: u32, seq: u64) -> GlobalTxnId {
        GlobalTxnId::new(SiteId(site), seq)
    }

    /// A fixed 50-commit, 123-record log covering every value tag, empty
    /// byte strings and negative integers.
    fn golden_log() -> WriteAheadLog {
        let mut wal = WriteAheadLog::new();
        for seq in 0..50u64 {
            let writer = GlobalTxnId::new(SiteId((seq % 3) as u32), seq * 1_000_003);
            let writes: Vec<(ItemId, Value)> = (0..1 + seq % 4)
                .map(|k| {
                    let item = ItemId(((seq * 7 + k) % 100) as u32);
                    let value = match (seq + k) % 3 {
                        0 => Value::Initial,
                        1 => Value::int(seq as i64 * 31 - 700 + k as i64),
                        _ => Value::Bytes((0..(seq % 5) as u8).map(|b| b ^ seq as u8).collect()),
                    };
                    (item, value)
                })
                .collect();
            wal.append_commit(writer, &writes);
        }
        wal
    }

    /// `encode()` of [`golden_log`] as produced by the `Vec<LogRecord>` log this
    /// byte log replaced (commit 15d753b): the image format must never drift.
    const GOLDEN_IMAGE_HEX: &str = "\
        000000000000007b0000000000000000000000000000000000000000070000000100000000000f424301ffff\
        fffffffffd63000000080000000100000000000f4243020000000000000001010000000e0000000200000000\
        001e848602000000000000000202030000000f0000000200000000001e848600000000100000000200000000\
        001e848601fffffffffffffd84000000150000000000000000002dc6c900000000160000000000000000002d\
        c6c901fffffffffffffda2000000170000000000000000002dc6c90200000000000000030302010000001800\
        00000000000000002dc6c9000000001c0000000100000000003d090c01fffffffffffffdc000000023000000\
        0200000000004c4b4f020000000000000000000000240000000200000000004c4b4f000000002a0000000000\
        000000005b8d92000000002b0000000000000000005b8d9201fffffffffffffdff0000002c00000000000000\
        00005b8d9202000000000000000106000000310000000100000000006acfd501fffffffffffffe1d00000032\
        0000000100000000006acfd50200000000000000020706000000330000000100000000006acfd50000000034\
        0000000100000000006acfd501fffffffffffffe20000000380000000200000000007a121802000000000000\
        000308090a0000003f00000000000000000089545b000000004000000000000000000089545b01ffffffffff\
        fffe5c0000004600000001000000000098969e01fffffffffffffe7a0000004700000001000000000098969e\
        0200000000000000000000004800000001000000000098969e000000004d000000020000000000a7d8e10200\
        000000000000010b0000004e000000020000000000a7d8e1000000004f000000020000000000a7d8e101ffff\
        fffffffffe9b00000050000000020000000000a7d8e10200000000000000010b000000540000000000000000\
        00b71b24000000005b000000010000000000c65d6701fffffffffffffed70000005c000000010000000000c6\
        5d670200000000000000030d0c0f00000062000000020000000000d59faa0200000000000000040e0f0c0d00\
        000063000000020000000000d59faa0000000000000000020000000000d59faa01fffffffffffffef8000000\
        05000000000000000000e4e1ed0000000006000000000000000000e4e1ed01ffffffffffffff160000000700\
        0000000000000000e4e1ed02000000000000000000000008000000000000000000e4e1ed000000000c000000\
        010000000000f4243001ffffffffffffff340000001300000002000000000103667302000000000000000211\
        1000000014000000020000000001036673000000001a00000000000000000112a8b6000000001b0000000000\
        0000000112a8b601ffffffffffffff730000001c00000000000000000112a8b6020000000000000003121310\
        0000002100000001000000000121eaf901ffffffffffffff910000002200000001000000000121eaf9020000\
        000000000004131211100000002300000001000000000121eaf9000000002400000001000000000121eaf901\
        ffffffffffffff9400000028000000020000000001312d3c0200000000000000000000002f00000000000000\
        0001406f7f0000000030000000000000000001406f7f01ffffffffffffffd000000036000000010000000001\
        4fb1c201ffffffffffffffee000000370000000100000000014fb1c202000000000000000216170000003800\
        00000100000000014fb1c2000000003d0000000200000000015ef4050200000000000000031716150000003e\
        0000000200000000015ef405000000003f0000000200000000015ef40501000000000000000f000000400000\
        000200000000015ef405020000000000000003171615000000440000000000000000016e3648000000004b00\
        00000100000000017d788b01000000000000004b0000004c0000000100000000017d788b0200000000000000\
        00000000520000000200000000018cbace0200000000000000011a000000530000000200000000018cbace00\
        000000540000000200000000018cbace01000000000000006c000000590000000000000000019bfd11000000\
        005a0000000000000000019bfd1101000000000000008a0000005b0000000000000000019bfd110200000000\
        000000021b1a0000005c0000000000000000019bfd110000000060000000010000000001ab3f540100000000\
        000000a800000003000000020000000001ba81970200000000000000041d1c1f1e0000000400000002000000\
        0001ba8197000000000a000000000000000001c9c3da000000000b000000000000000001c9c3da0100000000\
        000000e70000000c000000000000000001c9c3da02000000000000000000000011000000010000000001d906\
        1d01000000000000010500000012000000010000000001d9061d0200000000000000011f0000001300000001\
        0000000001d9061d0000000014000000010000000001d9061d01000000000000010800000018000000020000\
        000001e8486002000000000000000220210000001f000000000000000001f78aa30000000020000000000000\
        000001f78aa30100000000000001440000002600000001000000000206cce601000000000000016200000027\
        00000001000000000206cce6020000000000000004222320210000002800000001000000000206cce6000000\
        002d000000020000000002160f290200000000000000000000002e000000020000000002160f29000000002f\
        000000020000000002160f2901000000000000018300000030000000020000000002160f2902000000000000\
        00000000003400000000000000000225516c000000003b0000000100000000023493af0100000000000001bf\
        0000003c0000000100000000023493af02000000000000000225240000004200000002000000000243d5f202\
        00000000000000032627240000004300000002000000000243d5f2000000004400000002000000000243d5f2\
        0100000000000001e000000049000000000000000002531835000000004a0000000000000000025318350100\
        000000000001fe0000004b000000000000000002531835020000000000000004272625240000004c00000000\
        00000000025318350000000050000000010000000002625a7801000000000000021c00000057000000020000\
        000002719cbb0200000000000000012900000058000000020000000002719cbb000000005e00000000000000\
        000280defe000000005f00000000000000000280defe01000000000000025b00000060000000000000000002\
        80defe0200000000000000022a2b000000010000000100000000029021410100000000000002790000000200\
        00000100000000029021410200000000000000032b2a29000000030000000100000000029021410000000004\
        00000001000000000290214101000000000000027c000000080000000200000000029f638402000000000000\
        00042c2d2e2f0000000f000000000000000002aea5c70000000010000000000000000002aea5c70100000000\
        000002b800000016000000010000000002bde80a0100000000000002d600000017000000010000000002bde8\
        0a0200000000000000012e00000018000000010000000002bde80a000000001d000000020000000002cd2a4d\
        0200000000000000022f2e0000001e000000020000000002cd2a4d000000001f000000020000000002cd2a4d\
        0100000000000002f700000020000000020000000002cd2a4d0200000000000000022f2e0000002400000000\
        0000000002dc6c90000000002b000000010000000002ebaed30100000000000003330000002c000000010000\
        000002ebaed302000000000000000431303332\
    ";

    #[test]
    fn image_matches_the_golden_bytes() {
        let wal = golden_log();
        assert_eq!(wal.len(), 123);
        let image = wal.encode();
        let hex: String = image.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_IMAGE_HEX);
        assert_eq!(image.len(), 8 + wal.encoded_len());
        // decode keeps the bytes: the roundtrip is the identity on images.
        let decoded = WriteAheadLog::decode(image.clone()).unwrap();
        assert_eq!(decoded.encode(), image);
        assert!(decoded.records().eq(wal.records()));
        // Trailing bytes after the claimed records are not kept.
        let mut padded = image.to_vec();
        padded.extend_from_slice(&[0xAB; 7]);
        assert_eq!(WriteAheadLog::decode(Bytes::from(padded)).unwrap().encode(), image);
    }

    /// `n` Table-1 shaped commits (4 integer writes, 100 bytes).
    fn table1_log(n: u64) -> WriteAheadLog {
        let mut wal = WriteAheadLog::new();
        for seq in 0..n {
            let writes: Vec<(ItemId, Value)> = (0..4)
                .map(|k| (ItemId((seq * 4 + k) as u32 % 997), Value::int(seq as i64)))
                .collect();
            wal.append_commit(gid(0, seq), &writes);
        }
        wal
    }

    /// A log of several segments is the same log: same records, same
    /// image as one built by decoding that image; the checkpoint cut
    /// (`clear`) truncates it to one empty segment.
    #[test]
    fn a_log_of_many_segments_encodes_decodes_and_truncates() {
        use crate::SEGMENT_BYTES;
        const COMMITS: usize = 2000; // 200 000 B: twelve sealed segments and a tail
        let wal = table1_log(COMMITS as u64);
        assert_eq!((wal.len(), wal.encoded_len()), (8000, 200_000));
        // A commit's records share a segment: 163 whole commits each.
        let per_segment = SEGMENT_BYTES / 100;
        let (sealed, tail) = (COMMITS / per_segment, COMMITS % per_segment);
        assert!(sealed >= 3 && tail > 0, "{sealed} sealed segments and {tail} commits");
        assert_eq!(wal.records.segments(), sealed + 1);
        assert_eq!(wal.room(), SEGMENT_BYTES - 100 * tail);
        let image = wal.encode();
        assert_eq!(image.len(), 8 + 200_000);
        let decoded = WriteAheadLog::decode(image.clone()).unwrap();
        assert_eq!(decoded.encode(), image);
        assert_eq!(decoded.records.segments(), sealed + 1);
        assert!(decoded.records().eq(wal.records()));
        assert_eq!(wal.records().count(), 8000);
        // Cleared, the log is empty and keeps one segment to refill.
        let mut cut = wal;
        cut.clear();
        assert_eq!((cut.len(), cut.records.segments(), cut.room()), (0, 1, SEGMENT_BYTES));
        assert_eq!(cut.encode().len(), 8);
        // A cut log keeps appending.
        cut.append_commit(gid(1, 0), &[(ItemId(5), Value::int(5))]);
        assert_eq!(cut.records().last().unwrap().writer, gid(1, 0));
    }

    /// A checkpointed copy comes back with the writer it had: the log
    /// suffix only restores the writers of what it rewrites.
    #[test]
    fn recovery_from_a_checkpoint_keeps_the_writers() {
        let mut store: Store = (0..3u32).map(|i| (ItemId(i), Value::Initial)).collect();
        for (seq, item) in [(1u64, 0u32), (2, 1)] {
            let t = store.begin();
            store.write(t, ItemId(item), Value::int(seq as i64), gid(0, seq)).unwrap();
            store.commit(t).unwrap();
        }
        let cp = checkpoint(&store, (0..3).map(ItemId));
        let mut suffix = WriteAheadLog::new();
        suffix.append_commit(gid(0, 3), &[(ItemId(1), Value::int(3))]);
        let recovered = recover(cp.image(), &suffix);
        let cell = |i: u32| recovered.peek(ItemId(i)).map(|r| (r.value, r.writer)).unwrap();
        assert_eq!(cell(0), (Value::int(1), Some(gid(0, 1))), "checkpointed writer lost");
        assert_eq!(cell(1), (Value::int(3), Some(gid(0, 3))));
        assert_eq!(cell(2), (Value::Initial, None));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut wal = WriteAheadLog::new();
        wal.append(LogRecord { item: ItemId(1), value: Value::Initial, writer: gid(0, 1) });
        wal.append(LogRecord { item: ItemId(2), value: Value::int(-5), writer: gid(1, 2) });
        wal.append(LogRecord {
            item: ItemId(3),
            value: Value::Bytes(vec![1, 2, 3]),
            writer: gid(2, 3),
        });
        let decoded = WriteAheadLog::decode(wal.encode()).unwrap();
        assert_eq!(decoded.len(), 3);
        assert!(decoded.records().eq(wal.records()));
        assert_eq!(decoded.records().nth(1).unwrap().value, Value::int(-5));
    }

    #[test]
    fn truncated_images_are_rejected() {
        let mut wal = WriteAheadLog::new();
        wal.append_commit(gid(0, 1), &[(ItemId(1), Value::int(9))]);
        let bytes = wal.encode();
        for cut in 0..bytes.len() {
            let sliced = bytes.slice(0..cut);
            assert!(WriteAheadLog::decode(sliced).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        let mut wal = WriteAheadLog::new();
        wal.append(LogRecord { item: ItemId(1), value: Value::int(1), writer: gid(0, 0) });
        let mut raw = wal.encode().to_vec();
        // The tag byte sits after count(8) + item(4) + origin(4) + seq(8).
        raw[24] = 99;
        assert_eq!(WriteAheadLog::decode(Bytes::from(raw)).err(), Some(WalError::BadTag(99)));
    }

    #[test]
    fn recovery_replays_committed_writes() {
        let mut store = Store::new();
        let mut wal = WriteAheadLog::new();
        for i in 0..4u32 {
            store.create_item(ItemId(i), Value::Initial);
        }
        let cp = checkpoint(&store, (0..4).map(ItemId));

        // Two committed transactions, one aborted (not logged).
        let t1 = store.begin();
        store.write(t1, ItemId(0), Value::int(10), gid(0, 1)).unwrap();
        store.write(t1, ItemId(1), Value::int(11), gid(0, 1)).unwrap();
        let (info, _) = store.commit(t1).unwrap();
        wal.append_commit(gid(0, 1), &info.write_set());

        let t2 = store.begin();
        store.write(t2, ItemId(2), Value::int(999), gid(0, 2)).unwrap();
        store.abort(t2).unwrap();

        let t3 = store.begin();
        store.write(t3, ItemId(0), Value::int(20), gid(0, 3)).unwrap();
        let (info, _) = store.commit(t3).unwrap();
        wal.append_commit(gid(0, 3), &info.write_set());

        let recovered = recover(cp.image(), &wal);
        assert_eq!(recovered.peek(ItemId(0)).unwrap().value, Value::int(20));
        assert_eq!(recovered.peek(ItemId(0)).unwrap().writer, Some(gid(0, 3)));
        assert_eq!(recovered.peek(ItemId(1)).unwrap().value, Value::int(11));
        assert_eq!(recovered.peek(ItemId(2)).unwrap().value, Value::Initial);
    }

    #[test]
    fn truncated_log_recovers_identically() {
        // Run a store forward, checkpointing mid-stream; recovery from
        // (checkpoint, truncated suffix) must equal recovery from
        // (boot image, full log).
        let mut store = Store::new();
        let mut wal = WriteAheadLog::new();
        for i in 0..4u32 {
            store.create_item(ItemId(i), Value::Initial);
        }
        let boot = checkpoint(&store, (0..4).map(ItemId));
        for seq in 0..10u64 {
            let w = gid(0, seq);
            let t = store.begin();
            store.write(t, ItemId((seq % 4) as u32), Value::int(seq as i64 * 3), w).unwrap();
            let (info, _) = store.commit(t).unwrap();
            wal.append_commit(w, &info.write_set());
        }
        // Checkpoint after the first six records; the log keeps the rest.
        let full = recover(boot.image(), &wal);
        let mut mid_wal = WriteAheadLog::new();
        wal.records().take(6).for_each(|r| mid_wal.append(r));
        let mid_store = recover(boot.image(), &mid_wal);
        let cp = checkpoint(&mid_store, (0..4).map(ItemId));
        let mut truncated = WriteAheadLog::new();
        wal.records().skip(6).for_each(|r| truncated.append(r));
        assert_eq!(truncated.len(), 4);
        let from_truncated = recover(cp.image(), &truncated);
        for i in 0..4u32 {
            assert_eq!(
                from_truncated.peek(ItemId(i)),
                full.peek(ItemId(i)),
                "item {i} diverged after prefix truncation"
            );
        }
    }

    #[test]
    fn replay_is_idempotent() {
        let mut wal = WriteAheadLog::new();
        wal.append_commit(gid(0, 1), &[(ItemId(0), Value::int(1))]);
        wal.append_commit(gid(0, 2), &[(ItemId(0), Value::int(2))]);
        let cp = Checkpoint { cells: vec![(ItemId(0), Value::Initial, None)] };
        let once = recover(cp.image(), &wal);
        // "Replay twice": recover from the once-recovered state.
        let cp2 = checkpoint(&once, std::iter::once(ItemId(0)));
        let twice = recover(cp2.image(), &wal);
        assert_eq!(twice.peek(ItemId(0)).unwrap().value, once.peek(ItemId(0)).unwrap().value);
    }

    /// Arbitrary values covering every wire tag.
    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Initial),
            (i64::MIN..=i64::MAX).prop_map(Value::Int),
            prop::collection::vec(0u8..=u8::MAX, 0..24).prop_map(Value::Bytes),
        ]
    }

    /// Arbitrary record tuples for fuzzing image corruption.
    fn entries_strategy(max: usize) -> impl Strategy<Value = Vec<(u32, Value, u32, u64)>> {
        prop::collection::vec((0u32..100, value_strategy(), 0u32..5, 0u64..50), 1..max)
    }

    fn wal_from(entries: Vec<(u32, Value, u32, u64)>) -> WriteAheadLog {
        let mut wal = WriteAheadLog::new();
        for (item, value, site, seq) in entries {
            wal.append(LogRecord { item: ItemId(item), value, writer: gid(site, seq) });
        }
        wal
    }

    proptest! {
        /// Decode is total: arbitrary bytes — including headers claiming
        /// absurd record counts — produce `Ok` or a clean `Err`, never a
        /// panic or an overallocation.
        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            raw in prop::collection::vec(0u8..=u8::MAX, 0..256),
        ) {
            let _ = WriteAheadLog::decode(Bytes::from(raw));
        }

        /// A single flipped bit anywhere in a valid image (the classic
        /// torn-write corruption) never panics the decoder, and whatever
        /// still decodes re-encodes cleanly.
        #[test]
        fn decode_survives_bit_flips(
            entries in entries_strategy(20),
            flip in (0usize..usize::MAX, 0u8..8),
        ) {
            let mut raw = wal_from(entries).encode().to_vec();
            let pos = flip.0 % raw.len();
            raw[pos] ^= 1 << flip.1;
            if let Ok(decoded) = WriteAheadLog::decode(Bytes::from(raw)) {
                let _ = decoded.encode();
            }
        }

        /// Truncation at any offset of any image is always detected
        /// (generalizes the single-record unit test above).
        #[test]
        fn decode_rejects_arbitrary_truncations(
            entries in entries_strategy(12),
            cut_seed in 0usize..usize::MAX,
        ) {
            let bytes = wal_from(entries).encode();
            let cut = cut_seed % bytes.len();
            prop_assert!(WriteAheadLog::decode(bytes.slice(0..cut)).is_err());
        }

        /// encode/decode is the identity for arbitrary logs.
        #[test]
        fn roundtrip_arbitrary(entries in prop::collection::vec(
            (0u32..100, -1000i64..1000, 0u32..5, 0u64..50), 0..60)) {
            let mut wal = WriteAheadLog::new();
            for (item, v, site, seq) in entries {
                wal.append(LogRecord {
                    item: ItemId(item),
                    value: Value::int(v),
                    writer: gid(site, seq),
                });
            }
            let decoded = WriteAheadLog::decode(wal.encode()).unwrap();
            prop_assert!(decoded.records().eq(wal.records()));
            prop_assert_eq!(decoded.encode(), wal.encode());
        }

        /// Recovery reproduces the last committed value per item.
        #[test]
        fn recovery_matches_live_store(writes in prop::collection::vec(
            (0u32..8, 0i64..10_000), 1..50)) {
            let mut store = Store::new();
            let mut wal = WriteAheadLog::new();
            for i in 0..8u32 {
                store.create_item(ItemId(i), Value::Initial);
            }
            let cp = checkpoint(&store, (0..8).map(ItemId));
            for (seq, (item, v)) in writes.iter().enumerate() {
                let w = gid(0, seq as u64);
                let t = store.begin();
                store.write(t, ItemId(*item), Value::int(*v), w).unwrap();
                let (info, _) = store.commit(t).unwrap();
                wal.append_commit(w, &info.write_set());
            }
            let recovered = recover(cp.image(), &wal);
            for i in 0..8u32 {
                prop_assert_eq!(
                    recovered.peek(ItemId(i)).unwrap().value,
                    store.peek(ItemId(i)).unwrap().value
                );
            }
        }
    }
}
