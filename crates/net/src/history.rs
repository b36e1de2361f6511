//! A site's committed-transaction history, kept already encoded.
//!
//! A live site never queries its history: it appends one entry per
//! primary commit, reports how many there are ([`ClientReply::Stats`])
//! and hands it to a checker on request ([`ClientMsg::History`]). So
//! the site keeps no indexed structure — just an append-only log
//! ([`SegLog`]) holding the transactions in exactly the body encoding
//! of [`ClientReply::History`]. This is the one structure at a site
//! that grows with every commit and is never cut, so that encoding is
//! all varints: an entry costs its wire size, 43 bytes for a 6-read,
//! 4-write Table-1 update while item ids and sequence numbers are below
//! 2¹⁴ (138 with fixed-width fields). The log grows a 16 KiB
//! segment at a time, and a checker fetches it a page per reply
//! ([`HistoryLog::frame_page_into`]): a reply is a header plus one copy
//! of the rest of one segment, at most [`PAGE_BYTES`] of whole
//! transactions, however long the history is. The indexed
//! `repl_analysis::history::History` is built only where a
//! serializability verdict is wanted, from [`HistoryLog::txns`] or from
//! the decoded replies.
//!
//! [`ClientReply::Stats`]: crate::ClientReply::Stats
//! [`ClientReply::History`]: crate::ClientReply::History
//! [`ClientMsg::History`]: crate::ClientMsg::History

use bytes::BufMut;
use repl_storage::SegLog;
use repl_types::{GlobalTxnId, ItemId};

use crate::frame::framed;
use crate::msg::{
    get_history_txn, history_txn_len, put_history_txn, HistoryTxn, MSG_REPLY, REPLY_HISTORY,
};

/// Append-only record of the transactions committed at a site, in local
/// commit order.
#[derive(Clone, Debug, Default)]
pub struct HistoryLog {
    /// One record per transaction, each as `put_history_txn` wrote it —
    /// nothing else writes here, so every page parses as exactly its
    /// record count of transactions.
    txns: SegLog,
}

/// Length of the transaction at the front of `bytes`, which are the
/// log's own.
fn encoded_txn_len(bytes: &[u8]) -> usize {
    let mut rest = bytes;
    #[expect(clippy::expect_used, reason = "the log is private and holds only what it encoded")]
    get_history_txn(&mut rest).expect("the log holds only what it encoded");
    bytes.len() - rest.len()
}

impl HistoryLog {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes of the history's segments.
    pub fn heap_bytes(&self) -> usize {
        self.txns.heap_bytes()
    }

    /// Record the commit of `gid`: its reads (each item with the gid of
    /// the version read, `None` for the initial version) and the
    /// distinct items it wrote.
    pub fn record_commit(
        &mut self,
        gid: GlobalTxnId,
        reads: &[(ItemId, Option<GlobalTxnId>)],
        writes: impl ExactSizeIterator<Item = ItemId> + Clone,
    ) {
        self.txns.append(1, history_txn_len(gid, reads, writes.clone()), |buf| {
            put_history_txn(buf, gid, reads, writes);
        });
    }

    /// Number of transactions recorded.
    pub fn committed_count(&self) -> u64 {
        self.txns.len() as u64
    }

    /// Bytes the recorded transactions occupy.
    pub fn encoded_len(&self) -> usize {
        self.txns.byte_len()
    }

    /// Append to `out` the frame of the [`crate::ClientReply::History`]
    /// reply to `ClientMsg::History { from }`: the transactions from
    /// number `from` (counting from 0, in commit order) to the end of
    /// the segment that holds it — at most [`crate::PAGE_BYTES`], the
    /// segment size, unless the segment holds one larger transaction
    /// alone — byte-identical to encoding
    /// `WireMsg::Reply(ClientReply::History(page))` for that slice of
    /// [`HistoryLog::txns`]. At or past the end of the history the page
    /// is empty, which is how a caller adding each page's length to its
    /// cursor learns it has everything.
    pub fn frame_page_into(&self, from: u64, out: &mut Vec<u8>) {
        let page = usize::try_from(from).ok().and_then(|from| self.txns.page_of(from));
        let (count, bytes) = page.map_or((0, &[][..]), |(skip, page)| {
            let start = (0..skip).fold(0, |at, _| at + encoded_txn_len(&page.bytes[at..]));
            (page.records - skip, &page.bytes[start..])
        });
        // Exactly: pages differ by a few bytes, and growing by doubling
        // for the second one would hold two pages' worth for one.
        out.reserve_exact(4 + 2 + 4 + bytes.len());
        framed(out, |buf| {
            buf.put_u8(MSG_REPLY);
            buf.put_u8(REPLY_HISTORY);
            buf.put_u32(count as u32);
            buf.put_slice(bytes);
        });
    }

    /// The recorded transactions, decoded.
    pub fn txns(&self) -> Vec<HistoryTxn> {
        let mut txns = Vec::with_capacity(self.txns.len());
        for page in self.txns.pages() {
            let mut rest = page.bytes;
            for _ in 0..page.records {
                #[expect(
                    clippy::expect_used,
                    reason = "the log is private and holds only what it encoded"
                )]
                txns.push(get_history_txn(&mut rest).expect("the log holds only what it encoded"));
            }
        }
        txns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_framed, encode_framed, ClientReply, WireMsg, PAGE_BYTES};
    use bytes::BytesMut;
    use proptest::prelude::*;
    use repl_storage::SEGMENT_BYTES;
    use repl_types::SiteId;

    /// Ids and sequence numbers of every varint width, the extremes
    /// included.
    fn gid_strategy() -> impl Strategy<Value = GlobalTxnId> {
        (0u32..=u32::MAX, 0u64..=u64::MAX, 0u32..32, 0u32..64)
            .prop_map(|(site, seq, a, b)| GlobalTxnId::new(SiteId(site >> a), seq >> b))
    }

    fn txn_strategy() -> impl Strategy<Value = HistoryTxn> {
        let item = || (0u32..=u32::MAX, 0u32..32).prop_map(|(item, shift)| item >> shift);
        let version = prop_oneof![Just(None), gid_strategy().prop_map(Some)];
        let reads = prop::collection::vec((item(), version), 0..12);
        let writes = prop::collection::vec(item(), 0..6);
        (gid_strategy(), reads, writes).prop_map(|(gid, reads, writes)| {
            (
                gid,
                reads.into_iter().map(|(i, v)| (ItemId(i), v)).collect(),
                writes.into_iter().map(ItemId).collect(),
            )
        })
    }

    fn log_of(txns: &[HistoryTxn]) -> HistoryLog {
        let mut log = HistoryLog::new();
        for (gid, reads, writes) in txns {
            log.record_commit(*gid, reads, writes.iter().copied());
        }
        log
    }

    /// The page a fetch from `from` returns, decoded off its frame —
    /// which never carries more than `PAGE_BYTES` of transactions, unless
    /// it carries one.
    fn page(log: &HistoryLog, from: u64) -> Vec<HistoryTxn> {
        let mut out = Vec::new();
        log.frame_page_into(from, &mut out);
        let mut buf = BytesMut::from(&out[..]);
        let txns = match decode_framed(&mut buf).unwrap() {
            Some(WireMsg::Reply(ClientReply::History(txns))) if buf.is_empty() => txns,
            other => panic!("not one history reply frame: {other:?}"),
        };
        assert!(out.len() - (4 + 2 + 4) <= PAGE_BYTES || txns.len() == 1, "{}", out.len());
        txns
    }

    /// Everything from `start` on, a page at a time until one is empty.
    fn collect(log: &HistoryLog, start: usize) -> Vec<HistoryTxn> {
        let mut got = Vec::new();
        loop {
            let next = page(log, (start + got.len()) as u64);
            if next.is_empty() {
                return got;
            }
            got.extend(next);
        }
    }

    /// `n` Table-1 updates (6 reads of written versions, 4 writes), item
    /// ids and sequence numbers in the two-byte varint range: 43 bytes
    /// each, 381 to a page and to a segment.
    fn table1_txns(n: u64) -> Vec<HistoryTxn> {
        (0..n)
            .map(|k| {
                let gid = GlobalTxnId::new(SiteId(0), 128 + k);
                let item = |j: u64| ItemId(128 + (k + j) as u32 % 800);
                let reads = (0..6).map(|j| (item(j), Some(gid))).collect();
                (gid, reads, (6..10).map(item).collect())
            })
            .collect()
    }

    proptest! {
        /// Every page's reply frame is the frame of the typed reply for
        /// that slice of the history, byte for byte — read-only
        /// transactions, initial-version reads, the empty history and
        /// the empty page at its end included — and following the
        /// cursor from any position collects exactly the rest.
        #[test]
        fn reply_frame_equals_the_typed_encoding(
            txns in prop::collection::vec(txn_strategy(), 0..20),
        ) {
            let log = log_of(&txns);
            prop_assert_eq!(log.committed_count(), txns.len() as u64);
            prop_assert_eq!(log.txns(), txns.clone());
            for from in 0..=txns.len() {
                // Appended after whatever the buffer already holds.
                let mut out = vec![0xEE; 3];
                log.frame_page_into(from as u64, &mut out);
                // One page holds all of a history this small.
                let typed = encode_framed(&WireMsg::Reply(ClientReply::History(
                    txns[from..].to_vec(),
                )));
                prop_assert_eq!(&out[..3], &[0xEE; 3][..]);
                prop_assert_eq!(&out[3..], typed.as_slice());
            }
            let mut out = Vec::new();
            log.frame_page_into(0, &mut out);
            prop_assert_eq!(out.len(), 4 + 2 + 4 + log.encoded_len());
        }
    }

    #[test]
    fn pages_hold_a_page_of_whole_txns_inside_a_segment_and_the_cursor_collects_them() {
        const PER_PAGE: usize = PAGE_BYTES / 43;
        const PER_SEGMENT: usize = SEGMENT_BYTES / 43;
        const N: usize = 4000;
        const { assert!(PER_PAGE <= PER_SEGMENT && 3 * PER_SEGMENT < N) };
        let txns = table1_txns(N as u64);
        let log = log_of(&txns);
        assert_eq!(log.encoded_len(), N * 43);
        // From anywhere: as many whole transactions as fit a page, and
        // no further than the end of the segment that holds `from` (one
        // from a segment's last).
        let expected = |from: usize| {
            let segment_end = (from / PER_SEGMENT + 1) * PER_SEGMENT;
            &txns[from..(from + PER_PAGE).min(segment_end).min(N)]
        };
        for from in [0, PER_PAGE, 1000, 1500, PER_SEGMENT - 1, PER_SEGMENT, 2 * PER_SEGMENT + 7] {
            assert_eq!(page(&log, from as u64), expected(from), "from {from}");
        }
        assert_eq!(page(&log, PER_SEGMENT as u64 - 1).len(), 1);
        // The last segment is partly filled.
        assert_eq!(page(&log, N as u64 - 1), txns[N - 1..]);
        // At and past the end: the empty page.
        assert_eq!(page(&log, N as u64), vec![]);
        assert_eq!(page(&log, u64::MAX), vec![]);
        assert_eq!(page(&HistoryLog::new(), 0), vec![]);
        // Following the cursor from anywhere collects the rest.
        for start in [0usize, 1, PER_PAGE - 1, PER_SEGMENT, 3000] {
            assert_eq!(collect(&log, start), txns[start..], "from {start}");
        }
    }

    /// A transaction past `PAGE_BYTES` — 6000 reads of written versions,
    /// about 30 kB — is a page of its own, and the ones around it are not
    /// held back by it.
    #[test]
    fn an_oversize_transaction_is_a_page_of_its_own() {
        let mut txns = table1_txns(3);
        let (gid, _, writes) = txns[1].clone();
        let reads = (0..6000).map(|i| (ItemId(128 + i), Some(gid))).collect();
        txns[1] = (gid, reads, writes);
        let log = log_of(&txns);
        assert!(log.encoded_len() > PAGE_BYTES + 2 * 43);
        assert_eq!(page(&log, 0), txns[..1]);
        assert_eq!(page(&log, 1), txns[1..2]);
        assert_eq!(page(&log, 2), txns[2..]);
        assert_eq!(collect(&log, 0), txns);
    }

    /// The entry sizes the per-commit budget rests on: every field costs
    /// what its value needs, and the initial version one byte.
    #[test]
    fn an_entry_costs_its_varints() {
        let len = |txn: &HistoryTxn| log_of(std::slice::from_ref(txn)).encoded_len();
        let g = |site, seq| GlobalTxnId::new(SiteId(site), seq);
        // gid + the two counts.
        assert_eq!(len(&(g(0, 0), vec![], vec![])), 4);
        assert_eq!(len(&(g(u32::MAX, u64::MAX), vec![], vec![])), 5 + 10 + 2);
        // A read of the initial version: item + one zero byte.
        assert_eq!(len(&(g(0, 0), vec![(ItemId(5), None)], vec![])), 4 + 2);
        // Origin u32::MAX is stored as 2^32, still five bytes.
        let read = (ItemId(u32::MAX), Some(g(u32::MAX, 1 << 14)));
        assert_eq!(len(&(g(0, 0), vec![read], vec![ItemId(128)])), 4 + (5 + 5 + 3) + 2);
        assert_eq!(len(&table1_txns(1)[0]), 43);
        // Past 2^14 commits the seven sequence numbers take a third byte.
        let late = GlobalTxnId::new(SiteId(0), 1 << 14);
        let (_, reads, writes) = table1_txns(1).remove(0);
        let reads = reads.into_iter().map(|(item, _)| (item, Some(late))).collect();
        assert_eq!(len(&(late, reads, writes)), 50);
    }
}
