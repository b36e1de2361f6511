//! A site's committed-transaction history, kept already encoded.
//!
//! A live site never queries its history: it appends one entry per
//! primary commit, reports how many there are ([`ClientReply::Stats`])
//! and hands the whole of it to a checker on request
//! ([`ClientMsg::History`]). So the site keeps no indexed structure —
//! just one append-only byte arena holding the transactions in exactly
//! the body encoding of [`ClientReply::History`], plus their count. An
//! entry costs its wire size (138 bytes for a 6-read, 4-write Table-1
//! update), the reply is a header plus one copy of the arena, and the
//! indexed `repl_analysis::history::History` is built only where a
//! serializability verdict is wanted, from [`HistoryLog::txns`] or from
//! the decoded reply.
//!
//! [`ClientReply::Stats`]: crate::ClientReply::Stats
//! [`ClientReply::History`]: crate::ClientReply::History
//! [`ClientMsg::History`]: crate::ClientMsg::History

use bytes::BufMut;
use repl_types::{GlobalTxnId, ItemId};

use crate::frame::framed;
use crate::msg::{get_history_txn, put_history_txn, HistoryTxn, MSG_REPLY, REPLY_HISTORY};

/// Append-only record of the transactions committed at a site, in local
/// commit order.
#[derive(Clone, Debug, Default)]
pub struct HistoryLog {
    /// The transactions back to back, each as `put_history_txn` wrote
    /// it — nothing else writes here, so the bytes always parse as
    /// exactly `count` transactions.
    arena: Vec<u8>,
    count: u64,
}

impl HistoryLog {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the commit of `gid`: its reads (each item with the gid of
    /// the version read, `None` for the initial version) and the
    /// distinct items it wrote.
    pub fn record_commit(
        &mut self,
        gid: GlobalTxnId,
        reads: &[(ItemId, Option<GlobalTxnId>)],
        writes: impl ExactSizeIterator<Item = ItemId>,
    ) {
        put_history_txn(&mut self.arena, gid, reads, writes);
        self.count += 1;
    }

    /// Number of transactions recorded.
    pub fn committed_count(&self) -> u64 {
        self.count
    }

    /// Bytes the recorded transactions occupy.
    pub fn encoded_len(&self) -> usize {
        self.arena.len()
    }

    /// Append to `out` the frame of the [`crate::ClientReply::History`]
    /// reply listing every recorded transaction — byte-identical to
    /// encoding `WireMsg::Reply(ClientReply::History(self.txns()))`.
    pub fn frame_reply_into(&self, out: &mut Vec<u8>) {
        out.reserve(4 + 2 + 4 + self.arena.len());
        framed(out, |buf| {
            buf.put_u8(MSG_REPLY);
            buf.put_u8(REPLY_HISTORY);
            buf.put_u32(self.count as u32);
            buf.put_slice(&self.arena);
        });
    }

    /// The recorded transactions, decoded.
    pub fn txns(&self) -> Vec<HistoryTxn> {
        let mut rest = &self.arena[..];
        (0..self.count)
            // replint: allow(RL008) -- the arena is private and holds only what record_commit encoded
            .map(|_| get_history_txn(&mut rest).expect("the arena holds only what it encoded"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_framed, ClientReply, WireMsg};
    use proptest::prelude::*;
    use repl_types::SiteId;

    fn gid_strategy() -> impl Strategy<Value = GlobalTxnId> {
        (0u32..4, 0u64..u64::MAX).prop_map(|(site, seq)| GlobalTxnId::new(SiteId(site), seq))
    }

    fn txn_strategy() -> impl Strategy<Value = HistoryTxn> {
        let version = prop_oneof![Just(None), gid_strategy().prop_map(Some)];
        let reads = prop::collection::vec((0u32..1000, version), 0..12);
        let writes = prop::collection::vec(0u32..1000, 0..6);
        (gid_strategy(), reads, writes).prop_map(|(gid, reads, writes)| {
            (
                gid,
                reads.into_iter().map(|(i, v)| (ItemId(i), v)).collect(),
                writes.into_iter().map(ItemId).collect(),
            )
        })
    }

    proptest! {
        /// The recorder's reply frame is the frame of the typed reply,
        /// byte for byte — read-only transactions, initial-version reads
        /// and the empty history included.
        #[test]
        fn reply_frame_equals_the_typed_encoding(
            txns in prop::collection::vec(txn_strategy(), 0..20),
        ) {
            let mut log = HistoryLog::new();
            for (gid, reads, writes) in &txns {
                log.record_commit(*gid, reads, writes.iter().copied());
            }
            prop_assert_eq!(log.committed_count(), txns.len() as u64);
            prop_assert_eq!(log.txns(), txns.clone());
            // Appended after whatever the buffer already holds.
            let mut out = vec![0xEE; 3];
            log.frame_reply_into(&mut out);
            let typed = encode_framed(&WireMsg::Reply(ClientReply::History(txns)));
            prop_assert_eq!(&out[..3], &[0xEE; 3][..]);
            prop_assert_eq!(&out[3..], typed.as_slice());
            prop_assert_eq!(out.len() - 3, 4 + 2 + 4 + log.encoded_len());
        }
    }
}
