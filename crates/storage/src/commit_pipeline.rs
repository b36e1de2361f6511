//! Group commit: amortize the durable append across a batch.
//!
//! The durable path previously paid one WAL append (and, on a real
//! device, one fsync) per commit. Group commit is the standard fix:
//! commits *enqueue* into a [`CommitBatch`]; when the batch reaches the
//! configured size — or the driver reaches a sync point with work
//! pending — one [`CommitPipeline::flush`] appends every record of the
//! batch to the log in enqueue order and pays the fsync-equivalent cost
//! once. Acknowledgements are released only at flush, **in batch
//! (enqueue) order**: an earlier commit is never acknowledged after a
//! later one, so the ack stream stays consistent with both the WAL order
//! and the per-site commit order the propagation protocols rely on.
//!
//! With `max_batch == 1` (the default everywhere) every enqueue flushes
//! immediately and the pipeline is byte-for-byte equivalent to the old
//! direct-append path — existing tests, recovery images and the
//! differential matrix see no change.

use repl_types::{GlobalTxnId, ItemId, Value};

use crate::wal::{put_record, WriteAheadLog};

/// The commits accumulated since the last flush, in enqueue order:
/// their records already in log encoding (so the flush is one copy and
/// the log comes out byte-identical to direct appends), and their gids
/// for the acknowledgements.
#[derive(Clone, Debug, Default)]
pub struct CommitBatch {
    /// The staged records back to back — a buffer of at most a batch,
    /// emptied (and its allocation reused) at every flush.
    staged: Vec<u8>,
    /// How many records `staged` holds.
    records: usize,
    gids: Vec<GlobalTxnId>,
}

impl CommitBatch {
    /// Commits currently in the batch.
    pub fn len(&self) -> usize {
        self.gids.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.gids.is_empty()
    }
}

/// Counters a bench or an operator can read off the pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Commits enqueued since creation.
    pub commits: u64,
    /// Batch flushes performed (each costs one fsync-equivalent).
    pub flushes: u64,
    /// Log records written across all flushes.
    pub records: u64,
}

/// The group-commit pipeline in front of a [`WriteAheadLog`].
#[derive(Clone, Debug)]
pub struct CommitPipeline {
    max_batch: usize,
    batch: CommitBatch,
    stats: PipelineStats,
}

impl Default for CommitPipeline {
    fn default() -> Self {
        CommitPipeline::new(1)
    }
}

impl CommitPipeline {
    /// Heap bytes of the staged batch's buffers.
    pub fn heap_bytes(&self) -> usize {
        self.batch.staged.capacity() + self.batch.gids.capacity() * size_of::<GlobalTxnId>()
    }

    /// A pipeline flushing every `max_batch` commits (`0` is treated as
    /// `1`: flush on every commit, the classic non-batched path).
    pub fn new(max_batch: usize) -> Self {
        CommitPipeline {
            max_batch: max_batch.max(1),
            batch: CommitBatch::default(),
            stats: PipelineStats::default(),
        }
    }

    /// The configured batch size.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Enqueue one commit's write set. Returns `true` when the batch is
    /// full and the caller must [`CommitPipeline::flush`] before
    /// releasing the commit's acknowledgement.
    ///
    /// The write set is only read (an owned `Vec` or a borrowed slice
    /// both do): its records are encoded into the batch here, so
    /// nothing of the caller's is retained or cloned.
    pub fn enqueue(&mut self, gid: GlobalTxnId, writes: impl AsRef<[(ItemId, Value)]>) -> bool {
        self.stats.commits += 1;
        let writes = writes.as_ref();
        for (item, value) in writes {
            put_record(&mut self.batch.staged, *item, gid, value);
        }
        self.batch.records += writes.len();
        self.batch.gids.push(gid);
        self.batch.gids.len() >= self.max_batch
    }

    /// Commits enqueued but not yet flushed.
    pub fn pending(&self) -> usize {
        self.batch.len()
    }

    /// Bytes of log records the pending commits will append when flushed.
    pub fn pending_bytes(&self) -> usize {
        self.batch.staged.len()
    }

    /// Flush the batch: append every pending record to `wal` in enqueue
    /// order, pay one fsync-equivalent, and return the gids whose
    /// acknowledgements may now be released — in batch order. A flush
    /// with nothing pending is free (no fsync, empty ack list).
    pub fn flush(&mut self, wal: &mut WriteAheadLog) -> Vec<GlobalTxnId> {
        if self.batch.is_empty() {
            return Vec::new();
        }
        self.stats.flushes += 1;
        self.stats.records += self.batch.records as u64;
        wal.append_encoded(&self.batch.staged, self.batch.records);
        self.batch.staged.clear();
        self.batch.records = 0;
        std::mem::take(&mut self.batch.gids)
    }

    /// The pipeline's counters so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_types::SiteId;

    fn gid(n: u64) -> GlobalTxnId {
        GlobalTxnId::new(SiteId(0), n)
    }

    #[test]
    fn batch_of_one_flushes_every_commit() {
        let mut p = CommitPipeline::new(1);
        let mut wal = WriteAheadLog::new();
        assert!(p.enqueue(gid(1), vec![(ItemId(0), Value::int(1))]));
        assert_eq!(p.flush(&mut wal), vec![gid(1)]);
        assert!(p.enqueue(gid(2), vec![(ItemId(1), Value::int(2))]));
        assert_eq!(p.flush(&mut wal), vec![gid(2)]);
        assert_eq!(wal.len(), 2);
        assert_eq!(p.stats(), PipelineStats { commits: 2, flushes: 2, records: 2 });
    }

    #[test]
    fn batched_flush_amortizes_and_preserves_order() {
        let mut p = CommitPipeline::new(3);
        let mut wal = WriteAheadLog::new();
        assert!(!p.enqueue(gid(1), vec![(ItemId(0), Value::int(10))]));
        assert!(!p.enqueue(gid(2), vec![(ItemId(1), Value::int(20)), (ItemId(2), Value::int(21))]));
        assert_eq!((p.pending(), p.pending_bytes()), (2, 3 * 25));
        assert!(p.enqueue(gid(3), vec![(ItemId(0), Value::int(30))]));
        // One flush, acks in enqueue order.
        assert_eq!(p.flush(&mut wal), vec![gid(1), gid(2), gid(3)]);
        assert_eq!((p.pending(), p.pending_bytes()), (0, 0));
        assert_eq!(p.stats(), PipelineStats { commits: 3, flushes: 1, records: 4 });
        // WAL record order matches enqueue order, per-commit write order.
        let written: Vec<_> = wal.records().map(|r| (r.writer, r.item)).collect();
        assert_eq!(
            written,
            vec![
                (gid(1), ItemId(0)),
                (gid(2), ItemId(1)),
                (gid(2), ItemId(2)),
                (gid(3), ItemId(0))
            ]
        );
    }

    #[test]
    fn empty_flush_is_free() {
        let mut p = CommitPipeline::new(8);
        let mut wal = WriteAheadLog::new();
        assert!(p.flush(&mut wal).is_empty());
        assert_eq!(p.stats().flushes, 0);
    }

    #[test]
    fn wal_matches_direct_append_for_any_batch_size() {
        // Recovery equivalence: the same commit stream through any batch
        // size produces the identical log image.
        let commits: Vec<(GlobalTxnId, Vec<(ItemId, Value)>)> = (0..10u64)
            .map(|i| (gid(i), vec![(ItemId((i % 3) as u32), Value::int(i as i64 * 7))]))
            .collect();
        let mut direct = WriteAheadLog::new();
        for (g, writes) in &commits {
            direct.append_commit(*g, writes);
        }
        for batch in [1usize, 3, 8, 64] {
            let mut p = CommitPipeline::new(batch);
            let mut wal = WriteAheadLog::new();
            let mut acks = Vec::new();
            for (g, writes) in &commits {
                if p.enqueue(*g, writes) {
                    acks.extend(p.flush(&mut wal));
                }
            }
            acks.extend(p.flush(&mut wal));
            assert_eq!(wal.encode(), direct.encode(), "batch={batch}");
            assert_eq!(acks, commits.iter().map(|(g, _)| *g).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_batch_behaves_as_one() {
        let p = CommitPipeline::new(0);
        assert_eq!(p.max_batch(), 1);
    }
}
