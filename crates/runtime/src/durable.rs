//! The durable ("on disk") slice of a site's state.
//!
//! A crashed site loses its reactor, its store and its sockets; what it
//! keeps is exactly what a real deployment would have forced to stable
//! storage. A [`DurableSite`] is plain data its reactor owns: the
//! in-process cluster moves it into each run of the reactor and gets it
//! back when the crashed thread is joined, so the image seeds the
//! replacement:
//!
//! * the **checkpoint** — the store's committed copies that a
//!   transaction has written, values *and* writers, in the `CopyState`
//!   encoding ([`repl_net::encode_cells`]), as of the last time the redo
//!   log was cut. A copy it leaves out was never written: it is at its
//!   initial value with no writer, as in the site's boot image. Empty
//!   until the first cut, which stands for the boot image itself;
//! * the **redo WAL** — the suffix of the commit stream the checkpoint
//!   does not make redundant. Replaying it over the checkpoint
//!   reproduces every committed copy (see [`repl_storage::recover`]);
//! * the **transaction-id counter** — id allocation is logged so a
//!   restarted site can never re-issue a pre-crash [`repl_types::GlobalTxnId`] and
//!   corrupt the history oracle;
//! * the **per-link high-water marks** — the highest link sequence
//!   durably applied from each peer, which makes redelivery after
//!   retransmission idempotent (duplicates are at or below the mark,
//!   gaps are ahead of it).
//!
//! Commit records reach the WAL through a [`CommitPipeline`] (group
//! commit): with a batch size above 1, records are staged and appended
//! in one flush every batch-full, amortizing the fsync-equivalent. The
//! staged batch is modeled as surviving with the rest of the durable
//! image (a battery-backed log buffer); every read of the WAL —
//! snapshot, recovery, checkpoint — goes through
//! [`DurableSite::flush_log`] first so no committed record is ever
//! invisible to a reader.
//!
//! **The cut.** The WAL lives in one 16 KiB segment
//! ([`repl_storage::SEGMENT_BYTES`]). When a flush would not fit what
//! is left of it ([`DurableSite::flush_would_roll`]), the site driver
//! (`SiteCore`, which owns the store) first encodes the store's written
//! copies into [`DurableSite::install_checkpoint`], which empties the
//! log, and only then flushes — so the resident log is at most one
//! segment plus one checkpoint of the copies written since boot,
//! however many commits the site has applied, and the segment it
//! refills is the one it allocated at its first commit. The checkpoint
//! is sized before it is encoded, so the old and the new image never
//! coexist. The
//! store a checkpoint is taken from holds every commit that was ever
//! logged *or staged* (a commit reaches the store before its record is
//! staged, and the site is serial), so the checkpoint covers the whole
//! log it replaces; the staged batch that follows it into the emptied
//! log is redundant with it, harmlessly, because records install
//! absolute values. Both steps happen within one call on the reactor
//! thread that owns this image, and a site "crashes" only between
//! reactor passes, so a recovery never sees a new checkpoint with the
//! old log or the reverse.

use repl_storage::{CommitPipeline, Store, WriteAheadLog};
use repl_types::{GlobalTxnId, ItemId, Value};

/// State of one site that survives its crash.
pub(crate) struct DurableSite {
    /// Redo log of the commits applied at this site since the
    /// checkpoint was taken, in commit order.
    pub wal: WriteAheadLog,
    /// `CopyState` image of the store's written copies when the log was
    /// last cut; empty before the first cut.
    pub checkpoint: Vec<u8>,
    /// Next local sequence number for [`repl_types::GlobalTxnId`]s.
    pub next_seq: u64,
    /// Highest link sequence applied from each peer site.
    pub applied_from: Vec<u64>,
    /// Group-commit staging for `wal` appends.
    pub pipeline: CommitPipeline,
}

impl DurableSite {
    pub fn new(sites: usize) -> Self {
        DurableSite {
            wal: WriteAheadLog::new(),
            checkpoint: Vec::new(),
            next_seq: 0,
            applied_from: vec![0; sites],
            pipeline: CommitPipeline::new(1),
        }
    }

    /// Stage one commit record. True when the batch is full and must be
    /// flushed (with batch size 1, every time) before the commit is
    /// acknowledged. The write set is encoded straight from the borrow
    /// — nothing of it is cloned or retained.
    pub fn stage_commit(&mut self, gid: GlobalTxnId, writes: &[(ItemId, Value)]) -> bool {
        self.pipeline.enqueue(gid, writes)
    }

    /// True when [`DurableSite::flush_log`] would push the WAL into a
    /// second segment: the caller checkpoints first.
    pub fn flush_would_roll(&self) -> bool {
        self.pipeline.pending_bytes() > self.wal.room()
    }

    /// Drain any staged commit records into the WAL. Called when a
    /// batch fills, at the end of every reactor pass and before anything
    /// reads the log.
    pub fn flush_log(&mut self) {
        self.pipeline.flush(&mut self.wal);
    }

    /// Replace the checkpoint with the image of `store`'s copies among
    /// `items` (the site's copies, ascending) that a transaction has
    /// written, as of now, and empty the WAL, all of which it makes
    /// redundant. A checkpoint that outgrows its buffer drops the old
    /// one before the new one is allocated, at its exact size.
    pub fn install_checkpoint(
        &mut self,
        store: &Store,
        items: impl Iterator<Item = ItemId> + Clone,
    ) {
        let len = store.written_image_len(items.clone());
        if self.checkpoint.capacity() < len {
            self.checkpoint = Vec::new();
            self.checkpoint.reserve_exact(len);
        }
        self.checkpoint.clear();
        store.encode_written(items, &mut self.checkpoint);
        self.wal.clear();
    }

    /// Heap bytes of the WAL's segments and the group-commit staging.
    pub fn wal_bytes(&self) -> usize {
        self.wal.heap_bytes() + self.pipeline.heap_bytes()
    }
}
