//! The durable ("on disk") slice of a site's state.
//!
//! A crashed site loses its reactor, its store and its sockets; what it
//! keeps is exactly what a real deployment would have forced to stable
//! storage. A [`DurableSite`] is plain data its reactor owns: the
//! in-process cluster moves it into each run of the reactor and gets it
//! back when the crashed thread is joined, so the image seeds the
//! replacement:
//!
//! * the **checkpoint** — the store's committed copies, values *and*
//!   writers, in the `CopyState` encoding
//!   ([`repl_net::encode_cells_into`]), as of the last time the redo
//!   log was cut; empty until then, which stands for the site's item
//!   set at its initial values;
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
//! **The cut.** The WAL lives in one 64 KiB segment
//! ([`repl_storage::SEGMENT_BYTES`]). When a flush would not fit what
//! is left of it ([`DurableSite::flush_would_roll`]), the site driver
//! (`SiteCore`, which owns the store) first encodes the store into
//! [`DurableSite::install_checkpoint`], which empties the log, and only
//! then flushes — so the resident log is at most one segment plus one
//! checkpoint however many commits the site has applied, and the
//! segment it refills is the one it allocated at its first commit. The
//! store a checkpoint is taken from holds every commit that was ever
//! logged *or staged* (a commit reaches the store before its record is
//! staged, and the site is serial), so the checkpoint covers the whole
//! log it replaces; the staged batch that follows it into the emptied
//! log is redundant with it, harmlessly, because records install
//! absolute values. Both steps happen within one call on the reactor
//! thread that owns this image, and a site "crashes" only between
//! reactor passes, so a recovery never sees a new checkpoint with the
//! old log or the reverse.

use repl_storage::{CommitPipeline, WriteAheadLog};
use repl_types::{GlobalTxnId, ItemId, Value};

/// State of one site that survives its crash.
pub(crate) struct DurableSite {
    /// Redo log of the commits applied at this site since the
    /// checkpoint was taken, in commit order.
    pub wal: WriteAheadLog,
    /// `CopyState` image of the store when the log was last cut; empty
    /// before the first cut.
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
    /// batch fills, at site idle ticks and before anything reads the
    /// log.
    pub fn flush_log(&mut self) {
        self.pipeline.flush(&mut self.wal);
    }

    /// Replace the checkpoint with `cells` — every copy the site's
    /// store holds, ascending by item, as of now — and empty the WAL,
    /// all of which it makes redundant.
    pub fn install_checkpoint<V: std::borrow::Borrow<Value>>(
        &mut self,
        cells: impl ExactSizeIterator<Item = (ItemId, V, Option<GlobalTxnId>)>,
    ) {
        self.checkpoint.clear();
        // An integer cell with a writer is 26 bytes.
        self.checkpoint.reserve(4 + cells.len() * 26);
        repl_net::encode_cells_into(&mut self.checkpoint, cells);
        self.wal.clear();
    }
}
