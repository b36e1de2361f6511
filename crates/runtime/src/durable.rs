//! The durable ("on disk") slice of a site's state.
//!
//! A crashed site loses its thread, its store and everything queued in
//! its inbox; what it keeps is exactly what a real deployment would
//! have forced to stable storage. The cluster owns one [`DurableSite`]
//! per site and hands the site thread a shared handle, so the image
//! survives the thread and seeds its replacement:
//!
//! * the **redo WAL** — replaying it over an initial checkpoint of the
//!   site's item set reproduces every committed copy (see
//!   [`repl_storage::recover`]);
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
//! snapshot, recovery — goes through [`DurableSite::flush_log`] first
//! so no committed record is ever invisible to a reader.

use repl_storage::{CommitPipeline, WriteAheadLog};
use repl_types::{GlobalTxnId, ItemId, Value};

/// State of one site that survives its crash.
pub(crate) struct DurableSite {
    /// Redo log of every commit applied at this site, in commit order.
    pub wal: WriteAheadLog,
    /// Next local sequence number for [`repl_types::GlobalTxnId`]s.
    pub next_seq: u64,
    /// Highest link sequence applied from each peer site.
    pub applied_from: Vec<u64>,
    /// Group-commit staging for `wal` appends.
    pub pipeline: CommitPipeline,
}

impl DurableSite {
    pub fn new(sites: usize, group_commit_batch: usize) -> Self {
        DurableSite {
            wal: WriteAheadLog::new(),
            next_seq: 0,
            applied_from: vec![0; sites],
            pipeline: CommitPipeline::new(group_commit_batch),
        }
    }

    /// Stage one commit record; appends the whole batch to the WAL when
    /// it fills (with batch size 1, every call appends immediately).
    /// The write set is encoded straight from the borrow — nothing of
    /// it is cloned or retained.
    pub fn log_commit(&mut self, gid: GlobalTxnId, writes: &[(ItemId, Value)]) {
        if self.pipeline.enqueue(gid, writes) {
            self.pipeline.flush(&mut self.wal);
        }
    }

    /// Drain any staged commit records into the WAL. Called at site
    /// idle ticks and before anything reads the log.
    pub fn flush_log(&mut self) {
        self.pipeline.flush(&mut self.wal);
    }
}
