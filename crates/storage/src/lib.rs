//! Per-site main-memory storage engine.
//!
//! This crate is the workspace's stand-in for **DataBlitz**, the Bell Labs
//! main-memory storage manager on which the paper's prototype was built
//! (Bohannon et al., "The architecture of the Dalí main memory storage
//! manager"). It provides exactly what the §1.1 system model requires of a
//! site-local database:
//!
//! * a main-memory store of item copies, one dense array of cells behind
//!   a direct index on the item identifier (the paper: "fast access to
//!   an item is facilitated by a hash index on the item identifier" —
//!   ids here are dense, so the index needs no hashing);
//! * a strict two-phase-locking [`lock::LockManager`] with shared and
//!   exclusive modes, lock upgrades, FIFO wait queues and waits-for-graph
//!   deadlock detection, its lock table — an entry only for an item
//!   locked right now — a custom open-addressing
//!   [`hash_index::HashIndex`] (the prototype used 50 ms lock timeouts instead;
//!   both mechanisms are supported — timeouts are driven by the caller's
//!   clock, cycle detection by [`lock::LockManager::find_deadlock`]);
//! * commit-time installation: a transaction's writes are buffered in its
//!   own state and reach the cells only when it commits, so an abort has
//!   nothing to roll back and the cells never hold uncommitted data;
//! * version metadata on every copy (the logical writer and commit
//!   timestamp of the current value) so the serializability checker in
//!   `repl-core` can reconstruct reads-from relationships and snapshot
//!   reads can resolve against the cell itself ([`mvcc`]).
//!
//! The engine is deliberately single-threaded: in the simulation each site
//! is an event-driven actor, so internal synchronization would only add
//! noise. Lock waits are surfaced as [`StorageError::WouldBlock`]; when a
//! commit or abort releases locks the engine reports which transactions
//! became runnable so the caller can resume them.

#![warn(missing_docs)]

mod cells;
pub mod codec;
pub mod commit_pipeline;
pub mod hash_index;
pub mod lock;
pub mod mvcc;
pub mod seglog;
pub mod snapshot;
pub mod store;
mod txn_slab;
pub mod wal;

pub use commit_pipeline::{CommitBatch, CommitPipeline, PipelineStats};
pub use lock::{LockManager, LockMode, LockOutcome};
pub use mvcc::{SideChains, Version};
pub use seglog::{LogPage, SegLog, SEGMENT_BYTES};
pub use snapshot::{SnapshotId, SnapshotManager};
pub use store::{CommitInfo, ReadResult, Store, TxnStatus};
pub use wal::{checkpoint, recover, Checkpoint, LogRecord, WriteAheadLog};

pub use repl_types::{GlobalTxnId, ItemId, StorageError, TxnId, Value};
