//! Lazy update propagation protocols for replicated databases.
//!
//! A from-scratch implementation of Breitbart, Komondoor, Rastogi,
//! Seshadri & Silberschatz, *Update Propagation Protocols For Replicated
//! Databases*, SIGMOD 1999 — the DAG(WT), DAG(T) and BackEdge protocols,
//! the primary-site-locking (PSL) baseline the paper measures against,
//! plus an eager read-one-write-all baseline and the broken
//! "indiscriminate lazy" strawman of Example 1.1.
//!
//! # Architecture
//!
//! Sites are event-driven actors over the deterministic virtual-time
//! kernel in `repl-sim`; each site runs a `repl-storage` engine (strict
//! 2PL, hash-indexed main-memory store). The [`engine::Engine`] drives
//! primary transactions (reads and writes under local locks), propagates
//! secondary subtransactions according to the selected
//! [`config::ProtocolKind`], breaks deadlocks with the paper's 50 ms
//! timeout (or waits-for-graph detection), and records a multiversion
//! history that [`history::History::check_serializability`] validates.
//!
//! # Quick start
//!
//! ```
//! use repl_core::config::{ProtocolKind, SimParams};
//! use repl_core::engine::Engine;
//! use repl_core::scenario;
//!
//! // Example 1.1's three-site placement: a@s0 replicated at s1,s2;
//! // b@s1 replicated at s2.
//! let placement = scenario::example_1_1_placement();
//! let mut params = SimParams::default();
//! params.protocol = ProtocolKind::DagWt;
//! params.txns_per_thread = 50;
//! params.threads_per_site = 2;
//! let report = Engine::build(&placement, &params, 42).expect("clean config").run();
//! assert!(report.serializable, "Theorem 2.1: DAG(WT) histories are serializable");
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod deploy;
pub mod engine;
pub mod metrics;
pub mod scenario;
pub mod timestamp;

// The serializability checker lives in `repl-analysis` (so the `replmc`
// model checker can reuse it without a dependency cycle); re-export it
// here to keep the historical `repl_core::history` path stable.
pub use repl_analysis::history;

pub use config::{DeadlockMode, ProtocolKind, SimParams, TreeKind};
pub use engine::{progress_span, Engine, QueueHead, RunReport};
pub use history::History;
pub use metrics::Metrics;
pub use timestamp::Timestamp;
