//! Shared vocabulary types for the replicated-database protocol suite.
//!
//! This crate defines the identifiers, values, operations and error types
//! used by every other crate in the workspace: the storage engine
//! (`repl-storage`), the copy-graph toolkit (`repl-copygraph`), the
//! simulation kernel (`repl-sim`) and the protocol engines (`repl-core`).
//!
//! The model follows Section 1.1 of Breitbart et al., SIGMOD 1999: a fixed
//! set of *sites*, each holding primary copies of some *items* and replicas
//! of others; *transactions* originate at a single site and are sequences
//! of read and write operations.

#![warn(missing_docs)]

pub mod error;
pub mod id;
pub mod json;
pub mod op;
pub mod value;

pub use error::{StorageError, TxnError};
pub use id::{GlobalTxnId, ItemId, SiteId, ThreadId, TxnId};
pub use op::{Op, OpKind};
pub use value::Value;
