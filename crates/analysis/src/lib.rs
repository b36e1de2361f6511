//! The model checker for the replication suite, and the
//! serializability oracle every executor's history goes through.
//!
//! * **Model checker** ([`mc`], `replmc` binary) — a stateless DFS
//!   explorer that drives the sans-I/O `SiteMachine`s through *every*
//!   interleaving of deliverable inputs for bounded workloads, with
//!   sleep-set pruning and state-fingerprint dedup, and checks
//!   convergence, one-copy serializability, link FIFO discipline, epoch
//!   monotonicity and crash silence (codes `MC001`–`MC006`, reported as
//!   [`Diagnostic`]s).
//! * **Serializability oracle** ([`history::History`]) — lives here
//!   (re-exported by `repl-core`) so both the engine and the model
//!   checker can share it.
//!
//! What a run needs of its configuration — an acyclic copy graph, a
//! topological site order, a tree with the ancestor property, a
//! backedge set that breaks every cycle — is refused or built by one
//! function, `repl_protocol::Routing::build`, and its property test
//! (`tests/routing.rs`) holds what it builds to those postconditions.
//!
//! The source rules that keep runs reproducible from their seeds — no
//! wall clock, no sleep, no socket and no hash-ordered map in the
//! deterministic crates — are the compiler's: the workspace's
//! `clippy.toml` lists them, and `tools/ci.sh` runs clippy with
//! `-D warnings`.

pub mod diag;
pub mod history;
pub mod mc;

pub use diag::{render, Diagnostic, Witness};
pub use history::History;
