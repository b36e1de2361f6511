//! Static and dynamic analyses for the replication suite.
//!
//! Two independent passes, one diagnostic vocabulary ([`Diagnostic`]):
//!
//! 1. **Configuration linter** ([`lint`]) — checks a data placement, its
//!    copy graph, and the run's timing parameters against the protocol
//!    preconditions of Breitbart et al. *before* any simulation runs
//!    (codes `RA001`–`RA010`). The engine and every bench binary call
//!    [`lint::lint_scenario`] and fail fast on errors. It takes the
//!    propagation structure from `repl_protocol::Routing::build`, as
//!    every executor does, and checks its witnesses.
//! 2. **Model checker** ([`mc`], `replmc` binary) — a stateless DFS
//!    explorer that drives the sans-I/O `SiteMachine`s through *every*
//!    interleaving of deliverable inputs for bounded workloads, with
//!    sleep-set pruning and state-fingerprint dedup, and checks
//!    convergence, one-copy serializability, link FIFO discipline, epoch
//!    monotonicity and crash silence (codes `MC001`–`MC006`). The
//!    serializability oracle reuses [`history::History`], which lives
//!    here (re-exported by `repl-core`) so both the engine and the model
//!    checker can share it.
//!
//! The source rules that keep runs reproducible from their seeds — no
//! wall clock, no sleep, no socket and no hash-ordered map in the
//! deterministic crates — are the compiler's: the workspace's
//! `clippy.toml` lists them, and `tools/ci.sh` runs clippy with
//! `-D warnings`.

pub mod diag;
pub mod history;
pub mod lint;
pub mod mc;

pub use diag::{has_errors, render, Diagnostic, Severity, Witness};
pub use history::History;
pub use lint::{lint_scenario, LintConfig};
