//! Sans-I/O protocol core for the lazy update propagation protocols.
//!
//! This crate holds the *decision logic* of the four propagation
//! protocols from Breitbart et al. (SIGMOD 1999) — NaiveLazy, DAG(WT)
//! (§2), DAG(T) with epochs (§3), and BackEdge with its eager special
//! phase (§4) — as pure, deterministic state machines with no notion of
//! threads, clocks, sockets or locks:
//!
//! ```text
//!                    repl-protocol (this crate)
//!                    SiteMachine::on_input(Input) -> Vec<Command>
//!                   /                              \
//!    discrete-event sim driver              threaded runtime driver
//!    (repl-core engine: costs commands      (repl-runtime site shell:
//!     onto the event calendar, executes      executes commands against
//!     Apply commands under the lock-based    the store, hands Send
//!     store with CPU accounting)             commands to the reliable
//!                                            link layer — channel or
//!                                            TCP transport)
//! ```
//!
//! [`Input`]s are local-commit, link-message and timer events; the
//! returned [`Command`]s tell the driver to apply writes, send a payload
//! on a link, commit a locally waiting transaction, or arm a timeout.
//! The same machine therefore makes the same propagation decisions in
//! the simulator and in a live deployment *by construction* — the
//! differential sim/channel/TCP matrix test pins this down end to end.
//!
//! Purity is enforced mechanically: replint rule RL007 forbids
//! `std::thread`, `std::time`, `std::net` and crossbeam imports inside
//! this crate (see `tools/ci.sh`).

#![warn(missing_docs)]

pub mod digest;
pub mod machine;
pub mod route;
pub mod timestamp;
pub mod wire;

pub use digest::StableDigest;
pub use machine::{Command, Input, ProtocolError, ProtocolId, SeededBug, SiteMachine};
pub use route::{destinations, dummy_gid, planned_writes, write_set_in_order, writes_for_site};
pub use timestamp::Timestamp;
pub use wire::{Payload, Subtxn, SubtxnKind};
