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
//!          Routing::build(ProtocolKind, placement, TreeKind)
//!          SiteMachine::on_input(Input) -> Vec<Command>
//!            /                    |                      \
//!   discrete-event sim     replmc model checker      live site shell
//!   (repl-core engine:     (repl-analysis World:     (repl-runtime
//!    costs commands onto    explores every            SiteCore: executes
//!    the event calendar,    interleaving of the       commands against the
//!    applies under the      machines' inputs)         store, hands Send
//!    lock-based store)                                commands to the TCP
//!                                                     link layer)
//! ```
//!
//! [`Input`]s are local-commit, link-message and timer events; the
//! returned [`Command`]s tell the driver to apply writes, send a payload
//! on a link, commit a locally waiting transaction, or arm a timeout.
//! Every driver takes the structure it routes on — copy graph,
//! propagation tree, backedge set — from [`Routing::build`], and the
//! protocol names from [`ProtocolKind`] (the baselines included). The
//! same machine therefore makes the same propagation decisions in the
//! simulator and in a live deployment *by construction* — the
//! differential matrix test (the simulator, the in-process fleet and
//! `repld`) pins this down end to end.
//!
//! Purity is enforced by the compiler: the crate is `#![no_std]` and
//! links only `alloc`, so `std::thread`, `std::time`, `std::net` and
//! `std::collections::HashMap` do not resolve here, and a clock, a
//! thread, a socket or a hash-ordered map cannot be named.

#![no_std]
#![warn(missing_docs)]

extern crate alloc;
#[cfg(test)]
extern crate std;

pub mod digest;
pub mod machine;
pub mod route;
pub mod timestamp;
pub mod tuning;
pub mod wire;

pub use digest::StableDigest;
pub use machine::{
    Command, Input, ProtocolError, ProtocolId, ProtocolKind, SeededBug, SiteMachine,
};
pub use route::{
    destinations, dummy_gid, planned_writes, write_set_in_order, writes_for_site, Routing,
    RoutingError, TreeKind,
};
pub use timestamp::Timestamp;
pub use tuning::Tuning;
pub use wire::{Payload, Subtxn, SubtxnKind};
