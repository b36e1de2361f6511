//! Live deployments of the lazy update-propagation protocols.
//!
//! The simulation engine in `repl-core` reproduces the paper's
//! experiments in virtual time; this crate is the companion "real"
//! runtime, architected like the paper's prototype (DataBlitz instances
//! over TCP): every site is one epoll reactor owning its own storage
//! engine ([`serve_epoll`]). [`ProcCluster`] runs one per `repld`
//! process, [`Cluster`] one per thread over loopback, and
//! [`ClusterHandle`] is the client API drivers are written against.
//!
//! Scope: clients submit whole transactions to a site and each site
//! executes them serially (one multiprogramming slot per site), so local
//! strict 2PL holds trivially and the machinery under test is exactly
//! the *cross-site* part of the protocols — commit-ordered forwarding,
//! relevant-children routing, replica application, quiescence. That is
//! where Example 1.1 lives: the [`RuntimeProtocol::NaiveLazy`] mode can
//! produce real non-serializable interleavings on a real scheduler,
//! while [`RuntimeProtocol::DagWt`] provably cannot (Theorem 2.1) — both
//! are checked against the same [`repl_core::History`] oracle as the
//! simulator.
//!
//! Faults are first-class: [`Cluster::crash`] stops a site's reactor
//! abruptly and [`Cluster::restart`] boots a replacement from the site's
//! durable WAL, whose peers replay what it missed from their outboxes —
//! see the `link` and `durable` modules.
//!
//! ```
//! use repl_core::scenario;
//! use repl_runtime::{Cluster, RuntimeProtocol};
//! use repl_types::{ItemId, Op, SiteId};
//!
//! let placement = scenario::example_1_1_placement();
//! let cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
//! cluster.execute(SiteId(0), vec![Op::write(ItemId(0), 7)]).unwrap();
//! cluster.quiesce();
//! let (value, _) = cluster.peek(SiteId(2), ItemId(0)).unwrap();
//! assert_eq!(value, repl_types::Value::int(7));
//! assert!(cluster.check_serializability().is_ok());
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]
// A long-running site must survive bad input: outside tests a panicking
// call is a compile error here, and each deliberate one carries an
// `#[expect]` with its reason.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

mod census;
mod cluster;
pub mod config;
mod durable;
mod handle;
mod link;
mod nemesis;
mod policy;
mod proc;
mod reactor;
mod site;
mod transport;

pub use census::{census_line, CENSUS};
pub use cluster::{Cluster, ClusterError, RuntimeProtocol, TxnHandle};
pub use handle::{ClusterHandle, SiteStats};
pub use nemesis::{NetFaultPlan, PartitionWindow, PauseWindow};
pub use policy::RuntimeOptions;
pub use proc::{repld_bin, LaunchOptions, ProcCluster};
pub use reactor::{serve_epoll, ServeConfig};
pub use repl_net::HistoryTxn;
pub use repl_protocol::Tuning;
