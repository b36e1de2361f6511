//! A *threaded* deployment of the lazy update-propagation protocols.
//!
//! The simulation engine in `repl-core` reproduces the paper's
//! experiments in virtual time; this crate is the companion "real"
//! runtime, architected like the paper's prototype: every site is an OS
//! thread owning its own storage engine, and the network is a set of
//! reliable FIFO channels (the prototype used TCP sockets between
//! DataBlitz instances; crossbeam channels give the same per-link FIFO
//! guarantee in-process).
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
//! Faults are first-class: [`Cluster::crash`] kills a site thread
//! abruptly (volatile state and queued messages are lost) and
//! [`Cluster::restart`] rejoins a replacement recovered from the
//! site's durable WAL, with lost deliveries retransmitted from
//! sender-side outboxes — see the `link` and `durable` modules.
//!
//! Two deployments share the site runtime through one event-oriented
//! transport seam (the `transport` module): [`Cluster`] wires sites
//! with in-process channels, and [`serve_epoll`] runs one site per OS
//! process (`repld`) speaking the `repl-net` wire protocol over TCP
//! from a single-threaded nonblocking epoll reactor. [`ProcCluster`]
//! is the matching multi-process launcher, and [`ClusterHandle`] the
//! deployment-generic client API drivers are written against. The
//! sender-side outboxes and receiver-side dedup/gap marks are the same
//! code in both, so exactly-once in-order delivery survives real
//! connection drops the same way it survives [`Cluster::crash`].
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

mod chan;
mod cluster;
mod durable;
mod handle;
mod link;
mod nemesis;
mod policy;
mod proc;
mod reactor;
mod site;
mod transport;

pub use cluster::{Cluster, ClusterError, RuntimeProtocol, TxnHandle};
pub use handle::{ClusterHandle, SiteStats};
pub use nemesis::{NetFaultPlan, PartitionWindow, PauseWindow};
pub use policy::{RetryPolicy, RuntimeOptions};
pub use proc::{repld_bin, LaunchOptions, ProcCluster};
pub use reactor::{serve_epoll, ServeConfig};
pub use repl_net::HistoryTxn;
pub use transport::PeerHealth;
