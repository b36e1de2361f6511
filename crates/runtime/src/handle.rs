//! A deployment-independent cluster client API.
//!
//! The repo has two deployments — in-process threads ([`Cluster`]) and
//! process-per-site over TCP ([`ProcCluster`], a fleet of `repld`) —
//! while the protocol layer stays fixed. [`ClusterHandle`] is the seam that keeps
//! the *drivers* fixed too: the differential matrix, fault tests and
//! the load generator are written against this trait once and run
//! against every deployment.
//!
//! Semantics are uniform where the deployments are, and typed where
//! they differ: an in-process cluster has no TCP connections to kill
//! ([`ClusterError::Unsupported`]) and no wire on which a client frame
//! could be malformed (`decode_errors` is always zero), while a process
//! cluster surfaces transport failures as [`ClusterError::Io`].

use repl_net::{ExecError, HistoryTxn};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

use crate::cluster::{Cluster, ClusterError};
use crate::proc::ProcCluster;

/// One site's counters, as reported by [`ClusterHandle::stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteStats {
    /// Replica applications still in flight. Per-process under
    /// [`ProcCluster`]; the in-process [`Cluster`] keeps one
    /// cluster-wide counter and reports it for every site.
    pub outstanding: i64,
    /// Transactions committed, primaries only. Cluster-wide under
    /// [`Cluster`] (one shared history), per-process under
    /// [`ProcCluster`].
    pub committed: u64,
    /// Client request frames refused because they did not decode
    /// (malformed, oversized, or mis-typed). Always zero in-process:
    /// there is no wire for a client frame to be malformed on.
    pub decode_errors: u64,
    /// Peers this site currently classifies `Up` (recent ack/frame
    /// progress, or nothing pending to judge by).
    pub peers_up: u32,
    /// Peers this site currently classifies `Suspect` (traffic pending
    /// with no progress for the suspect window).
    pub peers_suspect: u32,
    /// Peers this site currently classifies `Down` (no progress for the
    /// down window; retries continue with backoff).
    pub peers_down: u32,
}

/// The operations every deployment answers: the common denominator of
/// the in-process and process-per-site clusters, for deployment-generic
/// tests and drivers.
pub trait ClusterHandle {
    /// Number of sites in the deployment's placement.
    fn num_sites(&self) -> u32;

    /// Execute a transaction at `site`, blocking until it commits.
    fn execute(&self, site: SiteId, ops: Vec<Op>) -> Result<GlobalTxnId, ClusterError>;

    /// Execute a read-only transaction over `items` at `site`. Plain
    /// sugar over [`ClusterHandle::execute`] with all-read op lists —
    /// the op shape deployments serve from a lock-free MVCC snapshot
    /// when launched with MVCC reads enabled (`--mvcc` /
    /// `RuntimeOptions::mvcc_reads`).
    fn execute_read_only(
        &self,
        site: SiteId,
        items: &[ItemId],
    ) -> Result<GlobalTxnId, ClusterError> {
        self.execute(site, items.iter().copied().map(Op::read).collect())
    }

    /// Non-transactional read of one copy (`None`: site down or no
    /// copy).
    fn peek(&self, site: SiteId, item: ItemId) -> Option<(Value, Option<GlobalTxnId>)>;

    /// The site's counters ([`SiteStats`]).
    fn stats(&self, site: SiteId) -> Result<SiteStats, ClusterError>;

    /// The site's full copy state (ascending items, values, writers),
    /// serialized with the shared wire codec — byte-comparable across
    /// deployments.
    fn copy_state(&self, site: SiteId) -> Result<bytes::Bytes, ClusterError>;

    /// Fault injection: drop the connections between `site` and `peer`,
    /// forcing reconnect + resume + retransmission.
    /// [`ClusterError::Unsupported`] where there are no connections.
    fn kill_conn(&self, site: SiteId, peer: SiteId) -> Result<(), ClusterError>;

    /// Block until every committed update has been applied at every
    /// destination replica, or until the deployment's quiesce deadline
    /// expires ([`ClusterError::QuiesceTimeout`], carrying where
    /// propagation stalled).
    fn quiesce(&self) -> Result<(), ClusterError>;

    /// Every transaction committed anywhere in the deployment, as
    /// `(gid, reads, writes)` tuples — `reads` pairing each item with
    /// the gid of the version read. Feed into
    /// `repl_core::history::History` to run the one-copy
    /// serializability checker over a live run.
    fn history(&self) -> Result<Vec<HistoryTxn>, ClusterError>;
}

impl ClusterHandle for Cluster {
    fn num_sites(&self) -> u32 {
        self.placement().num_sites()
    }

    fn execute(&self, site: SiteId, ops: Vec<Op>) -> Result<GlobalTxnId, ClusterError> {
        Cluster::execute(self, site, ops).map(|h| h.gid)
    }

    fn peek(&self, site: SiteId, item: ItemId) -> Option<(Value, Option<GlobalTxnId>)> {
        Cluster::peek(self, site, item)
    }

    fn stats(&self, site: SiteId) -> Result<SiteStats, ClusterError> {
        if site.index() >= self.num_sites() as usize {
            return Err(ClusterError::NoSuchSite(site));
        }
        let (peers_up, peers_suspect, peers_down) = self.health_counts(site);
        Ok(SiteStats {
            outstanding: self.outstanding_count(),
            committed: self.committed_count() as u64,
            decode_errors: 0,
            peers_up,
            peers_suspect,
            peers_down,
        })
    }

    fn copy_state(&self, site: SiteId) -> Result<bytes::Bytes, ClusterError> {
        Cluster::copy_state(self, site).ok_or(ClusterError::Disconnected)
    }

    fn kill_conn(&self, _site: SiteId, _peer: SiteId) -> Result<(), ClusterError> {
        Err(ClusterError::Unsupported("kill_conn: in-process cluster has no connections"))
    }

    fn quiesce(&self) -> Result<(), ClusterError> {
        // The in-process quiesce has no deadline (tests that park
        // deliveries for a crashed site rely on it blocking), so it
        // cannot time out.
        Cluster::quiesce(self);
        Ok(())
    }

    fn history(&self) -> Result<Vec<HistoryTxn>, ClusterError> {
        Ok(self.history_txns())
    }
}

/// The wire's error spelling, translated back to the typed client
/// error. Inverse of the mapping `repld` applies on the way out, so a
/// driver sees the same [`ClusterError`] values from every deployment.
fn from_exec_error(e: ExecError) -> ClusterError {
    match e {
        ExecError::NoCopy(s, i) => ClusterError::NoCopy(s, i),
        ExecError::NotPrimary(s, i) => ClusterError::NotPrimary(s, i),
        ExecError::NoSuchSite(s) => ClusterError::NoSuchSite(s),
        ExecError::Disconnected => ClusterError::Disconnected,
        ExecError::Backpressure { peer, queued } => ClusterError::Backpressure { peer, queued },
        ExecError::Other(msg) => ClusterError::Io(msg),
    }
}

impl ClusterHandle for ProcCluster {
    fn num_sites(&self) -> u32 {
        self.placement().num_sites()
    }

    fn execute(&self, site: SiteId, ops: Vec<Op>) -> Result<GlobalTxnId, ClusterError> {
        match ProcCluster::execute(self, site, ops) {
            Ok(Ok(gid)) => Ok(gid),
            Ok(Err(e)) => Err(from_exec_error(e)),
            Err(e) => Err(ClusterError::Io(e.to_string())),
        }
    }

    fn peek(&self, site: SiteId, item: ItemId) -> Option<(Value, Option<GlobalTxnId>)> {
        ProcCluster::peek(self, site, item)
    }

    fn stats(&self, site: SiteId) -> Result<SiteStats, ClusterError> {
        ProcCluster::stats(self, site).map_err(|e| ClusterError::Io(e.to_string()))
    }

    fn copy_state(&self, site: SiteId) -> Result<bytes::Bytes, ClusterError> {
        ProcCluster::copy_state(self, site).map_err(|e| ClusterError::Io(e.to_string()))
    }

    fn kill_conn(&self, site: SiteId, peer: SiteId) -> Result<(), ClusterError> {
        ProcCluster::kill_conn(self, site, peer).map_err(|e| ClusterError::Io(e.to_string()))
    }

    fn quiesce(&self) -> Result<(), ClusterError> {
        ProcCluster::quiesce(self)
    }

    fn history(&self) -> Result<Vec<HistoryTxn>, ClusterError> {
        ProcCluster::history(self).map_err(|e| ClusterError::Io(e.to_string()))
    }
}
