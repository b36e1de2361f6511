//! The client side of every deployment: a site is reached over a
//! client [`Session`] whoever runs it, so [`ClusterHandle`] — what the
//! differential matrix, the fault tests and the load generator are
//! written against — is implemented once, over the sessions
//! [`Cluster`] and [`ProcCluster`] hand it. A site's refusal comes back
//! as the [`ClusterError`] it raised, a crashed in-process site is
//! [`ClusterError::Disconnected`], a broken connection
//! [`ClusterError::Io`]. The inspection methods read a running site
//! through its session too; a crashed in-process site answers from the
//! state it handed back ([`Fleet::parked`]).

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use repl_net::{read_msg, write_msg, ClientMsg, ClientReply, ExecError, HistoryTxn, WireMsg};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

use crate::cluster::{Cluster, ClusterError};
use crate::link::link_marks;
use crate::policy;
use crate::proc::ProcCluster;
use crate::site::SiteParts;

/// How long to keep retrying the initial client connection to a site.
const CONNECT_WINDOW: Duration = Duration::from_secs(10);

/// One site's counters, as reported by [`ClusterHandle::stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// This site's share of the replica applications in flight (+ per
    /// destination of a commit here, −1 per application here); only the
    /// sum over all sites is zero at quiescence.
    pub outstanding: i64,
    /// Transactions committed at this site as their primary.
    pub committed: u64,
    /// Client request frames this site refused because they did not
    /// decode (malformed, oversized, or mis-typed).
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
    /// Per site, indexed by id, this site's link marks `(sent, applied)`:
    /// the last link sequence it assigned toward that site, and the
    /// highest it durably applied from it (`(0, 0)` for itself).
    pub links: Vec<(u64, u64)>,
    /// The site's byte census: heap bytes per structure, in
    /// [`crate::CENSUS`] order (empty for a crashed in-process site).
    pub census: Vec<u64>,
}

/// The operations every deployment answers, for deployment-generic
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
    /// `Tuning::mvcc_reads`).
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

    /// The site's counters ([`SiteStats`]); a crashed in-process site's
    /// outstanding share, commits and link marks from what it parked.
    fn stats(&self, site: SiteId) -> Result<SiteStats, ClusterError>;

    /// The site's full copy state (ascending items, values, writers),
    /// serialized with the shared wire codec — byte-comparable across
    /// deployments. It is fetched a segment of cells at a time, so it is
    /// one consistent image while nothing commits at the site.
    fn copy_state(&self, site: SiteId) -> Result<bytes::Bytes, ClusterError>;

    /// Fault injection: drop the connections between `site` and `peer`,
    /// forcing reconnect + resume + retransmission.
    fn kill_conn(&self, site: SiteId, peer: SiteId) -> Result<(), ClusterError>;

    /// Block until every committed update has been applied at every
    /// destination replica, or until the deployment's quiesce deadline
    /// expires ([`ClusterError::QuiesceTimeout`], carrying where
    /// propagation stalled).
    fn quiesce(&self) -> Result<(), ClusterError>;

    /// Every transaction committed anywhere in the deployment, as
    /// `(gid, reads, writes)` tuples — `reads` pairing each item with
    /// the gid of the version read, crashed sites' commits included.
    /// `repl_analysis::history::History::from_iter` of them runs the
    /// one-copy serializability checker over a live run; the site links
    /// no checker.
    fn history(&self) -> Result<Vec<HistoryTxn>, ClusterError>;

    /// Number of transactions committed so far, deployment-wide.
    fn committed_count(&self) -> Result<usize, ClusterError> {
        let sites = (0..self.num_sites()).map(SiteId);
        sites.map(|s| Ok(self.stats(s)?.committed as usize)).sum()
    }

    /// Updates sent to `site` that it has not durably applied: over the
    /// other sites, the last link sequence each assigned toward `site`
    /// minus the highest `site` applied from it. Independent of acks;
    /// `site`'s marks are read first, and both only grow, so it never
    /// undercounts.
    fn pending_deliveries(&self, site: SiteId) -> Result<usize, ClusterError> {
        let applied = self.stats(site)?.links;
        let mut pending = 0;
        for from in (0..self.num_sites()).map(SiteId).filter(|&s| s != site) {
            let (sent, _) = self.stats(from)?.links.get(site.index()).copied().unwrap_or_default();
            let (_, mark) = applied.get(from.index()).copied().unwrap_or_default();
            pending += sent.saturating_sub(mark) as usize;
        }
        Ok(pending)
    }
}

/// A client connection to one site; one request at a time.
pub(crate) struct Session(Mutex<TcpStream>);

impl Session {
    /// Connect to `addr`, retrying while the site comes up.
    pub fn connect(addr: impl ToSocketAddrs + Copy) -> io::Result<Session> {
        let start = Instant::now();
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(_) if start.elapsed() < CONNECT_WINDOW => {
                    policy::pace(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        };
        let _ = stream.set_nodelay(true);
        Ok(Session(Mutex::new(stream)))
    }

    fn request(&self, msg: ClientMsg) -> io::Result<ClientReply> {
        // A thread that panicked mid-request may have left its reply
        // unread: the stream is no longer in step.
        let mut conn = self.0.lock().map_err(|_| io::Error::other("session poisoned"))?;
        write_msg(&mut *conn, &WireMsg::Client(msg))?;
        match read_msg(&mut *conn) {
            Ok(WireMsg::Reply(reply)) => Ok(reply),
            Ok(other) => Err(io::Error::other(format!("unexpected reply frame: {other:?}"))),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }

    /// Send a request whose only good answer is `Ok`.
    pub fn expect_ok(&self, msg: ClientMsg) -> io::Result<()> {
        match self.request(msg)? {
            ClientReply::Ok => Ok(()),
            other => Err(io::Error::other(format!("request refused: {other:?}"))),
        }
    }

    /// Execute a transaction: the reply as it came off the wire.
    pub fn execute(&self, ops: Vec<Op>) -> io::Result<Result<GlobalTxnId, ExecError>> {
        match self.request(ClientMsg::Execute(ops))? {
            ClientReply::Executed(result) => Ok(result),
            other => Err(io::Error::other(format!("unexpected execute reply: {other:?}"))),
        }
    }

    /// [`Session::execute`] with both ways to fail as one typed error.
    pub fn commit(&self, ops: Vec<Op>) -> Result<GlobalTxnId, ClusterError> {
        match self.execute(ops) {
            Ok(Ok(gid)) => Ok(gid),
            Ok(Err(e)) => Err(from_exec_error(e)),
            Err(e) => Err(io_error(e)),
        }
    }

    /// Non-transactional read of one copy.
    pub fn peek(&self, item: ItemId) -> Option<(Value, Option<GlobalTxnId>)> {
        match self.request(ClientMsg::Peek(item)) {
            Ok(ClientReply::Cell(cell)) => cell,
            _ => None,
        }
    }

    /// The site's counters.
    pub fn stats(&self) -> io::Result<SiteStats> {
        match self.request(ClientMsg::Stats)? {
            ClientReply::Stats {
                outstanding,
                committed,
                decode_errors,
                peers_up,
                peers_suspect,
                peers_down,
                links,
                census,
            } => Ok(SiteStats {
                outstanding,
                committed,
                decode_errors,
                peers_up,
                peers_suspect,
                peers_down,
                links,
                census,
            }),
            other => Err(io::Error::other(format!("unexpected stats reply: {other:?}"))),
        }
    }

    /// The site's serialized copy state, a page at a time until a page
    /// comes back empty, so the frame cap does not bound it.
    pub fn copy_state(&self) -> io::Result<bytes::Bytes> {
        join_state_pages(|from| match self.request(ClientMsg::CopyState { from })? {
            ClientReply::State(page) => Ok(page),
            other => Err(io::Error::other(format!("unexpected state reply: {other:?}"))),
        })
    }

    /// The site's primary commits, a page at a time until a page comes
    /// back empty, so the frame cap does not bound them.
    pub fn history(&self) -> io::Result<Vec<HistoryTxn>> {
        let mut all = Vec::new();
        loop {
            match self.request(ClientMsg::History { from: all.len() as u64 })? {
                ClientReply::History(page) if page.is_empty() => return Ok(all),
                ClientReply::History(page) => all.extend(page),
                other => {
                    return Err(io::Error::other(format!("unexpected history reply: {other:?}")))
                }
            }
        }
    }
}

/// Join a copy-state image from the pages `page(from)` returns for the
/// cells joined so far, until one comes back empty. Each page is an
/// image of its own (a cell count, then the cells); the whole is the
/// count of every page's cells, then their cells in page order.
pub(crate) fn join_state_pages(
    mut page: impl FnMut(u64) -> io::Result<bytes::Bytes>,
) -> io::Result<bytes::Bytes> {
    let (mut image, mut cells) = (vec![0; 4], 0u32);
    loop {
        let page = page(u64::from(cells))?;
        let Some((count, rest)) = page.split_first_chunk() else {
            return Err(io::Error::other("state page without a cell count"));
        };
        let count = u32::from_be_bytes(*count);
        if count == 0 {
            image[..4].copy_from_slice(&cells.to_be_bytes());
            return Ok(image.into());
        }
        image.extend_from_slice(rest);
        cells = cells.checked_add(count).ok_or_else(|| io::Error::other("state past u32 cells"))?;
    }
}

/// What a deployment hands the shared client code.
pub(crate) trait Fleet {
    /// Number of sites in the placement.
    fn site_count(&self) -> u32;

    /// The session to `site`: [`ClusterError::NoSuchSite`] out of
    /// range, [`ClusterError::Disconnected`] while the site is down.
    fn session(&self, site: SiteId) -> Result<&Session, ClusterError>;

    /// What `site` handed back when it crashed: `Some` only while an
    /// in-process site is down.
    fn parked(&self, _site: SiteId) -> Option<&SiteParts> {
        None
    }
}

impl Fleet for Cluster {
    fn site_count(&self) -> u32 {
        self.placement().num_sites()
    }

    fn session(&self, site: SiteId) -> Result<&Session, ClusterError> {
        Cluster::session(self, site)
    }

    fn parked(&self, site: SiteId) -> Option<&SiteParts> {
        Cluster::parked(self, site)
    }
}

impl Fleet for ProcCluster {
    fn site_count(&self) -> u32 {
        self.placement().num_sites()
    }

    fn session(&self, site: SiteId) -> Result<&Session, ClusterError> {
        self.sessions().get(site.index()).ok_or(ClusterError::NoSuchSite(site))
    }
}

impl<F: Fleet> ClusterHandle for F {
    fn num_sites(&self) -> u32 {
        self.site_count()
    }

    fn execute(&self, site: SiteId, ops: Vec<Op>) -> Result<GlobalTxnId, ClusterError> {
        self.session(site)?.commit(ops)
    }

    fn peek(&self, site: SiteId, item: ItemId) -> Option<(Value, Option<GlobalTxnId>)> {
        self.session(site).ok()?.peek(item)
    }

    fn stats(&self, site: SiteId) -> Result<SiteStats, ClusterError> {
        match self.parked(site) {
            Some(parts) => Ok(SiteStats {
                outstanding: parts.outstanding,
                committed: parts.history.committed_count(),
                links: link_marks(&parts.links, &parts.durable.applied_from),
                ..SiteStats::default()
            }),
            None => self.session(site)?.stats().map_err(io_error),
        }
    }

    fn copy_state(&self, site: SiteId) -> Result<bytes::Bytes, ClusterError> {
        self.session(site)?.copy_state().map_err(io_error)
    }

    fn kill_conn(&self, site: SiteId, peer: SiteId) -> Result<(), ClusterError> {
        self.session(site)?.expect_ok(ClientMsg::KillConn(peer)).map_err(io_error)
    }

    /// Sound because clients block for commit replies: once every
    /// submitted transaction has returned, the per-site outstanding
    /// shares only ever decrease, and each read is an upper bound on
    /// the share's later values — so a zero *sum* of sequential reads
    /// implies a zero cluster-wide count at the time of the last read.
    fn quiesce(&self) -> Result<(), ClusterError> {
        let start = Instant::now();
        loop {
            let mut per_site = Vec::with_capacity(self.site_count() as usize);
            let mut total = 0i64;
            for site in (0..self.site_count()).map(SiteId) {
                let outstanding = self.stats(site).map(|s| s.outstanding).unwrap_or(i64::MAX / 2);
                total += outstanding;
                per_site.push((site, outstanding));
            }
            if total == 0 {
                return Ok(());
            }
            if start.elapsed() >= policy::QUIESCE_TIMEOUT {
                per_site.retain(|(_, outstanding)| *outstanding != 0);
                return Err(ClusterError::QuiesceTimeout { outstanding: per_site });
            }
            policy::pace(Duration::from_millis(1));
        }
    }

    /// Primaries record their own commits, so concatenating the
    /// per-site histories covers the deployment without duplicates.
    fn history(&self) -> Result<Vec<HistoryTxn>, ClusterError> {
        let mut all = Vec::new();
        for site in (0..self.site_count()).map(SiteId) {
            all.extend(match self.parked(site) {
                Some(parts) => parts.history.txns(),
                None => self.session(site)?.history().map_err(io_error)?,
            });
        }
        Ok(all)
    }
}

pub(crate) fn io_error(e: io::Error) -> ClusterError {
    ClusterError::Io(e.to_string())
}

/// The wire's error spelling, translated back to the typed client
/// error. Inverse of the mapping the reactor applies on the way out, so
/// a driver sees the same [`ClusterError`] values from every deployment.
fn from_exec_error(e: ExecError) -> ClusterError {
    match e {
        ExecError::NoCopy(s, i) => ClusterError::NoCopy(s, i),
        ExecError::NotPrimary(s, i) => ClusterError::NotPrimary(s, i),
        ExecError::NoSuchSite(s) => ClusterError::NoSuchSite(s),
        ExecError::Disconnected => ClusterError::Disconnected,
        ExecError::Backpressure { peer, queued } => ClusterError::Backpressure { peer, queued },
        ExecError::EagerTimeout(gid) => ClusterError::EagerTimeout(gid),
        ExecError::Other(msg) => ClusterError::Io(msg),
    }
}
