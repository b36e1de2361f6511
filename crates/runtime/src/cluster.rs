//! The in-process cluster: a reactor thread per site, live crash and
//! restart, and the types every deployment shares.
//!
//! A running site's state belongs to its reactor thread alone. The
//! cluster holds no handle into it: it reads a running site through the
//! site's client session, as `ProcCluster` does, and holds a site's
//! state ([`SiteParts`]) only while the site is down — handed back by
//! the joined thread at [`Cluster::crash`], moved into the replacement
//! at [`Cluster::restart`].

use std::fmt;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use repl_copygraph::DataPlacement;
use repl_net::{cluster_fingerprint, ClientMsg};
use repl_protocol::{ProtocolError, Routing, RoutingError, TreeKind};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

use crate::handle::{io_error, ClusterHandle, Session};
use crate::policy::RuntimeOptions;
use crate::reactor::{Listener, Reactor};
use crate::site::{SiteParts, SiteSetup};

/// Protocols the live runtime deploys: the shared protocol core's
/// identity. Its `name()` also feeds the wire handshake's cluster
/// fingerprint, so both ends agree on what they are running.
pub use repl_protocol::ProtocolId as RuntimeProtocol;

/// Errors from cluster assembly and transaction execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// DAG(WT) and DAG(T) require an acyclic copy graph (§2, §3).
    CopyGraphCyclic,
    /// DAG(T) additionally requires site ids to be a topological order
    /// of the copy graph (§3 assigns timestamps by site order).
    SiteOrderNotTopological,
    /// The site holds no copy of the item the transaction reads.
    NoCopy(SiteId, ItemId),
    /// The transaction writes an item whose primary copy is elsewhere
    /// (§1.1 ownership rule).
    NotPrimary(SiteId, ItemId),
    /// Site id out of range.
    NoSuchSite(SiteId),
    /// Crash/restart faults are only modeled for protocols whose
    /// per-site state is fully recoverable from the durable image;
    /// DAG(T) timestamps and BackEdge prepared sets are volatile in
    /// this runtime.
    FaultsUnsupported,
    /// The site is down: an in-process site that crashed and has not
    /// restarted. The request was not sent.
    Disconnected,
    /// The protocol core rejected the deployment's structure, or a
    /// link delivered something the protocol state machine cannot
    /// account for (the site refuses further transactions rather than
    /// guessing).
    Protocol(ProtocolError),
    /// An I/O failure on the path to the site: its connection broke
    /// mid-request, or the site answered with something untyped. A
    /// transaction that got this reply may still have committed — the
    /// usual at-most-once ambiguity of a server dying mid-request.
    Io(String),
    /// Quiescence did not complete within the deadline; carries the
    /// per-site outstanding deltas at expiry so a chaos run can report
    /// where propagation stalled instead of panicking.
    QuiesceTimeout {
        /// `(site, outstanding)` at the deadline, every site.
        outstanding: Vec<(SiteId, i64)>,
    },
    /// The site is shedding load: its outbox towards `peer` reached the
    /// configured high-water mark, so the transaction was refused
    /// *before* a gid was allocated. Retrying later commits it exactly
    /// as if it had never been refused.
    Backpressure {
        /// The congested peer.
        peer: SiteId,
        /// Messages queued towards it at refusal.
        queued: u64,
    },
    /// A BackEdge eager phase timed out: the special subtransaction (or
    /// its decision) did not come home within the configured deadline,
    /// and the transaction was aborted everywhere. Nothing committed;
    /// the client may retry once the partition heals.
    EagerTimeout(GlobalTxnId),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::CopyGraphCyclic => RoutingError::CopyGraphCyclic.fmt(f),
            ClusterError::SiteOrderNotTopological => RoutingError::SiteOrderNotTopological.fmt(f),
            ClusterError::NoCopy(s, i) => write!(f, "site {s} has no copy of {i}"),
            ClusterError::NotPrimary(s, i) => {
                write!(f, "site {s} does not own the primary copy of {i}")
            }
            ClusterError::NoSuchSite(s) => write!(f, "no such site {s}"),
            ClusterError::FaultsUnsupported => {
                write!(f, "crash faults are not supported under this protocol")
            }
            ClusterError::Disconnected => write!(f, "site is down or cluster is shut down"),
            ClusterError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClusterError::Io(e) => write!(f, "i/o error: {e}"),
            ClusterError::QuiesceTimeout { outstanding } => {
                write!(f, "quiescence timed out; outstanding per site:")?;
                for (site, n) in outstanding {
                    write!(f, " {site}={n}")?;
                }
                Ok(())
            }
            ClusterError::Backpressure { peer, queued } => {
                write!(f, "backpressure: {queued} messages queued towards {peer}")
            }
            ClusterError::EagerTimeout(gid) => {
                write!(f, "eager phase of {gid} timed out and was aborted")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<RoutingError> for ClusterError {
    fn from(e: RoutingError) -> Self {
        match e {
            RoutingError::CopyGraphCyclic => ClusterError::CopyGraphCyclic,
            RoutingError::SiteOrderNotTopological => ClusterError::SiteOrderNotTopological,
        }
    }
}

/// A committed transaction's identity, as returned to the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnHandle {
    /// Globally unique id of the committed transaction.
    pub gid: GlobalTxnId,
}

/// A running in-process replication cluster: one [`Reactor`] per site
/// on a thread of its own, wired over loopback TCP and reached by
/// clients exactly as `repld` processes are. Only how a site starts and
/// stops is its own: [`Cluster::crash`] and [`Cluster::restart`], and a
/// drop — including during a test panic — that stops every reactor.
pub struct Cluster {
    /// Each site's running reactor; `None` while it is crashed.
    sites: Vec<Option<Incarnation>>,
    /// What each crashed site handed back, until its restart; `None`
    /// while it runs (its reactor owns it then).
    parked: Vec<Option<SiteParts>>,
    protocol: RuntimeProtocol,
    routing: Routing,
    placement: Arc<DataPlacement>,
    opts: Arc<RuntimeOptions>,
    /// The handshake fingerprint, salted so that no two clusters wire
    /// to each other through a port one released and the other reused.
    fingerprint: u64,
}

/// One run of a site's reactor.
struct Incarnation {
    addr: SocketAddr,
    session: Session,
    stop: Arc<AtomicBool>,
    /// Returns what outlives the run.
    thread: JoinHandle<SiteParts>,
}

impl Incarnation {
    /// Return the reactor at its next pass, join its thread and take
    /// back what it owned (`None`: the reactor panicked).
    fn stop(self) -> Option<SiteParts> {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().ok()
    }
}

/// The answer of an inspection of an in-process cluster. Its sites
/// answer over loopback from threads of this process, so a failure is a
/// lost reactor thread.
#[expect(
    clippy::panic,
    reason = "a lost in-process reactor is a bug the calling test must fail on"
)]
fn answered<T>(answer: Result<T, ClusterError>) -> T {
    answer.unwrap_or_else(|e| panic!("an in-process site did not answer: {e}"))
}

impl Cluster {
    /// Start one reactor thread per site of `placement`, wired over
    /// loopback, running `protocol`, with default options (clean wire,
    /// default timeouts and bounds).
    pub fn start(
        placement: &DataPlacement,
        protocol: RuntimeProtocol,
    ) -> Result<Self, ClusterError> {
        Cluster::start_with(placement, protocol, RuntimeOptions::default())
    }

    /// [`Cluster::start`] with explicit [`RuntimeOptions`] — including,
    /// when `options.nemesis` is set, a seeded fault-injection layer
    /// wrapped around every site's wire.
    pub fn start_with(
        placement: &DataPlacement,
        protocol: RuntimeProtocol,
        options: RuntimeOptions,
    ) -> Result<Self, ClusterError> {
        static CLUSTERS: AtomicU64 = AtomicU64::new(0);
        let routing = Routing::build(protocol.into(), placement, TreeKind::Chain)?;
        let n = placement.num_sites() as usize;
        let salt = (u64::from(std::process::id()) << 32) | CLUSTERS.fetch_add(1, Ordering::Relaxed);
        let mut cluster = Cluster {
            sites: (0..n).map(|_| None).collect(),
            parked: (0..n).map(|_| Some(SiteParts::new(n))).collect(),
            protocol,
            routing,
            placement: Arc::new(placement.clone()),
            opts: Arc::new(options),
            fingerprint: cluster_fingerprint(placement.per_item_spec(), protocol.name()) ^ salt,
        };
        for site in placement.sites() {
            cluster.boot_site(site)?;
        }
        Ok(cluster)
    }

    /// Boot `site` on a fresh loopback port from its parked parts, at
    /// start or after a crash, through the `Reactor::boot` `repld` uses
    /// (on the reactor's own thread, which recovers the store and owns
    /// the parts until it stops). The site dials every live peer, and
    /// every live peer is told its address.
    fn boot_site(&mut self, site: SiteId) -> Result<(), ClusterError> {
        let i = site.index();
        let setup = SiteSetup::new(site, self.protocol, self.placement.clone(), &self.routing)
            .map_err(ClusterError::Protocol)?;
        let peers = self.sites.iter().map(|live| live.as_ref().map(|live| live.addr)).collect();
        let listener =
            Listener::bind(SocketAddr::from((Ipv4Addr::LOCALHOST, 0))).map_err(io_error)?;
        let addr = listener.local_addr().map_err(io_error)?;
        let lost =
            || ClusterError::Io(format!("site {site} lost its state with its reactor thread"));
        let parts = self.parked[i].take().ok_or_else(lost)?;
        let (opts, fingerprint) = (self.opts.clone(), self.fingerprint);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        // A spawn that fails drops the parts with its closure.
        let thread = std::thread::Builder::new()
            .name(format!("site-{}", site.0))
            .spawn(move || {
                let mut reactor =
                    Reactor::boot(listener, setup, parts, opts, fingerprint, peers, thread_stop);
                let _ = reactor.run();
                reactor.into_parts()
            })
            .map_err(io_error)?;
        // The socket listens already: the session queues until the
        // reactor has recovered the store and accepts it.
        let session = match Session::connect(addr) {
            Ok(session) => session,
            Err(e) => {
                stop.store(true, Ordering::SeqCst);
                self.parked[i] = thread.join().ok();
                return Err(io_error(e));
            }
        };
        self.sites[i] = Some(Incarnation { addr, session, stop, thread });
        let announce = ClientMsg::Peers(vec![(site, addr.to_string())]);
        for (s, live) in self.sites.iter().enumerate() {
            match live {
                Some(live) if s != i => live.session.expect_ok(announce.clone()),
                _ => Ok(()),
            }
            .map_err(io_error)?;
        }
        Ok(())
    }

    fn check_site(&self, site: SiteId) -> Result<&Option<Incarnation>, ClusterError> {
        self.sites.get(site.index()).ok_or(ClusterError::NoSuchSite(site))
    }

    fn live(&self, site: SiteId) -> Result<&Incarnation, ClusterError> {
        self.check_site(site)?.as_ref().ok_or(ClusterError::Disconnected)
    }

    /// The client session to `site`, if it is up.
    pub(crate) fn session(&self, site: SiteId) -> Result<&Session, ClusterError> {
        self.live(site).map(|live| &live.session)
    }

    /// What `site` handed back when it crashed, while it is down.
    pub(crate) fn parked(&self, site: SiteId) -> Option<&SiteParts> {
        self.parked.get(site.index())?.as_ref()
    }

    /// The loopback address `site` listens on, and the cluster
    /// fingerprint a peer's `Hello` must carry (for tests that speak
    /// the peer protocol to a site).
    pub fn peer_endpoint(&self, site: SiteId) -> Result<(SocketAddr, u64), ClusterError> {
        self.live(site).map(|live| (live.addr, self.fingerprint))
    }

    fn check_faults_supported(&self) -> Result<(), ClusterError> {
        match self.protocol {
            RuntimeProtocol::DagWt | RuntimeProtocol::NaiveLazy => Ok(()),
            RuntimeProtocol::DagT | RuntimeProtocol::BackEdge => {
                Err(ClusterError::FaultsUnsupported)
            }
        }
    }

    /// Abruptly kill `site`: its reactor returns at its next pass
    /// without flushing, losing its store, its sockets and every frame
    /// buffered in them. What it hands back — its durable image,
    /// outboxes, history and outstanding share — waits here for
    /// [`Cluster::restart`]. Idempotent while down. Its clients get
    /// [`ClusterError::Disconnected`]; updates for it park in their
    /// senders' outboxes.
    pub fn crash(&mut self, site: SiteId) -> Result<(), ClusterError> {
        self.check_site(site)?;
        self.check_faults_supported()?;
        if let Some(live) = self.sites[site.index()].take() {
            let mut parts = live.stop();
            // A staged group-commit batch survives with the image, and a
            // restart appends it to the log before anything else: do it
            // now, so the log parked is the one recovered from.
            if let Some(parts) = parts.as_mut() {
                parts.durable.flush_log();
            }
            self.parked[site.index()] = parts;
        }
        Ok(())
    }

    /// Rejoin a crashed `site`: a replacement reactor replays the WAL
    /// over the checkpoint, and each peer re-dials it at its new address
    /// and replays, in per-link FIFO order, every delivery it has not
    /// applied. A no-op if the site is up.
    pub fn restart(&mut self, site: SiteId) -> Result<(), ClusterError> {
        self.check_site(site)?;
        self.check_faults_supported()?;
        if self.sites[site.index()].is_some() {
            return Ok(()); // not crashed
        }
        self.boot_site(site)
    }

    /// Execute a transaction at `site`, blocking until it commits.
    pub fn execute(&self, site: SiteId, ops: Vec<Op>) -> Result<TxnHandle, ClusterError> {
        ClusterHandle::execute(self, site, ops).map(|gid| TxnHandle { gid })
    }

    /// A handle for submitting transactions to `site` from other
    /// threads: a client connection of its own.
    pub fn client(&self, site: SiteId) -> Result<SiteClient, ClusterError> {
        let session = Session::connect(self.live(site)?.addr).map_err(io_error)?;
        Ok(SiteClient { session: Arc::new(session) })
    }

    /// Block until every committed update has been applied at every
    /// destination replica (the sites' outstanding shares, a crashed
    /// site's from its parked parts, sum to zero;
    /// [`ClusterHandle::quiesce`] says why that is sound). No deadline:
    /// deliveries parked for a down site count as outstanding.
    pub fn quiesce(&self) {
        while ClusterHandle::quiesce(self).is_err() {}
    }

    /// Updates sent to `site` but not yet applied there (for tests and
    /// demos; [`ClusterHandle::pending_deliveries`]).
    pub fn pending_deliveries(&self, site: SiteId) -> usize {
        answered(ClusterHandle::pending_deliveries(self, site))
    }

    /// Non-transactional read of one copy (for tests and demos).
    pub fn peek(&self, site: SiteId, item: ItemId) -> Option<(Value, Option<GlobalTxnId>)> {
        ClusterHandle::peek(self, site, item)
    }

    /// Serialize `site`'s full copy state (ascending items, values and
    /// writers) with the shared wire codec — byte-comparable against
    /// any other deployment of the same placement and workload.
    pub fn copy_state(&self, site: SiteId) -> Option<bytes::Bytes> {
        ClusterHandle::copy_state(self, site).ok()
    }

    /// The serialized resident redo log a crashed `site` parked — what
    /// its restart recovers from: what it committed since its last
    /// checkpoint cut, in commit order. Until the log first fills a
    /// segment (16 KiB, 163 Table-1 commits) that is everything the site
    /// ever committed, and replaying it over a fresh store of the site's
    /// items reproduces the site. `None` while the site runs.
    pub fn snapshot_wal(&self, site: SiteId) -> Option<bytes::Bytes> {
        self.parked(site).map(|parts| parts.durable.wal.encode())
    }

    /// Number of transactions committed so far, crashed sites' included.
    pub fn committed_count(&self) -> usize {
        answered(ClusterHandle::committed_count(self))
    }

    /// The placement this cluster serves.
    pub fn placement(&self) -> &DataPlacement {
        &self.placement
    }

    /// Stop every site and join its thread.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    /// Flag every reactor, then join them.
    fn stop_all(&mut self) {
        for live in self.sites.iter().flatten() {
            live.stop.store(true, Ordering::SeqCst);
        }
        for live in self.sites.iter_mut().filter_map(Option::take) {
            live.stop();
        }
    }
}

impl Drop for Cluster {
    /// Never hangs: a reactor returns within a pass of its stop flag,
    /// whatever its outboxes hold.
    fn drop(&mut self) {
        self.stop_all();
    }
}

/// A cloneable per-site transaction submitter.
#[derive(Clone)]
pub struct SiteClient {
    session: Arc<Session>,
}

impl SiteClient {
    /// Execute a transaction, blocking until commit.
    pub fn execute(&self, ops: Vec<Op>) -> Result<TxnHandle, ClusterError> {
        self.session.commit(ops).map(|gid| TxnHandle { gid })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_core::{scenario, History};

    #[test]
    fn basic_write_propagates() {
        let placement = scenario::example_1_1_placement();
        let cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
        let a = ItemId(0);
        cluster.execute(SiteId(0), vec![Op::write(a, 5)]).unwrap();
        cluster.quiesce();
        for site in [SiteId(0), SiteId(1), SiteId(2)] {
            assert_eq!(cluster.peek(site, a).unwrap().0, Value::int(5));
        }
        assert!(History::from_iter(cluster.history().unwrap()).check_serializability().is_ok());
        cluster.shutdown();
    }

    #[test]
    fn ownership_rule_enforced() {
        let placement = scenario::example_1_1_placement();
        let cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
        // Writing b (primary s1) at s0 is rejected.
        let err = cluster.execute(SiteId(0), vec![Op::write(ItemId(1), 1)]).unwrap_err();
        assert_eq!(err, ClusterError::NotPrimary(SiteId(0), ItemId(1)));
        // Reading b at s0 (no copy) is rejected.
        let err = cluster.execute(SiteId(0), vec![Op::read(ItemId(1))]).unwrap_err();
        assert_eq!(err, ClusterError::NoCopy(SiteId(0), ItemId(1)));
        cluster.shutdown();
    }

    #[test]
    fn cyclic_graph_rejected_for_dag_wt() {
        let placement = scenario::example_4_1_placement();
        assert_eq!(
            Cluster::start(&placement, RuntimeProtocol::DagWt).err(),
            Some(ClusterError::CopyGraphCyclic)
        );
        // NaiveLazy accepts anything.
        let c = Cluster::start(&placement, RuntimeProtocol::NaiveLazy).unwrap();
        c.shutdown();
    }

    #[test]
    fn unknown_site_rejected() {
        let placement = scenario::example_1_1_placement();
        let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
        assert_eq!(
            cluster.execute(SiteId(9), vec![]).unwrap_err(),
            ClusterError::NoSuchSite(SiteId(9))
        );
        assert_eq!(cluster.crash(SiteId(9)).unwrap_err(), ClusterError::NoSuchSite(SiteId(9)));
        assert_eq!(cluster.restart(SiteId(9)).unwrap_err(), ClusterError::NoSuchSite(SiteId(9)));
        cluster.shutdown();
    }

    #[test]
    fn crashed_site_rejects_clients_until_restart() {
        let placement = scenario::example_1_1_placement();
        let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
        cluster.crash(SiteId(2)).unwrap();
        assert_eq!(
            cluster.execute(SiteId(2), vec![Op::read(ItemId(0))]).unwrap_err(),
            ClusterError::Disconnected
        );
        assert_eq!(cluster.peek(SiteId(2), ItemId(0)), None);
        cluster.restart(SiteId(2)).unwrap();
        assert!(cluster.peek(SiteId(2), ItemId(0)).is_some());
        cluster.shutdown();
    }

    #[test]
    fn crash_and_restart_are_idempotent() {
        let placement = scenario::example_1_1_placement();
        let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
        cluster.restart(SiteId(1)).unwrap(); // up: no-op
        cluster.crash(SiteId(1)).unwrap();
        cluster.crash(SiteId(1)).unwrap(); // down: no-op
        cluster.restart(SiteId(1)).unwrap();
        cluster.execute(SiteId(1), vec![Op::write(ItemId(1), 9)]).unwrap();
        cluster.quiesce();
        assert!(History::from_iter(cluster.history().unwrap()).check_serializability().is_ok());
        cluster.shutdown();
    }

    /// What a primary keeps per commit is its history entry, exactly —
    /// every field a varint, so a Table-1 update (6 reads of written
    /// versions, 4 writes) costs 19 bytes plus its own sequence number
    /// and those of the six versions it read: 26 bytes over these 20
    /// one-byte items while sequence numbers are below 2⁷, 33 below 2¹⁴,
    /// 40 after (43 at a site whose item ids take two bytes; 138 with
    /// fixed-width fields) — and nothing else that grows: the 4 × 25
    /// bytes of redo log each commit appends refill one segment, emptied
    /// behind a checkpoint each time it is full, so the resident log
    /// plus the checkpoint stay under one segment plus 26 bytes a copy
    /// at 2 000 commits and at 20 000. (With the indexed `History` and a
    /// `Vec<LogRecord>` a commit kept about 1000 bytes; with contiguous
    /// arenas, 238.) The sizes are read off the parts s0 hands back when
    /// it crashes, and it restarts from them.
    #[test]
    fn commit_budget_2000_table1_updates() {
        use repl_storage::codec::varint_len;
        use repl_storage::SEGMENT_BYTES;
        const WAL_RECORDS: usize = 4 * (4 + 12 + 1 + 8);
        const CELL: usize = 4 + 9 + 13;
        let mut placement = DataPlacement::new(3);
        let items: Vec<ItemId> =
            (0..20).map(|_| placement.add_item(SiteId(0), &[SiteId(1), SiteId(2)])).collect();
        let mut cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
        // Write every item once, so every later read is of a written version.
        cluster.execute(SiteId(0), items.iter().map(|&i| Op::write(i, 0)).collect()).unwrap();
        // s0's history bytes, and its resident log and checkpoint bytes.
        let retained = |c: &mut Cluster| {
            c.crash(SiteId(0)).unwrap();
            let parts = c.parked(SiteId(0)).unwrap();
            let d = &parts.durable;
            let sizes = (parts.history.encoded_len(), (d.wal.encoded_len(), d.checkpoint.len()));
            c.restart(SiteId(0)).unwrap();
            sizes
        };
        let (before, _) = retained(&mut cluster);
        // Sequence number of each item's last writer, which is what a
        // read of it records.
        let mut written_by = vec![0u64; items.len()];
        let mut entries = 0;
        // The cut rule: a commit that does not fit the segment empties it first.
        let mut resident = items.len() * 25;
        let mut cuts = 0;
        let mut done = 0usize;
        for (commits, pinned) in [(2_000usize, 65_090), (20_000, 684_388)] {
            for k in done..commits {
                let at = |j: usize| (k * 7 + j) % items.len();
                let ops = (0..6)
                    .map(|j| Op::read(items[at(j)]))
                    .chain((6..10).map(|j| Op::write(items[at(j)], k as i64)))
                    .collect();
                let gid = cluster.execute(SiteId(0), ops).unwrap().gid;
                // Origin, the two counts and ten items: a byte each;
                // each version read: origin + 1 and its sequence number.
                let versions: usize = (0..6).map(|j| 1 + varint_len(written_by[at(j)])).sum();
                entries += 1 + varint_len(gid.seq) + 1 + 6 + versions + 1 + 4;
                (6..10).for_each(|j| written_by[at(j)] = gid.seq);
                if resident + WAL_RECORDS > SEGMENT_BYTES {
                    (resident, cuts) = (0, cuts + 1);
                }
                resident += WAL_RECORDS;
            }
            done = commits;
            let (history, durable) = retained(&mut cluster);
            assert_eq!(history - before, entries);
            assert_eq!(entries, pinned, "{commits}");
            assert!(cuts >= commits * WAL_RECORDS / SEGMENT_BYTES, "{cuts} cuts");
            // A checkpoint of every copy at the site, and the commits since.
            assert_eq!(durable, (resident, 4 + CELL * items.len()), "{commits}");
            assert!(resident <= SEGMENT_BYTES);
        }
        cluster.quiesce();
        assert!(History::from_iter(cluster.history().unwrap()).check_serializability().is_ok());
        cluster.shutdown();
    }

    /// The `Hello` fingerprint of the benchmark's `chain3` placement
    /// under DAG(WT), as every commit so far has computed it from the
    /// per-item spec string: a site that hashes the spec run by run as
    /// it formats it must still be admitted by one that hashed the
    /// string, and the run-form spec `repld` now receives is not what
    /// is hashed.
    #[test]
    fn chain3_dagwt_fingerprint_is_pinned() {
        let mut chain3 = DataPlacement::new(3);
        chain3.add_run(SiteId(0), &[SiteId(1), SiteId(2)], 1000);
        chain3.add_run(SiteId(1), &[SiteId(2)], 1000);
        chain3.add_run(SiteId(2), &[], 1000);
        let per_item =
            format!("3{}{}{}", "|0:1,2".repeat(1000), "|1:2".repeat(1000), "|2".repeat(1000));
        let name = RuntimeProtocol::DagWt.name();
        let pinned = 0xefcf_0bf4_2bef_34c0;
        assert_eq!(repl_net::cluster_fingerprint(chain3.per_item_spec(), name), pinned);
        assert_eq!(repl_net::cluster_fingerprint(per_item, name), pinned);
        assert_eq!(chain3.to_spec(), "3|0:1,2*1000|1:2*1000|2*1000");
        assert_ne!(repl_net::cluster_fingerprint(chain3.to_spec(), name), pinned);
    }

    /// FNV-1a, written out independently of `repl-net`'s hasher.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    proptest::proptest! {
        /// On random placements of 1–6 sites and runs of 1–50 items, the
        /// fingerprint computed run by run equals FNV over the per-item
        /// spec written out from the per-item answers.
        #[test]
        fn per_run_fingerprint_is_fnv_over_the_expanded_spec(
            sites in 1u32..=6,
            runs in proptest::collection::vec((0u32..6, 0u32..64, 1u32..=50), 0..12),
        ) {
            let mut p = DataPlacement::new(sites);
            for (primary, mask, len) in runs {
                let primary = SiteId(primary % sites);
                let replicas: Vec<SiteId> =
                    p.sites().filter(|&s| s != primary && mask >> s.0 & 1 == 1).collect();
                p.add_run(primary, &replicas, len);
            }
            let mut expanded = p.num_sites().to_string();
            for item in p.items() {
                expanded += &format!("|{}", p.primary_of(item).0);
                for (i, r) in p.replicas_of(item).iter().enumerate() {
                    expanded += &format!("{}{}", if i == 0 { ':' } else { ',' }, r.0);
                }
            }
            for protocol in ["dagwt", "dagt", "backedge"] {
                let want = fnv1a(format!("{expanded}\0{protocol}").as_bytes());
                let got = repl_net::cluster_fingerprint(p.per_item_spec(), protocol);
                proptest::prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn faults_rejected_for_dagt_and_backedge() {
        let placement = scenario::example_1_1_placement();
        for protocol in [RuntimeProtocol::DagT, RuntimeProtocol::BackEdge] {
            let mut cluster = Cluster::start(&placement, protocol).unwrap();
            assert_eq!(cluster.crash(SiteId(0)).unwrap_err(), ClusterError::FaultsUnsupported);
            assert_eq!(cluster.restart(SiteId(0)).unwrap_err(), ClusterError::FaultsUnsupported);
            cluster.shutdown();
        }
    }
}
