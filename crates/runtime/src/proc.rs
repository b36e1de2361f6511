//! Process-per-site deployment: launch and drive a cluster of `repld`
//! OS processes over loopback TCP, with a client API mirroring
//! [`crate::Cluster`] so tests can run the same workload against both
//! deployments and compare final copy state byte-for-byte.
//!
//! Port races are avoided by construction: every child binds
//! `127.0.0.1:0`, prints its actual listen address on stdout (the
//! launcher contract of `repld`), and only then does the launcher push
//! the complete address map to every process via
//! [`repl_net::ClientMsg::Peers`] — at which point the dialers bring
//! the full mesh up.

use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use repl_copygraph::DataPlacement;
use repl_core::deploy::{removed_batching_knob, ReactorKind};
use repl_net::{read_msg, write_msg, ClientMsg, ClientReply, ExecError, HistoryTxn, WireMsg};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

use crate::cluster::{ClusterError, RuntimeProtocol};
use crate::handle::SiteStats;
use crate::policy;

/// How long to keep retrying the initial client connection to a child.
const CONNECT_WINDOW: Duration = Duration::from_secs(10);

/// Launch-time knobs beyond the placement and protocol: the
/// runtime-tolerance overrides forwarded to each `repld` child on its
/// command line. [`Default`] matches [`ProcCluster::launch`] exactly
/// (no nemesis, built-in timeouts).
#[derive(Clone, Debug, Default)]
pub struct LaunchOptions {
    /// I/O driver for every child (`--reactor`). One value: the field
    /// stays only because `benchmark/` sets it and PR 21, which removed
    /// the threaded driver, could not edit that package.
    pub reactor: ReactorKind,
    /// Nemesis fault plan in `NetFaultPlan::to_spec` form
    /// (`--nemesis`), applied identically by every child.
    pub nemesis: Option<String>,
    /// Override for the eager-phase abort deadline in milliseconds
    /// (`--eager-timeout-ms`).
    pub eager_timeout_ms: Option<u64>,
    /// Override for the per-link outbox high-water mark
    /// (`--outbox-high-water`).
    pub outbox_high_water: Option<u64>,
    /// Serve all-read transactions from lock-free MVCC snapshots
    /// (`--mvcc`).
    pub mvcc: bool,
    /// Group-commit batch size: update commits per WAL flush
    /// (`--group-commit`).
    pub group_commit: Option<u64>,
    /// Removed in PR 23 with `repld --link-batch`: anything but `None`
    /// or `Some(1)` fails the launch with `InvalidInput`. This field and
    /// [`LaunchOptions::apply_pool`] stay only because `benchmark/` sets
    /// them and that PR could not edit it; they go with the benchmark's
    /// own `--link-batch`/`--apply-pool` flags.
    pub link_batch: Option<u64>,
    /// Removed in PR 23 with `repld --apply-pool`; see
    /// [`LaunchOptions::link_batch`].
    pub apply_pool: Option<u64>,
}

/// Locate the `repld` binary: `$REPLD_BIN` if set, else next to the
/// current executable (`target/<profile>/repld` for bench binaries),
/// else one directory up (test binaries live in `deps/`).
pub fn repld_bin() -> io::Result<PathBuf> {
    if let Ok(path) = std::env::var("REPLD_BIN") {
        return Ok(PathBuf::from(path));
    }
    let exe = std::env::current_exe()?;
    let dir = exe.parent().ok_or_else(|| io::Error::other("bare executable path"))?;
    for base in [dir, dir.parent().unwrap_or(dir)] {
        let candidate = base.join("repld");
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "repld binary not found; set REPLD_BIN or build the repl-runtime bins",
    ))
}

/// A running process-per-site cluster.
pub struct ProcCluster {
    children: Vec<Child>,
    conns: Vec<Mutex<TcpStream>>,
    addrs: Vec<String>,
    placement: DataPlacement,
}

impl ProcCluster {
    /// Spawn one `repld` process per site of `placement` (binary found
    /// via [`repld_bin`]) with default [`LaunchOptions`], wire the mesh,
    /// and connect a client session to each.
    pub fn launch(placement: &DataPlacement, protocol: RuntimeProtocol) -> io::Result<Self> {
        Self::launch_with_options(&repld_bin()?, placement, protocol, &LaunchOptions::default())
    }

    /// [`ProcCluster::launch`] with an explicit `repld` path (test
    /// suites pass `CARGO_BIN_EXE_repld`) and every [`LaunchOptions`]
    /// knob — the chaos drivers use this to hand an identical nemesis
    /// plan and tolerance overrides to every child. Fails with
    /// `InvalidInput`, before any child is spawned, when `options` asks
    /// for one of the removed batching knobs.
    pub fn launch_with_options(
        bin: &std::path::Path,
        placement: &DataPlacement,
        protocol: RuntimeProtocol,
        options: &LaunchOptions,
    ) -> io::Result<Self> {
        // Refused here, by name, rather than by children exiting 2 on a
        // flag they no longer have.
        for (name, knob) in [("link_batch", options.link_batch), ("apply_pool", options.apply_pool)]
        {
            if knob.is_some_and(|n| n > 1) {
                let why = removed_batching_knob(&format!("LaunchOptions::{name}"));
                return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
            }
        }
        let n = placement.num_sites() as usize;
        let spec = placement.to_spec();
        let proto = match protocol {
            RuntimeProtocol::DagWt => "dagwt",
            RuntimeProtocol::DagT => "dagt",
            RuntimeProtocol::BackEdge => "backedge",
            RuntimeProtocol::NaiveLazy => "naive",
        };
        let mut cluster = ProcCluster {
            children: Vec::with_capacity(n),
            conns: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
            placement: placement.clone(),
        };
        for i in 0..n {
            let mut args: Vec<String> = vec![
                "--site".into(),
                i.to_string(),
                "--listen".into(),
                "127.0.0.1:0".into(),
                "--protocol".into(),
                proto.into(),
                "--placement".into(),
                spec.clone(),
                "--reactor".into(),
                options.reactor.name().into(),
            ];
            if let Some(nemesis) = &options.nemesis {
                args.push("--nemesis".into());
                args.push(nemesis.clone());
            }
            if let Some(ms) = options.eager_timeout_ms {
                args.push("--eager-timeout-ms".into());
                args.push(ms.to_string());
            }
            if let Some(hw) = options.outbox_high_water {
                args.push("--outbox-high-water".into());
                args.push(hw.to_string());
            }
            if options.mvcc {
                args.push("--mvcc".into());
            }
            if let Some(batch) = options.group_commit {
                args.push("--group-commit".into());
                args.push(batch.to_string());
            }
            let mut child = Command::new(bin).args(&args).stdout(Stdio::piped()).spawn()?;
            // replint: allow(RL008) -- stdout is piped two lines up
            let stdout = child.stdout.take().expect("stdout piped");
            cluster.children.push(child);
            let mut lines = BufReader::new(stdout).lines();
            let line = lines
                .next()
                .ok_or_else(|| io::Error::other("repld exited before announcing its address"))??;
            let addr = line
                .rsplit(" listening on ")
                .next()
                .filter(|a| a.contains(':'))
                .ok_or_else(|| io::Error::other(format!("unexpected repld banner: {line}")))?
                .to_string();
            cluster.addrs.push(addr);
            // Keep the pipe drained so a chatty child can never block on
            // a full pipe (repld prints nothing further in practice).
            std::thread::spawn(move || for _ in lines.by_ref() {});
        }
        for addr in &cluster.addrs {
            cluster.conns.push(Mutex::new(connect_retry(addr)?));
        }
        let peers: Vec<(SiteId, String)> =
            cluster.addrs.iter().enumerate().map(|(i, a)| (SiteId(i as u32), a.clone())).collect();
        for i in 0..n {
            match cluster.request(SiteId(i as u32), ClientMsg::Peers(peers.clone()))? {
                ClientReply::Ok => {}
                other => return Err(io::Error::other(format!("peers push rejected: {other:?}"))),
            }
        }
        Ok(cluster)
    }

    /// The listen addresses, indexed by site.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// The placement this cluster serves.
    pub fn placement(&self) -> &DataPlacement {
        &self.placement
    }

    fn request(&self, site: SiteId, msg: ClientMsg) -> io::Result<ClientReply> {
        if site.index() >= self.conns.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "no such site"));
        }
        let mut conn = self.conns[site.index()].lock();
        write_msg(&mut *conn, &WireMsg::Client(msg))?;
        match read_msg(&mut *conn) {
            Ok(WireMsg::Reply(reply)) => Ok(reply),
            Ok(other) => Err(io::Error::other(format!("unexpected reply frame: {other:?}"))),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }

    /// Execute a transaction at `site`, blocking until it commits there.
    pub fn execute(
        &self,
        site: SiteId,
        ops: Vec<Op>,
    ) -> io::Result<Result<GlobalTxnId, ExecError>> {
        match self.request(site, ClientMsg::Execute(ops))? {
            ClientReply::Executed(result) => Ok(result),
            other => Err(io::Error::other(format!("unexpected execute reply: {other:?}"))),
        }
    }

    /// Non-transactional read of one copy.
    pub fn peek(&self, site: SiteId, item: ItemId) -> Option<(Value, Option<GlobalTxnId>)> {
        match self.request(site, ClientMsg::Peek(item)) {
            Ok(ClientReply::Cell(cell)) => cell,
            _ => None,
        }
    }

    /// The counters of one site process ([`SiteStats`]).
    pub fn stats(&self, site: SiteId) -> io::Result<SiteStats> {
        match self.request(site, ClientMsg::Stats)? {
            ClientReply::Stats {
                outstanding,
                committed,
                decode_errors,
                peers_up,
                peers_suspect,
                peers_down,
            } => Ok(SiteStats {
                outstanding,
                committed,
                decode_errors,
                peers_up,
                peers_suspect,
                peers_down,
            }),
            other => Err(io::Error::other(format!("unexpected stats reply: {other:?}"))),
        }
    }

    /// Every transaction committed anywhere in the cluster, merged
    /// across the per-process histories, as `(gid, reads, writes)`
    /// tuples. Primaries record their own commits, so concatenating the
    /// per-site fetches covers the cluster without duplicates. Each
    /// site's history is fetched a page at a time (a cursor over its
    /// commit order) until a page comes back empty, so its length is
    /// not bounded by the frame cap.
    pub fn history(&self) -> io::Result<Vec<HistoryTxn>> {
        let mut all = Vec::new();
        for i in 0..self.conns.len() {
            let mut from = 0u64;
            loop {
                match self.request(SiteId(i as u32), ClientMsg::History { from })? {
                    ClientReply::History(page) if page.is_empty() => break,
                    ClientReply::History(page) => {
                        from += page.len() as u64;
                        all.extend(page);
                    }
                    other => {
                        let what = format!("unexpected history reply: {other:?}");
                        return Err(io::Error::other(what));
                    }
                }
            }
        }
        Ok(all)
    }

    /// Serialized copy state of `site` (ascending items, values,
    /// writers) — byte-comparable against [`crate::Cluster::copy_state`].
    pub fn copy_state(&self, site: SiteId) -> io::Result<bytes::Bytes> {
        match self.request(site, ClientMsg::CopyState)? {
            ClientReply::State(bytes) => Ok(bytes),
            other => Err(io::Error::other(format!("unexpected state reply: {other:?}"))),
        }
    }

    /// Fault injection: make `site` drop its connections to and from
    /// `peer`, forcing a reconnect + resume + retransmission cycle.
    pub fn kill_conn(&self, site: SiteId, peer: SiteId) -> io::Result<()> {
        match self.request(site, ClientMsg::KillConn(peer))? {
            ClientReply::Ok => Ok(()),
            other => Err(io::Error::other(format!("kill_conn rejected: {other:?}"))),
        }
    }

    /// Block until every committed update has been applied at every
    /// destination replica, cluster-wide.
    ///
    /// Sound because clients block for commit replies: once every
    /// submitted transaction has returned, the per-process outstanding
    /// counters only ever decrease, and each read is an upper bound on
    /// the counter's later values — so a zero *sum* of sequential reads
    /// implies a zero cluster-wide count at the time of the last read.
    ///
    /// Returns [`ClusterError::QuiesceTimeout`] — with each stalled
    /// site's residual outstanding count — if propagation has not
    /// drained within the deployment deadline, so a chaos driver can
    /// report *where* a partition left undelivered updates instead of
    /// panicking the whole test process.
    pub fn quiesce(&self) -> Result<(), ClusterError> {
        let start = Instant::now();
        loop {
            let mut per_site = Vec::with_capacity(self.conns.len());
            let mut total = 0i64;
            for i in 0..self.conns.len() {
                let outstanding =
                    self.stats(SiteId(i as u32)).map(|s| s.outstanding).unwrap_or(i64::MAX / 2);
                total += outstanding;
                per_site.push((SiteId(i as u32), outstanding));
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

    /// Stop every process gracefully and reap them.
    pub fn shutdown(mut self) {
        for i in 0..self.conns.len() {
            let _ = self.request(SiteId(i as u32), ClientMsg::Shutdown);
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for ProcCluster {
    /// Abrupt teardown (the panic path): kill whatever `shutdown`
    /// didn't reap so a failing test never leaks site processes.
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn connect_retry(addr: &str) -> io::Result<TcpStream> {
    let start = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if start.elapsed() < CONNECT_WINDOW => {
                let _ = e;
                policy::pace(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
}
