//! Process-per-site deployment: launch and drive a cluster of `repld`
//! OS processes over loopback TCP. Its sites are reached through the
//! same client sessions as [`crate::Cluster`]'s, so tests run the same
//! workload against both deployments and compare final copy state
//! byte-for-byte.
//!
//! Port races are avoided by construction: every child binds
//! `127.0.0.1:0`, prints its actual listen address on stdout (the
//! launcher contract of `repld`), and only then does the launcher push
//! the complete address map to every process via
//! [`repl_net::ClientMsg::Peers`] — at which point the dialers bring
//! the full mesh up.

use std::io::{self, BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use repl_copygraph::DataPlacement;
use repl_core::deploy::ReactorKind;
use repl_net::{ClientMsg, ExecError, HistoryTxn};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId, Value};

use crate::cluster::RuntimeProtocol;
use crate::config::{self, Launch};
use crate::handle::{Session, SiteStats};
use crate::ServeConfig;

/// Launch-time knobs beyond the placement and protocol, handed to each
/// `repld` child as the flags of its settings table (`crate::config`).
/// [`Default`] matches [`ProcCluster::launch`] exactly (no nemesis,
/// built-in timeouts).
#[derive(Clone, Debug, Default)]
pub struct LaunchOptions {
    /// I/O driver for every child. One value: the field stays only because
    /// `benchmark/` sets it.
    pub reactor: ReactorKind,
    /// Nemesis fault plan in `NetFaultPlan::to_spec` form, for every child.
    pub nemesis: Option<String>,
    /// Override for the eager-phase abort deadline in milliseconds.
    pub eager_timeout_ms: Option<u64>,
    /// Override for the per-link outbox high-water mark.
    pub outbox_high_water: Option<u64>,
    /// Serve all-read transactions from lock-free MVCC snapshots.
    pub mvcc: bool,
    /// Group-commit batch size: update commits per WAL flush.
    pub group_commit: Option<u64>,
    /// Removed from `repld`: anything but `None` or `Some(1)` fails the
    /// launch with `InvalidInput`. It and `apply_pool` stay only because
    /// `benchmark/` sets them; they go with the benchmark's own flags.
    pub link_batch: Option<u64>,
    /// Removed from `repld`; see [`LaunchOptions::link_batch`].
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
    sessions: Vec<Session>,
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
    /// `InvalidInput`, before any child is spawned, when the arguments
    /// `options` turns into are refused (a removed batching knob, an
    /// outbox high water or eager timeout of 0, a malformed nemesis).
    pub fn launch_with_options(
        bin: &std::path::Path,
        placement: &DataPlacement,
        protocol: RuntimeProtocol,
        options: &LaunchOptions,
    ) -> io::Result<Self> {
        let n = placement.num_sites() as usize;
        let spec = placement.to_spec();
        let args =
            |site| config::launch_args(&Launch { site, protocol, placement: &spec, options });
        // Refused here, by the table every child parses its arguments
        // through, rather than by children exiting 2.
        ServeConfig::from_args(args(SiteId(0)))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let mut cluster = ProcCluster {
            children: Vec::with_capacity(n),
            sessions: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
            placement: placement.clone(),
        };
        for site in placement.sites() {
            let mut child = Command::new(bin).args(args(site)).stdout(Stdio::piped()).spawn()?;
            #[expect(clippy::expect_used, reason = "stdout is piped one line up")]
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
            cluster.sessions.push(Session::connect(addr)?);
        }
        let peers: Vec<(SiteId, String)> =
            cluster.addrs.iter().enumerate().map(|(i, a)| (SiteId(i as u32), a.clone())).collect();
        for session in &cluster.sessions {
            session.expect_ok(ClientMsg::Peers(peers.clone()))?;
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

    /// The client session to each site, indexed by site.
    pub(crate) fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    fn session(&self, site: SiteId) -> io::Result<&Session> {
        self.sessions
            .get(site.index())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no such site"))
    }

    /// Execute a transaction at `site`, blocking until it commits there.
    pub fn execute(
        &self,
        site: SiteId,
        ops: Vec<Op>,
    ) -> io::Result<Result<GlobalTxnId, ExecError>> {
        self.session(site)?.execute(ops)
    }

    /// Non-transactional read of one copy.
    pub fn peek(&self, site: SiteId, item: ItemId) -> Option<(Value, Option<GlobalTxnId>)> {
        self.session(site).ok()?.peek(item)
    }

    /// The counters of one site process ([`SiteStats`]).
    pub fn stats(&self, site: SiteId) -> io::Result<SiteStats> {
        self.session(site)?.stats()
    }

    /// Every transaction committed anywhere in the cluster, merged
    /// across the per-process histories, as `(gid, reads, writes)`
    /// tuples. Primaries record their own commits, so concatenating the
    /// per-site fetches covers the cluster without duplicates.
    pub fn history(&self) -> io::Result<Vec<HistoryTxn>> {
        let per_site: io::Result<Vec<_>> = self.sessions.iter().map(Session::history).collect();
        Ok(per_site?.concat())
    }

    /// Serialized copy state of `site` (ascending items, values,
    /// writers) — byte-comparable against [`crate::Cluster::copy_state`].
    pub fn copy_state(&self, site: SiteId) -> io::Result<bytes::Bytes> {
        self.session(site)?.copy_state()
    }

    /// Stop every process gracefully and reap them.
    pub fn shutdown(mut self) {
        for session in &self.sessions {
            let _ = session.expect_ok(ClientMsg::Shutdown);
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
