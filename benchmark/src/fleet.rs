//! A live 3-process `repld` fleet: set-up, the harness's own watchdog
//! over it, and teardown that never leaks a child.

use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use repl_copygraph::DataPlacement;
use repl_core::deploy::ReactorKind;
use repl_net::{read_msg, write_msg, ClientMsg, ClientReply, WireMsg};
use repl_runtime::{LaunchOptions, ProcCluster, RuntimeProtocol};
use repl_types::{Op, SiteId};

use crate::procfs;

/// How long set-up may wait for the mesh before giving up.
const SETUP_DEADLINE: Duration = Duration::from_secs(10);

/// Fleets are told apart by diffing this process's `repld` children
/// around a launch, so launches must not overlap (tests run in threads).
static LAUNCH_LOCK: Mutex<()> = Mutex::new(());

/// `$REPLD_BIN`, else next to this executable (a shared
/// `CARGO_TARGET_DIR`), else the root workspace's release directory.
pub fn repld_bin() -> io::Result<PathBuf> {
    if let Ok(bin) = repl_runtime::repld_bin() {
        return Ok(bin);
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target/release/repld");
    if root.is_file() {
        return Ok(root);
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "repld not found: run `cargo build --release -p repl-runtime --bin repld` at the \
         repository root, or set REPLD_BIN",
    ))
}

/// A running fleet and the pids of its sites, indexed by site.
pub struct Fleet {
    pub cluster: ProcCluster,
    pub pids: Vec<u32>,
}

impl Fleet {
    /// Spawn the fleet and bring it to the point where it serves and
    /// propagates: every site reports all peers up, one update at
    /// `first_site` has been acknowledged and has reached every replica.
    /// Returns the fleet and how long that took.
    pub fn launch(
        placement: &DataPlacement,
        protocol: RuntimeProtocol,
        options: &LaunchOptions,
        first_site: SiteId,
    ) -> io::Result<(Fleet, Duration)> {
        let bin = repld_bin()?;
        let start = Instant::now();
        let guard = LAUNCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = procfs::repld_children();
        let cluster = ProcCluster::launch_with_options(&bin, placement, protocol, options)?;
        let mut new: Vec<(u32, u32)> =
            procfs::repld_children().into_iter().filter(|c| !before.contains(c)).collect();
        drop(guard);
        new.sort_by_key(|&(_, site)| site);
        let n = placement.num_sites() as usize;
        if new.len() != n || new.iter().enumerate().any(|(i, &(_, site))| site as usize != i) {
            return Err(io::Error::other(format!(
                "expected {n} new repld children, found {new:?}"
            )));
        }
        let fleet = Fleet { cluster, pids: new.into_iter().map(|(pid, _)| pid).collect() };
        fleet.pin_sites();

        let deadline = start + SETUP_DEADLINE;
        let peers = n as u32 - 1;
        for site in 0..n {
            while fleet.cluster.stats(SiteId(site as u32))?.peers_up != peers {
                if Instant::now() >= deadline {
                    return Err(io::Error::other(format!("site {site}: peers not up in time")));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        // The last primary is outside every heartbeat and is overwritten
        // by ordinary traffic later, so this write leaves no trace.
        let item = *placement.primaries_at(first_site).last().ok_or_else(|| {
            io::Error::other(format!("site {first_site} has no primary to write"))
        })?;
        fleet
            .cluster
            .execute(first_site, vec![Op::write(item, 0)])?
            .map_err(|e| io::Error::other(format!("first transaction refused: {e:?}")))?;
        loop {
            let mut outstanding = 0;
            for site in 0..n {
                outstanding += fleet.cluster.stats(SiteId(site as u32))?.outstanding;
            }
            if outstanding == 0 {
                break;
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other("first transaction did not propagate in time"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((fleet, start.elapsed()))
    }

    /// SIGKILL every site. Blocked control requests fail at once, and
    /// dropping the cluster afterwards reaps the children.
    pub fn kill(&self) {
        for pid in &self.pids {
            signal(*pid, "KILL");
        }
    }

    /// Spread the sites over the CPUs the harness does not use
    /// ([`CpuLayout`]): all on CPU 1 when `nproc` = 2.
    fn pin_sites(&self) {
        let others = cpus() - 1;
        if others == 0 {
            return;
        }
        for (site, pid) in self.pids.iter().enumerate() {
            taskset("-cp", &(1 + site % others).to_string(), *pid);
        }
    }

    /// Graceful stop; use [`Fleet::kill`] instead after a failed run.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }

    /// True while any site process still exists.
    pub fn any_alive(pids: &[u32]) -> bool {
        pids.iter().any(|pid| std::path::Path::new(&format!("/proc/{pid}/stat")).exists())
    }
}

/// `kill -<sig> <pid>`; the workspace has no libc binding to call.
pub fn signal(pid: u32, sig: &str) {
    let _ = Command::new("kill")
        .arg(format!("-{sig}"))
        .arg(pid.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// CPUs this process may use, counted once: after the harness pins
/// itself the same question would answer 1.
fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `taskset -cp` (`-acp`: every thread) `<cpus> <pid>`. Without
/// taskset(1) the run goes on unpinned, and noisier.
fn taskset(flag: &str, cpus: &str, pid: u32) {
    let done = Command::new("taskset")
        .args([flag, cpus, &pid.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    if !done.is_ok_and(|s| s.success()) {
        eprintln!("replbench: taskset {flag} {cpus} {pid} failed; expect unsteady numbers");
    }
}

/// The CPU layout of a run, for as long as this value lives: the
/// harness on CPU 0, the sites on the other CPUs ([`Fleet::launch`]),
/// and under an open loop an idle-priority busy loop on each of those.
///
/// Pinning: free to migrate, the scheduler moves five busy threads
/// between two CPUs from second to second, and throughput swings by a
/// factor of two within a run.
///
/// Busy loops: the guest has no cpuidle driver. An idle CPU halts, and
/// waking a halted virtual CPU is the hypervisor's business, which for
/// a minute at a time takes milliseconds. An open loop leaves the
/// sites' CPU idle between arrivals, so every request pays that, the
/// sender's `write` included, and whole runs come out with 10 ms
/// medians and a generator 3 ms late. With a `SCHED_IDLE` spinner the
/// CPU never halts, and a site that becomes runnable preempts the
/// spinner at once. A closed loop keeps the sites' CPU busy, and there
/// the spinner only sets the ten fleets of a run apart (README,
/// Findings 3).
pub struct CpuLayout {
    spinners: Vec<Child>,
}

impl CpuLayout {
    /// Needs taskset(1) and, to keep the CPUs awake, chrt(1); without
    /// them the run goes on, at the mercy of the host.
    pub fn claim(keep_awake: bool) -> CpuLayout {
        let mut spinners = Vec::new();
        if cpus() < 2 {
            return CpuLayout { spinners };
        }
        taskset("-acp", "0", std::process::id());
        let Some(exe) = std::env::current_exe().ok().filter(|_| keep_awake) else {
            return CpuLayout { spinners };
        };
        for cpu in 1..cpus() {
            // The spinner exits when its stdin closes, so it cannot
            // outlive this process even if this process is killed.
            let child = Command::new("chrt")
                .args(["-i", "0", "taskset", "-c", &cpu.to_string()])
                .arg(&exe)
                .arg("idle-spin")
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .spawn();
            match child {
                Ok(child) => spinners.push(child),
                Err(e) => eprintln!("replbench: no idle spinner on CPU {cpu} ({e}); expect stalls"),
            }
        }
        CpuLayout { spinners }
    }
}

impl Drop for CpuLayout {
    fn drop(&mut self) {
        for child in &mut self.spinners {
            let _ = child.kill();
            let _ = child.wait();
        }
        if cpus() >= 2 {
            taskset("-acp", &format!("0-{}", cpus() - 1), std::process::id());
        }
    }
}

/// Body of the `idle-spin` subcommand: spin until stdin closes.
pub fn idle_spin() -> ! {
    std::thread::spawn(|| {
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        std::process::exit(0);
    });
    loop {
        std::hint::spin_loop();
    }
}

/// Default-option launch flags for the pinned set: epoll reactor and
/// nothing else switched on.
pub fn default_options() -> LaunchOptions {
    LaunchOptions { reactor: ReactorKind::Epoll, ..LaunchOptions::default() }
}

/// The harness's own control connections, with I/O timeouts: unlike
/// `ProcCluster`'s, a request to a wedged site returns an error instead
/// of blocking for ever.
pub struct Control {
    conns: Vec<TcpStream>,
}

impl Control {
    pub fn connect(addrs: &[String], timeout: Duration) -> io::Result<Control> {
        let mut conns = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
            conns.push(stream);
        }
        Ok(Control { conns })
    }

    /// Replica applications `site` still counts as outstanding.
    pub fn outstanding(&mut self, site: usize) -> io::Result<i64> {
        let conn = &mut self.conns[site];
        write_msg(conn, &WireMsg::Client(ClientMsg::Stats))?;
        match read_msg(conn) {
            Ok(WireMsg::Reply(ClientReply::Stats { outstanding, .. })) => Ok(outstanding),
            Ok(other) => Err(io::Error::other(format!("unexpected stats reply: {other:?}"))),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }

    /// Poll `stats` until no replica application is outstanding anywhere.
    /// Returns how long that took, or why the fleet must be killed.
    pub fn drain(&mut self, deadline: Duration) -> Result<Duration, String> {
        let start = Instant::now();
        loop {
            let mut per_site = Vec::with_capacity(self.conns.len());
            for site in 0..self.conns.len() {
                match self.outstanding(site) {
                    Ok(n) => per_site.push(n),
                    Err(e) => return Err(format!("site {site} does not answer stats: {e}")),
                }
            }
            if per_site.iter().sum::<i64>() == 0 {
                return Ok(start.elapsed());
            }
            if start.elapsed() >= deadline {
                return Err(format!(
                    "propagation not drained after {:.1} s; outstanding per site {per_site:?}",
                    deadline.as_secs_f64()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
