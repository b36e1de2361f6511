//! One run of one workload: set-up, load, sampling, watchdog, the
//! correctness pass, and the arithmetic that turns what was observed
//! into the declared metrics.
//!
//! Everything is measured from outside the program: client-side
//! timestamps, the control protocol (`Peek`, `Stats`), `/proc`, and
//! timed calls into the crates' public functions ([`crate::probes`]).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use repl_copygraph::DataPlacement;
use repl_runtime::{Cluster, LaunchOptions, ProcCluster};
use repl_types::{ItemId, SiteId};

use crate::check::correctness_pass;
use crate::fleet::{Control, CpuLayout, Fleet};
use crate::gen::{heartbeat_item, Rng, TxnGen};
use crate::load::{now_ns, run_load, Limit, LoadResult, Phase, Sample, SpanRow};
use crate::procfs::{self, ProcSnap};
use crate::spec::{self, farthest_replica, Pacing, Workload, LOAD_CONNS};
use crate::stats::{median, percentile, sort, supported_percentile};
use crate::trace;

/// Everything one invocation needs to know.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub wl: Workload,
    pub seed: u64,
    /// Measured seconds in all: shared equally among the fleets of an
    /// untraced run; with tracing on, one fleet runs the first half
    /// untraced and records spans in the second.
    pub secs: f64,
    /// Warm-up of every fleet before its window.
    pub warmup_secs: f64,
    pub trace: bool,
    pub options: LaunchOptions,
    /// How long replies and propagation may take after the last request
    /// before the watchdog kills the fleet.
    pub drain_deadline: Duration,
    /// Fresh fleets an untraced run measures in turn; every end-to-end
    /// metric, `setup_s` too, is the median over them.
    pub fleets: usize,
    /// Requests of the correctness pass; 0 skips it.
    pub check_txns: u64,
    /// Where the trace dump goes; `None` writes none.
    pub results_dir: Option<PathBuf>,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Observations behind the value.
    pub samples: u64,
}

impl Metric {
    /// `name` with the unit `spec` declares for it.
    pub fn declared(name: &str, value: f64, samples: u64) -> Metric {
        let unit = spec::units().iter().find(|(n, _)| n == name).map_or("", |(_, unit)| unit);
        Metric { name: name.to_string(), unit, value, samples }
    }
}

/// What one invocation reports.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness pass green and no watchdog kill.
    pub correct: bool,
    pub reason: Option<String>,
}

/// One lag probe: a `Peek` of a heartbeat item at its farthest replica.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    pub send_ns: u64,
    pub reply_ns: u64,
    pub conn: u8,
    /// The heartbeat value read; 0 before the first write arrived.
    pub value: u64,
}

/// One 10 Hz reading of the fleet's `Stats`.
#[derive(Clone, Copy, Debug)]
pub struct GaugeSample {
    pub t_ns: u64,
    /// Σ `outstanding` over sites: replica applications still owed.
    pub backlog: i64,
    /// Σ peers classified Suspect or Down.
    pub unhealthy_peers: u32,
}

/// `/proc` readings of every site at a phase change.
#[derive(Clone, Debug)]
pub struct Edge {
    /// The phase that begins here.
    pub phase: Phase,
    pub t_ns: u64,
    pub sites: Vec<ProcSnap>,
}

#[derive(Debug, Default)]
pub struct SamplerOut {
    pub probes: Vec<Probe>,
    pub gauges: Vec<GaugeSample>,
    pub edges: Vec<Edge>,
}

/// The sampler thread: jittered ~1 kHz lag probes over `ProcCluster`'s
/// control connections, `Stats` gauges at 10 Hz when `gauges` is set,
/// and a `/proc` snapshot whenever the load thread changes phase.
fn sample(
    cluster: &ProcCluster,
    pids: &[u32],
    targets: &[(u8, SiteId, ItemId)],
    phase_flag: &AtomicU8,
    epoch: Instant,
    seed: u64,
    gauges: bool,
) -> SamplerOut {
    let mut out = SamplerOut::default();
    let mut rng = Rng::new(seed ^ 0x5A4D_504C_4552);
    let mut last_phase = Phase::Idle;
    let mut next_gauge = 0u64;
    let mut turn = 0usize;
    loop {
        let phase = Phase::from_u8(phase_flag.load(Ordering::SeqCst));
        let now = now_ns(epoch);
        if phase != last_phase {
            let sites = pids.iter().map(|p| procfs::snapshot(*p).unwrap_or_default()).collect();
            out.edges.push(Edge { phase, t_ns: now, sites });
            last_phase = phase;
        }
        if phase == Phase::Done {
            return out;
        }
        let loaded = matches!(phase, Phase::Warmup | Phase::Window | Phase::Traced);
        if loaded && !targets.is_empty() {
            let (conn, site, item) = targets[turn % targets.len()];
            turn += 1;
            let send_ns = now_ns(epoch);
            let value = cluster.peek(site, item).and_then(|(v, _)| v.as_int()).unwrap_or(0);
            out.probes.push(Probe { send_ns, reply_ns: now_ns(epoch), conn, value: value as u64 });
        }
        if gauges && phase != Phase::Idle && now >= next_gauge {
            next_gauge = now + 100_000_000;
            let mut sample = GaugeSample { t_ns: now, backlog: 0, unhealthy_peers: 0 };
            for site in 0..pids.len() {
                if let Ok(s) = cluster.stats(SiteId(site as u32)) {
                    sample.backlog += s.outstanding;
                    sample.unhealthy_peers += s.peers_suspect + s.peers_down;
                }
            }
            out.gauges.push(sample);
        }
        // Probe instants must not lock onto the paced workloads' 1 ms
        // grid: sleep 0.5–1.5 ms, uniformly.
        std::thread::sleep(Duration::from_micros(500 + rng.below(1000)));
    }
}

/// How old the value a probe read was, in µs: probe-reply time minus
/// the time the client saw that value's commit reply, clamped at 0.
/// `None` before the first heartbeat arrived. This includes, on top of
/// propagation, half the gap between the connection's updates, so it is
/// reported per layer (`client.stale_age_p50_us`) and not end to end.
fn stale_age_us(p: &Probe, commit_at: &[Vec<u64>]) -> Option<f64> {
    if p.value == 0 {
        return None;
    }
    // A value whose reply the client has not seen yet is ahead of the
    // client: age 0.
    let at = commit_at[p.conn as usize].get(p.value as usize - 1).copied().unwrap_or(0);
    Some(if at == 0 { 0.0 } else { p.reply_ns.saturating_sub(at) as f64 / 1000.0 })
}

/// Resolution and reach of the lag estimate.
const LAG_BIN_NS: u64 = 1_000;
const LAG_BINS: usize = 100_000;

/// Replication lag: the delay from a heartbeat write's submit (or due)
/// time after which a share `q` of probes find it visible at the
/// farthest replica, in µs, for each `q` in `qs`; and the number of
/// probes used.
///
/// A probe does not say *when* a write became visible, only whether it
/// was at the instant of the probe. So each probe is a yes/no
/// observation per recent write `c` of its connection: at delay `x` =
/// probe instant − submit time of `c`, had the replica caught up to `c`
/// (value read ≥ `c`)? The share of "yes" rises with `x`; the delay at
/// which it crosses `q` is where the running sum of (yes − `q`) over
/// observations ordered by `x` is lowest. Delays are binned to 1 µs and
/// followed for 100 ms.
pub fn lag_us<'a>(
    probes: impl Iterator<Item = &'a Probe>,
    submit_at: &[Vec<u64>],
    qs: &[f64],
) -> (Vec<f64>, u64) {
    let mut yes = vec![0u32; LAG_BINS];
    let mut all = vec![0u32; LAG_BINS];
    let mut used = 0u64;
    for p in probes {
        let at = &submit_at[p.conn as usize];
        let instant = p.send_ns + (p.reply_ns - p.send_ns) / 2;
        let submitted = at.partition_point(|s| *s <= instant);
        for c in (0..submitted).rev() {
            let bin = ((instant - at[c]) / LAG_BIN_NS) as usize;
            if bin >= LAG_BINS {
                break;
            }
            all[bin] += 1;
            yes[bin] += u32::from((c as u64) < p.value);
        }
        used += 1;
    }
    let delays = qs
        .iter()
        .map(|q| {
            let (mut sum, mut lowest, mut at_bin) = (0.0f64, 0.0f64, 0usize);
            for bin in 0..LAG_BINS {
                sum += f64::from(yes[bin]) - q * f64::from(all[bin]);
                if sum < lowest {
                    (lowest, at_bin) = (sum, bin + 1);
                }
            }
            (at_bin as u64 * LAG_BIN_NS) as f64 / 1000.0
        })
        .collect();
    (delays, used)
}

/// Throughput, commit latency, lag and generator lateness over one
/// window of one fleet.
#[derive(Debug, Default, PartialEq)]
pub struct WindowStats {
    pub tps: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub lag_p50_us: f64,
    /// How late the generator began the median request.
    pub late_p50_us: f64,
    pub commits: u64,
    pub lag_probes: u64,
}

pub fn window_stats(
    samples: &[Sample],
    probes: &[Probe],
    submit_at: &[Vec<u64>],
    (start, end): (u64, u64),
) -> WindowStats {
    let inside = |t: u64| t >= start && t < end;
    let done = || samples.iter().filter(|s| s.ok && inside(s.done_ns));
    let mut latency: Vec<f64> = done().map(|s| (s.done_ns - s.start_ns) as f64 / 1000.0).collect();
    sort(&mut latency);
    let mut late: Vec<f64> = done().map(|s| s.late_ns as f64 / 1000.0).collect();
    sort(&mut late);
    let (lag, lag_probes) = lag_us(probes.iter().filter(|p| inside(p.reply_ns)), submit_at, &[0.5]);
    WindowStats {
        tps: latency.len() as f64 / ((end - start).max(1) as f64 / 1e9),
        p50_us: percentile(&latency, 0.5),
        p90_us: percentile(&latency, 0.9),
        lag_p50_us: lag[0],
        late_p50_us: percentile(&late, 0.5),
        commits: latency.len() as u64,
        lag_probes,
    }
}

/// Which heartbeat items the sampler probes, and where: every load
/// connection whose heartbeat item is replicated, at its farthest
/// replica.
fn probe_targets(wl: &Workload, placement: &DataPlacement) -> Vec<(u8, SiteId, ItemId)> {
    let mut targets = Vec::new();
    for (conn, &site) in wl.conn_sites.iter().enumerate() {
        let item = heartbeat_item(placement, SiteId(site), conn);
        if let Some(at) = farthest_replica(placement, item) {
            targets.push((conn as u8, at, item));
        }
    }
    targets
}

/// `Peek` round trip on an idle fleet, in µs: the floor under every
/// commit latency.
fn rtt_floor_us(cluster: &ProcCluster, at: SiteId, item: ItemId) -> (f64, u64) {
    const PEEKS: usize = 2000;
    let mut rtt = Vec::with_capacity(PEEKS);
    for _ in 0..PEEKS {
        let start = Instant::now();
        cluster.peek(at, item);
        rtt.push(start.elapsed().as_nanos() as f64 / 1000.0);
    }
    (median(&rtt), PEEKS as u64)
}

/// The same request streams through the in-process channel `Cluster`:
/// no TCP, no reactor. Closed loop, one thread per connection.
fn chan_run(wl: &Workload, seed: u64) -> Result<(f64, f64, u64), String> {
    const TXNS_PER_CONN: usize = 10_000;
    let placement = wl.placement.build();
    let cluster =
        Cluster::start(&placement, wl.protocol).map_err(|e| format!("chan cluster: {e}"))?;
    let start = Instant::now();
    let latencies: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = wl
            .conn_sites
            .iter()
            .enumerate()
            .map(|(conn, &site)| {
                let client = cluster.client(SiteId(site));
                let mut gen =
                    TxnGen::new(seed, &placement, SiteId(site), conn, wl.read_only_permille);
                scope.spawn(move || {
                    let client = client.map_err(|e| e.to_string())?;
                    let mut us = Vec::with_capacity(TXNS_PER_CONN);
                    for _ in 0..TXNS_PER_CONN {
                        let ops = gen.next_txn().ops;
                        let t = Instant::now();
                        client.execute(ops).map_err(|e| e.to_string())?;
                        us.push(t.elapsed().as_nanos() as f64 / 1000.0);
                    }
                    Ok(us)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("chan client panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    cluster.quiesce();
    cluster.shutdown();
    let mut all = Vec::new();
    for l in latencies {
        all.extend(l?);
    }
    sort(&mut all);
    Ok((percentile(&all, 0.5), all.len() as f64 / elapsed, all.len() as u64))
}

/// What one fleet showed under load.
struct Observed {
    load: LoadResult,
    sampled: SamplerOut,
    /// How long propagation took to drain after the last reply, or why
    /// the watchdog killed the fleet.
    drained: Result<Duration, String>,
}

impl Observed {
    /// `/proc` readings bracketing the phases `first..=last`: the edge
    /// that begins `first` and the one that ends `last` (whichever phase
    /// the sampler saw next: a short drain can pass between two polls).
    fn bracket(&self, first: Phase, last: Phase) -> Option<(&Edge, &Edge)> {
        let edges = &self.sampled.edges;
        let from = edges.iter().position(|e| e.phase == first)?;
        let to = edges.iter().position(|e| e.phase == last)? + 1;
        Some((&edges[from], edges.get(to)?))
    }
}

/// Load `fleet` through `phases` on this thread while one more thread
/// samples it (≤ `nproc` = 2 threads), then wait for propagation to
/// drain. This is the watchdog: replies or propagation that outlast
/// `cfg.drain_deadline` get the fleet killed, never waited for.
fn observe(
    fleet: &Fleet,
    cfg: &RunConfig,
    placement: &DataPlacement,
    targets: &[(u8, SiteId, ItemId)],
    phases: &[(Phase, Limit)],
) -> Result<Observed, String> {
    let wl = &cfg.wl;
    let addrs = fleet.cluster.addrs().to_vec();
    let epoch = Instant::now();
    let phase_flag = AtomicU8::new(Phase::Idle as u8);
    let mut control = Control::connect(&addrs, cfg.drain_deadline)
        .map_err(|e| format!("control connections: {e}"))?;
    Ok(std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            sample(&fleet.cluster, &fleet.pids, targets, &phase_flag, epoch, cfg.seed, cfg.trace)
        });
        let load = run_load(
            &addrs,
            placement,
            wl,
            cfg.seed,
            phases,
            epoch,
            &phase_flag,
            cfg.drain_deadline,
        );
        let drained = match &load {
            Ok(l) if l.unanswered == 0 => control.drain(cfg.drain_deadline),
            Ok(l) => Err(format!(
                "{} requests unanswered {:.1} s after the last was sent",
                l.unanswered,
                cfg.drain_deadline.as_secs_f64()
            )),
            Err(e) => Err(format!("load connection failed: {e}")),
        };
        if drained.is_err() {
            // A wedged site also blocks the sampler's control request,
            // and only the site's death unblocks it.
            fleet.kill();
        }
        phase_flag.store(Phase::Done as u8, Ordering::SeqCst);
        let sampled = sampler.join().expect("sampler panicked");
        Observed { load: load.unwrap_or_default(), sampled, drained }
    }))
}

/// Stop `fleet` (gracefully after a good run) and make sure no site
/// process outlives it.
fn teardown(fleet: Fleet, good: bool) -> Result<(), String> {
    let pids = fleet.pids.clone();
    if good {
        fleet.shutdown();
    } else {
        drop(fleet);
    }
    if Fleet::any_alive(&pids) {
        return Err(format!("repld children {pids:?} survived teardown"));
    }
    Ok(())
}

/// An open-loop run whose generator began the median request later
/// than this did not offer the load it claims.
const MAX_GEN_LATE_P50_US: f64 = 100.0;
/// An open-loop run must commit the rate it offers to within this share.
const MAX_RATE_ERROR: f64 = 0.01;

/// Why the numbers of an open-loop run do not describe the load the
/// workload names; `None` for a closed loop.
fn open_loop_complaint(wl: &Workload, tps: f64, late_p50_us: f64) -> Option<String> {
    let Pacing::Open { rate } = wl.pacing else { return None };
    let offered = f64::from(rate) * LOAD_CONNS as f64;
    if late_p50_us > MAX_GEN_LATE_P50_US {
        return Some(format!(
            "open loop invalid: the generator ran {late_p50_us:.0} us late at the median"
        ));
    }
    ((tps - offered).abs() > MAX_RATE_ERROR * offered)
        .then(|| format!("open loop invalid: {tps:.1} txn/s committed, {offered} offered"))
}

/// What one fleet contributes to an untraced run.
struct FleetStats {
    setup_s: f64,
    window: WindowStats,
    cpu_us_per_txn: f64,
    hwm_mb: f64,
}

/// Run one workload once. `Err` is an infrastructure failure (no
/// `repld`, no fleet); a failed *run* comes back as `Ok` with
/// `correct == false` and a reason.
///
/// An untraced run measures `cfg.fleets` fresh fleets in turn, each
/// for an equal share of `cfg.secs` after its own warm-up, and reports
/// the median over fleets. What differs between two fleets on the same
/// commit — where the sites' timers stand against each other, how the
/// processes were laid out — shifts a whole fleet's numbers by ±10 %
/// and does not average out inside one fleet's window, however long.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let wl = &cfg.wl;
    let placement = wl.placement.build();
    let first_site = SiteId(wl.conn_sites[0]);
    let targets = probe_targets(wl, &placement);
    let layout = CpuLayout::claim(matches!(wl.pacing, Pacing::Open { .. }));

    let fleets = if cfg.trace { 1 } else { cfg.fleets.max(1) };
    let warmup = (Phase::Warmup, Limit::Time(Duration::from_secs_f64(cfg.warmup_secs)));
    let share = Duration::from_secs_f64(cfg.secs / if cfg.trace { 2.0 } else { fleets as f64 });
    let mut phases = vec![warmup, (Phase::Window, Limit::Time(share))];
    if cfg.trace {
        phases.push((Phase::Traced, Limit::Time(share)));
    }

    let mut out = RunOutput { correct: true, ..Default::default() };
    let mut per_fleet: Vec<FleetStats> = Vec::new();
    let mut traced_fleet = None;
    for _ in 0..fleets {
        let (fleet, setup) = Fleet::launch(&placement, wl.protocol, &cfg.options, first_site)
            .map_err(|e| format!("fleet set-up: {e}"))?;
        let rtt_floor = match (cfg.trace, targets.first()) {
            (true, Some(&(_, at, item))) => rtt_floor_us(&fleet.cluster, at, item),
            _ => (0.0, 0),
        };
        let seen = observe(&fleet, cfg, &placement, &targets, &phases)?;
        teardown(fleet, seen.drained.is_ok())?;

        let bounds = seen.load.bounds_of(Phase::Window).unwrap_or((0, 1));
        let measured_from = bounds.0;
        let sent = seen.load.submitted.iter().filter(|s| **s >= measured_from).count() as u64;
        out.attempted += sent;
        match &seen.drained {
            Ok(_) => {
                let refused = |s: &&Sample| !s.ok && s.start_ns >= measured_from;
                out.failed += seen.load.samples.iter().filter(refused).count() as u64;
            }
            Err(reason) => {
                // Every operation of a watchdog-killed fleet counts as failed.
                out.failed += sent.max(1);
                out.correct = false;
                out.reason = Some(format!("watchdog: {reason}"));
            }
        }
        let window =
            window_stats(&seen.load.samples, &seen.sampled.probes, &seen.load.submit_at, bounds);
        let (cpu_us, hwm_kb) = match seen.bracket(Phase::Window, Phase::Window) {
            Some((a, b)) => (
                a.sites.iter().zip(&b.sites).map(|(x, y)| y.cpu_us - x.cpu_us).sum(),
                b.sites.iter().map(|s| s.hwm_kb).max().unwrap_or(0),
            ),
            None => (0.0, 0),
        };
        per_fleet.push(FleetStats {
            setup_s: setup.as_secs_f64(),
            cpu_us_per_txn: cpu_us / window.commits.max(1) as f64,
            hwm_mb: hwm_kb as f64 / 1024.0,
            window,
        });
        if cfg.trace {
            traced_fleet = Some((seen, rtt_floor));
        }
        if !out.correct {
            break;
        }
    }
    out.attempted = out.attempted.max(1);

    // Peak memory after the check pass's fixed work; after the windows'
    // variable work only when there is no check pass.
    let mut checked_hwm_kb = None;
    if cfg.check_txns > 0 && out.correct {
        match correctness_pass(wl, &cfg.options, cfg.seed, cfg.check_txns, cfg.drain_deadline) {
            Ok(report) => {
                out.attempted += report.attempted;
                out.failed += report.failed;
                checked_hwm_kb = Some(report.hwm_kb);
            }
            Err(reason) => {
                out.correct = false;
                out.attempted += cfg.check_txns;
                out.failed += cfg.check_txns;
                out.reason = Some(reason);
            }
        }
    }

    // Every number of the issue's end-to-end list, as the median over
    // the fleets measured (one, in a traced run).
    let med = |f: &dyn Fn(&FleetStats) -> f64| median(&per_fleet.iter().map(f).collect::<Vec<_>>());
    let tps = med(&|f| f.window.tps);
    if out.correct {
        if let Some(complaint) = open_loop_complaint(wl, tps, med(&|f| f.window.late_p50_us)) {
            out.correct = false;
            out.reason = Some(complaint);
        }
    }
    let commits: u64 = per_fleet.iter().map(|f| f.window.commits).sum();
    let lag_probes: u64 = per_fleet.iter().map(|f| f.window.lag_probes).sum();
    let failed_share = out.failed as f64 / out.attempted as f64;

    let mut add = |name: &str, value: f64, samples: u64| {
        out.metrics.push(Metric::declared(name, value, samples));
    };
    if !cfg.trace {
        add("setup_s", med(&|f| f.setup_s), per_fleet.len() as u64);
        match checked_hwm_kb {
            Some(kb) => add("rss_peak_mb", kb as f64 / 1024.0, cfg.check_txns),
            None => add("rss_peak_mb", med(&|f| f.hwm_mb), per_fleet.len() as u64),
        }
        add("committed_share", 1.0 - failed_share, out.attempted);
    }
    add("throughput_tps", tps, commits);
    add("commit_p50_us", med(&|f| f.window.p50_us), commits);
    add("commit_p90_us", med(&|f| f.window.p90_us), commits);
    add("lag_p50_us", med(&|f| f.window.lag_p50_us), lag_probes);
    add("cpu_us_per_txn", med(&|f| f.cpu_us_per_txn), commits);
    let Some((seen, rtt_floor)) = traced_fleet else {
        return Ok(out);
    };

    // ---- Traced run: the rest of the per-layer list, off its one fleet. ----
    let stats = &per_fleet[0].window;
    add("failed_share", failed_share, out.attempted);
    let (load, sampled) = (&seen.load, &seen.sampled);
    let window = load.bounds_of(Phase::Window).unwrap_or((0, 1));
    let traced = load.bounds_of(Phase::Traced).unwrap_or((0, 1));
    let traced_stats = window_stats(&load.samples, &sampled.probes, &load.submit_at, traced);
    let measured = (window.0, traced.1);
    let in_measured = |t: u64| t >= measured.0 && t < measured.1;

    // client.* — the harness's own spans and tails.
    let span_median = |f: &dyn Fn(&SpanRow) -> u64| {
        let v: Vec<f64> = load.spans.iter().map(|s| f(s) as f64).collect();
        median(&v)
    };
    let spans = load.spans.len() as u64;
    add("client.encode_ns", span_median(&|s| s.enc1 - s.enc0), spans);
    add("client.write_ns", span_median(&|s| s.write1 - s.enc1), spans);
    add("client.wait_us", span_median(&|s| s.read0.saturating_sub(s.write1)) / 1000.0, spans);
    add("client.decode_ns", span_median(&|s| s.dec1 - s.read0), spans);

    let done: Vec<&Sample> =
        load.samples.iter().filter(|s| s.ok && in_measured(s.done_ns)).collect();
    let latency_us = |pick: &dyn Fn(&Sample) -> bool| {
        let mut v: Vec<f64> = done
            .iter()
            .filter(|s| pick(s))
            .map(|s| (s.done_ns - s.start_ns) as f64 / 1000.0)
            .collect();
        sort(&mut v);
        v
    };
    let all = latency_us(&|_| true);
    let reads = latency_us(&|s| !s.update);
    let updates = latency_us(&|s| s.update);
    // Tails are read at the asked quantile only when ten samples lie
    // beyond it; otherwise at the highest quantile that has them.
    add("client.commit_p99_us", supported_percentile(&all, 0.99).0, all.len() as u64);
    add("client.commit_p999_us", supported_percentile(&all, 0.999).0, all.len() as u64);
    add("client.read_txn_p50_us", percentile(&reads, 0.5), reads.len() as u64);
    add("client.update_txn_p50_us", percentile(&updates, 0.5), updates.len() as u64);

    let measured_probes: Vec<&Probe> =
        sampled.probes.iter().filter(|p| in_measured(p.reply_ns)).collect();
    let mut age: Vec<f64> =
        measured_probes.iter().filter_map(|p| stale_age_us(p, &load.commit_at)).collect();
    sort(&mut age);
    let (lag_tail, lag_n) = lag_us(measured_probes.iter().copied(), &load.submit_at, &[0.9, 0.99]);
    let mut rtt: Vec<f64> =
        measured_probes.iter().map(|p| (p.reply_ns - p.send_ns) as f64 / 1000.0).collect();
    sort(&mut rtt);
    add("client.lag_p90_us", lag_tail[0], lag_n);
    add("client.lag_p99_us", lag_tail[1], lag_n);
    add("client.stale_age_p50_us", percentile(&age, 0.5), age.len() as u64);
    add("client.probe_rtt_p50_us", percentile(&rtt, 0.5), rtt.len() as u64);

    let mut late: Vec<f64> = done.iter().map(|s| s.late_ns as f64 / 1000.0).collect();
    sort(&mut late);
    add("client.gen_late_p50_us", percentile(&late, 0.5), late.len() as u64);
    add("client.gen_late_p99_us", supported_percentile(&late, 0.99).0, late.len() as u64);
    let overhead = if stats.p50_us > 0.0 {
        (traced_stats.p50_us - stats.p50_us) / stats.p50_us * 100.0
    } else {
        0.0
    };
    add("trace.overhead_pct", overhead, traced_stats.commits);

    // runtime.* — per-site /proc deltas over both measured halves.
    let commits = done.len().max(1) as f64;
    let edges = seen.bracket(Phase::Window, Phase::Traced);
    for site in 0..placement.num_sites() as usize {
        let (a, b) = edges.map_or_else(Default::default, |(a, b)| (a.sites[site], b.sites[site]));
        let cpu = (b.cpu_us - a.cpu_us) / commits;
        if site == 0 {
            let grown = (b.rss_kb as f64 - a.rss_kb as f64) * 1024.0;
            add("runtime.rss_bytes_per_txn.s0", grown / commits, done.len() as u64);
        }
        add(&format!("runtime.cpu_us_per_txn.s{site}"), cpu, done.len() as u64);
        let wakeups = b.voluntary_switches.saturating_sub(a.voluntary_switches) as f64;
        add(&format!("runtime.wakeups_per_txn.s{site}"), wakeups / commits, done.len() as u64);
        add(&format!("runtime.rss_mb.s{site}"), b.rss_kb as f64 / 1024.0, 1);
    }
    let gauges: Vec<&GaugeSample> = sampled.gauges.iter().filter(|g| in_measured(g.t_ns)).collect();
    // The three sites are read one after the other, so the sum of a
    // draining fleet can come out below zero.
    let backlog: Vec<f64> = gauges.iter().map(|g| g.backlog.max(0) as f64).collect();
    let n_gauges = gauges.len() as u64;
    add(
        "runtime.backlog_mean",
        backlog.iter().sum::<f64>() / backlog.len().max(1) as f64,
        n_gauges,
    );
    add("runtime.backlog_max", backlog.iter().copied().fold(0.0, f64::max), n_gauges);
    let drain_ms = seen.drained.as_ref().map_or(0.0, |d| d.as_secs_f64() * 1000.0);
    add("runtime.drain_ms", drain_ms, 1);
    let unhealthy = gauges.iter().filter(|g| g.unhealthy_peers > 0).count();
    add("runtime.peer_unhealthy_samples", unhealthy as f64, n_gauges);
    add("runtime.rtt_floor_us", rtt_floor.0, rtt_floor.1);
    // The channel cluster's five threads get the whole machine.
    drop(layout);
    let (chan_p50, chan_tps, chan_n) = chan_run(wl, cfg.seed)?;
    add("runtime.chan_commit_p50_us", chan_p50, chan_n);
    add("runtime.chan_tps", chan_tps, chan_n);

    if let Some(dir) = &cfg.results_dir {
        trace::write(dir, cfg, load, sampled).map_err(|e| format!("trace dump: {e}"))?;
    }
    Ok(out)
}

/// `LOAD_CONNS` is what the acceptance criteria count.
const _: () = assert!(LOAD_CONNS == 2);

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_at(done_ms: u64, latency_us: u64) -> Sample {
        let done_ns = done_ms * 1_000_000;
        Sample {
            start_ns: done_ns - latency_us * 1000,
            done_ns,
            late_ns: 0,
            update: true,
            ok: true,
        }
    }

    #[test]
    fn window_stats_count_what_completed_inside() {
        // 2 s window: 300 commits at 50 µs, 100 at 500 µs.
        let mut samples = Vec::new();
        for k in 0..400u64 {
            samples.push(sample_at(1000 + k * 5, if k < 300 { 50 } else { 500 }));
        }
        // Completed outside the window: ignored.
        samples.push(sample_at(500, 9000));
        samples.push(sample_at(3000, 9000));
        let stats = window_stats(&samples, &[], &[], (1_000_000_000, 3_000_000_000));
        assert_eq!((stats.tps, stats.p50_us, stats.p90_us), (200.0, 50.0, 500.0));
        assert_eq!((stats.commits, stats.lag_probes, stats.lag_p50_us), (400, 0, 0.0));
    }

    #[test]
    fn open_loop_must_offer_and_carry_its_rate() {
        let paced = spec::workloads().into_iter().find(|w| w.name == "update_paced").unwrap();
        assert_eq!(open_loop_complaint(&paced, 2000.0, 3.0), None);
        assert_eq!(open_loop_complaint(&paced, 1981.0, 100.0), None);
        assert!(open_loop_complaint(&paced, 2000.0, 101.0).unwrap().contains("late"));
        assert!(open_loop_complaint(&paced, 1979.0, 3.0).unwrap().contains("offered"));
        assert!(open_loop_complaint(&paced, 2021.0, 3.0).is_some());
        // A closed loop offers whatever the fleet takes.
        let closed = spec::workloads().swap_remove(0);
        assert_eq!(open_loop_complaint(&closed, 1.0, 1e6), None);
    }

    #[test]
    fn stale_age_is_probe_reply_minus_commit_reply_clamped() {
        let commit_at = vec![vec![1_000_000, 2_000_000, 0]];
        let probe = |value, reply_ns| Probe { send_ns: 0, reply_ns, conn: 0, value };
        assert_eq!(stale_age_us(&probe(0, 5_000_000), &commit_at), None);
        assert_eq!(stale_age_us(&probe(1, 1_500_000), &commit_at), Some(500.0));
        // Read before the client saw the commit reply: clamped.
        assert_eq!(stale_age_us(&probe(2, 1_900_000), &commit_at), Some(0.0));
        // Reply never seen, or value beyond anything acknowledged.
        assert_eq!(stale_age_us(&probe(3, 9_000_000), &commit_at), Some(0.0));
        assert_eq!(stale_age_us(&probe(7, 9_000_000), &commit_at), Some(0.0));
    }

    /// Writes every 1 ms, each visible exactly 300 µs (then 300–500 µs,
    /// uniformly) after submit; probes at instants unrelated to the
    /// writes. The estimate must find the delay, not the write period.
    #[test]
    fn lag_recovers_a_known_visibility_delay() {
        let mut rng = Rng::new(5);
        let submit_at = vec![(0..5000u64).map(|k| 1_000_000 * (k + 1)).collect::<Vec<_>>()];
        let probes_for = |delay_of: &mut dyn FnMut() -> u64| -> Vec<Probe> {
            let visible_at: Vec<u64> = submit_at[0].iter().map(|s| s + delay_of()).collect();
            (0..20_000u64)
                .map(|i| {
                    let instant = 10_000_000 + i * 237_000 + 131;
                    // FIFO: caught up to the last write already visible.
                    let value = visible_at.partition_point(|v| *v <= instant) as u64;
                    Probe { send_ns: instant - 20_000, reply_ns: instant + 20_000, conn: 0, value }
                })
                .collect()
        };
        let fixed = probes_for(&mut || 300_000);
        let (lag, used) = lag_us(fixed.iter(), &submit_at, &[0.5, 0.99]);
        assert_eq!(used, 20_000);
        assert!((lag[0] - 300.0).abs() <= 2.0 && (lag[1] - 300.0).abs() <= 2.0, "{lag:?}");
        let spread = probes_for(&mut || 300_000 + rng.below(200_000));
        let (lag, _) = lag_us(spread.iter(), &submit_at, &[0.5, 0.9]);
        assert!((lag[0] - 400.0).abs() <= 15.0, "{lag:?}");
        assert!((lag[1] - 480.0).abs() <= 15.0, "{lag:?}");
        // No probes: no estimate.
        assert_eq!(lag_us([].iter(), &submit_at, &[0.5]), (vec![0.0], 0));
    }
}
