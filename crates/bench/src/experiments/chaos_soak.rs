//! `chaos_soak` — seeded nemesis schedules against every live deployment.
//!
//! For each seed, a deterministic network-fault plan (a partition
//! window, a one-way cut, link jitter, frame drops, duplicates and
//! corruption — all drawn from the seed) is applied to the full
//! protocol × deployment matrix: NaiveLazy/DagWt/DagT/BackEdge on the
//! in-process cluster and on process-per-site TCP. The workload
//! is the differential matrix's conflict-free per-site program, so
//! after the faults heal every deployment must:
//!
//! - quiesce (no update parked forever behind a healed partition),
//! - converge byte-identically to a fault-free control run,
//! - produce a one-copy-serializable committed history.
//!
//! Per-cell metrics (commits, backpressure retries, post-heal recovery
//! time, convergence and serializability verdicts) are appended to a
//! JSON report (`--out`, default `BENCH_chaos.json`), and not to stdout:
//! recovery times are wall-clock, while every experiment's stdout is
//! the same from run to run. Any cell that
//! fails a check turns the exit status nonzero after the report is
//! written.
//!
//! ```text
//! repro chaos_soak [--seeds N] [--txns N] [--out FILE] [--smoke]
//! ```
//!
//! Bad arguments and failed cells both exit 2.

use std::time::{Duration, Instant};

use repl_analysis::history::History;
use repl_copygraph::DataPlacement;
use repl_runtime::{
    repld_bin, Cluster, ClusterError, ClusterHandle, LaunchOptions, NetFaultPlan, ProcCluster,
    RuntimeOptions, RuntimeProtocol,
};
use repl_types::{Op, SiteId};

use super::Failure;

const USAGE: &str = "\
usage: repro chaos_soak [--seeds N] [--txns N] [--out FILE] [--smoke]

Defaults: --seeds 3, --txns 8, --out BENCH_chaos.json. Every seed is
run against all four protocols on both deployments (inproc, tcp) and
compared against a fault-free control. --smoke shrinks the run to one
seed with short fault windows for a fast CI gate.";

const DEFAULT_SEEDS: u64 = 3;
const DEFAULT_TXNS: u32 = 8;
/// Bounded retry for commits refused under backpressure.
const MAX_RETRIES_PER_TXN: u32 = 2000;

struct Config {
    seeds: u64,
    txns: u32,
    out: String,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        seeds: DEFAULT_SEEDS,
        txns: DEFAULT_TXNS,
        out: "BENCH_chaos.json".to_string(),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"));
        match arg.as_str() {
            "--seeds" => {
                cfg.seeds = value("--seeds")?.parse().map_err(|_| "--seeds must be an integer")?;
            }
            "--txns" => {
                cfg.txns = value("--txns")?.parse().map_err(|_| "--txns must be an integer")?;
            }
            "--out" => cfg.out = value("--out")?.clone(),
            "--smoke" => cfg.smoke = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    if cfg.smoke {
        cfg.seeds = 1;
        cfg.txns = cfg.txns.min(4);
    }
    Ok(cfg)
}

// ---------------------------------------------------------------------
// The matrix.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum TransportCol {
    InProc,
    Tcp,
}

impl TransportCol {
    fn name(self) -> &'static str {
        match self {
            TransportCol::InProc => "inproc",
            TransportCol::Tcp => "tcp",
        }
    }
}

const PROTOCOLS: [(RuntimeProtocol, &str); 4] = [
    (RuntimeProtocol::NaiveLazy, "naive"),
    (RuntimeProtocol::DagWt, "dagwt"),
    (RuntimeProtocol::DagT, "dagt"),
    (RuntimeProtocol::BackEdge, "backedge"),
];

struct CellReport {
    protocol: &'static str,
    transport: &'static str,
    seed: u64,
    commits: u64,
    retries: u64,
    recovery_ms: f64,
    converged: bool,
    serializable: bool,
}

/// Run the soak; see the module docs for the flags and exit codes.
pub fn main(args: &[String]) -> Result<(), Failure> {
    let cfg = parse_args(args)?;
    let placement = fan_placement();
    let mut cells: Vec<CellReport> = Vec::new();
    for seed_idx in 0..cfg.seeds {
        let seed = 0xC4A0_0000 + seed_idx;
        let plan = seeded_plan(seed, cfg.smoke);
        for (protocol, proto_name) in PROTOCOLS {
            let progs = programs(&placement, cfg.txns, seed ^ 0x5EED);
            // Fault-free control: the byte-level convergence target.
            let control = {
                let cluster = Cluster::start(&placement, protocol)
                    .map_err(|e| format!("control cluster: {e}"))?;
                let _ = drive(&cluster, &progs)?;
                ClusterHandle::quiesce(&cluster).map_err(|e| format!("control quiesce: {e}"))?;
                let states = final_states(&cluster)?;
                cluster.shutdown();
                states
            };
            for transport in [TransportCol::InProc, TransportCol::Tcp] {
                let cell = run_cell(
                    &placement, protocol, proto_name, transport, seed, &plan, &progs, &control,
                )?;
                eprintln!(
                    "chaos_soak: {}/{} seed {:#x}: {} commits, {} retries, recovery {:.0} ms, {}",
                    proto_name,
                    transport.name(),
                    seed,
                    cell.commits,
                    cell.retries,
                    cell.recovery_ms,
                    if cell.converged && cell.serializable { "ok" } else { "FAILED" },
                );
                cells.push(cell);
            }
        }
    }

    let json = render_json(&cells, &cfg);
    std::fs::write(&cfg.out, &json).map_err(|e| format!("cannot write {}: {e}", cfg.out))?;
    eprintln!("chaos_soak: wrote {}", cfg.out);
    if cells.iter().any(|c| !c.converged || !c.serializable) {
        return Err(Failure::Error(
            "one or more cells failed convergence or serializability".into(),
        ));
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    placement: &DataPlacement,
    protocol: RuntimeProtocol,
    proto_name: &'static str,
    transport: TransportCol,
    seed: u64,
    plan: &NetFaultPlan,
    progs: &[Vec<Vec<Op>>],
    control: &[bytes::Bytes],
) -> Result<CellReport, String> {
    match transport {
        TransportCol::InProc => {
            let options =
                RuntimeOptions { nemesis: Some(plan.clone()), ..RuntimeOptions::default() };
            let cluster = Cluster::start_with(placement, protocol, options)
                .map_err(|e| format!("in-process cluster: {e}"))?;
            let cell = measure(&cluster, proto_name, transport, seed, progs, control);
            cluster.shutdown();
            cell
        }
        TransportCol::Tcp => {
            let launch =
                LaunchOptions { nemesis: Some(plan.to_spec()), ..LaunchOptions::default() };
            let bin = repld_bin().map_err(|e| e.to_string())?;
            let cluster = ProcCluster::launch_with_options(&bin, placement, protocol, &launch)
                .map_err(|e| format!("launch repld: {e}"))?;
            let cell = measure(&cluster, proto_name, transport, seed, progs, control);
            cluster.shutdown();
            cell
        }
    }
}

/// Drive the workload through one nemesis-wrapped deployment and score
/// the cell: post-heal quiescence (timed), byte convergence against the
/// fault-free control, and history serializability.
fn measure(
    handle: &dyn ClusterHandle,
    proto_name: &'static str,
    transport: TransportCol,
    seed: u64,
    progs: &[Vec<Vec<Op>>],
    control: &[bytes::Bytes],
) -> Result<CellReport, String> {
    let (commits, retries) = drive(handle, progs)?;

    // Post-heal recovery: quiesce must drain once the last fault window
    // has passed. Its duration is the recovery metric.
    let quiesce_started = Instant::now();
    handle.quiesce().map_err(|e| format!("{proto_name}/{}: quiesce: {e}", transport.name()))?;
    let recovery_ms = quiesce_started.elapsed().as_secs_f64() * 1000.0;

    let states = final_states(handle)?;
    let converged = states == control;
    if !converged {
        eprintln!(
            "chaos_soak: {proto_name}/{} seed {seed:#x}: final state diverged from control",
            transport.name()
        );
    }

    let history = History::from_iter(handle.history().map_err(|e| e.to_string())?);
    let serializable = history.check_serializability().is_ok();

    Ok(CellReport {
        protocol: proto_name,
        transport: transport.name(),
        seed,
        commits,
        retries,
        recovery_ms,
        converged,
        serializable,
    })
}

/// Round-robin the per-site programs; commits refused under
/// backpressure are retried with a short pause (bounded).
fn drive(cluster: &dyn ClusterHandle, progs: &[Vec<Vec<Op>>]) -> Result<(u64, u64), String> {
    let rounds = progs.iter().map(Vec::len).max().unwrap_or(0);
    let mut commits = 0u64;
    let mut retries = 0u64;
    for round in 0..rounds {
        for (site, prog) in progs.iter().enumerate() {
            let Some(ops) = prog.get(round).filter(|ops| !ops.is_empty()) else { continue };
            let mut attempts = 0u32;
            loop {
                match cluster.execute(SiteId(site as u32), ops.clone()) {
                    Ok(_) => {
                        commits += 1;
                        break;
                    }
                    Err(ClusterError::Backpressure { .. }) if attempts < MAX_RETRIES_PER_TXN => {
                        attempts += 1;
                        retries += 1;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(format!("site {site} commit failed: {e}")),
                }
            }
        }
    }
    Ok((commits, retries))
}

fn final_states(cluster: &dyn ClusterHandle) -> Result<Vec<bytes::Bytes>, String> {
    (0..cluster.num_sites())
        .map(|s| cluster.copy_state(SiteId(s)).map_err(|e| e.to_string()))
        .collect()
}

// ---------------------------------------------------------------------
// Seeded inputs.
// ---------------------------------------------------------------------

/// Three sites, forward edges only — valid for all four protocols
/// (BackEdge degenerates to lazy tree routing, so partitions cannot
/// strand an eager phase; the eager abort path has its own regression
/// test in the runtime crate).
fn fan_placement() -> DataPlacement {
    let mut p = DataPlacement::new(3);
    p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
    p.add_item(SiteId(1), &[SiteId(2)]);
    p.add_item(SiteId(0), &[SiteId(2)]);
    p.add_item(SiteId(2), &[]);
    p
}

/// Draw a fault schedule from the seed: one symmetric partition, one
/// one-way cut, plus background jitter/drop/dup/corruption.
fn seeded_plan(seed: u64, smoke: bool) -> NetFaultPlan {
    // Windows open at (or near) time zero: the workload is fast, so a
    // late-opening window would never overlap it and the cell would be
    // vacuous. Opening immediately guarantees commits land mid-fault
    // and quiesce has to ride out the heal.
    let mut state = seed;
    let scale: u64 = if smoke { 1 } else { 2 };
    let p_start = splitmix64(&mut state) % 10;
    let p_len = (100 + splitmix64(&mut state) % 150) * scale;
    let o_start = splitmix64(&mut state) % 30;
    let o_len = (80 + splitmix64(&mut state) % 120) * scale;
    let pair = splitmix64(&mut state) % 3;
    let (a, b) = match pair {
        0 => (SiteId(0), SiteId(1)),
        1 => (SiteId(0), SiteId(2)),
        _ => (SiteId(1), SiteId(2)),
    };
    NetFaultPlan::seeded(seed)
        .partition(a, b, p_start, p_start + p_len)
        .oneway(SiteId(2), SiteId(0), o_start, o_start + o_len)
        .jitter(1 + splitmix64(&mut state) % 3)
        .drop_frames(30 + (splitmix64(&mut state) % 30) as u16)
        .duplicate_frames(20 + (splitmix64(&mut state) % 20) as u16)
        .corrupt_frames(10 + (splitmix64(&mut state) % 15) as u16)
}

/// The differential matrix's conflict-free program shape: each site
/// writes only its own primaries, so every deployment is
/// order-equivalent and must converge to the same bytes.
fn programs(placement: &DataPlacement, txns_per_site: u32, seed: u64) -> Vec<Vec<Vec<Op>>> {
    let mut state = seed;
    (0..placement.num_sites())
        .map(|s| {
            let primaries = placement.primaries_at(SiteId(s));
            if primaries.is_empty() {
                return Vec::new();
            }
            (0..txns_per_site)
                .map(|_| {
                    let width = 1 + (splitmix64(&mut state) % 2) as usize;
                    let mut ops: Vec<Op> = Vec::new();
                    for _ in 0..width {
                        let item = primaries[splitmix64(&mut state) as usize % primaries.len()];
                        let value = (splitmix64(&mut state) % 100_000) as i64;
                        if !ops.iter().any(|o| o.item == item) {
                            ops.push(Op::write(item, value));
                        }
                    }
                    ops
                })
                .collect()
        })
        .collect()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

fn render_json(cells: &[CellReport], cfg: &Config) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"chaos_soak\",\n");
    out.push_str("  \"placement\": \"fan3\",\n");
    out.push_str(&format!("  \"seeds\": {},\n", cfg.seeds));
    out.push_str(&format!("  \"txns_per_site\": {},\n", cfg.txns));
    out.push_str(&format!("  \"smoke\": {},\n", cfg.smoke));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"protocol\": \"{}\", \"transport\": \"{}\", \"seed\": {}, \
             \"commits\": {}, \"backpressure_retries\": {}, \"recovery_ms\": {:.1}, \
             \"converged\": {}, \"serializable\": {}}}{}\n",
            c.protocol,
            c.transport,
            c.seed,
            c.commits,
            c.retries,
            c.recovery_ms,
            c.converged,
            c.serializable,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
