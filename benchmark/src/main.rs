//! `replbench` — the repository's benchmark: commit latency,
//! replication lag and CPU per transaction of a live 3-process `repld`
//! fleet over five workloads, with per-layer probes and a traced run.
//! See `benchmark/README.md`; run it through `benchmark/run.sh`.

mod check;
mod fleet;
mod gen;
mod json;
mod load;
mod probes;
mod procfs;
mod report;
mod run;
mod spec;
mod stats;
mod trace;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use repl_core::deploy::ReactorKind;
use repl_runtime::RuntimeProtocol;

use crate::json::Json;
use crate::report::WorkloadSet;
use crate::run::{Metric, RunConfig, RunOutput};
use crate::spec::{Pacing, Workload};

const USAGE: &str = "\
usage: replbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [cell flags]
       replbench all [--seed N] [--seconds S] [--out FILE]
       replbench compare A.json B.json
       replbench --stress update_pipelined [--depth N] [--secs S] [--seed N]

One run prints every metric by name and unit, then one JSON line: the
bounded end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. `all` runs every pinned workload (3 untraced repeats and one
traced run each), writes results/set-<seed>.json and the traces, and
appends to results/trajectory.jsonl.

Cell flags, for ad-hoc cells only (the pinned set never uses them):
  --protocol dagwt|dagt|backedge   --reactor threads|epoll   --mvcc
  --group-commit N   --link-batch N   --apply-pool N
  --depth N (closed loop)   --rate N (open loop, per connection)
  --secs S (same as --seconds)";

const DEFAULT_SEED: u64 = 1999;
/// Warm-up of every fleet before its timed window.
const WARMUP_SECS: f64 = 0.5;
/// Fresh fleets per untraced run; every end-to-end metric is the median
/// over them.
const FLEETS: usize = 10;
/// Untraced runs per workload of a run set; `compare` takes the median
/// and the spread over them.
const REPEATS: usize = 3;
/// Requests of the correctness pass.
const CHECK_TXNS: u64 = 2000;
/// The harness's own drain deadline (the runtime's `quiesce` waits 60 s).
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("replbench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, a, b] => compare(a, b),
            _ => Err(format!("compare wants two files\n\n{USAGE}")),
        },
        Some("all") => all(&Flags::parse(&args[1..])?),
        Some("idle-spin") => fleet::idle_spin(),
        Some("--help" | "-h") | None => Err(USAGE.to_string()),
        Some(_) => one(&Flags::parse(args)?),
    }
}

#[derive(Default)]
struct Flags {
    workload: Option<String>,
    stress: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    protocol: Option<RuntimeProtocol>,
    reactor: Option<ReactorKind>,
    mvcc: bool,
    group_commit: Option<u64>,
    link_batch: Option<u64>,
    apply_pool: Option<u64>,
    depth: Option<usize>,
    rate: Option<u32>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        fn num<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{name}: bad value {v:?}"))
        }
        let mut f = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg.as_str();
            if name == "--mvcc" {
                f.mvcc = true;
                continue;
            }
            let v = it.next().ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))?;
            match name {
                "--workload" => f.workload = Some(v.clone()),
                "--stress" => f.stress = Some(v.clone()),
                "--seed" => f.seed = Some(num(name, v)?),
                "--seconds" | "--secs" => f.seconds = Some(num(name, v)?),
                "--trace" => f.trace = num::<u8>(name, v)? != 0,
                "--out" => f.out = Some(PathBuf::from(v)),
                "--protocol" => {
                    f.protocol = Some(
                        RuntimeProtocol::parse(v)
                            .ok_or_else(|| format!("unknown protocol {v:?}"))?,
                    )
                }
                "--reactor" => f.reactor = Some(ReactorKind::parse(v)?),
                "--group-commit" => f.group_commit = Some(num(name, v)?),
                "--link-batch" => f.link_batch = Some(num(name, v)?),
                "--apply-pool" => f.apply_pool = Some(num(name, v)?),
                "--depth" => f.depth = Some(num(name, v)?),
                "--rate" => f.rate = Some(num(name, v)?),
                other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
            }
        }
        if f.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
            return Err("--seconds must be in (0, 600]".to_string());
        }
        Ok(f)
    }

    /// The run this invocation asks for: a pinned workload, or one with
    /// cell flags applied.
    fn config(&self, mut wl: Workload, trace: bool) -> RunConfig {
        if let Some(p) = self.protocol {
            wl.protocol = p;
        }
        match (self.depth, self.rate) {
            (_, Some(rate)) => wl.pacing = Pacing::Open { rate },
            (Some(depth), None) => wl.pacing = Pacing::Closed { depth },
            (None, None) => {}
        }
        let mut options = fleet::default_options();
        if let Some(r) = self.reactor {
            options.reactor = r;
        }
        options.mvcc = self.mvcc;
        options.group_commit = self.group_commit;
        options.link_batch = self.link_batch;
        options.apply_pool = self.apply_pool;
        RunConfig {
            wl,
            seed: self.seed.unwrap_or(DEFAULT_SEED),
            secs: self.seconds.unwrap_or(10.0),
            warmup_secs: WARMUP_SECS,
            trace,
            options,
            drain_deadline: DRAIN_DEADLINE,
            fleets: FLEETS,
            check_txns: CHECK_TXNS,
            results_dir: Some(results_dir()),
        }
    }
}

fn pinned(name: &str) -> Result<Workload, String> {
    spec::workloads().into_iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = spec::workloads().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the pinned set is {names:?}")
    })
}

/// The rows of a traced run that no fleet is needed for: the layer
/// probes, the simulator twin, and what is derived from them.
fn add_probe_rows(cfg: &RunConfig, out: &mut RunOutput, probed: &probes::Results) {
    for (name, (value, samples)) in probed {
        out.metrics.push(Metric::declared(name, *value, *samples));
    }
    // The budget is s0's commit path: it covers nothing where s0 takes no load.
    let s0_cpu = out.metrics.iter().find(|m| m.name == "runtime.cpu_us_per_txn.s0");
    let s0_cpu = s0_cpu.map_or(0.0, |m| m.value);
    let loaded = cfg.wl.conn_sites.contains(&0) && s0_cpu > 0.0;
    let coverage = if loaded { probed["budget.s0_probe_sum_us"].0 / s0_cpu } else { 0.0 };
    out.metrics.push(Metric::declared("budget.s0_coverage", coverage, 1));
}

/// Run `cfg` and print every metric it measured; a traced run takes
/// the layer probes' rows from `probed`.
fn run_and_print(cfg: &RunConfig, probed: Option<&probes::Results>) -> Result<RunOutput, String> {
    eprintln!(
        "replbench: {} seed {} {} s{} ({:?}, {}, {:?}): {}",
        cfg.wl.name,
        cfg.seed,
        cfg.secs,
        if cfg.trace { " traced" } else { "" },
        cfg.wl.protocol,
        cfg.wl.placement.name(),
        cfg.wl.pacing,
        cfg.wl.why
    );
    let mut out = run::run(cfg)?;
    if let Some(probed) = probed {
        add_probe_rows(cfg, &mut out, probed);
    }
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            m.value = 0.0;
        }
    }
    print!("{}", report::table(cfg.wl.name, &out.metrics));
    println!(
        "{:<18} attempted {} failed {} correct {}",
        cfg.wl.name, out.attempted, out.failed, out.correct
    );
    if let Some(reason) = &out.reason {
        eprintln!("replbench: {}: FAILED: {reason}", cfg.wl.name);
    }
    Ok(out)
}

/// One run: a pinned workload (what the driver invokes), an ad-hoc
/// cell, or the stress reproducer.
fn one(flags: &Flags) -> Result<ExitCode, String> {
    let cfg = match (&flags.workload, &flags.stress) {
        (Some(name), None) => flags.config(pinned(name)?, flags.trace),
        (None, Some(name)) if name == "update_pipelined" => {
            let wl = spec::stress_workload(flags.depth.unwrap_or(16));
            let mut cfg = flags.config(wl, false);
            // One fleet for the whole window; no check pass, which would
            // only put a second, healthy fleet after a wedged one.
            cfg.check_txns = 0;
            cfg.fleets = 1;
            cfg
        }
        (None, Some(name)) => return Err(format!("unknown stress mode {name:?}")),
        _ => return Err(format!("give --workload or --stress\n\n{USAGE}")),
    };
    let probed = cfg.trace.then(|| probes::run_all(cfg.seed));
    let mut out = run_and_print(&cfg, probed.as_ref())?;
    if !cfg.trace {
        // The result line of an untraced run carries the bounded metrics only.
        out.metrics.retain(|m| spec::END_TO_END.iter().any(|(name, _)| *name == m.name));
    }
    println!("{}", report::result_line(&out));
    Ok(if out.correct && out.failed == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn all(flags: &Flags) -> Result<ExitCode, String> {
    let mut sets = Vec::new();
    let mut green = true;
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let probed = probes::run_all(seed);
    let mut secs = 0.0;
    for wl in spec::workloads() {
        let mut set =
            WorkloadSet { name: wl.name.to_string(), correct: true, ..Default::default() };
        let untraced = flags.config(wl.clone(), false);
        secs = untraced.secs;
        let traced = flags.config(wl, true);
        for cfg in std::iter::repeat_n(&untraced, REPEATS).chain([&traced]) {
            let out = run_and_print(cfg, cfg.trace.then_some(&probed))?;
            set.attempted += out.attempted;
            set.failed += out.failed;
            set.correct &= out.correct;
            if cfg.trace {
                set.per_layer = out.metrics;
            } else {
                set.add_repeat(&out);
            }
        }
        green &= set.correct && set.failed == 0;
        sets.push(set);
    }

    println!("\n== medians over {REPEATS} repeats, seed {seed} ==");
    for set in &sets {
        for (name, unit, values) in &set.end_to_end {
            println!(
                "{:<18} {:<40} {:>14.4} {:<6} n={} spread {:.1}%",
                set.name,
                name,
                stats::median(values),
                unit,
                values.len(),
                stats::spread(values).unwrap_or(0.0) * 100.0
            );
        }
        println!(
            "{:<18} failed_share {} / {} correct {}",
            set.name, set.failed, set.attempted, set.correct
        );
    }
    let commit = report::commit_id();
    let path = flags.out.clone().unwrap_or_else(|| results_dir().join(format!("set-{seed}.json")));
    report::write_set(&path, &commit, seed, secs, &sets)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let trajectory = results_dir().join("trajectory.jsonl");
    report::append_trajectory(&trajectory, &commit, seed, &sets)
        .map_err(|e| format!("{}: {e}", trajectory.display()))?;
    eprintln!("replbench: wrote {} and appended to {}", path.display(), trajectory.display());
    Ok(if green { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let benchmark = read_json("BENCHMARK.json").map_err(|e| {
        format!("{e} (run from the repository root, where the bounds are declared)")
    })?;
    let (text, differ) =
        report::compare(&read_json(a)?, &read_json(b)?, &report::declared_bounds(&benchmark));
    print!("{text}");
    Ok(if differ { ExitCode::from(1) } else { ExitCode::SUCCESS })
}
