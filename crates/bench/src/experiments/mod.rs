//! Every experiment `repro` runs, by name: the paper's §5 table, figures
//! and measurements, the Table-1 range studies and ablations, and the
//! two experiments with flags of their own ([`read_sweep`],
//! [`chaos_soak`]).
//!
//! A sweep experiment is a function from the environment's [`Scale`] to
//! a [`Sweep`]: the [`ExperimentSpec`] to run and how to print its result.
//! Its spec id is its registry name, which is also its progress label and
//! its `REPRO_EMIT` file stem.

pub mod chaos_soak;
pub mod read_sweep;

use repl_core::config::{ProtocolKind, SimParams, TreeKind};
use repl_sim::{FaultPlan, SimDuration, SimTime};
use repl_workload::TableOneParams;

use crate::{Column, ExperimentSpec, Scale, SweepResult};

/// How an experiment fails; `repro` turns it into its exit code.
#[derive(Debug)]
pub enum Failure {
    /// The acceptance bar was missed, or a sweep point failed (exit 1).
    /// The experiment has already said where.
    Bar,
    /// Bad arguments or environment, an unwritable output file, or a
    /// failed chaos cell (exit 2).
    Error(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Error(msg)
    }
}

/// A sweep experiment, ready to run: the spec (its id is the
/// experiment's registry name) and what prints the finished sweep.
pub type Sweep = (ExperimentSpec, fn(&SweepResult));

/// How a registered experiment runs.
#[derive(Clone, Copy, Debug)]
pub enum Run {
    /// A sweep built at the environment's scale; it takes no arguments,
    /// and fails with [`Failure::Bar`] when a point failed.
    Sweep(fn(&Scale) -> Sweep),
    /// An experiment that parses its own arguments.
    Main(fn(&[String]) -> Result<(), Failure>),
}

impl Run {
    /// Run the experiment with the arguments that follow its name.
    pub fn main(self, args: &[String]) -> Result<(), Failure> {
        match self {
            Run::Sweep(build) => {
                let scale = no_args(args)?;
                let (spec, print) = build(&scale);
                let result = scale.runner().run(&spec);
                print(&result);
                match result.errors().len() {
                    0 => Ok(()),
                    n => {
                        eprintln!("[{}] {n} failed points (the `!` lines above)", spec.id());
                        Err(Failure::Bar)
                    }
                }
            }
            Run::Main(main) => main(args),
        }
    }
}

/// The registry: each experiment's name, a line for the listing, and how
/// it runs, in the order `repro` lists them.
pub const EXPERIMENTS: &[(&str, &str, Run)] = &[
    ("table1", "Table 1: parameter settings", Run::Main(table1)),
    ("fig2a", "Fig 2(a): throughput vs backedge probability", Run::Sweep(fig2a)),
    ("fig2b", "Fig 2(b): throughput vs replication probability", Run::Sweep(fig2b)),
    ("fig3a", "Fig 3(a): b = 0, throughput vs read-op probability", Run::Sweep(fig3a)),
    ("fig3b", "Fig 3(b): b = 1, throughput vs read-op probability", Run::Sweep(fig3b)),
    ("response_time", "§5.3.4 response time, BackEdge vs PSL", Run::Sweep(response_time)),
    ("propagation", "§5.3.4 update propagation delay (recency)", Run::Sweep(propagation)),
    ("sweep_sites", "range study: throughput vs sites", Run::Sweep(sweep_sites)),
    ("sweep_threads", "range study: throughput vs threads per site", Run::Sweep(sweep_threads)),
    ("sweep_latency", "range study: throughput vs network latency", Run::Sweep(sweep_latency)),
    ("sweep_readtxn", "range study: throughput vs read-txn share", Run::Sweep(sweep_readtxn)),
    ("ablation_dag", "ablation: DAG(WT) vs DAG(T)", Run::Sweep(ablation_dag)),
    ("ablation_tree", "ablation: BackEdge on a chain vs a tree", Run::Sweep(ablation_tree)),
    ("ablation_epoch", "ablation: DAG(T) epoch period", Run::Sweep(ablation_epoch)),
    ("ablation_eager", "ablation: Eager vs the lazy protocols", Run::Sweep(ablation_eager)),
    ("fault_sweep", "availability and recovery vs crash intensity", Run::Sweep(fault_sweep)),
    ("read_sweep", "MVCC vs 2PL reads; --out FILE", Run::Main(read_sweep::main)),
    ("chaos_soak", "nemesis soak of the live deployments; --help", Run::Main(chaos_soak::main)),
];

/// How the registered experiment called `name` runs.
pub fn find(name: &str) -> Option<Run> {
    EXPERIMENTS.iter().find(|(n, ..)| *n == name).map(|&(_, _, run)| run)
}

/// The scale, for an experiment that takes no arguments.
fn no_args(args: &[String]) -> Result<Scale, Failure> {
    if let Some(arg) = args.first() {
        return Err(Failure::Error(format!("takes no arguments, got {arg:?}")));
    }
    Ok(Scale::from_env()?)
}

/// Parse `--out FILE` (default `out`). `None` means `--help` printed
/// `usage` and the experiment is done.
fn out_flag(args: &[String], out: &str, usage: &str) -> Result<Option<String>, Failure> {
    let mut out = out.to_string();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(v) => out = v.clone(),
                None => return Err(Failure::Error(format!("--out needs a value\n\n{usage}"))),
            },
            "--help" | "-h" => {
                eprintln!("{usage}");
                return Ok(None);
            }
            other => return Err(Failure::Error(format!("unknown flag {other:?}\n\n{usage}"))),
        }
    }
    Ok(Some(out))
}

/// Regenerate Table 1: parameter settings of the performance study.
pub fn table1(args: &[String]) -> Result<(), Failure> {
    let scale = no_args(args)?;
    println!("Table 1: Parameter Settings\n");
    print!("{}", scale.table().render_table());
    Ok(())
}

/// Figure 2(a): average throughput vs backedge probability `b`
/// (defaults otherwise; BackEdge vs PSL).
///
/// Paper shape: BackEdge best at b=0 ("almost thrice the throughput"),
/// declining as backedge subtransactions hold locks longer; PSL roughly
/// flat with a slight decline; BackEdge still ahead at b=1.
pub fn fig2a(scale: &Scale) -> Sweep {
    let spec = scale
        .spec("fig2a", "Figure 2(a): Throughput vs Backedge Probability")
        .axis("b", (0..=10).map(|i| i as f64 / 10.0), |t, _, b| t.backedge_prob = b)
        .protocols(&[ProtocolKind::BackEdge, ProtocolKind::Psl]);
    (spec, |r| r.print(&[Column::Throughput, Column::AbortPct]))
}

/// Figure 2(b): average throughput vs replication probability `r`.
///
/// Paper shape: identical throughput at r=0 (no replicas — every
/// transaction is local under both protocols), a sharp drop from r=0 to
/// r=0.1, and both declining as the replica count grows.
pub fn fig2b(scale: &Scale) -> Sweep {
    let spec = scale
        .spec("fig2b", "Figure 2(b): Throughput vs Replication Probability")
        .axis("r", (0..=10).map(|i| i as f64 / 10.0), |t, _, r| t.replication_prob = r)
        .protocols(&[ProtocolKind::BackEdge, ProtocolKind::Psl]);
    (spec, |r| r.print(&[Column::Throughput, Column::AbortPct]))
}

/// Figure 3(a): extreme setting b=0 — throughput vs read operation
/// probability (r=0.5, read-transaction probability 0).
///
/// Paper shape: at read-op 0 (pure updates) PSL wins — it does no remote
/// work at all while BackEdge pays for propagation. BackEdge rises
/// monotonically with the read fraction; PSL *dips* until about 0.5
/// (remote reads grow faster than contention falls) then recovers.
/// At 0.5 the paper reports BackEdge > 5x PSL.
pub fn fig3a(scale: &Scale) -> Sweep {
    let base = TableOneParams { replication_prob: 0.5, read_txn_prob: 0.0, ..scale.table() };
    let spec = scale
        .spec("fig3a", "Figure 3(a): b = 0 — Throughput vs Read Operation Probability")
        .table(TableOneParams { backedge_prob: 0.0, ..base })
        .axis("read-op prob", (0..=10).map(|i| i as f64 / 10.0), |t, _, p| t.read_op_prob = p)
        .protocols(&[ProtocolKind::BackEdge, ProtocolKind::Psl]);
    (spec, |r| r.print(&[Column::Throughput, Column::AbortPct]))
}

/// Figure 3(b): extreme setting b=1 — throughput vs read operation
/// probability (r=0.5, read-transaction probability 0).
///
/// Paper shape: with every replica candidate set spanning all sites,
/// almost every update transaction has a backedge subtransaction, so
/// BackEdge suffers global deadlocks and trails PSL while the read
/// probability is below ~0.3 — and still wins beyond it.
pub fn fig3b(scale: &Scale) -> Sweep {
    let base = TableOneParams { replication_prob: 0.5, read_txn_prob: 0.0, ..scale.table() };
    let spec = scale
        .spec("fig3b", "Figure 3(b): b = 1 — Throughput vs Read Operation Probability")
        .table(TableOneParams { backedge_prob: 1.0, ..base })
        .axis("read-op prob", (0..=10).map(|i| i as f64 / 10.0), |t, _, p| t.read_op_prob = p)
        .protocols(&[ProtocolKind::BackEdge, ProtocolKind::Psl]);
    (spec, |r| r.print(&[Column::Throughput, Column::AbortPct]))
}

/// §5.3.4 response times: the paper reports ≈180 ms (BackEdge) vs
/// ≈260 ms (PSL) at the default parameter settings — BackEdge ~1.4x
/// faster. Absolute numbers differ on the simulated substrate; the
/// ordering and rough ratio are the reproduction target.
pub fn response_time(scale: &Scale) -> Sweep {
    let spec = scale
        .spec(
            "response_time",
            "§5.3.4 Mean response time of committed transactions (default parameters)",
        )
        .protocols(&[ProtocolKind::BackEdge, ProtocolKind::Psl]);
    (spec, |r| {
        r.print_transposed(&[Column::ResponseMs, Column::Throughput, Column::AbortPct]);
        if let (Some(be), Some(psl)) = (r.cell(0, 0), r.cell(0, 1)) {
            println!(
                "\nPSL/BackEdge response ratio: {:.2} (paper: 260/180 ≈ 1.44)",
                psl.mean_response_ms / be.mean_response_ms
            );
        }
    })
}

/// §5.3.4 update propagation delay ("recency"): the paper reports that
/// with default parameters propagation via secondary subtransactions
/// "in general took a few hundred millisec".
pub fn propagation(scale: &Scale) -> Sweep {
    // DAG protocols need an acyclic graph, so they run on a b=0 variant
    // of the default table next to BackEdge's cyclic one.
    let dag_table = TableOneParams { backedge_prob: 0.0, ..scale.table() };
    let spec = scale
        .spec("propagation", "§5.3.4 Update propagation delay, commit -> last replica applied")
        .series("BackEdge", SimParams { protocol: ProtocolKind::BackEdge, ..Default::default() })
        .series_with_table(
            "DAG(WT) b=0",
            SimParams { protocol: ProtocolKind::DagWt, ..Default::default() },
            dag_table.clone(),
        )
        .series_with_table(
            "DAG(T) b=0",
            SimParams { protocol: ProtocolKind::DagT, ..Default::default() },
            dag_table,
        );
    (spec, |r| {
        r.print_transposed(&[Column::PropMs, Column::MaxPropMs, Column::Messages]);
        println!("\nPaper: \"update propagation ... in general took a few hundred millisec\".");
    })
}

/// Table 1 range study: number of sites m ∈ 3–15 (defaults otherwise).
/// Exercises protocol scalability with system size.
pub fn sweep_sites(scale: &Scale) -> Sweep {
    let spec = scale
        .spec("sweep_sites", "Range study: Throughput vs Number of Sites (m = 3..15)")
        .axis("sites", [3.0, 6.0, 9.0, 12.0, 15.0], |t, _, m| t.num_sites = m as u32)
        .protocols(&[ProtocolKind::BackEdge, ProtocolKind::Psl]);
    (spec, |r| r.print(&[Column::Throughput, Column::AbortPct]))
}

/// Table 1 range study: threads per site (multiprogramming level) 1–5.
/// §5.2: "more threads result in more contention within the system".
pub fn sweep_threads(scale: &Scale) -> Sweep {
    let spec = scale
        .spec("sweep_threads", "Range study: Throughput vs Threads/Site (MPL 1..5)")
        .axis("threads", [1.0, 2.0, 3.0, 4.0, 5.0], |t, _, n| t.threads_per_site = n as u32)
        .protocols(&[ProtocolKind::BackEdge, ProtocolKind::Psl]);
    (spec, |r| r.print(&[Column::Throughput, Column::AbortPct]))
}

/// Table 1 range study: network latency 0.15–100 ms. PSL performs a
/// synchronous round trip per replica read, so it degrades with latency
/// far faster than the asynchronous lazy protocols.
pub fn sweep_latency(scale: &Scale) -> Sweep {
    let spec = scale
        .spec("sweep_latency", "Range study: Throughput vs Network Latency (0.15 - 100 ms)")
        .axis("latency ms", [0.15, 1.0, 5.0, 20.0, 100.0], |t, sim, ms| {
            let us = (ms * 1000.0).round() as u64;
            t.network_latency = SimDuration::micros(us);
            // Long latencies stretch both PSL's remote-lock holds and
            // the BackEdge special's round trip (up to ~2x sites x
            // latency) past the 50 ms timeouts; scale the lock and the
            // eager timeout with latency, as a real deployment would.
            if us >= 5_000 {
                t.deadlock_timeout = SimDuration::micros(us * 25);
                sim.tuning.eager_timeout = std::time::Duration::from_micros(us * 25);
            }
        })
        .protocols(&[ProtocolKind::BackEdge, ProtocolKind::Psl]);
    (spec, |r| r.print(&[Column::Throughput]))
}

/// Table 1 range study: read transaction probability 0–1 (defaults
/// otherwise). Read-only transactions never propagate, so both protocols
/// speed up; PSL still pays remote reads inside read-only transactions.
pub fn sweep_readtxn(scale: &Scale) -> Sweep {
    let spec = scale
        .spec("sweep_readtxn", "Range study: Throughput vs Read Transaction Probability")
        .axis("read-txn prob", (0..=10).map(|i| i as f64 / 10.0), |t, _, p| t.read_txn_prob = p)
        .protocols(&[ProtocolKind::BackEdge, ProtocolKind::Psl]);
    (spec, |r| r.print(&[Column::Throughput, Column::AbortPct]))
}

/// Ablation: DAG(WT) vs DAG(T) — the §3 motivation.
///
/// DAG(WT) relays secondary subtransactions through intermediate tree
/// sites ("significant messaging overhead ... and unnecessary propagation
/// delays"); DAG(T) sends directly along copy-graph edges but pays for
/// timestamps, dummies and epoch percolation. Swept over replication
/// probability at b=0.
pub fn ablation_dag(scale: &Scale) -> Sweep {
    let spec = scale
        .spec("ablation_dag", "Ablation: DAG(WT) vs DAG(T) (b = 0)")
        // DAG protocols need an acyclic graph.
        .table(TableOneParams { backedge_prob: 0.0, ..scale.table() })
        .axis("r", [0.2, 0.4, 0.6, 0.8], |t, _, r| t.replication_prob = r)
        .protocols(&[ProtocolKind::DagWt, ProtocolKind::DagT]);
    (spec, |r| {
        r.print(&[Column::Throughput, Column::PropMs, Column::Messages]);
        println!("\nDAG(T) trades relay hops for dummy/epoch traffic; its advantage grows");
        println!("with tree depth (see sweep_sites) and per-hop cost.");
    })
}

/// Ablation: chain vs general propagation tree for BackEdge (§5.1 — the
/// paper implemented the chain and "expect\[s\] the general implementation
/// ... to outperform our implementation").
pub fn ablation_tree(scale: &Scale) -> Sweep {
    let backedge =
        |tree| SimParams { protocol: ProtocolKind::BackEdge, tree, ..Default::default() };
    let spec = scale
        .spec("ablation_tree", "Ablation: BackEdge with chain vs general propagation tree")
        .axis("b", [0.0, 0.2, 0.5, 1.0], |t, _, b| t.backedge_prob = b)
        .series("chain", backedge(TreeKind::Chain))
        .series("tree", backedge(TreeKind::General));
    (spec, |r| r.print(&[Column::Throughput, Column::PropMs]))
}

/// Ablation: DAG(T) epoch-period sensitivity (§3.3 progress machinery).
///
/// Short epochs/heartbeats percolate progress information quickly (fresh
/// replicas) at the cost of dummy-message traffic.
pub fn ablation_epoch(scale: &Scale) -> Sweep {
    // Capped at 300 txns/thread; a 5 ms period saturates site CPUs with
    // dummy traffic and the run never drains — the flood edge of the
    // §3.3 tradeoff.
    let table = TableOneParams {
        txns_per_thread: scale.txns.min(300),
        backedge_prob: 0.0,
        ..scale.table()
    };
    let spec = scale
        .spec("ablation_epoch", "Ablation: DAG(T) epoch period (heartbeat = period/2)")
        .table(table)
        .axis("period ms", [10.0, 20.0, 50.0, 100.0, 200.0], |_, sim, ms| {
            let ms = ms as u64;
            sim.tuning.epoch_period = std::time::Duration::from_millis(ms);
            sim.tuning.heartbeat_period = std::time::Duration::from_millis((ms / 2).max(1));
        })
        .protocols(&[ProtocolKind::DagT]);
    (spec, |r| r.print(&[Column::Throughput, Column::PropMs, Column::Messages]))
}

/// Ablation: eager read-one-write-all vs the lazy protocols — the §1
/// motivation ("eager protocols are unlikely to scale beyond a small
/// number of sites"; transaction size grows with the degree of
/// replication, and deadlock probability with its fourth power).
pub fn ablation_eager(scale: &Scale) -> Sweep {
    let spec = scale
        .spec("ablation_eager", "Ablation: Eager vs BackEdge vs PSL across replication")
        .axis("r", [0.1, 0.3, 0.5, 0.8], |t, _, r| t.replication_prob = r)
        .protocols(&[ProtocolKind::Eager, ProtocolKind::BackEdge, ProtocolKind::Psl]);
    (spec, |r| r.print(&[Column::Throughput, Column::AbortPct]))
}

/// Fault sweep: availability and recovery latency vs crash intensity.
///
/// The x axis is the number of seeded crash/restart windows injected
/// into the run ([`FaultPlan::random_crashes`]); every window lands in
/// the first virtual second, well inside even `REPRO_SCALE=quick` runs.
/// Swept over the crash-capable protocols (`Engine::new` refuses a crash
/// plan under the eager family): the figure shows how much throughput each protocol gives up
/// per crash and how quickly a rejoined site catches up (WAL replay plus
/// backlog drain). The strawman NaiveLazy is omitted — its points would
/// only render as `ERR:1SR` cells.
pub fn fault_sweep(scale: &Scale) -> Sweep {
    let spec = scale
        .spec("fault_sweep", "Fault sweep: crash intensity vs availability/recovery")
        // DAG protocols need an acyclic graph.
        .table(TableOneParams { backedge_prob: 0.0, ..scale.table() })
        .axis("crashes", [0.0, 1.0, 2.0, 3.0, 4.0], |t, sim, c| {
            // One deterministic plan per x value: the plan is part of
            // the point's configuration, not of the seed.
            sim.faults = FaultPlan::random_crashes(
                0xFA57 + c as u64,
                t.num_sites,
                SimTime(1_000_000),
                c as u32,
                SimDuration::millis(150),
            );
        })
        .protocols(&[ProtocolKind::DagWt, ProtocolKind::DagT, ProtocolKind::Psl]);
    (spec, |r| {
        r.print(&[Column::Throughput, Column::Crashes, Column::Availability, Column::RecoveryMs]);
        println!("\nEach crash window takes one site down for 150 ms; requested windows for");
        println!("the same site may merge, so the observed crash count can sit below x.");
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let names: std::collections::HashSet<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment names");
    }

    #[test]
    fn each_sweep_spec_id_is_its_registry_name() {
        let scale = Scale { txns: 10, seeds: 1, workers: 1, emit: crate::Emit::default() };
        let mut sweeps = 0;
        for &(name, _, run) in EXPERIMENTS {
            if let Run::Sweep(build) = run {
                assert_eq!(build(&scale).0.id(), name);
                sweeps += 1;
            }
        }
        assert_eq!(sweeps, 15, "every sweep but table1, which runs no simulation");
    }

    #[test]
    fn every_documented_repro_command_names_a_registered_experiment() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut seen = 0;
        for file in ["tools/ci.sh", "README.md", "DESIGN.md"] {
            let text = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
            // The command forms: `./target/release/repro NAME`, `repro
            // NAME` in backticks, and `cargo run … --bin repro -- NAME`.
            for pat in ["/repro ", "`repro ", "repro -- "] {
                for (at, _) in text.match_indices(pat) {
                    let name: String = text[at + pat.len()..]
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    if name.is_empty() {
                        continue;
                    }
                    assert!(find(&name).is_some(), "{file}: `repro {name}` is not registered");
                    seen += 1;
                }
            }
        }
        assert!(seen >= 10, "expected the docs and ci.sh to name experiments, saw {seen}");
    }
}
