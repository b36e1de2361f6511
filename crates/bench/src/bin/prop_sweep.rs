//! `prop_sweep` — batched propagation with parallel secondary apply vs
//! the seed's one-frame-per-payload serial applier.
//!
//! Each protocol runs as a pair of series over the link-batch axis: a
//! `serial` control pinned at `batch_size = 1, apply_pool = 1`, and a
//! `batched` series that sweeps the coalescing bound with a four-wide
//! apply window. Coalescing amortizes the per-message dispatch cost
//! (`msg_cpu`) over the payloads of a frame, and the apply window lets
//! write-disjoint secondary subtransactions overlap their `apply_cpu` —
//! at the price of the linger a partially filled batch waits before it
//! flushes. The sweep reports the paper's recency metric (§5.3.4
//! commit-to-last-replica delay) next to throughput and message volume,
//! and writes the figure as JSON (`--out`, default
//! `BENCH_propagation.json` — a local output, gitignored).
//!
//! The run exits 1 unless, for **both** DAG(WT) and DAG(T), some
//! batched point strictly beats the serial control at the same x on
//! recency or on throughput — the ISSUE 10 acceptance bar. (`--smoke`
//! shrinks the axis to `{1, 8}` and the averaging to one seed for the
//! ci.sh gate.)
//!
//! ```text
//! prop_sweep [--out FILE] [--smoke]
//! ```
//!
//! Scale knobs are the runner's usual environment variables
//! (`REPRO_SCALE=quick`, `REPRO_TXNS`, `REPRO_SEEDS`, `REPRO_WORKERS`).

use repl_bench::{Column, ExperimentSpec};
use repl_core::config::{ProtocolKind, SimParams};
use repl_workload::TableOneParams;

const USAGE: &str =
    "usage: prop_sweep [--out FILE] [--smoke]\n\nDefault: --out BENCH_propagation.json.";

/// Apply-window width of every batched series.
const POOL: u32 = 4;

fn main() {
    let mut out = "BENCH_propagation.json".to_string();
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(v) => out = v,
                None => {
                    eprintln!("prop_sweep: --out needs a value\n\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => {
                eprintln!("prop_sweep: unknown flag {other:?}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    // Every protocol shares one acyclic placement (the DAG protocols
    // require it; BackEdge degenerates to its lazy phase, which is
    // exactly the propagation path under test). Table 1's defaults
    // (r = 0.2, s = 0.5) leave per-link traffic so sparse — one
    // secondary every few hundred milliseconds — that there is nothing
    // to coalesce and no queue to overlap; this sweep measures the
    // propagation path, so it cranks replication until that path
    // carries load: every update fans out to most sites.
    let table = TableOneParams {
        backedge_prob: 0.0,
        replication_prob: 0.6,
        site_prob: 1.0,
        ..repl_bench::default_table()
    };

    // NaiveLazy is absent by harness design: the runner rejects its
    // (expected) non-serializable histories, and the strawman's batching
    // identity is already pinned by the sim proptests and the
    // differential matrix.
    let protocols = [ProtocolKind::DagWt, ProtocolKind::DagT, ProtocolKind::BackEdge];
    let xs: Vec<f64> = if smoke { vec![1.0, 8.0] } else { vec![1.0, 2.0, 4.0, 8.0, 16.0] };

    let mut spec = ExperimentSpec::new(
        "prop_sweep",
        "Batched propagation: recency and throughput vs link batch size",
    )
    .table(table)
    // The serial controls are pinned (`apply_pool == 1` marks them), so
    // the axis only sweeps the batched series; identical control points
    // collapse in the result cache.
    .axis("link batch", xs, |_, sim, b| {
        if sim.apply_pool > 1 {
            sim.batch_size = b as u32;
        }
    });
    if smoke {
        spec = spec.seeds(1);
    }
    for p in protocols {
        let serial = SimParams { protocol: p, ..SimParams::default() };
        let batched = SimParams {
            apply_pool: POOL,
            batch_linger: repl_sim::SimDuration::millis(1),
            ..serial.clone()
        };
        spec = spec
            .series(format!("{} serial", p.name()), serial)
            .series(format!("{} batched", p.name()), batched);
    }
    let result = spec.run();

    result.print(&[Column::Throughput, Column::PropMs, Column::Messages]);
    for (x, series, err) in result.errors() {
        eprintln!("prop_sweep: {series} at batch {x} failed: {err}");
    }

    // Acceptance: for both DAG protocols, some batched point must
    // strictly beat the serial control at the same x on recency or on
    // throughput. Columns interleave serial/batched per protocol.
    let mut bar_failed = false;
    for (pi, p) in protocols.iter().enumerate() {
        let (si, bi) = (2 * pi, 2 * pi + 1);
        let mut improved = false;
        for (ri, row) in result.rows.iter().enumerate() {
            let (Some(serial), Some(batched)) = (result.cell(ri, si), result.cell(ri, bi)) else {
                continue;
            };
            let thr = batched.throughput_per_site / serial.throughput_per_site;
            let recency = batched.mean_propagation_ms / serial.mean_propagation_ms;
            eprintln!(
                "prop_sweep: {} batch {:.0}: thr {:+.1}%, recency {:+.1}%, msgs {} -> {}",
                p.name(),
                row.x,
                (thr - 1.0) * 100.0,
                (recency - 1.0) * 100.0,
                serial.messages,
                batched.messages,
            );
            if row.x > 1.0
                && (batched.throughput_per_site > serial.throughput_per_site
                    || batched.mean_propagation_ms < serial.mean_propagation_ms)
            {
                improved = true;
            }
        }
        if !improved && matches!(p, ProtocolKind::DagWt | ProtocolKind::DagT) {
            eprintln!(
                "prop_sweep: {} batched never beat serial on recency or throughput",
                p.name()
            );
            bar_failed = true;
        }
    }

    match std::fs::write(&out, result.json()) {
        Ok(()) => eprintln!("prop_sweep: wrote {out}"),
        Err(e) => {
            eprintln!("prop_sweep: cannot write {out}: {e}");
            std::process::exit(2);
        }
    }
    if bar_failed {
        std::process::exit(1);
    }
}
