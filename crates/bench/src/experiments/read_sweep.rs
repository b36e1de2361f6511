//! `read_sweep` — MVCC snapshot reads vs 2PL S-lock reads across the
//! paper's read-transaction-probability axis.
//!
//! The headline workloads are read-heavy, and under strict 2PL every
//! read-only transaction still queues S-lock requests against the
//! propagation write stream. This sweep runs the same DAG(WT) workload
//! three ways — classic 2PL reads, lock-free MVCC snapshot reads, and
//! MVCC with a group-commit batch of 8 amortizing the fsync-equivalent —
//! over read-transaction probability 0.5–1.0, and writes the full sweep
//! as JSON (`--out`, default `BENCH_mvcc.json`). A comparison line per
//! point reports the MVCC speedup; the run exits 1 unless MVCC strictly
//! beats the 2PL baseline somewhere at read-pct ≥ 0.8 and never regresses
//! there (the subsystem's acceptance bar — at read-pct 1.0 the workload
//! has no writers, so the two read paths legitimately tie).
//!
//! ```text
//! repro read_sweep [--out FILE]
//! ```
//!
//! Scale knobs are the runner's usual environment variables
//! (`REPRO_SCALE=quick`, `REPRO_TXNS`, `REPRO_SEEDS`, `REPRO_WORKERS`).

use repl_core::config::{ProtocolKind, SimParams};
use repl_sim::SimDuration;
use repl_workload::TableOneParams;

use super::Failure;
use crate::{Column, Scale};

const USAGE: &str = "usage: repro read_sweep [--out FILE]\n\nDefault: --out BENCH_mvcc.json.";

/// The x values where the acceptance bar applies (MVCC must
/// beat 2PL at read-pct >= 0.8).
const ACCEPTANCE_X: f64 = 0.8;

/// Run the sweep; see the module docs for the flags and exit codes.
pub fn main(args: &[String]) -> Result<(), Failure> {
    let Some(out) = super::out_flag(args, "BENCH_mvcc.json", USAGE)? else {
        return Ok(());
    };
    let scale = Scale::from_env()?;

    // All series pay the same per-flush fsync-equivalent, so the 2PL/MVCC
    // gap isolates the read path and the GC8 series isolates batching.
    let base = SimParams {
        protocol: ProtocolKind::DagWt,
        fsync_cpu: SimDuration::micros(800),
        ..SimParams::default()
    };
    let mvcc = SimParams { snapshot_reads: true, ..base.clone() };
    let mvcc_gc8 = SimParams { group_commit_batch: 8, ..mvcc.clone() };

    let spec = scale
        .spec(
            "read_sweep",
            "MVCC snapshot reads vs 2PL: Throughput vs Read Transaction Probability",
        )
        // DAG(WT) needs an acyclic copy graph, so the placement runs with
        // b = 0 (the same base the DAG figures use).
        .table(TableOneParams { backedge_prob: 0.0, ..scale.table() })
        .axis("read-txn prob", (5..=10).map(|i| i as f64 / 10.0), |t, _, p| t.read_txn_prob = p)
        .series("2PL", base)
        .series("MVCC", mvcc)
        .series("MVCC+GC8", mvcc_gc8);
    let result = scale.runner().run(&spec);

    result.print(&[Column::Throughput, Column::ResponseMs, Column::AbortPct]);

    let mut bar_failed = false;
    let mut improved = false;
    for (ri, row) in result.rows.iter().enumerate() {
        let (Some(locked), Some(snap)) = (result.cell(ri, 0), result.cell(ri, 1)) else {
            eprintln!("read_sweep: point {} failed to simulate", row.x);
            bar_failed = bar_failed || row.x >= ACCEPTANCE_X;
            continue;
        };
        let speedup = snap.throughput_per_site / locked.throughput_per_site;
        eprintln!(
            "read_sweep: p={:.1}: 2PL {:.2} txn/s/site, MVCC {:.2} ({:+.1}%)",
            row.x,
            locked.throughput_per_site,
            snap.throughput_per_site,
            (speedup - 1.0) * 100.0
        );
        if row.x >= ACCEPTANCE_X {
            improved = improved || speedup > 1.0;
            if speedup < 1.0 {
                eprintln!("read_sweep: MVCC regressed vs 2PL at read-pct {:.1}", row.x);
                bar_failed = true;
            }
        }
    }
    if !improved {
        eprintln!("read_sweep: MVCC never beat 2PL at read-pct >= {ACCEPTANCE_X}");
        bar_failed = true;
    }

    std::fs::write(&out, result.json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("read_sweep: wrote {out}");
    if bar_failed {
        return Err(Failure::Bar);
    }
    Ok(())
}
