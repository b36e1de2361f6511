//! Integration tests for the sweep runner: parallel execution must be
//! byte-identical to serial, and a failed point must surface as an error
//! cell.
//!
//! Specs are configured explicitly (workers, seeds) rather than through
//! `REPRO_*` so the tests neither read nor race on process environment.

use repl_bench::{Column, ExperimentSpec, Runner};
use repl_core::config::ProtocolKind;
use repl_workload::TableOneParams;

const COLS: &[Column] = &[Column::Throughput, Column::AbortPct, Column::Messages];

/// A scaled-down Figure 2(a): 3 x-values x 2 protocols x 2 seeds.
fn quick_fig2a() -> ExperimentSpec {
    ExperimentSpec::new("fig2a_quick", "Figure 2(a), quick")
        .table(TableOneParams { txns_per_thread: 40, ..Default::default() })
        .axis("b", [0.0, 0.5, 1.0], |t, _, b| t.backedge_prob = b)
        .protocols(&[ProtocolKind::BackEdge, ProtocolKind::Psl])
        .seeds(2)
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let serial = Runner::new().run(&quick_fig2a());
    let parallel = Runner::new().workers(4).run(&quick_fig2a());

    assert_eq!(serial.stats.workers, 1);
    assert_eq!(parallel.stats.workers, 4);
    assert_eq!(serial.stats.points, 12, "3 xs x 2 series x 2 seeds");
    assert_eq!(parallel.stats.points, 12);

    // The emitted artifacts — text table, CSV, JSON — are the figure;
    // all three must not depend on worker count.
    assert_eq!(serial.text(COLS), parallel.text(COLS));
    assert_eq!(serial.csv(COLS), parallel.csv(COLS));
    assert_eq!(serial.json(), parallel.json());
}

#[test]
fn error_cells_are_reported_not_panicked() {
    // NaiveLazy fails the serializability oracle; the sweep must carry
    // that as an error cell and keep the healthy series intact.
    let result = Runner::new().workers(2).run(
        &ExperimentSpec::new("mixed", "healthy and failing series")
            .table(TableOneParams { txns_per_thread: 30, ..Default::default() })
            .protocols(&[ProtocolKind::BackEdge, ProtocolKind::NaiveLazy])
            .seeds(1),
    );
    assert!(result.cell(0, 0).is_some(), "BackEdge cell is healthy");
    assert!(result.cell(0, 1).is_none(), "NaiveLazy cell failed");
    let errors = result.errors();
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].1, "NaiveLazy");
    assert_eq!(result.stats.failed, 1);
    assert!(result.text(&[Column::Throughput]).contains("ERR:1SR"));
}
