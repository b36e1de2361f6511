//! Criterion benches: one scaled-down point per paper figure, so `cargo
//! bench` tracks the end-to-end cost of every experiment code path.
//!
//! These measure *simulator* wall-clock per experiment point (the full
//! figures are regenerated by `repro <experiment>`, from the registry in
//! `src/experiments`); they exist to catch performance regressions in
//! the engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use repl_core::config::{ProtocolKind, SimParams};
use repl_core::engine::Engine;
use repl_core::scenario::generate_programs;
use repl_workload::{build_placement, TableOneParams};

fn point(table: &TableOneParams, protocol: ProtocolKind) -> Engine {
    let placement = build_placement(table, 42);
    let params = table.sim_params(&SimParams { protocol, ..Default::default() });
    let programs = generate_programs(&placement, &table.mix(), 3, table.txns_per_thread, 1);
    Engine::new(&placement, &params, programs).unwrap()
}

fn bench_point(c: &mut Criterion, name: &str, table: TableOneParams, protocol: ProtocolKind) {
    c.bench_function(name, |b| {
        b.iter_batched(
            || point(&table, protocol),
            |mut engine| {
                let report = engine.run();
                assert!(report.serializable);
                report.summary.commits
            },
            BatchSize::PerIteration,
        )
    });
}

fn small(txns: u32) -> TableOneParams {
    TableOneParams { txns_per_thread: txns, ..Default::default() }
}

fn bench_fig2a(c: &mut Criterion) {
    bench_point(c, "fig2a/backedge_b02", small(25), ProtocolKind::BackEdge);
    bench_point(c, "fig2a/psl_b02", small(25), ProtocolKind::Psl);
}

fn bench_fig2b(c: &mut Criterion) {
    let mut t = small(25);
    t.replication_prob = 0.5;
    bench_point(c, "fig2b/backedge_r05", t.clone(), ProtocolKind::BackEdge);
    bench_point(c, "fig2b/psl_r05", t, ProtocolKind::Psl);
}

fn bench_fig3a(c: &mut Criterion) {
    let mut t = small(25);
    t.backedge_prob = 0.0;
    t.replication_prob = 0.5;
    t.read_txn_prob = 0.0;
    t.read_op_prob = 0.5;
    bench_point(c, "fig3a/backedge_ro05", t.clone(), ProtocolKind::BackEdge);
    bench_point(c, "fig3a/psl_ro05", t, ProtocolKind::Psl);
}

fn bench_fig3b(c: &mut Criterion) {
    let mut t = small(25);
    t.backedge_prob = 1.0;
    t.replication_prob = 0.5;
    t.read_txn_prob = 0.0;
    t.read_op_prob = 0.5;
    bench_point(c, "fig3b/backedge_ro05", t.clone(), ProtocolKind::BackEdge);
    bench_point(c, "fig3b/psl_ro05", t, ProtocolKind::Psl);
}

fn bench_dag_protocols(c: &mut Criterion) {
    let mut t = small(25);
    t.backedge_prob = 0.0;
    bench_point(c, "dag/dag_wt", t.clone(), ProtocolKind::DagWt);
    bench_point(c, "dag/dag_t", t.clone(), ProtocolKind::DagT);
    bench_point(c, "dag/eager", t, ProtocolKind::Eager);
}

/// Full sweep through the runner (expand → schedule → aggregate → emit),
/// serial vs 4 workers, cache disabled so engine time dominates and the
/// pool's scheduling overhead is what the comparison isolates.
fn bench_runner(c: &mut Criterion) {
    use repl_bench::{Column, ExperimentSpec, Runner};

    fn spec() -> ExperimentSpec {
        ExperimentSpec::new("bench_runner", "runner microsweep")
            .table(small(25))
            .axis("b", [0.0, 0.5, 1.0], |t, _, b| t.backedge_prob = b)
            .protocols(&[ProtocolKind::BackEdge, ProtocolKind::Psl])
            .seeds(1)
    }
    c.bench_function("runner/sweep_serial", |b| {
        b.iter(|| Runner::new().run(&spec()).text(&[Column::Throughput]).len())
    });
    c.bench_function("runner/sweep_4_workers", |b| {
        b.iter(|| Runner::new().workers(4).run(&spec()).text(&[Column::Throughput]).len())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig2a, bench_fig2b, bench_fig3a, bench_fig3b, bench_dag_protocols,
        bench_runner
}
criterion_main!(benches);
