//! Throughput of the discrete-event engine, per protocol.
//!
//! Measures a complete `Engine::run` over a canned conflict-free
//! workload on a 4-site diamond placement — the event loop, the lock
//! tables, the propagation machinery and the metrics fold all sit on
//! this path, so a regression here multiplies into hours across a
//! parameter sweep.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use repl_copygraph::DataPlacement;
use repl_core::config::{ProtocolKind, SimParams};
use repl_core::engine::Engine;
use repl_types::{splitmix64, Op, SiteId, SPLITMIX64_GAMMA};

/// A 4-site diamond: s0 → {s1, s2} → s3, one item per site, each item
/// replicated at every downstream site.
fn diamond() -> DataPlacement {
    let mut p = DataPlacement::new(4);
    p.add_item(SiteId(0), &[SiteId(1), SiteId(2), SiteId(3)]);
    p.add_item(SiteId(1), &[SiteId(3)]);
    p.add_item(SiteId(2), &[SiteId(3)]);
    p.add_item(SiteId(3), &[]);
    p
}

/// The next draw of the splitmix64 stream at `state`.
fn draw(state: &mut u64) -> u64 {
    let z = splitmix64(*state);
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    z
}

/// One thread per site writing its own primary item — conflict-free, so
/// every protocol commits every transaction and the run length is fixed
/// by the propagation path alone.
fn programs(placement: &DataPlacement, txns_per_site: u32) -> Vec<Vec<Vec<Vec<Op>>>> {
    let mut state = 0xE57E_95EEDu64;
    (0..placement.num_sites())
        .map(|s| {
            let primaries = placement.primaries_at(SiteId(s));
            let txns: Vec<Vec<Op>> = (0..txns_per_site)
                .map(|_| {
                    let item = primaries[draw(&mut state) as usize % primaries.len()];
                    vec![Op::write(item, (draw(&mut state) % 100_000) as i64)]
                })
                .collect();
            vec![txns]
        })
        .collect()
}

fn bench_engine_step(c: &mut Criterion) {
    const TXNS: u32 = 50;
    let placement = diamond();
    let progs = programs(&placement, TXNS);
    for protocol in
        [ProtocolKind::NaiveLazy, ProtocolKind::DagWt, ProtocolKind::DagT, ProtocolKind::BackEdge]
    {
        let mut params = SimParams::quick_test(protocol);
        params.threads_per_site = 1;
        params.txns_per_thread = TXNS;
        c.bench_function(&format!("engine_step/{}/serial/{TXNS}_txns", protocol.name()), |b| {
            b.iter_batched(
                || {
                    Engine::new(&placement, &params, progs.clone())
                        .expect("diamond placement builds for every protocol")
                },
                |mut engine| {
                    let report = engine.run();
                    assert!(!report.stalled);
                    black_box(report.summary.commits)
                },
                BatchSize::SmallInput,
            );
        });
    }
}

criterion_group!(benches, bench_engine_step);
criterion_main!(benches);
