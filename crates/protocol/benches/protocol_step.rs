//! Throughput of the protocol step function, per protocol.
//!
//! Measures `SiteMachine::on_input` in inputs/sec over a canned
//! commit/deliver workload on a 4-site diamond placement, so regressions
//! in the hot step path (queue scan, timestamp comparison, routing) show
//! up before they cost a sweep hours.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use repl_copygraph::{CopyGraph, DataPlacement, PropagationTree};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

use repl_protocol::{Command, Input, ProtocolId, SiteMachine};

/// A 4-site diamond: s0 → {s1, s2} → s3, one item per site, each item
/// replicated at every downstream site.
fn diamond() -> Arc<DataPlacement> {
    let mut p = DataPlacement::new(4);
    p.add_item(SiteId(0), &[SiteId(1), SiteId(2), SiteId(3)]);
    p.add_item(SiteId(1), &[SiteId(3)]);
    p.add_item(SiteId(2), &[SiteId(3)]);
    p.add_item(SiteId(3), &[]);
    Arc::new(p)
}

fn machines(protocol: ProtocolId) -> Vec<SiteMachine> {
    let placement = diamond();
    let graph = Arc::new(CopyGraph::from_placement(&placement));
    let tree = match protocol {
        ProtocolId::DagWt | ProtocolId::BackEdge => {
            Some(Arc::new(PropagationTree::general(&graph).expect("diamond is a DAG")))
        }
        _ => None,
    };
    (0..4)
        .map(|s| {
            SiteMachine::new(SiteId(s), protocol, placement.clone(), graph.clone(), tree.clone())
                .expect("diamond placement builds for every protocol")
        })
        .collect()
}

/// Drive `n` commits at site 0 through the whole fleet, synchronously
/// executing every command the machines emit. Returns the number of
/// `on_input` calls made (the unit the benchmark reports).
fn drive(machines: &mut [SiteMachine], n: u64) -> u64 {
    let mut inputs = 0u64;
    for seq in 0..n {
        let gid = GlobalTxnId::new(SiteId(0), seq);
        let writes = vec![(ItemId(0), Value::Int(seq as i64))];
        let mut work: Vec<(usize, Input)> =
            vec![(0, Input::CommitIntent { gid, writes: writes.clone() })];
        let mut committed = false;
        while let Some((site, input)) = work.pop() {
            inputs += 1;
            let cmds = machines[site].on_input(input).expect("bench inputs are valid");
            for cmd in cmds {
                match cmd {
                    Command::CommitLocal { gid } => {
                        if !committed {
                            committed = true;
                            work.push((site, Input::Committed { gid, writes: writes.clone() }));
                        }
                    }
                    Command::Apply { gid, .. } => work.push((site, Input::Applied { gid })),
                    Command::Prepare { gid, .. } => work.push((site, Input::Prepared { gid })),
                    Command::Send { to, payload } => {
                        work.push((
                            to.index(),
                            Input::Deliver { from: SiteId(site as u32), payload },
                        ));
                    }
                    Command::CommitPrepared { .. }
                    | Command::AbortPrepared { .. }
                    | Command::ArmEagerTimeout { .. } => {}
                    Command::SendBatch | Command::ApplyMany => {
                        unreachable!("no machine emits a batched command")
                    }
                }
            }
        }
    }
    inputs
}

fn bench_protocol_step(c: &mut Criterion) {
    for protocol in
        [ProtocolId::NaiveLazy, ProtocolId::DagWt, ProtocolId::DagT, ProtocolId::BackEdge]
    {
        c.bench_function(&format!("protocol_step/{protocol}/100_commits"), |b| {
            b.iter_batched(
                || machines(protocol),
                |mut fleet| black_box(drive(&mut fleet, 100)),
                BatchSize::SmallInput,
            );
        });
    }
}

criterion_group!(benches, bench_protocol_step);
criterion_main!(benches);
