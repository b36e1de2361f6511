//! The differential matrix: one seeded workload, three deployments.
//!
//! Since the propagation decisions of every protocol live in one shared
//! sans-I/O [`repl_protocol::SiteMachine`], the discrete-event simulator,
//! the in-process cluster (a reactor thread per site), and the
//! process-per-site loopback cluster (`repld`) must all end in
//! **byte-identical** final copy state — same values, same writer
//! transaction ids, same wire encoding — for every protocol on every
//! placement.
//!
//! The workloads are conflict-free by construction (write-only, one
//! submitting thread per site, each site writing only its own primary
//! items), so the final state is fixed by the per-site submission order
//! alone: simulated lock schedules, OS thread interleavings, and TCP
//! framing may differ, the bytes may not. A run where the engine and the
//! runtime drifted apart — a gid allocated differently, a write set
//! filtered differently, a subtransaction routed to the wrong place —
//! shows up here as a byte diff.
//!
//! `tools/ci.sh` re-runs this file at `DIFF_MATRIX_TXNS=6` as a gate.

use std::path::Path;
use std::time::Duration;

use repl_copygraph::DataPlacement;
use repl_core::config::{ProtocolKind, SimParams};
use repl_core::engine::Engine;
use repl_net::{decode_cells, encode_cells};
use repl_runtime::{
    Cluster, ClusterHandle, LaunchOptions, NetFaultPlan, ProcCluster, RuntimeOptions,
    RuntimeProtocol, Tuning,
};
use repl_types::{splitmix64, GlobalTxnId, ItemId, Op, SiteId, Value, SPLITMIX64_GAMMA};

fn repld() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_repld"))
}

// ---------------------------------------------------------------------
// Seeded topologies.
// ---------------------------------------------------------------------

/// Three sites, forward edges only: 0 → {1,2}, 1 → 2. Valid for every
/// protocol (site numbering is topological).
fn fan_placement() -> DataPlacement {
    let mut p = DataPlacement::new(3);
    p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
    p.add_item(SiteId(1), &[SiteId(2)]);
    p.add_item(SiteId(0), &[SiteId(2)]);
    p.add_item(SiteId(2), &[]);
    p
}

/// Four sites in a diamond: 0 → {1,2} → 3, plus a 1 → 2 chord. Deeper
/// routing, multiple parents at 2 and 3 (exercises DAG(T)'s per-parent
/// merge).
fn diamond_placement() -> DataPlacement {
    let mut p = DataPlacement::new(4);
    p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
    p.add_item(SiteId(0), &[SiteId(3)]);
    p.add_item(SiteId(1), &[SiteId(2), SiteId(3)]);
    p.add_item(SiteId(2), &[SiteId(3)]);
    p.add_item(SiteId(1), &[SiteId(3)]);
    p.add_item(SiteId(3), &[]);
    p
}

/// Three sites with the backedge 2 → 0: exercises BackEdge's eager
/// special phase (and NaiveLazy's indifference to cycles).
fn cyclic_placement() -> DataPlacement {
    let mut p = DataPlacement::new(3);
    p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
    p.add_item(SiteId(1), &[SiteId(2)]);
    p.add_item(SiteId(2), &[SiteId(0)]);
    p
}

// ---------------------------------------------------------------------
// Seeded conflict-free programs.
// ---------------------------------------------------------------------

/// The next draw of the splitmix64 stream at `state`.
fn draw(state: &mut u64) -> u64 {
    let z = splitmix64(*state);
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    z
}

/// One thread per site; each transaction writes one or two of the
/// site's *own primary* items with seed-derived values. No item is ever
/// written by two sites, so all three deployments are order-equivalent.
fn programs(placement: &DataPlacement, txns_per_site: u32, seed: u64) -> Vec<Vec<Vec<Vec<Op>>>> {
    let mut state = seed;
    (0..placement.num_sites())
        .map(|s| {
            let primaries = placement.primaries_at(SiteId(s));
            let txns: Vec<Vec<Op>> = if primaries.is_empty() {
                Vec::new()
            } else {
                (0..txns_per_site)
                    .map(|_| {
                        let width = 1 + (draw(&mut state) % 2) as usize;
                        let mut ops: Vec<Op> = Vec::new();
                        for _ in 0..width {
                            let item = primaries[draw(&mut state) as usize % primaries.len()];
                            let value = (draw(&mut state) % 100_000) as i64;
                            if !ops.iter().any(|o| o.item == item) {
                                ops.push(Op::write(item, value));
                            }
                        }
                        ops
                    })
                    .collect()
            };
            vec![txns]
        })
        .collect()
}

/// Like [`programs`], but every third transaction is read-only over one
/// or two items with a copy at the site. Reads never conflict and never
/// write, so the workload stays order-equivalent across deployments —
/// while still consuming gids and exercising the snapshot-read path
/// when MVCC is enabled.
fn mixed_programs(
    placement: &DataPlacement,
    txns_per_site: u32,
    seed: u64,
) -> Vec<Vec<Vec<Vec<Op>>>> {
    let mut state = seed;
    (0..placement.num_sites())
        .map(|s| {
            let site = SiteId(s);
            let primaries = placement.primaries_at(site);
            let local: Vec<ItemId> = placement.items_at(site).to_vec();
            let txns: Vec<Vec<Op>> = if primaries.is_empty() || local.is_empty() {
                Vec::new()
            } else {
                (0..txns_per_site)
                    .map(|t| {
                        let width = 1 + (draw(&mut state) % 2) as usize;
                        let mut ops: Vec<Op> = Vec::new();
                        if t % 3 == 2 {
                            for _ in 0..width {
                                let item = local[draw(&mut state) as usize % local.len()];
                                if !ops.iter().any(|o| o.item == item) {
                                    ops.push(Op::read(item));
                                }
                            }
                        } else {
                            for _ in 0..width {
                                let item = primaries[draw(&mut state) as usize % primaries.len()];
                                let value = (draw(&mut state) % 100_000) as i64;
                                if !ops.iter().any(|o| o.item == item) {
                                    ops.push(Op::write(item, value));
                                }
                            }
                        }
                        ops
                    })
                    .collect()
            };
            vec![txns]
        })
        .collect()
}

// ---------------------------------------------------------------------
// The three deployments.
// ---------------------------------------------------------------------

/// Run the programs through the discrete-event simulator and serialize
/// each site's copy state with the shared wire codec — the same bytes
/// `Cluster::copy_state` / `ProcCluster::copy_state` produce.
fn sim_final_state(
    placement: &DataPlacement,
    protocol: ProtocolKind,
    progs: &[Vec<Vec<Vec<Op>>>],
    txns_per_site: u32,
) -> Vec<bytes::Bytes> {
    sim_final_state_opts(placement, protocol, progs, txns_per_site, false)
}

/// [`sim_final_state`] with the MVCC snapshot-read dimension, asserting
/// one-copy serializability of the simulated history as well.
fn sim_final_state_opts(
    placement: &DataPlacement,
    protocol: ProtocolKind,
    progs: &[Vec<Vec<Vec<Op>>>],
    txns_per_site: u32,
    mvcc_reads: bool,
) -> Vec<bytes::Bytes> {
    let mut params = SimParams::quick_test(protocol);
    params.threads_per_site = 1;
    params.txns_per_thread = txns_per_site;
    // Every executor of a cell runs the live fleet's `Tuning`, but for
    // the eager timeout: a sim-side eager timeout retries the
    // transaction under a fresh gid, which would skew the writer ids;
    // the runtime's 10 s eager deadline never fires on this
    // conflict-free workload, so neither may the simulator's.
    params.tuning =
        Tuning { mvcc_reads, eager_timeout: Duration::from_secs(50_000), ..Tuning::LIVE };
    let mut engine = Engine::new(placement, &params, progs.to_vec()).expect("engine builds");
    let report = engine.run();
    assert!(!report.stalled, "{protocol:?} sim stalled");
    assert_eq!(report.summary.incomplete_propagations, 0);
    assert_eq!(report.summary.aborts, 0, "{protocol:?}: conflict-free workload aborted");
    if mvcc_reads {
        assert!(report.serializable, "{protocol:?} MVCC sim not 1SR: {:?}", report.cycle);
    }
    (0..placement.num_sites())
        .map(|s| {
            let site = SiteId(s);
            let mut items: Vec<ItemId> = placement.items_at(site).to_vec();
            items.sort_unstable();
            let cells: Vec<(ItemId, Value, Option<GlobalTxnId>)> = items
                .into_iter()
                .map(|i| {
                    let (value, writer) = engine.value_at(site, i).expect("copy exists");
                    (i, value, writer)
                })
                .collect();
            encode_cells(&cells)
        })
        .collect()
}

/// Round-robin the programs through any deployment and capture every
/// site's quiescent copy state. One driver for both live deployments —
/// the [`ClusterHandle`] seam under test.
fn drive_final_state(
    cluster: &dyn ClusterHandle,
    progs: &[Vec<Vec<Vec<Op>>>],
) -> Vec<bytes::Bytes> {
    let rounds = progs.iter().map(|site| site[0].len()).max().unwrap_or(0);
    for round in 0..rounds {
        for (site, prog) in progs.iter().enumerate() {
            if let Some(ops) = prog[0].get(round) {
                if !ops.is_empty() {
                    cluster.execute(SiteId(site as u32), ops.clone()).expect("commit");
                }
            }
        }
    }
    cluster.quiesce().expect("quiesce");
    (0..cluster.num_sites()).map(|s| cluster.copy_state(SiteId(s)).expect("copy state")).collect()
}

/// The in-process cluster column.
fn in_process_final_state(
    placement: &DataPlacement,
    protocol: RuntimeProtocol,
    progs: &[Vec<Vec<Vec<Op>>>],
) -> Vec<bytes::Bytes> {
    let cluster = Cluster::start(placement, protocol).unwrap();
    let states = drive_final_state(&cluster, progs);
    cluster.shutdown();
    states
}

/// One `repld` OS process per site over loopback TCP.
fn proc_final_state(
    placement: &DataPlacement,
    protocol: RuntimeProtocol,
    progs: &[Vec<Vec<Vec<Op>>>],
) -> Vec<bytes::Bytes> {
    let cluster =
        ProcCluster::launch_with_options(repld(), placement, protocol, &LaunchOptions::default())
            .unwrap();
    let states = drive_final_state(&cluster, progs);
    cluster.shutdown();
    states
}

// ---------------------------------------------------------------------
// The matrix.
// ---------------------------------------------------------------------

/// Number of transactions per site; `DIFF_MATRIX_TXNS` overrides (the
/// ci.sh quick gate and soak runs tune this without a rebuild).
fn txns_per_site() -> u32 {
    std::env::var("DIFF_MATRIX_TXNS").ok().and_then(|v| v.parse().ok()).unwrap_or(10)
}

/// Byte equality with a decoded cell-level diff on failure.
fn assert_states_identical(label: &str, other: &str, a: &[bytes::Bytes], b: &[bytes::Bytes]) {
    if a == b {
        return;
    }
    for (s, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            let xc = decode_cells(x.clone()).expect("sim image decodes");
            let yc = decode_cells(y.clone()).expect("cluster image decodes");
            for (cx, cy) in xc.iter().zip(&yc) {
                if cx != cy {
                    eprintln!("{label}: site {s}: sim {cx:?} vs {other} {cy:?}");
                }
            }
        }
    }
    panic!("{label}: sim and {other} final copy state differ");
}

fn assert_matrix_cell(
    label: &str,
    placement: &DataPlacement,
    sim: ProtocolKind,
    runtime: RuntimeProtocol,
    seed: u64,
) {
    let txns = txns_per_site();
    let progs = programs(placement, txns, seed);
    let sim_state = sim_final_state(placement, sim, &progs, txns);
    let in_process_state = in_process_final_state(placement, runtime, &progs);
    assert_states_identical(label, "in-process cluster", &sim_state, &in_process_state);
    let tcp_state = proc_final_state(placement, runtime, &progs);
    assert_states_identical(label, "TCP cluster", &sim_state, &tcp_state);
    // Non-degenerate: the workload must actually have written something.
    assert!(sim_state.iter().any(|b| b.len() > 4), "{label}: empty workload");
}

/// Replay a deployment's merged history through the one-copy
/// serializability checker, and require that read-only transactions
/// actually committed reads (the MVCC column must not be degenerate).
fn assert_history_1sr(label: &str, cluster: &dyn ClusterHandle) {
    let history = repl_core::History::from_iter(cluster.history().expect("history"));
    assert!(history.check_serializability().is_ok(), "{label}: live history is not 1SR");
    assert!(
        history.txns().iter().any(|t| t.writes.is_empty() && !t.reads.is_empty()),
        "{label}: no read-only transactions reached the history"
    );
}

/// The MVCC column: a mixed read/write workload with snapshot reads
/// enabled in every deployment — the simulator runs with
/// `Tuning::mvcc_reads` in `SimParams`, the in-process cluster with it
/// in `RuntimeOptions`, and the `repld` fleet with `--mvcc`.
/// Final copy state must stay byte-identical to the simulator and every
/// live history must be one-copy serializable.
#[test]
fn mvcc_snapshot_read_matrix() {
    let txns = txns_per_site();
    for (label, placement, sim, runtime, seed) in [
        ("mvcc/dag-wt/fan", fan_placement(), ProtocolKind::DagWt, RuntimeProtocol::DagWt, 0xD1FA),
        (
            "mvcc/dag-t/diamond",
            diamond_placement(),
            ProtocolKind::DagT,
            RuntimeProtocol::DagT,
            0xD1FB,
        ),
        (
            "mvcc/backedge/cyclic",
            cyclic_placement(),
            ProtocolKind::BackEdge,
            RuntimeProtocol::BackEdge,
            0xD1FC,
        ),
    ] {
        let progs = mixed_programs(&placement, txns, seed);
        let sim_state = sim_final_state_opts(&placement, sim, &progs, txns, true);

        let tuning = Tuning { mvcc_reads: true, ..Tuning::LIVE };
        let options = RuntimeOptions { tuning, ..RuntimeOptions::default() };
        let cluster = Cluster::start_with(&placement, runtime, options).expect("cluster starts");
        let in_process_state = drive_final_state(&cluster, &progs);
        assert_history_1sr(label, &cluster);
        cluster.shutdown();
        assert_states_identical(label, "MVCC in-process cluster", &sim_state, &in_process_state);

        let launch = LaunchOptions { mvcc: true, ..LaunchOptions::default() };
        let cluster = ProcCluster::launch_with_options(repld(), &placement, runtime, &launch)
            .expect("launch repld");
        let tcp_state = drive_final_state(&cluster, &progs);
        assert_history_1sr(label, &cluster);
        cluster.shutdown();
        assert_states_identical(label, "MVCC TCP cluster", &sim_state, &tcp_state);
        assert!(sim_state.iter().any(|b| b.len() > 4), "{label}: empty workload");
    }
}

/// The nemesis column: the same seeded workload driven through a
/// partition-and-heal fault schedule (plus background jitter, drops,
/// duplicates and corruption) on every live deployment must still end
/// byte-identical to the fault-free simulator control. Partitions hold
/// frames in the outbox until the heal, a drop or a corrupted frame
/// breaks its connection and goes again on the next, duplicates are
/// deduped — none of it may leak into final state.
#[test]
fn partition_heal_matrix() {
    let placement = fan_placement();
    let txns = txns_per_site();
    let progs = programs(&placement, txns, 0xD1F9);
    let sim_state = sim_final_state(&placement, ProtocolKind::DagWt, &progs, txns);

    // The partition opens immediately so it is guaranteed to overlap
    // the (fast) workload; quiesce then cannot drain before the heal.
    let plan = NetFaultPlan::seeded(0xC4A0_5EED)
        .partition(SiteId(0), SiteId(1), 0, 300)
        .jitter(2)
        .drop_frames(50)
        .duplicate_frames(30)
        .corrupt_frames(20);

    let options = RuntimeOptions { nemesis: Some(plan.clone()), ..RuntimeOptions::default() };
    let cluster =
        Cluster::start_with(&placement, RuntimeProtocol::DagWt, options).expect("cluster starts");
    let in_process_state = drive_final_state(&cluster, &progs);
    cluster.shutdown();
    assert_states_identical(
        "partition-heal/fan",
        "nemesis in-process cluster",
        &sim_state,
        &in_process_state,
    );

    let launch = LaunchOptions { nemesis: Some(plan.to_spec()), ..LaunchOptions::default() };
    let cluster =
        ProcCluster::launch_with_options(repld(), &placement, RuntimeProtocol::DagWt, &launch)
            .expect("launch repld");
    let tcp_state = drive_final_state(&cluster, &progs);
    cluster.shutdown();
    assert_states_identical("partition-heal/fan", "nemesis TCP cluster", &sim_state, &tcp_state);
}

#[test]
fn naive_lazy_matrix() {
    assert_matrix_cell(
        "naive-lazy/fan",
        &fan_placement(),
        ProtocolKind::NaiveLazy,
        RuntimeProtocol::NaiveLazy,
        0xD1F1,
    );
    assert_matrix_cell(
        "naive-lazy/diamond",
        &diamond_placement(),
        ProtocolKind::NaiveLazy,
        RuntimeProtocol::NaiveLazy,
        0xD1F2,
    );
}

#[test]
fn dag_wt_matrix() {
    assert_matrix_cell(
        "dag-wt/fan",
        &fan_placement(),
        ProtocolKind::DagWt,
        RuntimeProtocol::DagWt,
        0xD1F3,
    );
    assert_matrix_cell(
        "dag-wt/diamond",
        &diamond_placement(),
        ProtocolKind::DagWt,
        RuntimeProtocol::DagWt,
        0xD1F4,
    );
}

#[test]
fn dag_t_matrix() {
    assert_matrix_cell(
        "dag-t/fan",
        &fan_placement(),
        ProtocolKind::DagT,
        RuntimeProtocol::DagT,
        0xD1F5,
    );
    assert_matrix_cell(
        "dag-t/diamond",
        &diamond_placement(),
        ProtocolKind::DagT,
        RuntimeProtocol::DagT,
        0xD1F6,
    );
}

#[test]
fn backedge_matrix() {
    // A DAG placement (degenerates to lazy tree routing) and a cyclic
    // one (forces the eager special phase).
    assert_matrix_cell(
        "backedge/fan",
        &fan_placement(),
        ProtocolKind::BackEdge,
        RuntimeProtocol::BackEdge,
        0xD1F7,
    );
    assert_matrix_cell(
        "backedge/cyclic",
        &cyclic_placement(),
        ProtocolKind::BackEdge,
        RuntimeProtocol::BackEdge,
        0xD1F8,
    );
}
