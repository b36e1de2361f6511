//! Layer probes: timed calls into each crate's public functions, with
//! the inputs a live fleet would hand them.
//!
//! Single-threaded. Every timing is the median of [`BATCHES`] batches
//! after [`WARMUP_BATCHES`] discarded ones. Inputs come from the
//! workloads' own generator and placements: the exact `Execute` frame a
//! load connection sends and the exact `Link` payload s0's machine
//! emits for it. Byte and message counts are exact and must repeat.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::{BufMut, Bytes, BytesMut};
use repl_copygraph::{BackEdgeSet, CopyGraph, DataPlacement, PropagationTree};
use repl_core::config::{ProtocolKind, SimParams};
use repl_core::engine::Engine;
use repl_core::scenario::generate_programs;
use repl_net::{decode_framed, encode_framed, ClientMsg, ClientReply, Payload, WireMsg};
use repl_protocol::{planned_writes, Command, Input, ProtocolId, SiteMachine};
use repl_storage::{CommitPipeline, Store, WriteAheadLog};
use repl_types::{GlobalTxnId, ItemId, Op, OpKind, SiteId, Value};
use repl_workload::{build_placement, TableOneParams};

use crate::gen::TxnGen;
use crate::spec::Placement;
use crate::stats::median;

pub const BATCHES: usize = 31;
const WARMUP_BATCHES: usize = 3;
/// Transactions (or frames) per timed batch.
const BATCH_TXNS: usize = 256;

/// Probe results by metric name, with the sample count behind each.
pub type Results = BTreeMap<String, (f64, u64)>;

/// Median nanoseconds per item of `batch`, which processes `items`
/// items per call. `setup` builds the batch's input outside the timer.
fn time_per_item<S, T>(
    items: usize,
    mut setup: impl FnMut() -> S,
    mut batch: impl FnMut(S) -> T,
) -> f64 {
    let mut per_item = Vec::with_capacity(BATCHES);
    for round in 0..WARMUP_BATCHES + BATCHES {
        let input = setup();
        let start = Instant::now();
        let out = batch(input);
        let elapsed = start.elapsed();
        black_box(out);
        if round >= WARMUP_BATCHES {
            per_item.push(elapsed.as_nanos() as f64 / items as f64);
        }
    }
    median(&per_item)
}

/// The three sans-I/O machines of `placement` under `protocol`, built
/// the way `repl-runtime` builds them for a live site.
pub fn machines(placement: &Arc<DataPlacement>, protocol: ProtocolId) -> Vec<SiteMachine> {
    let graph = CopyGraph::from_placement(placement);
    let tree = match protocol {
        ProtocolId::DagWt => {
            Some(Arc::new(PropagationTree::chain(&graph).expect("pinned placement is a DAG")))
        }
        ProtocolId::BackEdge => {
            let backedges = BackEdgeSet::by_site_order(&graph);
            let mut dag = CopyGraph::empty(placement.num_sites());
            for (u, v) in backedges.augmented_constraints(&graph) {
                dag.add_edge(u, v, 1);
            }
            Some(Arc::new(PropagationTree::chain(&dag).expect("augmented graph is acyclic")))
        }
        ProtocolId::DagT | ProtocolId::NaiveLazy => None,
    };
    let graph = Arc::new(graph);
    placement
        .sites()
        .map(|s| {
            SiteMachine::new(s, protocol, placement.clone(), graph.clone(), tree.clone())
                .expect("pinned placement builds under every pinned protocol")
        })
        .collect()
}

/// What driving commits through a fleet of machines produced: the
/// inputs each site's machine received, in order, and the link payloads
/// sent, with their sender.
pub struct FleetLog {
    pub inputs: Vec<Vec<Input>>,
    pub sends: Vec<(SiteId, Payload)>,
}

/// Commit each of `txns` at `origin` and carry out every command the
/// machines emit, depth-first, the way a live site does.
pub fn drive(fleet: &mut [SiteMachine], origin: SiteId, txns: &[Vec<Op>]) -> FleetLog {
    let mut log = FleetLog { inputs: vec![Vec::new(); fleet.len()], sends: Vec::new() };
    for (seq, ops) in txns.iter().enumerate() {
        let gid = GlobalTxnId::new(origin, seq as u64);
        let writes = planned_writes(ops);
        let mut work = vec![(origin, Input::CommitIntent { gid, writes: writes.clone() })];
        while let Some((site, input)) = work.pop() {
            log.inputs[site.index()].push(input.clone());
            let cmds = fleet[site.index()].on_input(input).expect("probe inputs are valid");
            // The work list is a stack: push in reverse to run in order.
            for cmd in cmds.into_iter().rev() {
                match cmd {
                    Command::CommitLocal { gid } => {
                        work.push((site, Input::Committed { gid, writes: writes.clone() }));
                    }
                    Command::Apply { gid, .. } => work.push((site, Input::Applied { gid })),
                    Command::Prepare { gid, .. } => work.push((site, Input::Prepared { gid })),
                    Command::Send { to, payload } => {
                        log.sends.push((site, payload.clone()));
                        work.push((to, Input::Deliver { from: site, payload }));
                    }
                    Command::CommitPrepared { .. }
                    | Command::AbortPrepared { .. }
                    | Command::ArmEagerTimeout { .. } => {}
                    // Only emitted with a widened window or coalescing,
                    // which the default options leave off.
                    Command::ApplyMany { .. } | Command::SendBatch { .. } => {
                        unreachable!("default machines emit no batched commands")
                    }
                }
            }
        }
    }
    log
}

/// Median nanoseconds a fresh copy of `machine` takes to consume
/// `inputs`, per `per` units of work.
fn time_replay(machine: &SiteMachine, inputs: &[Input], per: usize) -> f64 {
    time_per_item(
        per,
        || (machine.clone(), inputs.to_vec()),
        |(mut m, inputs)| {
            for input in inputs {
                black_box(m.on_input(input).expect("replayed inputs are valid"));
            }
            m
        },
    )
}

/// The update transactions of load connection 0 at `site`.
fn update_txns(placement: &DataPlacement, site: SiteId, seed: u64, n: usize) -> Vec<Vec<Op>> {
    let mut gen = TxnGen::new(seed, placement, site, 0, 0);
    (0..n).map(|_| gen.next_txn().ops).collect()
}

fn site_store(placement: &DataPlacement, site: SiteId) -> Store {
    let mut store = Store::new();
    for &item in placement.items_at(site) {
        store.create_item(item, Value::Initial);
    }
    store
}

/// `SiteCore::run_local_txn`'s calls into the store.
fn run_txn(store: &mut Store, ops: &[Op], gid: GlobalTxnId) -> usize {
    let txn = store.begin();
    for op in ops {
        match op.kind {
            OpKind::Read => {
                store.read(txn, op.item).expect("serial store: no conflicts");
            }
            OpKind::Write => {
                store.write(txn, op.item, op.value.clone(), gid).expect("serial store");
            }
        }
    }
    let (info, _) = store.commit(txn).expect("serial store");
    info.write_set().len() + info.reads.len()
}

fn protocol_name(p: ProtocolId) -> &'static str {
    match p {
        ProtocolId::DagWt => "dagwt",
        ProtocolId::DagT => "dagt",
        ProtocolId::BackEdge => "backedge",
        ProtocolId::NaiveLazy => "naive",
    }
}

/// The exact counts, which must not differ between two invocations.
#[derive(Debug, PartialEq, Eq)]
pub struct ExactCounts {
    pub execute_frame_bytes: usize,
    pub link_frame_bytes: usize,
    pub wal_bytes_per_commit: usize,
    /// Link payloads sent per commit under dagwt, dagt, backedge.
    pub msgs_per_commit: [usize; 3],
}

const PINNED: [(ProtocolId, Placement, u32); 3] = [
    (ProtocolId::DagWt, Placement::Chain3, 0),
    (ProtocolId::DagT, Placement::Chain3, 0),
    (ProtocolId::BackEdge, Placement::Ring3, 2),
];

pub fn exact_counts(seed: u64) -> ExactCounts {
    let chain = Arc::new(Placement::Chain3.build());
    let txns = update_txns(&chain, SiteId(0), seed, BATCH_TXNS);
    let execute = encode_framed(&WireMsg::Client(ClientMsg::Execute(txns[0].clone())));
    let mut fleet = machines(&chain, ProtocolId::DagWt);
    let log = drive(&mut fleet, SiteId(0), &txns[..1]);
    let link = encode_framed(&WireMsg::Link { seq: 1, payload: log.sends[0].1.clone() });
    let mut wal = WriteAheadLog::new();
    let empty = wal.encode().len();
    for (seq, ops) in txns.iter().enumerate() {
        wal.append_commit(GlobalTxnId::new(SiteId(0), seq as u64), &planned_writes(ops));
    }
    let mut msgs_per_commit = [0; 3];
    for (slot, (protocol, placement, origin)) in PINNED.into_iter().enumerate() {
        let p = Arc::new(placement.build());
        let txns = update_txns(&p, SiteId(origin), seed, BATCH_TXNS);
        let sends = drive(&mut machines(&p, protocol), SiteId(origin), &txns).sends.len();
        assert_eq!(sends % txns.len(), 0, "{protocol}: messages per commit is not whole");
        msgs_per_commit[slot] = sends / txns.len();
    }
    ExactCounts {
        execute_frame_bytes: execute.len(),
        link_frame_bytes: link.len(),
        wal_bytes_per_commit: (wal.encode().len() - empty) / txns.len(),
        msgs_per_commit,
    }
}

fn net_probes(out: &mut Results, seed: u64) {
    let n = BATCH_TXNS;
    let chain = Arc::new(Placement::Chain3.build());
    let txns = update_txns(&chain, SiteId(0), seed, n);
    let log = drive(&mut machines(&chain, ProtocolId::DagWt), SiteId(0), &txns);
    // s0 sends one payload per commit down the chain.
    let payloads: Vec<Payload> =
        log.sends.iter().filter(|(from, _)| *from == SiteId(0)).map(|s| s.1.clone()).collect();
    let executes: Vec<WireMsg> =
        txns.iter().map(|ops| WireMsg::Client(ClientMsg::Execute(ops.clone()))).collect();
    let links: Vec<WireMsg> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| WireMsg::Link { seq: i as u64 + 1, payload: p.clone() })
        .collect();
    let replies: Vec<WireMsg> = (0..n as u64)
        .map(|seq| WireMsg::Reply(ClientReply::Executed(Ok(GlobalTxnId::new(SiteId(0), seq)))))
        .collect();
    let batches: Vec<WireMsg> = payloads
        .chunks_exact(8)
        .enumerate()
        .map(|(i, c)| WireMsg::Batch { first_seq: i as u64 * 8 + 1, payloads: c.to_vec() })
        .collect();

    let encode = |msgs: &[WireMsg]| -> usize { msgs.iter().map(|m| encode_framed(m).len()).sum() };
    let stream = |msgs: &[WireMsg]| -> Bytes {
        let mut buf = BytesMut::new();
        for m in msgs {
            buf.put_slice(&encode_framed(m));
        }
        buf.freeze()
    };
    let decode = |wire: Bytes| -> usize {
        let mut buf = BytesMut::from(&wire[..]);
        let mut count = 0;
        while let Some(msg) = decode_framed(&mut buf).expect("own frames decode") {
            black_box(msg);
            count += 1;
        }
        count
    };
    let timings = [
        ("net.encode_execute_ns", time_per_item(n, || (), |()| encode(&executes))),
        ("net.encode_reply_ns", time_per_item(n, || (), |()| encode(&replies))),
        ("net.encode_link_ns", time_per_item(n, || (), |()| encode(&links))),
        (
            "net.encode_batch8_ns_per_payload",
            time_per_item(batches.len() * 8, || (), |()| encode(&batches)),
        ),
        ("net.decode_execute_ns", time_per_item(n, || stream(&executes), decode)),
        ("net.decode_link_ns", time_per_item(n, || stream(&links), decode)),
    ];
    for (name, ns) in timings {
        out.insert(name.to_string(), (ns, BATCHES as u64));
    }
}

fn storage_probes(out: &mut Results, seed: u64) {
    let n = BATCH_TXNS;
    let chain = Placement::Chain3.build();
    let s0 = SiteId(0);
    let updates = update_txns(&chain, s0, seed, n);
    let mut read_gen = TxnGen::new(seed, &chain, s0, 0, 1000);
    let reads: Vec<Vec<Op>> = (0..n).map(|_| read_gen.next_txn().ops).collect();
    let write_sets: Vec<Vec<(ItemId, Value)>> = updates.iter().map(|o| planned_writes(o)).collect();
    let gid = |seq: usize| GlobalTxnId::new(s0, seq as u64);

    let mut store = site_store(&chain, s0);
    let update_ns = time_per_item(
        n,
        || (),
        |()| {
            updates
                .iter()
                .enumerate()
                .map(|(i, ops)| run_txn(&mut store, ops, gid(i)))
                .sum::<usize>()
        },
    );
    let read_2pl_ns = time_per_item(
        n,
        || (),
        |()| {
            reads.iter().enumerate().map(|(i, ops)| run_txn(&mut store, ops, gid(i))).sum::<usize>()
        },
    );
    // `SiteCore::run_snapshot_txn`.
    let read_mvcc_ns = time_per_item(
        n,
        || (),
        |()| {
            let mut versions = 0usize;
            for ops in &reads {
                let snap = store.begin_snapshot();
                for op in ops {
                    let r = store.read_snapshot(snap, op.item).expect("item exists");
                    versions += usize::from(r.writer.is_some());
                }
                store.end_snapshot(snap);
            }
            versions
        },
    );
    // `SiteCore::commit_replica_txn`, store part.
    let apply_ns = time_per_item(
        n,
        || (),
        |()| {
            for (i, writes) in write_sets.iter().enumerate() {
                let txn = store.begin();
                for (item, value) in writes {
                    store.write(txn, *item, value.clone(), gid(i)).expect("serial store");
                }
                store.commit(txn).expect("serial store");
            }
        },
    );
    // `DurableSite::log_commit` at group-commit batch sizes 1 and 8.
    let log_commits = |batch: usize| {
        time_per_item(
            n,
            || (CommitPipeline::new(batch), WriteAheadLog::new()),
            |(mut pipeline, mut wal)| {
                for (i, writes) in write_sets.iter().enumerate() {
                    if pipeline.enqueue(gid(i), writes.to_vec()) {
                        pipeline.flush(&mut wal);
                    }
                }
                wal
            },
        )
    };
    for (name, ns) in [
        ("storage.update_txn_ns", update_ns),
        ("storage.read_txn_2pl_ns", read_2pl_ns),
        ("storage.read_txn_mvcc_ns", read_mvcc_ns),
        ("storage.apply_txn_ns", apply_ns),
        ("storage.wal_append_ns", log_commits(1)),
        ("storage.group_flush8_ns_per_commit", log_commits(8)),
    ] {
        out.insert(name.to_string(), (ns, BATCHES as u64));
    }
}

fn protocol_probes(out: &mut Results, seed: u64) {
    let n = BATCH_TXNS;
    for (protocol, placement, origin) in PINNED {
        let p = Arc::new(placement.build());
        let origin = SiteId(origin);
        let txns = update_txns(&p, origin, seed, n);
        let pristine = machines(&p, protocol);
        let log = drive(&mut pristine.clone(), origin, &txns);
        let mut secondary = Vec::new();
        for site in p.sites() {
            let ns = time_replay(&pristine[site.index()], &log.inputs[site.index()], n);
            if site == origin {
                let name = format!("protocol.primary_step_ns.{}", protocol_name(protocol));
                out.insert(name, (ns, BATCHES as u64));
            } else {
                secondary.push(ns);
            }
        }
        let mean = secondary.iter().sum::<f64>() / secondary.len() as f64;
        let name = format!("protocol.secondary_step_ns.{}", protocol_name(protocol));
        out.insert(name, (mean, BATCHES as u64));
    }

    // DAG(T) heartbeat: idle parent s1 ticks, s2 takes the dummy in.
    let chain = Arc::new(Placement::Chain3.build());
    let pristine = machines(&chain, ProtocolId::DagT);
    let mut fleet = pristine.clone();
    let (s1, s2) = (SiteId(1), SiteId(2));
    let mut ticks = Vec::new();
    let mut deliveries = Vec::new();
    for _ in 0..n {
        let tick = Input::HeartbeatTick { idle_children: vec![s2] };
        ticks.push(tick.clone());
        for cmd in fleet[1].on_input(tick).expect("tick is valid") {
            let Command::Send { to, payload } = cmd else { continue };
            assert_eq!(to, s2);
            let mut work = vec![Input::Deliver { from: s1, payload }];
            while let Some(input) = work.pop() {
                deliveries.push(input.clone());
                for cmd in fleet[2].on_input(input).expect("dummy is valid") {
                    if let Command::Apply { gid, .. } = cmd {
                        work.push(Input::Applied { gid });
                    }
                }
            }
        }
    }
    let ns = time_replay(&pristine[1], &ticks, n) + time_replay(&pristine[2], &deliveries, n);
    out.insert("protocol.heartbeat_step_ns.dagt".to_string(), (ns, BATCHES as u64));
}

/// The simulator twin: one pinned Table-1 point per protocol (Table 1
/// defaults at 150 transactions per thread, seed 42, no result cache;
/// backedge probability 0 for the two DAG protocols, which need an
/// acyclic copy graph). Recency is virtual time and repeats exactly.
fn sim_probes(out: &mut Results) {
    for (kind, name, backedge_prob) in [
        (ProtocolKind::DagWt, "dagwt", 0.0),
        (ProtocolKind::DagT, "dagt", 0.0),
        (ProtocolKind::BackEdge, "backedge", 0.2),
    ] {
        let table = TableOneParams { txns_per_thread: 150, backedge_prob, ..Default::default() };
        let seed = 42u64;
        let placement = build_placement(&table, seed);
        let params = table.sim_params(&SimParams { protocol: kind, ..SimParams::default() });
        let programs = generate_programs(
            &placement,
            &table.mix(),
            params.threads_per_site,
            params.txns_per_thread,
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        );
        let start = Instant::now();
        let report = Engine::new(&placement, &params, programs).expect("pinned point builds").run();
        let wall = start.elapsed();
        assert!(report.serializable && !report.stalled, "{name}: pinned sim point went wrong");
        let commits = report.summary.commits.max(1);
        out.insert(
            format!("core.sim_wall_us_per_txn.{name}"),
            (wall.as_secs_f64() * 1e6 / commits as f64, commits),
        );
        out.insert(
            format!("core.sim_recency_ms.{name}"),
            (report.summary.mean_propagation_ms, commits),
        );
    }
}

/// Run every probe. Panics if an exact count differs between two
/// invocations: those counts are compared across commits as counts.
pub fn run_all(seed: u64) -> Results {
    let mut out = Results::new();
    let counts = exact_counts(seed);
    assert_eq!(counts, exact_counts(seed), "exact probe counts must repeat");
    out.insert("net.execute_frame_bytes".into(), (counts.execute_frame_bytes as f64, 1));
    out.insert("net.link_frame_bytes".into(), (counts.link_frame_bytes as f64, 1));
    out.insert("storage.wal_bytes_per_commit".into(), (counts.wal_bytes_per_commit as f64, 1));
    for ((protocol, _, _), msgs) in PINNED.into_iter().zip(counts.msgs_per_commit) {
        let name = format!("protocol.msgs_per_commit.{}", protocol_name(protocol));
        out.insert(name, (msgs as f64, BATCH_TXNS as u64));
    }
    net_probes(&mut out, seed);
    storage_probes(&mut out, seed);
    protocol_probes(&mut out, seed);
    sim_probes(&mut out);

    // Derived rows: reported, not gated.
    let ns = |name: &str| out[name].0;
    let budget_us = (ns("net.decode_execute_ns")
        + ns("storage.update_txn_ns")
        + ns("storage.wal_append_ns")
        + ns("protocol.primary_step_ns.dagwt")
        + 2.0 * ns("net.encode_link_ns")
        + ns("net.encode_reply_ns"))
        / 1000.0;
    let sim = SimParams::default();
    let ops = crate::spec::OPS_PER_TXN as f64;
    let writes = crate::spec::WRITES_PER_UPDATE as f64;
    let calib = [
        ("calib.op_cpu_ratio", ns("storage.update_txn_ns") / ops, sim.op_cpu.as_micros()),
        ("calib.msg_cpu_ratio", ns("net.decode_link_ns"), sim.msg_cpu.as_micros()),
        ("calib.apply_cpu_ratio", ns("storage.apply_txn_ns") / writes, sim.apply_cpu.as_micros()),
    ];
    for (name, live_ns, sim_us) in calib {
        out.insert(name.to_string(), (live_ns / (sim_us as f64 * 1000.0), 1));
    }
    out.insert("budget.s0_probe_sum_us".to_string(), (budget_us, 1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_repeat_and_match_the_topologies() {
        let a = exact_counts(1999);
        assert_eq!(a, exact_counts(1999));
        // chain3 under DAG(WT): s0→s1, s1→s2. Under DAG(T): s0→s1, s0→s2.
        assert_eq!(a.msgs_per_commit[0], 2);
        assert_eq!(a.msgs_per_commit[1], 2);
        // ring3 under BackEdge: the special goes s2→s0→s1→s2, then decisions.
        assert!(a.msgs_per_commit[2] >= 3, "{:?}", a.msgs_per_commit);
        // Sizes do not depend on the seed: ids and integers are fixed-width.
        let b = exact_counts(7);
        assert_eq!(
            (a.execute_frame_bytes, a.link_frame_bytes),
            (b.execute_frame_bytes, b.link_frame_bytes)
        );
    }
}
