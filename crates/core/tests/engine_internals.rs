//! Focused tests of engine behaviour observable through the public API:
//! routing structures, message accounting, idle runs, error paths.

use repl_copygraph::DataPlacement;
use repl_core::config::{ProtocolKind, SimParams, TreeKind};
use repl_core::engine::{BuildError, Engine};
use repl_core::scenario::{self, generate_programs, WorkloadMix};
use repl_types::{ItemId, Op, SiteId};

fn empty_programs(placement: &DataPlacement, threads: u32) -> Vec<Vec<Vec<Vec<Op>>>> {
    (0..placement.num_sites()).map(|_| (0..threads).map(|_| Vec::new()).collect()).collect()
}

#[test]
fn idle_run_terminates_immediately() {
    // No transactions at all: every protocol must terminate without
    // stalling, with zero commits and zero messages.
    for protocol in ProtocolKind::ALL {
        let placement = scenario::example_1_1_placement();
        let mut params = SimParams::quick_test(protocol);
        params.txns_per_thread = 0;
        let mut engine = Engine::new(&placement, &params, empty_programs(&placement, 2)).unwrap();
        let report = engine.run();
        assert!(!report.stalled, "{protocol:?} stalled on an empty workload");
        assert_eq!(report.summary.commits, 0);
        assert_eq!(report.summary.messages, 0, "{protocol:?} sent messages with no work");
        assert!(report.serializable);
    }
}

#[test]
fn backedge_tree_respects_augmented_constraints() {
    // A placement whose backedge (s2 -> s0) forces s0 above s2 in the
    // tree even though s2 is "later".
    let mut p = DataPlacement::new(3);
    p.add_item(SiteId(0), &[SiteId(1)]);
    p.add_item(SiteId(1), &[SiteId(2)]);
    p.add_item(SiteId(2), &[SiteId(0)]); // backedge
    let params = SimParams::quick_test(ProtocolKind::BackEdge);
    let programs = empty_programs(&p, 2);
    let engine = Engine::new(&p, &params, programs).unwrap();
    let b = engine.backedge_set().unwrap();
    assert_eq!(b.edges(), &[(SiteId(2), SiteId(0))]);
    let tree = engine.tree().unwrap();
    assert!(tree.is_ancestor(SiteId(0), SiteId(2)), "backedge target must be an ancestor");
}

#[test]
fn dagwt_message_count_is_hop_count() {
    // One write replicated at the two chain descendants: DAG(WT) sends
    // exactly 2 messages (s0->s1, s1->s2); naive sends 2 as well (direct)
    // but DAG(T) also sends 2 (direct, no relay). With a deeper chain and
    // a far-only replica, DAG(WT) relays while DAG(T) goes direct.
    let mut p = DataPlacement::new(4);
    let x = p.add_item(SiteId(0), &[SiteId(3)]); // only the far site
                                                 // Give intermediate sites local items so the chain s0-s1-s2-s3 exists
                                                 // in the site order even without edges: the chain tree links all
                                                 // sites in topological order regardless.
    p.add_item(SiteId(1), &[]);
    p.add_item(SiteId(2), &[]);
    p.add_item(SiteId(3), &[]);

    let mut programs = empty_programs(&p, 1);
    programs[0][0] = vec![vec![Op::write(x, 1)]];

    let mut params = SimParams::quick_test(ProtocolKind::DagWt);
    params.threads_per_site = 1;
    params.txns_per_thread = 1;
    let mut engine = Engine::new(&p, &params, programs.clone()).unwrap();
    let r = engine.run();
    assert_eq!(r.summary.commits, 1);
    // Chain tree: s0 -> s1 -> s2 -> s3 = 3 hops.
    assert_eq!(r.summary.messages, 3, "DAG(WT) relays through the chain");

    params.protocol = ProtocolKind::DagT;
    let mut engine = Engine::new(&p, &params, programs.clone()).unwrap();
    let r = engine.run();
    assert_eq!(r.summary.commits, 1);
    // Direct send to s3 plus the dummies/heartbeats needed for progress;
    // the *update* path is 1 message. At minimum fewer relay hops than
    // WT for the real payload: the subtxn reaches s3 directly.
    assert!(r.serializable);

    params.protocol = ProtocolKind::NaiveLazy;
    let mut engine = Engine::new(&p, &params, programs).unwrap();
    let r = engine.run();
    assert_eq!(r.summary.messages, 1, "naive sends direct");
}

#[test]
fn general_tree_shortens_routes_on_branchy_graphs() {
    // Star: s0 feeds s1..s4 directly. General tree: all children of s0
    // (depth 1); chain: depth up to 4.
    let mut p = DataPlacement::new(5);
    for _ in 0..4 {
        p.add_item(SiteId(0), &[SiteId(1), SiteId(2), SiteId(3), SiteId(4)]);
    }
    let mut programs = empty_programs(&p, 1);
    programs[0][0] = vec![vec![Op::write(ItemId(0), 9)]];
    let mut params = SimParams::quick_test(ProtocolKind::DagWt);
    params.threads_per_site = 1;
    params.txns_per_thread = 1;

    params.tree = TreeKind::Chain;
    let mut chain_engine = Engine::new(&p, &params, programs.clone()).unwrap();
    let chain = chain_engine.run();

    params.tree = TreeKind::General;
    let mut tree_engine = Engine::new(&p, &params, programs).unwrap();
    let tree = tree_engine.run();

    assert_eq!(chain.summary.messages, 4, "chain relays: 4 hops");
    assert_eq!(tree.summary.messages, 4, "star tree: 4 direct children");
    // Same message count here, but the propagation delay differs: the
    // chain applies serially over 4 hops, the star in parallel.
    assert!(
        tree.summary.max_propagation_ms < chain.summary.max_propagation_ms,
        "general tree should finish propagation sooner ({} vs {})",
        tree.summary.max_propagation_ms,
        chain.summary.max_propagation_ms
    );
}

#[test]
fn bad_program_shapes_are_rejected() {
    let placement = scenario::example_1_1_placement();
    let params = SimParams::quick_test(ProtocolKind::DagWt);
    let err = Engine::new(&placement, &params, vec![]).err().unwrap();
    assert!(matches!(err, BuildError::BadPrograms(_)));
    assert!(err.to_string().contains("0 sites"));
}

#[test]
fn psl_pays_messages_only_for_remote_reads() {
    // A single site: PSL never sends anything.
    let mut p = DataPlacement::new(1);
    for _ in 0..5 {
        p.add_item(SiteId(0), &[]);
    }
    let mut params = SimParams::quick_test(ProtocolKind::Psl);
    params.txns_per_thread = 20;
    let programs = generate_programs(&p, &WorkloadMix::default(), 2, 20, 3);
    let mut engine = Engine::new(&p, &params, programs).unwrap();
    let r = engine.run();
    assert_eq!(r.summary.messages, 0);
    assert_eq!(r.summary.commits, 40);
}

#[test]
fn eager_sends_grow_with_replicas() {
    // One write to an item with k replicas: eager needs k lock requests,
    // k grants and k releases = 3k messages.
    for k in 1..4u32 {
        let mut p = DataPlacement::new(5);
        let replicas: Vec<SiteId> = (1..=k).map(SiteId).collect();
        let x = p.add_item(SiteId(0), &replicas);
        let mut programs = empty_programs(&p, 1);
        programs[0][0] = vec![vec![Op::write(x, 1)]];
        let mut params = SimParams::quick_test(ProtocolKind::Eager);
        params.threads_per_site = 1;
        params.txns_per_thread = 1;
        let mut engine = Engine::new(&p, &params, programs).unwrap();
        let r = engine.run();
        assert_eq!(r.summary.messages, 3 * k as u64, "3 messages per replica");
        assert_eq!(r.summary.incomplete_propagations, 0);
    }
}

#[test]
fn response_time_includes_retries() {
    // Force a deadlock-heavy tiny workload and confirm response time
    // exceeds the pure-execution time when aborts occurred.
    let mut p = DataPlacement::new(1);
    for _ in 0..2 {
        p.add_item(SiteId(0), &[]);
    }
    let mix = WorkloadMix { ops_per_txn: 2, read_txn_prob: 0.0, read_op_prob: 0.5 };
    let mut params = SimParams::quick_test(ProtocolKind::DagWt);
    params.threads_per_site = 3;
    params.txns_per_thread = 50;
    let programs = generate_programs(&p, &mix, 3, 50, 11);
    let mut engine = Engine::new(&p, &params, programs).unwrap();
    let r = engine.run();
    assert_eq!(r.summary.commits, 150);
    if r.summary.aborts > 0 {
        // Deadlock timeout is 50 ms; with retries in the mix the mean
        // response must exceed the no-contention execution time (~2 ms).
        assert!(r.summary.mean_response_ms > 2.0);
    }
}

#[test]
fn a_stall_report_names_its_head_by_kind() {
    use repl_core::engine::{QueueHead, RunKind};
    use repl_sim::SimTime;
    use repl_types::GlobalTxnId;
    let head = |kind| QueueHead {
        site: SiteId(2),
        gid: GlobalTxnId::new(SiteId(1), 7),
        kind,
        since: SimTime(1_500_000),
        resubmits: 3,
        waits: vec![
            (ItemId(4), vec![(GlobalTxnId::new(SiteId(2), 9), "proxy")]),
            (ItemId(5), vec![]),
        ],
    };
    let waits = "waiting for x4 (held by T9@s2 proxy), x5 (free)";
    assert_eq!(
        head(RunKind::Secondary).to_string(),
        format!("s2 applies T7@s1 (secondary, at its applier since 1.500 s, resubmitted 3 times), {waits}")
    );
    assert_eq!(
        head(RunKind::QueuedSpecial).to_string(),
        format!("s2 applies T7@s1 (special, at its applier since 1.500 s, resubmitted 3 times), {waits}")
    );
    assert_eq!(
        head(RunKind::DirectSpecial).to_string(),
        format!("s2 applies T7@s1 (direct special, executing since 1.500 s), {waits}")
    );
}
