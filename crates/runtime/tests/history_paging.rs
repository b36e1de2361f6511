//! A history longer than one frame, fetched from both deployments.
//!
//! A site's `History` reply used to be its whole history in one frame,
//! so `history()` failed over TCP — the reactor dropped the connection
//! — once a site held 1 MiB of it. The fetch is now a cursor over the
//! site's log, a segment per reply. An entry is all varints — here 26
//! to 40 bytes against 138 with fixed-width fields — so outgrowing a
//! frame now takes 41 000 Table-1 updates, not the ten thousand the
//! test is named for.

use std::path::Path;

use repl_copygraph::DataPlacement;
use repl_core::history::History;
use repl_net::MAX_FRAME_LEN;
use repl_runtime::{
    Cluster, ClusterHandle, HistoryTxn, LaunchOptions, ProcCluster, RuntimeProtocol,
};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId};

const UPDATES: usize = 41_000;

/// `UPDATES` Table-1 updates (6 reads of written versions, 4 writes) at
/// site 0 of `cluster`, then everything every site committed.
fn run(cluster: &dyn ClusterHandle, items: &[ItemId]) -> Vec<HistoryTxn> {
    cluster.execute(SiteId(0), items.iter().map(|&i| Op::write(i, 0)).collect()).unwrap();
    for k in 0..UPDATES {
        let at = |j: usize| items[(k * 7 + j) % items.len()];
        let ops = (0..6)
            .map(|j| Op::read(at(j)))
            .chain((6..10).map(|j| Op::write(at(j), k as i64)))
            .collect();
        let gid = cluster.execute(SiteId(0), ops).unwrap();
        assert_eq!(gid, GlobalTxnId::new(SiteId(0), k as u64 + 1));
    }
    cluster.quiesce().unwrap();
    cluster.history().unwrap()
}

#[test]
fn ten_thousand_updates_are_fetched_and_checked_over_every_transport() {
    let mut placement = DataPlacement::new(3);
    let items: Vec<ItemId> =
        (0..20).map(|_| placement.add_item(SiteId(0), &[SiteId(1), SiteId(2)])).collect();
    // More history at one site than a frame can carry, even if every
    // entry were as short as the first ones (26 bytes).
    const { assert!(UPDATES * 26 > MAX_FRAME_LEN as usize) };

    let in_process = Cluster::start(&placement, RuntimeProtocol::DagWt).unwrap();
    let expected = run(&in_process, &items);
    in_process.shutdown();
    assert_eq!(expected.len(), UPDATES + 1);
    let mut history = History::new();
    for (gid, reads, writes) in expected.iter().cloned() {
        history.record_commit(gid, reads, writes);
    }
    assert!(history.check_serializability().is_ok());

    let repld = Path::new(env!("CARGO_BIN_EXE_repld"));
    let cluster = ProcCluster::launch_with_options(
        repld,
        &placement,
        RuntimeProtocol::DagWt,
        &LaunchOptions::default(),
    )
    .unwrap();
    let got = run(&cluster, &items);
    // One serial client: both deployments commit the same transactions,
    // reading the same versions, so the same history passes the same
    // check.
    assert!(got == expected, "repld: history differs from the in-process cluster's");
    assert_eq!(cluster.stats(SiteId(0)).unwrap().committed, UPDATES as u64 + 1);
    cluster.shutdown();
}
