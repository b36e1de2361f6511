//! A copy state larger than one frame, fetched from both deployments.
//!
//! A site's `CopyState` reply used to be its whole store in one frame,
//! built in the client connection's buffer: past 1 MiB the reactor
//! dropped the connection, so `copy_state` failed — at about 40 000
//! written integer copies, or at a few large byte values, as here. The
//! fetch is now a cursor over the site's copies, a segment of cells per
//! reply, joined by the client into the one image it always returned.

use std::path::Path;

use repl_copygraph::DataPlacement;
use repl_net::{decode_cells, MAX_FRAME_LEN};
use repl_runtime::{Cluster, ClusterHandle, LaunchOptions, ProcCluster, RuntimeProtocol};
use repl_types::{ItemId, Op, SiteId, Value};

const ITEMS: u32 = 20;
const VALUE_BYTES: usize = 60 << 10;

/// s0 writes each of its `ITEMS` items a 60 KiB value; every site then
/// returns every cell, the written ones with s0's values.
fn every_cell_comes_back(cluster: &dyn ClusterHandle) {
    let value = |i: u32| Value::Bytes(vec![i as u8; VALUE_BYTES]);
    for i in 0..ITEMS {
        cluster.execute(SiteId(0), vec![Op::write(ItemId(i), value(i))]).unwrap();
    }
    cluster.quiesce().unwrap();
    for site in (0..3).map(SiteId) {
        let image = cluster.copy_state(site).unwrap();
        assert!(image.len() > MAX_FRAME_LEN as usize, "{site}: {} bytes", image.len());
        let cells = decode_cells(image).unwrap();
        assert_eq!(cells.len(), ITEMS as usize, "{site}");
        for (i, (item, v, writer)) in cells.into_iter().enumerate() {
            assert_eq!((item, v), (ItemId(i as u32), value(i as u32)), "{site}");
            assert_eq!(writer.map(|gid| gid.origin), Some(SiteId(0)), "{site}");
        }
    }
}

#[test]
fn a_copy_state_past_the_frame_cap_is_fetched_from_both_deployments() {
    let mut placement = DataPlacement::new(3);
    placement.add_run(SiteId(0), &[SiteId(1), SiteId(2)], ITEMS);
    let protocol = RuntimeProtocol::DagWt;

    let in_process = Cluster::start(&placement, protocol).unwrap();
    every_cell_comes_back(&in_process);
    in_process.shutdown();

    let repld = Path::new(env!("CARGO_BIN_EXE_repld"));
    let fleet =
        ProcCluster::launch_with_options(repld, &placement, protocol, &LaunchOptions::default())
            .unwrap();
    every_cell_comes_back(&fleet);
    fleet.shutdown();
}
