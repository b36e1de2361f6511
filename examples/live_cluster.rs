//! A *live* replication cluster: one epoll reactor thread per site,
//! talking to the others over loopback TCP, and concurrent clients —
//! the in-process `Cluster` from `repl-runtime`, which runs the same
//! site reactor as a `repld` process, architected like the paper's
//! prototype (DataBlitz instances talking over sockets).
//!
//! Runs DAG(WT) over the warehouse-style topology with concurrent client
//! threads, waits for quiescence, then checks one-copy serializability
//! and replica convergence on the wall-clock execution.
//!
//! ```sh
//! cargo run --release -p repl-bench --example live_cluster
//! ```

use std::time::Instant;

use repl_copygraph::DataPlacement;
use repl_runtime::{Cluster, RuntimeProtocol};
use repl_types::{Op, SiteId};

fn main() {
    // Hub-and-spoke: s0 owns shared reference data replicated everywhere;
    // each spoke owns local data replicated to the sink site s4.
    let mut placement = DataPlacement::new(5);
    for _ in 0..20 {
        placement.add_item(SiteId(0), &[SiteId(1), SiteId(2), SiteId(3), SiteId(4)]);
    }
    for s in 1..4u32 {
        for _ in 0..15 {
            placement.add_item(SiteId(s), &[SiteId(4)]);
        }
    }

    let cluster = Cluster::start(&placement, RuntimeProtocol::DagWt).expect("DAG topology");
    println!(
        "cluster up: {} site threads, {} items, {} replicas",
        placement.num_sites(),
        placement.num_items(),
        placement.total_replicas()
    );

    let started = Instant::now();
    let mut clients = Vec::new();
    for s in 0..placement.num_sites() {
        let site = SiteId(s);
        let client = cluster.client(site).unwrap();
        let placement = placement.clone();
        clients.push(std::thread::spawn(move || {
            let readable = placement.items_at(site).to_vec();
            let writable = placement.primaries_at(site).to_vec();
            for i in 0..400u64 {
                let mut ops = Vec::new();
                // Simple deterministic mix: 2 reads + 1 write (if owner).
                ops.push(Op::read(readable[(i as usize * 7) % readable.len()]));
                ops.push(Op::read(readable[(i as usize * 13 + 1) % readable.len()]));
                if !writable.is_empty() && i % 3 == 0 {
                    let item = writable[(i as usize) % writable.len()];
                    ops.push(Op::write(item, (site.0 as i64) * 1_000_000 + i as i64));
                }
                client.execute(ops).expect("commit");
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    cluster.quiesce();
    let elapsed = started.elapsed();

    let committed = cluster.committed_count();
    println!(
        "committed {} transactions across {} client threads in {:.2?} ({:.0} txn/s wall-clock)",
        committed,
        placement.num_sites(),
        elapsed,
        committed as f64 / elapsed.as_secs_f64()
    );

    match cluster.check_serializability() {
        Ok(()) => println!("serializability: OK (real-thread execution, Theorem 2.1)"),
        Err(cycle) => panic!("DAG(WT) produced a cycle?! {cycle}"),
    }
    for item in placement.items() {
        let primary = cluster.peek(placement.primary_of(item), item).unwrap();
        for &r in placement.replicas_of(item) {
            assert_eq!(cluster.peek(r, item).unwrap(), primary);
        }
    }
    println!("replica convergence: OK");
    cluster.shutdown();
}
