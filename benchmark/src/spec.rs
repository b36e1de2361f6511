//! What the benchmark pins: placements, workloads and the names of
//! every metric it prints. `BENCHMARK.json` at the repository root
//! declares the same names; a unit test keeps the two in step.

use repl_copygraph::DataPlacement;
use repl_runtime::RuntimeProtocol;
use repl_types::{ItemId, SiteId};

/// Items per placement class. 3 classes × 1000 rows ≫ 2 clients, and
/// sites execute serially, so lock contention is not what is measured.
pub const CLASS_ITEMS: u32 = 1000;

/// Load connections of every workload. Sized for `nproc` = 2: one
/// harness thread drives both.
pub const LOAD_CONNS: usize = 2;

/// Operations per transaction (Table 1).
pub const OPS_PER_TXN: usize = 10;
/// Writes in an update transaction; one of them is the heartbeat.
pub const WRITES_PER_UPDATE: usize = 4;

/// The two pinned copy graphs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Example 1.1's copy graph: s0's items replicated at {s1, s2},
    /// s1's at {s2}, s2's nowhere. The DAG(WT) tree is s0→s1→s2.
    Chain3,
    /// `Chain3` with s2's items replicated at {s0}: s2→s0 is a backedge.
    Ring3,
}

impl Placement {
    pub fn name(self) -> &'static str {
        match self {
            Placement::Chain3 => "chain3",
            Placement::Ring3 => "ring3",
        }
    }

    pub fn build(self) -> DataPlacement {
        let mut p = DataPlacement::new(3);
        for _ in 0..CLASS_ITEMS {
            p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
        }
        for _ in 0..CLASS_ITEMS {
            p.add_item(SiteId(1), &[SiteId(2)]);
        }
        for _ in 0..CLASS_ITEMS {
            match self {
                Placement::Chain3 => p.add_item(SiteId(2), &[]),
                Placement::Ring3 => p.add_item(SiteId(2), &[SiteId(0)]),
            };
        }
        p
    }
}

/// The replica of `item` that propagation reaches last: walking the
/// sites in id order from the primary (wrapping), the last one holding
/// a copy. `None` for an unreplicated item.
pub fn farthest_replica(p: &DataPlacement, item: ItemId) -> Option<SiteId> {
    let n = p.num_sites();
    let primary = p.primary_of(item).0;
    (1..n).rev().map(|d| SiteId((primary + d) % n)).find(|s| p.has_copy(*s, item))
}

/// How requests are issued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pacing {
    /// Each connection keeps `depth` requests outstanding and sends the
    /// next only after a reply: a slow fleet receives less load.
    Closed { depth: usize },
    /// Each connection sends `rate` requests per second on a fixed
    /// schedule, whatever the replies do; latency counts from the due
    /// time.
    Open { rate: u32 },
}

/// One pinned traffic mix.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub protocol: RuntimeProtocol,
    pub placement: Placement,
    pub pacing: Pacing,
    /// Site of each load connection.
    pub conn_sites: [u32; LOAD_CONNS],
    /// Share of read-only transactions, in permille.
    pub read_only_permille: u32,
}

const CLOSED: Pacing = Pacing::Closed { depth: 1 };
const PACED: Pacing = Pacing::Open { rate: 1000 };

/// The pinned set. Names are final.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "update_closed",
            why: "every commit travels two hops, so the propagation path does most of the work",
            protocol: RuntimeProtocol::DagWt,
            placement: Placement::Chain3,
            pacing: CLOSED,
            conn_sites: [0, 0],
            read_only_permille: 0,
        },
        Workload {
            name: "read_closed",
            why: "95% read-only: the client path works and propagation is nearly idle",
            protocol: RuntimeProtocol::DagWt,
            placement: Placement::Chain3,
            pacing: CLOSED,
            conn_sites: [1, 2],
            read_only_permille: 950,
        },
        Workload {
            name: "update_paced",
            why: "sparse arrivals at 2x1000/s: reactor tick and timers dominate, batching delay shows",
            protocol: RuntimeProtocol::DagWt,
            placement: Placement::Chain3,
            pacing: PACED,
            conn_sites: [0, 0],
            read_only_permille: 0,
        },
        Workload {
            name: "update_paced_dagt",
            why: "update_paced under DAG(T): s2 admits s0's updates only under idle s1's 2 ms heartbeats",
            protocol: RuntimeProtocol::DagT,
            placement: Placement::Chain3,
            pacing: PACED,
            conn_sites: [0, 0],
            read_only_permille: 0,
        },
        Workload {
            name: "backedge_eager",
            why: "every commit takes the synchronous special-subtransaction path over a backedge",
            protocol: RuntimeProtocol::BackEdge,
            placement: Placement::Ring3,
            pacing: CLOSED,
            conn_sites: [2, 2],
            read_only_permille: 0,
        },
    ]
}

/// `--stress update_pipelined`: `update_closed` with a deep pipeline.
/// Not pinned: it reproduces the retransmission storm (see README).
pub fn stress_workload(depth: usize) -> Workload {
    Workload {
        name: "update_pipelined",
        why: "deep pipeline at s0: reproduces the retransmission storm",
        pacing: Pacing::Closed { depth },
        ..workloads().swap_remove(0)
    }
}

/// The end-to-end metrics `BENCHMARK.json` puts a bound on, `(name,
/// unit)`: the result line of a `--trace 0` run.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("rss_peak_mb", "MB"), ("committed_share", "ratio")];

/// The issue's other end-to-end metrics. An untraced run measures and
/// prints them like the bounded ones, and `all`/`compare` carry them;
/// but two run sets of one commit disagree on them by more than a tenth
/// on the build box, so by the issue's rule `BENCHMARK.json` lists them
/// per layer, without a bound (README, "Bounds and demotions").
pub const DEMOTED: [(&str, &str); 5] = [
    ("throughput_tps", "1/s"),
    ("commit_p50_us", "us"),
    ("commit_p90_us", "us"),
    ("lag_p50_us", "us"),
    ("cpu_us_per_txn", "us"),
];

const PROTOCOLS: [&str; 3] = ["dagwt", "dagt", "backedge"];

/// Per-layer metrics, `(name, unit)`; printed with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    for (name, unit) in DEMOTED {
        add(name, unit);
    }
    for (name, unit) in [
        ("failed_share", "ratio"),
        ("client.encode_ns", "ns"),
        ("client.write_ns", "ns"),
        ("client.wait_us", "us"),
        ("client.decode_ns", "ns"),
        ("client.commit_p99_us", "us"),
        ("client.commit_p999_us", "us"),
        ("client.read_txn_p50_us", "us"),
        ("client.update_txn_p50_us", "us"),
        ("client.lag_p90_us", "us"),
        ("client.lag_p99_us", "us"),
        ("client.stale_age_p50_us", "us"),
        ("client.probe_rtt_p50_us", "us"),
        ("client.gen_late_p50_us", "us"),
        ("client.gen_late_p99_us", "us"),
        ("trace.overhead_pct", "%"),
    ] {
        add(name, unit);
    }
    for s in 0..3 {
        add(&format!("runtime.cpu_us_per_txn.s{s}"), "us");
        add(&format!("runtime.wakeups_per_txn.s{s}"), "count");
        add(&format!("runtime.rss_mb.s{s}"), "MB");
    }
    for (name, unit) in [
        ("runtime.rss_bytes_per_txn.s0", "B"),
        ("runtime.backlog_mean", "count"),
        ("runtime.backlog_max", "count"),
        ("runtime.drain_ms", "ms"),
        ("runtime.peer_unhealthy_samples", "count"),
        ("runtime.rtt_floor_us", "us"),
        ("runtime.chan_commit_p50_us", "us"),
        ("runtime.chan_tps", "1/s"),
        ("net.encode_execute_ns", "ns"),
        ("net.decode_execute_ns", "ns"),
        ("net.encode_reply_ns", "ns"),
        ("net.encode_link_ns", "ns"),
        ("net.decode_link_ns", "ns"),
        ("net.encode_batch8_ns_per_payload", "ns"),
        ("net.execute_frame_bytes", "B"),
        ("net.link_frame_bytes", "B"),
        ("storage.update_txn_ns", "ns"),
        ("storage.apply_txn_ns", "ns"),
        ("storage.read_txn_2pl_ns", "ns"),
        ("storage.read_txn_mvcc_ns", "ns"),
        ("storage.wal_append_ns", "ns"),
        ("storage.group_flush8_ns_per_commit", "ns"),
        ("storage.wal_bytes_per_commit", "B"),
    ] {
        add(name, unit);
    }
    for p in PROTOCOLS {
        add(&format!("protocol.primary_step_ns.{p}"), "ns");
        add(&format!("protocol.secondary_step_ns.{p}"), "ns");
        add(&format!("protocol.msgs_per_commit.{p}"), "count");
    }
    add("protocol.heartbeat_step_ns.dagt", "ns");
    for p in PROTOCOLS {
        add(&format!("core.sim_wall_us_per_txn.{p}"), "us");
        add(&format!("core.sim_recency_ms.{p}"), "ms");
    }
    for (name, unit) in [
        ("budget.s0_probe_sum_us", "us"),
        ("budget.s0_coverage", "ratio"),
        ("calib.op_cpu_ratio", "ratio"),
        ("calib.msg_cpu_ratio", "ratio"),
        ("calib.apply_cpu_ratio", "ratio"),
    ] {
        add(name, unit);
    }
    out
}

/// Every declared metric with its unit.
pub fn units() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).chain(per_layer()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_match_their_description() {
        let chain = Placement::Chain3.build();
        assert_eq!(chain.num_items(), 3 * CLASS_ITEMS);
        assert_eq!(chain.primaries_at(SiteId(0)).len(), CLASS_ITEMS as usize);
        assert_eq!(farthest_replica(&chain, ItemId(0)), Some(SiteId(2)));
        assert_eq!(farthest_replica(&chain, ItemId(CLASS_ITEMS)), Some(SiteId(2)));
        assert_eq!(farthest_replica(&chain, ItemId(2 * CLASS_ITEMS)), None);
        let ring = Placement::Ring3.build();
        assert_eq!(farthest_replica(&ring, ItemId(2 * CLASS_ITEMS)), Some(SiteId(0)));
        // The spec repld receives round-trips.
        assert_eq!(DataPlacement::from_spec(&ring.to_spec()).unwrap().to_spec(), ring.to_spec());
    }
}
