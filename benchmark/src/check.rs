//! The correctness pass: a short seeded run on a fresh fleet, drained,
//! then checked three ways. It is separate from the timed window
//! because a site's `History` reply must fit one 1 MiB frame.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU8;
use std::time::{Duration, Instant};

use repl_analysis::history::History;
use repl_copygraph::DataPlacement;
use repl_net::decode_cells;
use repl_runtime::LaunchOptions;
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

use crate::fleet::{Control, Fleet};
use crate::gen::heartbeat_item;
use crate::load::{run_load, Limit, Phase};
use crate::procfs;
use crate::spec::{farthest_replica, Workload};

/// Outcome of one pass: how many requests it sent, how many failed,
/// and the largest peak resident set among the sites afterwards. The
/// pass does a fixed amount of work on a fresh fleet, so that peak does
/// not depend on how fast the fleet happened to run.
#[derive(Debug, Default)]
pub struct CheckReport {
    pub attempted: u64,
    pub failed: u64,
    pub hwm_kb: u64,
}

/// Run `txns` requests of `wl`'s own stream, drain, and verify:
/// 1. every item has the same (value, writer) at every copy;
/// 2. each heartbeat item, at its farthest replica, holds the last
///    acknowledged heartbeat value;
/// 3. the fleet's merged history is one-copy serializable.
pub fn correctness_pass(
    wl: &Workload,
    options: &LaunchOptions,
    seed: u64,
    txns: u64,
    deadline: Duration,
) -> Result<CheckReport, String> {
    let placement = wl.placement.build();
    let first = SiteId(wl.conn_sites[0]);
    let (fleet, _) = Fleet::launch(&placement, wl.protocol, options, first)
        .map_err(|e| format!("check fleet: {e}"))?;
    let verdict = run_and_verify(&fleet, &placement, wl, seed, txns, deadline);
    match &verdict {
        Ok(_) => fleet.shutdown(),
        Err(_) => fleet.kill(),
    }
    verdict
}

fn run_and_verify(
    fleet: &Fleet,
    placement: &DataPlacement,
    wl: &Workload,
    seed: u64,
    txns: u64,
    deadline: Duration,
) -> Result<CheckReport, String> {
    let addrs = fleet.cluster.addrs().to_vec();
    let flag = AtomicU8::new(Phase::Idle as u8);
    let phases = [(Phase::Window, Limit::Txns(txns))];
    let load = run_load(&addrs, placement, wl, seed, &phases, Instant::now(), &flag, deadline)
        .map_err(|e| format!("check load: {e}"))?;
    let refused = load.samples.iter().filter(|s| !s.ok).count() as u64;
    let mut report = CheckReport { attempted: txns, failed: refused + load.unanswered, hwm_kb: 0 };
    if report.failed > 0 {
        return Err(format!(
            "check: {refused} requests refused, {} unanswered of {txns}",
            load.unanswered
        ));
    }
    Control::connect(&addrs, deadline)
        .map_err(|e| format!("check control: {e}"))?
        .drain(deadline)?;

    // 1. Convergence, copy by copy.
    let mut cells: BTreeMap<ItemId, Vec<(SiteId, Value, Option<GlobalTxnId>)>> = BTreeMap::new();
    for site in placement.sites() {
        let state = fleet.cluster.copy_state(site).map_err(|e| format!("copy_state: {e}"))?;
        for (item, value, writer) in decode_cells(state).map_err(|e| format!("cells: {e}"))? {
            cells.entry(item).or_default().push((site, value, writer));
        }
    }
    for (item, copies) in &cells {
        let expected = 1 + placement.replicas_of(*item).len();
        if copies.len() != expected {
            return Err(format!(
                "{item}: {} copies reported, placement has {expected}",
                copies.len()
            ));
        }
        if let Some(odd) = copies.iter().find(|c| (&c.1, c.2) != (&copies[0].1, copies[0].2)) {
            return Err(format!("{item} diverged: {:?} vs {odd:?}", copies[0]));
        }
    }

    // 2. The heartbeat reached its farthest replica.
    for (conn, &site) in wl.conn_sites.iter().enumerate() {
        let item = heartbeat_item(placement, SiteId(site), conn);
        let at = farthest_replica(placement, item).unwrap_or(SiteId(site));
        let acked = load.commit_at[conn].len() as i64;
        let seen = fleet.cluster.peek(at, item).and_then(|(v, _)| v.as_int()).unwrap_or(0);
        if seen != acked {
            return Err(format!(
                "heartbeat {item} of connection {conn}: {at} holds {seen}, last acknowledged {acked}"
            ));
        }
    }

    // 3. One-copy serializability of what the sites recorded.
    let txns_seen = fleet.cluster.history().map_err(|e| format!("history: {e}"))?;
    // + the set-up transaction of `Fleet::launch`.
    if txns_seen.len() as u64 != txns + 1 {
        return Err(format!("history holds {} transactions, sent {}", txns_seen.len(), txns + 1));
    }
    let mut history = History::new();
    for (gid, reads, writes) in txns_seen {
        history.record_commit(gid, reads, writes);
    }
    history
        .check_serializability()
        .map_err(|cycle| format!("not one-copy serializable: {cycle}"))?;
    let peaks = fleet.pids.iter().filter_map(|pid| procfs::snapshot(*pid)).map(|s| s.hwm_kb);
    report.hwm_kb = peaks.max().unwrap_or(0);
    Ok(report)
}
