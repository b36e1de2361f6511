//! Run metrics matching §5.3: throughput, abort rate, response time and
//! update-propagation delay.

use std::collections::BTreeMap;

use repl_sim::{SimDuration, SimTime};
use repl_types::json::Object;
use repl_types::{GlobalTxnId, SiteId};

#[derive(Debug)]
struct PendingPropagation {
    committed_at: SimTime,
    remaining: usize,
    last_apply: SimTime,
}

/// Collects per-run statistics.
#[derive(Debug)]
pub struct Metrics {
    commits_per_site: Vec<u64>,
    last_commit_per_site: Vec<SimTime>,
    aborts: u64,
    response_total_us: u64,
    response_count: u64,
    pending: BTreeMap<GlobalTxnId, PendingPropagation>,
    prop_total_us: u64,
    prop_count: u64,
    prop_max_us: u64,
    last_commit: SimTime,
    last_progress: SimTime,
    crashes: u64,
    down_since: Vec<Option<SimTime>>,
    downtime_us: Vec<u64>,
    recovering_since: Vec<Option<SimTime>>,
    recovery_total_us: u64,
    recovery_count: u64,
}

impl Metrics {
    /// Metrics for a system of `num_sites` sites.
    pub fn new(num_sites: u32) -> Self {
        Metrics {
            commits_per_site: vec![0; num_sites as usize],
            last_commit_per_site: vec![SimTime::ZERO; num_sites as usize],
            aborts: 0,
            response_total_us: 0,
            response_count: 0,
            pending: BTreeMap::new(),
            prop_total_us: 0,
            prop_count: 0,
            prop_max_us: 0,
            last_commit: SimTime::ZERO,
            last_progress: SimTime::ZERO,
            crashes: 0,
            down_since: vec![None; num_sites as usize],
            downtime_us: vec![0; num_sites as usize],
            recovering_since: vec![None; num_sites as usize],
            recovery_total_us: 0,
            recovery_count: 0,
        }
    }

    /// `site` crashed at `now` (fault plan).
    pub fn on_crash(&mut self, site: SiteId, now: SimTime) {
        self.crashes += 1;
        self.down_since[site.index()] = Some(now);
    }

    /// `site` restarted at `now`; the recovery interval (restart to
    /// caught-up) opens here.
    pub fn on_restart(&mut self, site: SiteId, now: SimTime) {
        if let Some(down) = self.down_since[site.index()].take() {
            self.downtime_us[site.index()] += (now - down).as_micros();
        }
        self.recovering_since[site.index()] = Some(now);
    }

    /// `site` finished recovering (WAL replayed, backlog drained) at `at`.
    pub fn on_recovered(&mut self, site: SiteId, at: SimTime) {
        if let Some(since) = self.recovering_since[site.index()].take() {
            self.recovery_total_us += (at - since).as_micros();
            self.recovery_count += 1;
        }
    }

    /// A primary subtransaction committed at `site`; `first_started` is
    /// when its *first* attempt began (response time spans retries, as
    /// experienced by the client thread).
    pub fn on_commit(&mut self, site: SiteId, now: SimTime, first_started: SimTime) {
        self.commits_per_site[site.index()] += 1;
        self.last_commit_per_site[site.index()] = self.last_commit_per_site[site.index()].max(now);
        self.response_total_us += (now - first_started).as_micros();
        self.response_count += 1;
        self.last_commit = self.last_commit.max(now);
        self.last_progress = now;
    }

    /// A primary subtransaction attempt aborted (deadlock victim or
    /// vetoed commit). The §5.3 abort rate counts these attempts.
    pub fn on_abort(&mut self) {
        self.aborts += 1;
    }

    /// Register that `gid`'s updates must reach `destinations` replica
    /// applications; propagation delay is measured from `committed_at` to
    /// the last application.
    pub fn expect_propagation(
        &mut self,
        gid: GlobalTxnId,
        destinations: usize,
        committed_at: SimTime,
    ) {
        if destinations > 0 {
            self.pending.insert(
                gid,
                PendingPropagation {
                    committed_at,
                    remaining: destinations,
                    last_apply: committed_at,
                },
            );
        }
    }

    /// One replica application of `gid`'s updates completed at `now`.
    pub fn on_apply(&mut self, gid: GlobalTxnId, now: SimTime) {
        self.last_progress = now;
        if let Some(p) = self.pending.get_mut(&gid) {
            p.remaining -= 1;
            p.last_apply = p.last_apply.max(now);
            if p.remaining == 0 {
                let p = self.pending.remove(&gid).expect("present");
                let delay = (p.last_apply - p.committed_at).as_micros();
                self.prop_total_us += delay;
                self.prop_count += 1;
                self.prop_max_us = self.prop_max_us.max(delay);
            }
        }
    }

    /// Total commits so far.
    pub fn total_commits(&self) -> u64 {
        self.commits_per_site.iter().sum()
    }

    /// When the run last progressed: the latest primary commit or
    /// replica application ([`Metrics::on_commit`], [`Metrics::on_apply`]).
    pub fn last_progress(&self) -> SimTime {
        self.last_progress
    }

    /// Transactions whose propagation has not finished yet.
    pub fn unpropagated(&self) -> usize {
        self.pending.len()
    }

    /// Produce the final summary. `now` is the end of the measured run;
    /// `stall` is the cumulative extra delay the fault plan injected on
    /// the network.
    pub fn summarize(&self, now: SimTime, messages: u64, stall: SimDuration) -> MetricsSummary {
        let commits = self.total_commits();
        // §5.3 metric 1: "the average of the transaction throughputs at
        // each site" — each site's rate over *its own* horizon (up to its
        // last primary commit), then averaged. Global horizons would bias
        // the comparison toward protocols with uniform per-site speeds.
        let mut rates = Vec::with_capacity(self.commits_per_site.len());
        for (i, &c) in self.commits_per_site.iter().enumerate() {
            let secs = self.last_commit_per_site[i].as_secs_f64();
            if c > 0 && secs > 0.0 {
                rates.push(c as f64 / secs);
            }
        }
        let throughput =
            if rates.is_empty() { 0.0 } else { rates.iter().sum::<f64>() / rates.len() as f64 };
        // Downtime of sites still down at run end accrues to the end.
        let mut down_us: u64 = self.downtime_us.iter().sum();
        for since in self.down_since.iter().flatten() {
            down_us += (now - *since).as_micros();
        }
        let site_time_us = self.commits_per_site.len() as u64 * now.as_micros();
        MetricsSummary {
            commits,
            aborts: self.aborts,
            throughput_per_site: throughput,
            abort_rate_pct: if commits + self.aborts > 0 {
                100.0 * self.aborts as f64 / (commits + self.aborts) as f64
            } else {
                0.0
            },
            mean_response_ms: if self.response_count > 0 {
                self.response_total_us as f64 / self.response_count as f64 / 1_000.0
            } else {
                0.0
            },
            mean_propagation_ms: if self.prop_count > 0 {
                self.prop_total_us as f64 / self.prop_count as f64 / 1_000.0
            } else {
                0.0
            },
            max_propagation_ms: self.prop_max_us as f64 / 1_000.0,
            incomplete_propagations: self.pending.len() as u64,
            messages,
            virtual_duration: SimDuration::micros(now.as_micros()),
            crashes: self.crashes,
            availability_pct: if site_time_us > 0 {
                100.0 * (1.0 - down_us as f64 / site_time_us as f64)
            } else {
                100.0
            },
            mean_recovery_ms: if self.recovery_count > 0 {
                self.recovery_total_us as f64 / self.recovery_count as f64 / 1_000.0
            } else {
                0.0
            },
            stall_ms: stall.as_micros() as f64 / 1_000.0,
        }
    }
}

/// The numbers a finished run reports — one row of a figure series.
#[derive(Clone, Debug)]
pub struct MetricsSummary {
    /// Committed primary subtransactions.
    pub commits: u64,
    /// Aborted primary attempts.
    pub aborts: u64,
    /// Committed primaries per site per virtual second — the paper's
    /// "Average Throughput" (§5.3 metric 1).
    pub throughput_per_site: f64,
    /// Percentage of primary attempts that aborted (§5.3 metric 2).
    pub abort_rate_pct: f64,
    /// Mean response time of committed transactions, ms (§5.3.4).
    pub mean_response_ms: f64,
    /// Mean delay from primary commit to last replica application, ms
    /// (§5.3.4 "recency").
    pub mean_propagation_ms: f64,
    /// Worst-case propagation delay, ms.
    pub max_propagation_ms: f64,
    /// Transactions whose updates had not reached every replica when the
    /// run ended (should be 0 after quiescence for the DAG protocols).
    pub incomplete_propagations: u64,
    /// Total network messages sent.
    pub messages: u64,
    /// Virtual run length.
    pub virtual_duration: SimDuration,
    /// Site crashes injected by the fault plan.
    pub crashes: u64,
    /// Percentage of site-time the sites were up: `100 · (1 − downtime /
    /// (sites × run length))`. 100 when no faults were injected.
    pub availability_pct: f64,
    /// Mean time from a site's restart until it caught up (WAL replayed,
    /// buffered backlog drained), ms.
    pub mean_recovery_ms: f64,
    /// Cumulative extra message delay injected by link outages and
    /// jitter, ms.
    pub stall_ms: f64,
}

impl MetricsSummary {
    /// The summary as one flat JSON object, fields in declaration order
    /// (`virtual_duration` in microseconds, a non-finite float as `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut o = Object::new(&mut out);
        o.uint("commits", self.commits).uint("aborts", self.aborts);
        o.float("throughput_per_site", self.throughput_per_site);
        o.float("abort_rate_pct", self.abort_rate_pct);
        o.float("mean_response_ms", self.mean_response_ms);
        o.float("mean_propagation_ms", self.mean_propagation_ms);
        o.float("max_propagation_ms", self.max_propagation_ms);
        o.uint("incomplete_propagations", self.incomplete_propagations);
        o.uint("messages", self.messages);
        o.uint("virtual_duration", self.virtual_duration.as_micros());
        o.uint("crashes", self.crashes);
        o.float("availability_pct", self.availability_pct);
        o.float("mean_recovery_ms", self.mean_recovery_ms);
        o.float("stall_ms", self.stall_ms);
        o.end();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u32) -> SiteId {
        SiteId(n)
    }

    #[test]
    fn throughput_and_abort_rate() {
        let mut m = Metrics::new(2);
        m.on_commit(s(0), SimTime(1_000_000), SimTime(0));
        m.on_commit(s(1), SimTime(2_000_000), SimTime(1_000_000));
        m.on_abort();
        let sum = m.summarize(SimTime(4_000_000), 7, SimDuration::ZERO);
        // Per-site rates over each site's own horizon: s0 = 1 commit/1 s,
        // s1 = 1 commit/2 s; average = 0.75 (§5.3 metric 1).
        assert!((sum.throughput_per_site - 0.75).abs() < 1e-9);
        assert!((sum.abort_rate_pct - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(sum.commits, 2);
        assert_eq!(sum.aborts, 1);
        assert_eq!(sum.messages, 7);
        // Mean response: (1s + 1s) / 2.
        assert!((sum.mean_response_ms - 1_000.0).abs() < 1e-9);
    }

    /// The bytes the `serde` derive wrote for a summary with NaN,
    /// infinite, integral, huge and negative-zero floats, before the
    /// hand-written writer replaced it.
    #[test]
    fn summary_json_is_byte_identical() {
        let s = MetricsSummary {
            commits: 1234,
            aborts: 56,
            throughput_per_site: 78.9012345678,
            abort_rate_pct: f64::NAN,
            mean_response_ms: 181.25,
            mean_propagation_ms: f64::INFINITY,
            max_propagation_ms: 1e21,
            incomplete_propagations: 0,
            messages: 424242,
            virtual_duration: SimDuration::micros(123_456_789),
            crashes: 3,
            availability_pct: 100.0,
            mean_recovery_ms: 0.1,
            stall_ms: -0.0,
        };
        assert_eq!(
            s.to_json(),
            r#"{"commits":1234,"aborts":56,"throughput_per_site":78.9012345678,"abort_rate_pct":null,"mean_response_ms":181.25,"mean_propagation_ms":null,"max_propagation_ms":1000000000000000000000,"incomplete_propagations":0,"messages":424242,"virtual_duration":123456789,"crashes":3,"availability_pct":100,"mean_recovery_ms":0.1,"stall_ms":-0}"#
        );
    }

    #[test]
    fn propagation_delay_tracks_last_apply() {
        let mut m = Metrics::new(1);
        let gid = GlobalTxnId::new(s(0), 1);
        m.expect_propagation(gid, 2, SimTime(1_000));
        m.on_apply(gid, SimTime(2_000));
        assert_eq!(m.unpropagated(), 1);
        m.on_apply(gid, SimTime(5_000));
        assert_eq!(m.unpropagated(), 0);
        let sum = m.summarize(SimTime(10_000), 0, SimDuration::ZERO);
        assert!((sum.mean_propagation_ms - 4.0).abs() < 1e-9);
        assert!((sum.max_propagation_ms - 4.0).abs() < 1e-9);
        assert_eq!(sum.incomplete_propagations, 0);
    }

    #[test]
    fn zero_destination_propagation_is_ignored() {
        let mut m = Metrics::new(1);
        let gid = GlobalTxnId::new(s(0), 1);
        m.expect_propagation(gid, 0, SimTime(1_000));
        assert_eq!(m.unpropagated(), 0);
        // Applying for an untracked gid is a no-op.
        m.on_apply(gid, SimTime(2_000));
        let sum = m.summarize(SimTime(3_000), 0, SimDuration::ZERO);
        assert_eq!(sum.mean_propagation_ms, 0.0);
    }

    #[test]
    fn empty_run_summary_is_finite() {
        let m = Metrics::new(3);
        let sum = m.summarize(SimTime::ZERO, 0, SimDuration::ZERO);
        assert_eq!(sum.throughput_per_site, 0.0);
        assert_eq!(sum.abort_rate_pct, 0.0);
        assert_eq!(sum.mean_response_ms, 0.0);
        assert_eq!(sum.crashes, 0);
        assert_eq!(sum.availability_pct, 100.0);
        assert_eq!(sum.mean_recovery_ms, 0.0);
        assert_eq!(sum.stall_ms, 0.0);
    }

    #[test]
    fn crash_windows_shape_availability_and_recovery() {
        let mut m = Metrics::new(2);
        // Site 0: down [1s, 2s), recovered 0.5 s after restart.
        m.on_crash(s(0), SimTime(1_000_000));
        m.on_restart(s(0), SimTime(2_000_000));
        m.on_recovered(s(0), SimTime(2_500_000));
        // Site 1: crashes at 3 s and never restarts.
        m.on_crash(s(1), SimTime(3_000_000));
        let sum = m.summarize(SimTime(4_000_000), 0, SimDuration::millis(7));
        assert_eq!(sum.crashes, 2);
        // Downtime: 1 s (site 0) + 1 s (site 1, accrued to run end) over
        // 2 sites × 4 s of site-time.
        assert!((sum.availability_pct - 75.0).abs() < 1e-9);
        assert!((sum.mean_recovery_ms - 500.0).abs() < 1e-9);
        assert!((sum.stall_ms - 7.0).abs() < 1e-9);
    }
}
