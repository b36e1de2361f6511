//! Table 1: parameter settings of the paper's performance study.

use repl_core::config::SimParams;
use repl_core::scenario::WorkloadMix;
use repl_sim::SimDuration;

/// The full parameter space of Table 1.
///
/// Field defaults are the paper's default column; the `Range` column of
/// Table 1 is what the figure sweeps vary.
#[derive(Clone, Debug)]
pub struct TableOneParams {
    /// Number of sites `m` (default 9, range 3–15).
    pub num_sites: u32,
    /// Number of distinct items `n`, not counting replicas (default 200).
    pub num_items: u32,
    /// Replication probability `r` (default 0.2, range 0–1): the fraction
    /// of each site's primary copies that are replicated.
    pub replication_prob: f64,
    /// Site probability `s` (default 0.5): each candidate site receives a
    /// replica with this probability.
    pub site_prob: f64,
    /// Backedge probability `b` (default 0.2, range 0–1): with
    /// probability `b` *all* sites are replica candidates (creating
    /// backedges); otherwise only sites after the primary in the total
    /// order.
    pub backedge_prob: f64,
    /// Operations per transaction (default 10).
    pub ops_per_txn: u32,
    /// Threads per site — the multiprogramming level (default 3, range
    /// 1–5).
    pub threads_per_site: u32,
    /// Transactions per thread (default 1000).
    pub txns_per_thread: u32,
    /// Read operation probability (default 0.7, range 0–1).
    pub read_op_prob: f64,
    /// Read transaction probability (default 0.5, range 0–1).
    pub read_txn_prob: f64,
    /// One-way network latency (default ≈0.15 ms, range 0.15–100 ms).
    pub network_latency: SimDuration,
    /// Deadlock timeout interval (default 50 ms).
    pub deadlock_timeout: SimDuration,
}

impl Default for TableOneParams {
    fn default() -> Self {
        TableOneParams {
            num_sites: 9,
            num_items: 200,
            replication_prob: 0.2,
            site_prob: 0.5,
            backedge_prob: 0.2,
            ops_per_txn: 10,
            threads_per_site: 3,
            txns_per_thread: 1000,
            read_op_prob: 0.7,
            read_txn_prob: 0.5,
            network_latency: SimDuration::micros(150),
            deadlock_timeout: SimDuration::millis(50),
        }
    }
}

impl TableOneParams {
    /// A scaled-down configuration for tests and Criterion benches.
    pub fn scaled(txns_per_thread: u32) -> Self {
        TableOneParams { txns_per_thread, ..Default::default() }
    }

    /// The transaction-shape parameters as a [`WorkloadMix`].
    pub fn mix(&self) -> WorkloadMix {
        WorkloadMix {
            ops_per_txn: self.ops_per_txn,
            read_txn_prob: self.read_txn_prob,
            read_op_prob: self.read_op_prob,
        }
    }

    /// Fold these settings into engine [`SimParams`] (protocol and cost
    /// model come from `base`).
    pub fn sim_params(&self, base: &SimParams) -> SimParams {
        SimParams {
            threads_per_site: self.threads_per_site,
            txns_per_thread: self.txns_per_thread,
            network_latency: self.network_latency,
            deadlock_timeout: self.deadlock_timeout,
            ..base.clone()
        }
    }

    /// Render Table 1 exactly as the paper prints it (parameter, symbol,
    /// default, range).
    pub fn render_table(&self) -> String {
        let rows: Vec<[String; 4]> = vec![
            ["Number of Sites".into(), "m".into(), self.num_sites.to_string(), "3 - 15".into()],
            ["Number of Items".into(), "n".into(), self.num_items.to_string(), String::new()],
            [
                "Replication Probability".into(),
                "r".into(),
                format!("{}", self.replication_prob),
                "0 - 1".into(),
            ],
            ["Site Probability".into(), "s".into(), format!("{}", self.site_prob), String::new()],
            [
                "Backedge Probability".into(),
                "b".into(),
                format!("{}", self.backedge_prob),
                "0 - 1".into(),
            ],
            [
                "Operations/Transaction".into(),
                String::new(),
                self.ops_per_txn.to_string(),
                String::new(),
            ],
            [
                "Threads/Site".into(),
                String::new(),
                self.threads_per_site.to_string(),
                "1 - 5".into(),
            ],
            [
                "Transactions/Thread".into(),
                String::new(),
                self.txns_per_thread.to_string(),
                String::new(),
            ],
            [
                "Read Operation Probability".into(),
                String::new(),
                format!("{}", self.read_op_prob),
                "0 - 1".into(),
            ],
            [
                "Read Transaction Probability".into(),
                String::new(),
                format!("{}", self.read_txn_prob),
                "0 - 1".into(),
            ],
            [
                "Network Latency".into(),
                String::new(),
                format!("Approx {:.2} millisec", self.network_latency.as_millis_f64()),
                "0.15 - 100 millisec".into(),
            ],
            [
                "Deadlock Timeout Interval".into(),
                String::new(),
                format!("{:.0} millisec", self.deadlock_timeout.as_millis_f64()),
                String::new(),
            ],
        ];
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:<7} {:<22} {}\n",
            "Parameter", "Symbol", "Default Value", "Range"
        ));
        out.push_str(&"-".repeat(75));
        out.push('\n');
        for r in rows {
            out.push_str(&format!("{:<28} {:<7} {:<22} {}\n", r[0], r[1], r[2], r[3]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let p = TableOneParams::default();
        assert_eq!(p.num_sites, 9);
        assert_eq!(p.num_items, 200);
        assert_eq!(p.replication_prob, 0.2);
        assert_eq!(p.site_prob, 0.5);
        assert_eq!(p.backedge_prob, 0.2);
        assert_eq!(p.ops_per_txn, 10);
        assert_eq!(p.threads_per_site, 3);
        assert_eq!(p.txns_per_thread, 1000);
        assert_eq!(p.read_op_prob, 0.7);
        assert_eq!(p.read_txn_prob, 0.5);
        assert_eq!(p.network_latency, SimDuration::micros(150));
        assert_eq!(p.deadlock_timeout, SimDuration::millis(50));
    }

    #[test]
    fn table_renders_all_rows() {
        let t = TableOneParams::default().render_table();
        for needle in [
            "Number of Sites",
            "Replication Probability",
            "Backedge Probability",
            "Deadlock Timeout Interval",
            "0.15 - 100 millisec",
        ] {
            assert!(t.contains(needle), "missing row: {needle}\n{t}");
        }
    }

    #[test]
    fn sim_params_folding() {
        let t = TableOneParams { threads_per_site: 5, ..Default::default() };
        let base = SimParams::default();
        let sp = t.sim_params(&base);
        assert_eq!(sp.threads_per_site, 5);
        assert_eq!(sp.txns_per_thread, 1000);
        assert_eq!(sp.protocol, base.protocol);
    }
}
