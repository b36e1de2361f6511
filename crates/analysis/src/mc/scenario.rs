//! Bounded model-checking scenarios: topology, workload, budgets.
//!
//! A [`Scenario`] fixes everything the explorer needs to enumerate a
//! finite state space: the placement (one of four canonical shapes at
//! 2–4 sites), a small write-only workload (2–3 transactions, each also
//! *observed* reading its origin's local copies at commit time), and
//! the budgets that bound otherwise-infinite behaviours (DAG(T)
//! timers, the optional single crash, BackEdge eager aborts).
//!
//! The shapes are chosen so each protocol's load-bearing machinery is
//! actually on the critical path:
//!
//! * **fan** — every item primary at `s0`, replicated everywhere: the
//!   per-link FIFO discipline is the whole story (NaiveLazy's home turf).
//! * **chain** — item *k* primary at `s_k`, replicated downstream: the
//!   last site has *two* DAG(T) parents, so the §3.2.3 minimum-timestamp
//!   rule (and its dummies) decides the apply order there, and DAG(WT)
//!   routes through an interior site.
//! * **diamond** — `s0` fans out to `s1`/`s2` which both feed `s3`:
//!   two merge queues at the sink with independent middle paths.
//! * **cross** — `a@s0 → {s1,s2}`, `b@s1 → {s0,s2}`: the copy graph is
//!   cyclic, so DAG protocols reject it and BackEdge must run its eager
//!   special phase (§4.1). NaiveLazy on this shape is Example 1.1 — the
//!   checker *rediscovers* the paper's anomaly (a positive control, not
//!   a gate scenario).

use repl_copygraph::DataPlacement;
use repl_protocol::{ProtocolId, SeededBug};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

/// One planned primary transaction of the bounded workload.
#[derive(Clone, Debug)]
pub struct PlannedTxn {
    /// The transaction's global id (origin + per-origin sequence).
    pub gid: GlobalTxnId,
    /// Its write set (items primary at the origin).
    pub writes: Vec<(ItemId, Value)>,
    /// Items the transaction reads at its origin (every locally held
    /// copy it does not write). The machine never sees these — reads
    /// exist for the serializability oracle, which records the version
    /// tags the origin's store holds at commit time.
    pub reads: Vec<ItemId>,
}

/// A canonical placement shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// All items primary at `s0`, replicated at every other site.
    Fan,
    /// Item `k` primary at `s_k`, replicated at all later sites.
    Chain,
    /// `s0 → {s1,s2,s3}`, `s1 → {s3}`, `s2 → {s3}` (4 sites exactly).
    Diamond,
    /// `a@s0 → {s1,s2}`, `b@s1 → {s0,s2}` (3 sites exactly; cyclic).
    Cross,
}

impl Topology {
    /// The topology's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Topology::Fan => "fan",
            Topology::Chain => "chain",
            Topology::Diamond => "diamond",
            Topology::Cross => "cross",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Topology> {
        match s {
            "fan" => Some(Topology::Fan),
            "chain" => Some(Topology::Chain),
            "diamond" => Some(Topology::Diamond),
            "cross" => Some(Topology::Cross),
            _ => None,
        }
    }

    /// Build the placement at `sites` sites, or explain why the shape
    /// does not exist at that size.
    pub fn build_placement(self, sites: u32) -> Result<DataPlacement, String> {
        match self {
            Topology::Fan => {
                if !(2..=4).contains(&sites) {
                    return Err(format!("fan topology needs 2-4 sites, got {sites}"));
                }
                let mut p = DataPlacement::new(sites);
                let replicas: Vec<SiteId> = (1..sites).map(SiteId).collect();
                p.add_item(SiteId(0), &replicas);
                p.add_item(SiteId(0), &replicas);
                Ok(p)
            }
            Topology::Chain => {
                if !(2..=4).contains(&sites) {
                    return Err(format!("chain topology needs 2-4 sites, got {sites}"));
                }
                let mut p = DataPlacement::new(sites);
                for k in 0..sites - 1 {
                    let replicas: Vec<SiteId> = (k + 1..sites).map(SiteId).collect();
                    p.add_item(SiteId(k), &replicas);
                }
                Ok(p)
            }
            Topology::Diamond => {
                if sites != 4 {
                    return Err(format!("diamond topology needs exactly 4 sites, got {sites}"));
                }
                let mut p = DataPlacement::new(4);
                p.add_item(SiteId(0), &[SiteId(1), SiteId(2), SiteId(3)]);
                p.add_item(SiteId(1), &[SiteId(3)]);
                p.add_item(SiteId(2), &[SiteId(3)]);
                Ok(p)
            }
            Topology::Cross => {
                if sites != 3 {
                    return Err(format!("cross topology needs exactly 3 sites, got {sites}"));
                }
                let mut p = DataPlacement::new(3);
                p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
                p.add_item(SiteId(1), &[SiteId(0), SiteId(2)]);
                Ok(p)
            }
        }
    }
}

/// A fully specified bounded model-checking run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The protocol under test.
    pub protocol: ProtocolId,
    /// The placement shape.
    pub topology: Topology,
    /// Number of sites.
    pub sites: u32,
    /// Total number of primary transactions in the workload.
    pub txns: u32,
    /// DAG(T): how many `Timer`s each site may fire. Zero for other
    /// protocols. Bounding timers keeps the state space finite; a branch
    /// that exhausts its budget before quiescing is starved by the
    /// bound, not by the protocol, and is not flagged.
    pub timer_budget: u32,
    /// DAG(T): how many site crashes the scheduler may inject (0 or 1).
    pub crash_budget: u32,
    /// BackEdge: whether the scheduler may victimize eager phases.
    /// Defaults on for BackEdge — the eager phase's held 2PL locks make
    /// some interleavings deadlock (Example 4.1), and timeout abort is
    /// the protocol's own resolution, so disabling it strands branches.
    pub allow_aborts: bool,
    /// A deliberately seeded protocol bug (mutation testing only).
    pub bug: Option<SeededBug>,
}

impl Scenario {
    /// A scenario with default budgets for the protocol.
    pub fn new(protocol: ProtocolId, topology: Topology, sites: u32, txns: u32) -> Scenario {
        Scenario {
            protocol,
            topology,
            sites,
            txns,
            // Under the checker's tuning a source's second `Timer` moves its epoch.
            timer_budget: if protocol == ProtocolId::DagT { 2 } else { 0 },
            crash_budget: 0,
            allow_aborts: protocol == ProtocolId::BackEdge,
            bug: None,
        }
    }

    /// A short display name, e.g. `DAG(T)/chain3x2`.
    pub fn label(&self) -> String {
        let mut s =
            format!("{}/{}{}x{}", self.protocol, self.topology.name(), self.sites, self.txns);
        if self.crash_budget > 0 {
            s.push_str("+crash");
        }
        if self.allow_aborts {
            s.push_str("+aborts");
        }
        if let Some(bug) = self.bug {
            s.push_str(&format!("+{bug:?}"));
        }
        s
    }

    /// Expand the workload into concrete per-site commit plans: `txns`
    /// transactions round-robined over the sites that own primaries, in
    /// site order, each writing one of its origin's primary items (a
    /// unique value) and reading every other locally held copy.
    pub fn plan(&self, placement: &DataPlacement) -> Vec<Vec<PlannedTxn>> {
        let n = placement.num_sites() as usize;
        let origins: Vec<SiteId> =
            placement.sites().filter(|&s| !placement.primaries_at(s).is_empty()).collect();
        let mut txns: Vec<Vec<PlannedTxn>> = vec![Vec::new(); n];
        let mut seq = vec![1u64; n];
        for k in 0..self.txns as usize {
            let origin = origins[k % origins.len()];
            let primaries = placement.primaries_at(origin);
            let item = primaries[(k / origins.len()) % primaries.len()];
            let gid = GlobalTxnId::new(origin, seq[origin.index()]);
            seq[origin.index()] += 1;
            let writes = vec![(item, Value::int(1000 * (k as i64 + 1)))];
            let reads: Vec<ItemId> =
                placement.items_at(origin).iter().copied().filter(|&i| i != item).collect();
            txns[origin.index()].push(PlannedTxn { gid, writes, reads });
        }
        txns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_last_site_has_two_parents() {
        let p = Topology::Chain.build_placement(3).unwrap();
        let g = repl_copygraph::CopyGraph::from_placement(&p);
        assert_eq!(g.parent_count(SiteId(2)), 2);
        assert!(g.is_dag());
    }

    #[test]
    fn cross_is_cyclic() {
        let p = Topology::Cross.build_placement(3).unwrap();
        let g = repl_copygraph::CopyGraph::from_placement(&p);
        assert!(!g.is_dag());
    }

    #[test]
    fn diamond_requires_four_sites() {
        assert!(Topology::Diamond.build_placement(3).is_err());
        assert!(Topology::Diamond.build_placement(4).is_ok());
    }

    #[test]
    fn plan_round_robins_origins_with_unique_gids() {
        let p = Topology::Chain.build_placement(3).unwrap();
        let s = Scenario::new(ProtocolId::DagWt, Topology::Chain, 3, 3);
        let plan = s.plan(&p);
        let total: usize = plan.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        // Two primary-owning sites: s0 gets txns 0 and 2, s1 gets txn 1.
        assert_eq!(plan[0].len(), 2);
        assert_eq!(plan[1].len(), 1);
        assert!(plan[2].is_empty());
        // The observed read set at s1 covers its replica of item a.
        assert_eq!(plan[1][0].reads, vec![ItemId(0)]);
    }
}
