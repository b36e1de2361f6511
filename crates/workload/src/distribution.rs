//! The §5.2 data-distribution scheme.
//!
//! Primary copies are spread uniformly over the `m` sites (≈ `n/m`
//! each). A fraction `r` of each site's primaries is replicated; for a
//! replicated item with primary at `si`, the candidate sites are *all*
//! sites with probability `b` (admitting backedges) and only the sites
//! after `si` in the total order with probability `1 − b`; each candidate
//! then receives a replica with probability `s`.
//!
//! The induced copy graph treats an edge `si → sj` with `j < i` as a
//! backedge, exactly the convention every executor's BackEdge routing
//! uses (`repl_protocol::Routing::build`).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use repl_copygraph::DataPlacement;
use repl_types::SiteId;

use crate::params::TableOneParams;

/// Build a placement from Table-1 parameters; deterministic in `seed`.
pub fn build_placement(params: &TableOneParams, seed: u64) -> DataPlacement {
    let m = params.num_sites;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut placement = DataPlacement::new(m);
    for item in 0..params.num_items {
        // Uniform spread: round-robin gives each site ⌈n/m⌉ or ⌊n/m⌋.
        let primary = SiteId(item % m);
        let replicated = rng.random::<f64>() < params.replication_prob;
        let mut replicas = Vec::new();
        if replicated && m > 1 {
            let all_candidates = rng.random::<f64>() < params.backedge_prob;
            for site in 0..m {
                if site == primary.0 {
                    continue;
                }
                if !all_candidates && site < primary.0 {
                    continue;
                }
                if rng.random::<f64>() < params.site_prob {
                    replicas.push(SiteId(site));
                }
            }
        }
        placement.add_item(primary, &replicas);
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_copygraph::{BackEdgeSet, CopyGraph};

    #[test]
    fn deterministic_in_seed() {
        let p = TableOneParams::default();
        let a = build_placement(&p, 5);
        let b = build_placement(&p, 5);
        assert_eq!(a.num_items(), b.num_items());
        for item in a.items() {
            assert_eq!(a.primary_of(item), b.primary_of(item));
            assert_eq!(a.replicas_of(item), b.replicas_of(item));
        }
    }

    #[test]
    fn primaries_are_uniform() {
        let p = TableOneParams::default();
        let placement = build_placement(&p, 1);
        for site in placement.sites() {
            let count = placement.primaries_at(site).len();
            // 200 items over 9 sites: 22 or 23 each.
            assert!((22..=23).contains(&count), "site {site} has {count} primaries");
        }
    }

    #[test]
    fn zero_replication_means_no_replicas() {
        let p = TableOneParams { replication_prob: 0.0, ..Default::default() };
        let placement = build_placement(&p, 2);
        assert_eq!(placement.total_replicas(), 0);
        assert_eq!(CopyGraph::from_placement(&placement).edge_count(), 0);
    }

    #[test]
    fn zero_backedge_prob_gives_dag() {
        let p = TableOneParams { backedge_prob: 0.0, replication_prob: 0.5, ..Default::default() };
        for seed in 0..5 {
            let placement = build_placement(&p, seed);
            let g = CopyGraph::from_placement(&placement);
            assert!(g.is_dag(), "b=0 must induce a DAG (seed {seed})");
            // All edges go forward in the site order.
            for (from, to, _) in g.edges() {
                assert!(from < to);
            }
        }
    }

    #[test]
    fn backedge_count_grows_with_b() {
        let count_backedges = |b: f64| -> usize {
            let p =
                TableOneParams { backedge_prob: b, replication_prob: 0.5, ..Default::default() };
            let placement = build_placement(&p, 3);
            let g = CopyGraph::from_placement(&placement);
            g.edges().iter().filter(|(from, to, _)| to < from).count()
        };
        assert_eq!(count_backedges(0.0), 0);
        assert!(count_backedges(1.0) > count_backedges(0.3));
    }

    #[test]
    fn full_replication_produces_many_replicas() {
        // §5.3.2: "at r = 1 there are almost 500 replicas in the system"
        // (200 items × 8 candidate sites × s=0.5 ≈ 800 with b>0; with
        // b=0.2 candidates average fewer). Sanity-check the same order of
        // magnitude.
        let p = TableOneParams { replication_prob: 1.0, ..Default::default() };
        let placement = build_placement(&p, 4);
        let replicas = placement.total_replicas();
        assert!((300..900).contains(&replicas), "unexpected replica count {replicas}");
    }

    #[test]
    fn by_site_order_matches_distribution_convention() {
        let p = TableOneParams { backedge_prob: 0.5, replication_prob: 0.5, ..Default::default() };
        let placement = build_placement(&p, 9);
        let g = CopyGraph::from_placement(&placement);
        let b = BackEdgeSet::by_site_order(&g);
        assert!(b.is_valid(&g));
        // Every backedge points to an earlier site.
        for &(from, to) in b.edges() {
            assert!(to < from);
        }
    }
}
