//! The copy graph (§1.1) and its structural queries.

use std::collections::BTreeSet;

use repl_types::SiteId;

use crate::placement::DataPlacement;

/// Directed copy graph over sites.
///
/// An edge `si → sj` exists iff some item has its primary copy at `si` and
/// a secondary copy at `sj`. Edge weights count the items inducing the edge
/// — the "frequency with which an update has to be propagated along the
/// edge" proxy used by the weighted feedback-arc-set discussion in §4.2.
#[derive(Clone, Debug)]
pub struct CopyGraph {
    n: usize,
    /// adjacency: children (out-edges), kept sorted via BTreeSet
    children: Vec<BTreeSet<u32>>,
    /// adjacency: parents (in-edges)
    parents: Vec<BTreeSet<u32>>,
    /// weight[u] aligned with `children[u]` iteration order
    weight: Vec<Vec<u64>>,
}

impl CopyGraph {
    /// Build an empty graph over `n` sites.
    pub fn empty(n: u32) -> Self {
        CopyGraph {
            n: n as usize,
            children: vec![BTreeSet::new(); n as usize],
            parents: vec![BTreeSet::new(); n as usize],
            weight: vec![Vec::new(); n as usize],
        }
    }

    /// Derive the copy graph of a data placement, one run of equally
    /// placed items at a time: a run of `count` items adds `count` to
    /// each of its edges.
    pub fn from_placement(p: &DataPlacement) -> Self {
        let mut g = CopyGraph::empty(p.num_sites());
        for (primary, replicas, count) in p.runs() {
            for &replica in replicas {
                g.add_edge(primary, replica, u64::from(count));
            }
        }
        g
    }

    /// Add (or reinforce) the edge `from → to` with additional weight `w`.
    ///
    /// # Panics
    /// On self-loops or out-of-range sites.
    pub fn add_edge(&mut self, from: SiteId, to: SiteId, w: u64) {
        assert_ne!(from, to, "copy graph has no self-loops");
        assert!(from.index() < self.n && to.index() < self.n);
        if self.children[from.index()].insert(to.0) {
            // Maintain weight alignment with the sorted child set.
            let pos =
                self.children[from.index()].iter().position(|&c| c == to.0).expect("just inserted");
            self.weight[from.index()].insert(pos, w);
            self.parents[to.index()].insert(from.0);
        } else {
            let pos = self.children[from.index()].iter().position(|&c| c == to.0).expect("present");
            self.weight[from.index()][pos] += w;
        }
    }

    /// Number of sites.
    pub fn num_sites(&self) -> u32 {
        self.n as u32
    }

    /// Out-neighbours (children) of `site`, ascending.
    pub fn children(&self, site: SiteId) -> impl Iterator<Item = SiteId> + '_ {
        self.children[site.index()].iter().map(|&c| SiteId(c))
    }

    /// In-neighbours (parents) of `site`, ascending.
    pub fn parents(&self, site: SiteId) -> impl Iterator<Item = SiteId> + '_ {
        self.parents[site.index()].iter().map(|&c| SiteId(c))
    }

    /// Number of parents of `site`.
    pub fn parent_count(&self, site: SiteId) -> usize {
        self.parents[site.index()].len()
    }

    /// True if the edge `from → to` exists.
    pub fn has_edge(&self, from: SiteId, to: SiteId) -> bool {
        self.children[from.index()].contains(&to.0)
    }

    /// Weight of edge `from → to` (0 if absent).
    pub fn edge_weight(&self, from: SiteId, to: SiteId) -> u64 {
        self.children[from.index()]
            .iter()
            .position(|&c| c == to.0)
            .map(|pos| self.weight[from.index()][pos])
            .unwrap_or(0)
    }

    /// All edges as `(from, to, weight)` triples.
    pub fn edges(&self) -> Vec<(SiteId, SiteId, u64)> {
        let mut out = Vec::new();
        for u in 0..self.n {
            for (pos, &v) in self.children[u].iter().enumerate() {
                out.push((SiteId(u as u32), SiteId(v), self.weight[u][pos]));
            }
        }
        out
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.children.iter().map(BTreeSet::len).sum()
    }

    /// A topological order of the sites, or `None` if the graph is cyclic.
    ///
    /// Kahn's algorithm with a min-heap tie-break, so the returned order is
    /// deterministic and, for DAGs derived from the paper's site-ordered
    /// placements, coincides with the natural site order.
    pub fn topo_order(&self) -> Option<Vec<SiteId>> {
        let mut indeg: Vec<usize> = (0..self.n).map(|v| self.parents[v].len()).collect();
        let mut ready: BTreeSet<u32> =
            (0..self.n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(&v) = ready.iter().next() {
            ready.remove(&v);
            order.push(SiteId(v));
            for &c in &self.children[v as usize] {
                indeg[c as usize] -= 1;
                if indeg[c as usize] == 0 {
                    ready.insert(c);
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }

    /// True iff the graph is acyclic — the precondition of the DAG(WT) and
    /// DAG(T) protocols.
    pub fn is_dag(&self) -> bool {
        self.topo_order().is_some()
    }

    /// Sites reachable from `from` (excluding `from` itself unless it lies
    /// on a cycle through itself, which cannot happen without self-loops).
    pub fn reachable_from(&self, from: SiteId) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        let mut stack = vec![from.index()];
        while let Some(u) = stack.pop() {
            for &c in &self.children[u] {
                if !seen[c as usize] {
                    seen[c as usize] = true;
                    stack.push(c as usize);
                }
            }
        }
        seen
    }

    /// Remove the edge `from → to` if present, returning its weight.
    pub fn remove_edge(&mut self, from: SiteId, to: SiteId) -> Option<u64> {
        let pos = self.children[from.index()].iter().position(|&c| c == to.0)?;
        self.children[from.index()].remove(&to.0);
        self.parents[to.index()].remove(&from.0);
        Some(self.weight[from.index()].remove(pos))
    }

    /// Sites with no parents — the *sources* that drive epoch increments in
    /// DAG(T) (§3.3).
    pub fn sources(&self) -> Vec<SiteId> {
        (0..self.n as u32).map(SiteId).filter(|s| self.parents[s.index()].is_empty()).collect()
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> u64 {
        self.weight.iter().flatten().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_types::ItemId;

    fn s(n: u32) -> SiteId {
        SiteId(n)
    }

    fn example_1_1() -> CopyGraph {
        let mut p = DataPlacement::new(3);
        p.add_item(s(0), &[s(1), s(2)]); // a
        p.add_item(s(1), &[s(2)]); // b
        CopyGraph::from_placement(&p)
    }

    #[test]
    fn placement_induces_expected_edges() {
        let g = example_1_1();
        assert!(g.has_edge(s(0), s(1)));
        assert!(g.has_edge(s(0), s(2)));
        assert!(g.has_edge(s(1), s(2)));
        assert!(!g.has_edge(s(2), s(0)));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_weight(s(0), s(1)), 1);
    }

    #[test]
    fn weights_accumulate_per_item() {
        let mut p = DataPlacement::new(2);
        for _ in 0..5 {
            p.add_item(s(0), &[s(1)]);
        }
        let g = CopyGraph::from_placement(&p);
        assert_eq!(g.edge_weight(s(0), s(1)), 5);
        assert_eq!(g.total_weight(), 5);
        let _ = ItemId(0); // silence unused import lint paths
    }

    #[test]
    fn topo_order_of_dag() {
        let g = example_1_1();
        assert!(g.is_dag());
        assert_eq!(g.topo_order().unwrap(), vec![s(0), s(1), s(2)]);
        assert_eq!(g.sources(), vec![s(0)]);
    }

    #[test]
    fn cycle_detected() {
        // Example 4.1: two sites, each replicating the other's primary.
        let mut p = DataPlacement::new(2);
        p.add_item(s(0), &[s(1)]); // a
        p.add_item(s(1), &[s(0)]); // b
        let g = CopyGraph::from_placement(&p);
        assert!(!g.is_dag());
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn reachability() {
        let g = example_1_1();
        let r = g.reachable_from(s(0));
        assert!(!r[0] && r[1] && r[2]);
        let r = g.reachable_from(s(2));
        assert!(!r[0] && !r[1] && !r[2]);
    }

    #[test]
    fn remove_edge_roundtrip() {
        let mut g = example_1_1();
        assert_eq!(g.remove_edge(s(0), s(2)), Some(1));
        assert!(!g.has_edge(s(0), s(2)));
        assert_eq!(g.remove_edge(s(0), s(2)), None);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.parent_count(s(2)), 1);
    }

    #[test]
    fn parents_iterates_in_order() {
        let mut g = CopyGraph::empty(4);
        g.add_edge(s(2), s(3), 1);
        g.add_edge(s(0), s(3), 1);
        g.add_edge(s(1), s(3), 1);
        let ps: Vec<_> = g.parents(s(3)).collect();
        assert_eq!(ps, vec![s(0), s(1), s(2)]);
    }

    #[test]
    fn multi_source_topo() {
        let mut g = CopyGraph::empty(4);
        g.add_edge(s(0), s(2), 1);
        g.add_edge(s(1), s(2), 1);
        g.add_edge(s(2), s(3), 1);
        assert_eq!(g.sources(), vec![s(0), s(1)]);
        assert_eq!(g.topo_order().unwrap(), vec![s(0), s(1), s(2), s(3)]);
    }
}
