//! Multiversion history recording and the one-copy-serializability oracle.
//!
//! Every committed *logical* transaction is recorded with:
//!
//! * its reads — `(item, writer-of-the-version-read)`, where the writer is
//!   the [`GlobalTxnId`] tag the storage engine keeps on every copy (a
//!   replica read therefore resolves to the same logical version as a
//!   primary read);
//! * its writes — the distinct items it updated. Since a transaction may
//!   only update items whose primary copy is local (§1.1), all writes to
//!   an item are serialized by the primary site's strict 2PL, and the
//!   order in which commits reach the history **is** the version order.
//!
//! The checker builds the serialization graph over logical items:
//!
//! * `ww`: consecutive writers of each item;
//! * `wr`: version writer → each reader of that version;
//! * `rw`: reader of version *k* → writer of version *k+1*;
//!
//! and hunts for a cycle. Acyclicity of this graph is exactly one-copy
//! conflict-serializability for histories with a total write order per
//! item. Theorems 2.1 and 3.1 say DAG(WT)/DAG(T) histories always pass;
//! Example 1.1 shows the indiscriminate protocol can fail — both are
//! exercised in this workspace's test suites.

use std::collections::BTreeMap;

use repl_types::{GlobalTxnId, ItemId};

/// A committed logical transaction as the checker sees it.
#[derive(Clone, Debug)]
pub struct CommittedTxn {
    /// The transaction's global id.
    pub gid: GlobalTxnId,
    /// `(item, writer of the version read)`; `None` = initial version.
    pub reads: Vec<(ItemId, Option<GlobalTxnId>)>,
    /// Distinct items written.
    pub writes: Vec<ItemId>,
}

/// The recorded multiversion history of one simulation run.
#[derive(Default, Debug)]
pub struct History {
    txns: Vec<CommittedTxn>,
    index_of: BTreeMap<GlobalTxnId, usize>,
    /// item → writers in version order (version k+1 = writers[k]).
    writers: BTreeMap<ItemId, Vec<GlobalTxnId>>,
    /// (writer, item) → version sequence number (1-based; 0 = initial).
    version_of: BTreeMap<(GlobalTxnId, ItemId), u64>,
}

/// A serializability violation: a cycle in the serialization graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SerializationCycle {
    /// The transactions on the cycle, in order.
    pub cycle: Vec<GlobalTxnId>,
}

impl std::fmt::Display for SerializationCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serialization cycle:")?;
        for gid in &self.cycle {
            write!(f, " {gid} →")?;
        }
        write!(f, " {}", self.cycle[0])
    }
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the commit of a logical transaction. `writes` lists the
    /// distinct items written; version order per item follows record
    /// order (which the engine guarantees equals primary commit order).
    pub fn record_commit(
        &mut self,
        gid: GlobalTxnId,
        reads: Vec<(ItemId, Option<GlobalTxnId>)>,
        writes: Vec<ItemId>,
    ) {
        debug_assert!(!self.index_of.contains_key(&gid), "transaction {gid} committed twice");
        for &item in &writes {
            let list = self.writers.entry(item).or_default();
            list.push(gid);
            self.version_of.insert((gid, item), list.len() as u64);
        }
        self.index_of.insert(gid, self.txns.len());
        self.txns.push(CommittedTxn { gid, reads, writes });
    }

    /// Number of committed transactions recorded.
    pub fn committed_count(&self) -> usize {
        self.txns.len()
    }

    /// The recorded transactions.
    pub fn txns(&self) -> &[CommittedTxn] {
        &self.txns
    }

    /// Total number of versions installed across all items.
    pub fn version_count(&self) -> usize {
        self.writers.values().map(Vec::len).sum()
    }

    /// Build the serialization graph and search for a cycle.
    ///
    /// Returns `Ok(())` when the history is (one-copy) serializable, and a
    /// witness cycle otherwise.
    pub fn check_serializability(&self) -> Result<(), SerializationCycle> {
        let n = self.txns.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let push_edge = |from: usize, to: usize, adj: &mut Vec<Vec<u32>>| {
            if from != to {
                adj[from].push(to as u32);
            }
        };

        // ww edges, item by item.
        for writers in self.writers.values() {
            for w in writers.windows(2) {
                push_edge(self.index_of[&w[0]], self.index_of[&w[1]], &mut adj);
            }
        }
        // wr and rw edges.
        for (reader_idx, txn) in self.txns.iter().enumerate() {
            for &(item, writer) in &txn.reads {
                let version = match writer {
                    Some(w) => {
                        if w != txn.gid {
                            // wr: the version's writer precedes the reader.
                            // A read may observe a writer whose commit was
                            // recorded, by construction of the engine.
                            let widx = *self
                                .index_of
                                .get(&w)
                                .unwrap_or_else(|| panic!("read from unrecorded writer {w}"));
                            push_edge(widx, reader_idx, &mut adj);
                        }
                        self.version_of[&(w, item)]
                    }
                    None => 0,
                };
                // rw: the reader precedes the writer of the next version.
                if let Some(writers) = self.writers.get(&item) {
                    if let Some(next) = writers.get(version as usize) {
                        if *next != txn.gid {
                            push_edge(reader_idx, self.index_of[next], &mut adj);
                        }
                    }
                }
            }
        }

        // Iterative coloured DFS for a cycle.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color = vec![Color::White; n];
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            let mut path = vec![start];
            color[start] = Color::Grey;
            while let Some(&mut (node, ref mut ei)) = stack.last_mut() {
                if *ei < adj[node].len() {
                    let next = adj[node][*ei] as usize;
                    *ei += 1;
                    match color[next] {
                        Color::Grey => {
                            let pos = path.iter().position(|&x| x == next).unwrap();
                            return Err(SerializationCycle {
                                cycle: path[pos..].iter().map(|&i| self.txns[i].gid).collect(),
                            });
                        }
                        Color::White => {
                            color[next] = Color::Grey;
                            stack.push((next, 0));
                            path.push(next);
                        }
                        Color::Black => {}
                    }
                } else {
                    color[node] = Color::Black;
                    stack.pop();
                    path.pop();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_types::SiteId;

    fn gid(site: u32, seq: u64) -> GlobalTxnId {
        GlobalTxnId::new(SiteId(site), seq)
    }
    fn i(n: u32) -> ItemId {
        ItemId(n)
    }

    #[test]
    fn empty_history_is_serializable() {
        assert!(History::new().check_serializability().is_ok());
    }

    #[test]
    fn linear_history_is_serializable() {
        let mut h = History::new();
        let t1 = gid(0, 1);
        let t2 = gid(1, 1);
        h.record_commit(t1, vec![], vec![i(0)]);
        h.record_commit(t2, vec![(i(0), Some(t1))], vec![i(1)]);
        assert_eq!(h.committed_count(), 2);
        assert_eq!(h.version_count(), 2);
        assert!(h.check_serializability().is_ok());
    }

    #[test]
    fn example_1_1_anomaly_is_caught() {
        // T1 writes a. T2 reads a's NEW version (at s2) and writes b.
        // T3 (at s3) reads the OLD (initial) version of a and the NEW b:
        // T1 → T2 (wr on a), T2 → T3 (wr on b), T3 → T1 (rw on a). Cycle.
        let mut h = History::new();
        let t1 = gid(0, 1);
        let t2 = gid(1, 1);
        let t3 = gid(2, 1);
        h.record_commit(t1, vec![], vec![i(0)]);
        h.record_commit(t2, vec![(i(0), Some(t1))], vec![i(1)]);
        h.record_commit(t3, vec![(i(0), None), (i(1), Some(t2))], vec![]);
        let err = h.check_serializability().unwrap_err();
        assert_eq!(err.cycle.len(), 3);
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn example_4_1_anomaly_is_caught() {
        // T1 reads b(initial), writes a; T2 reads a(initial), writes b.
        // rw(a): T2 → T1; rw(b): T1 → T2. Cycle of length 2.
        let mut h = History::new();
        let t1 = gid(0, 1);
        let t2 = gid(1, 1);
        h.record_commit(t1, vec![(i(1), None)], vec![i(0)]);
        h.record_commit(t2, vec![(i(0), None)], vec![i(1)]);
        let err = h.check_serializability().unwrap_err();
        assert_eq!(err.cycle.len(), 2);
    }

    #[test]
    fn reading_own_write_is_fine() {
        let mut h = History::new();
        let t1 = gid(0, 1);
        h.record_commit(t1, vec![(i(0), Some(t1))], vec![i(0)]);
        assert!(h.check_serializability().is_ok());
    }

    #[test]
    fn ww_order_alone_can_cycle_with_reads() {
        // T1 writes x then T2 writes x; T1 later reads y written by T2:
        // ww: T1 → T2; wr: T2 → T1 — cycle.
        let mut h = History::new();
        let t1 = gid(0, 1);
        let t2 = gid(0, 2);
        // record T1's commit AFTER t2 wrote? The engine records in commit
        // order; here we force the anomaly directly:
        h.record_commit(t2, vec![], vec![i(1)]); // T2 writes y (v1)
        h.record_commit(t1, vec![(i(1), Some(t2))], vec![i(0)]); // T1 reads y, writes x
        h.record_commit(gid(0, 3), vec![(i(0), Some(t1))], vec![]);
        assert!(h.check_serializability().is_ok());
    }

    #[test]
    fn stale_replica_read_creates_rw_edge() {
        // T1 writes x (v1). T2 writes x (v2). T3 reads x = v1 (stale
        // replica): rw edge T3 → T2, plus wr T1 → T3. Still acyclic.
        let mut h = History::new();
        let t1 = gid(0, 1);
        let t2 = gid(0, 2);
        let t3 = gid(1, 1);
        h.record_commit(t1, vec![], vec![i(0)]);
        h.record_commit(t2, vec![], vec![i(0)]);
        h.record_commit(t3, vec![(i(0), Some(t1))], vec![]);
        assert!(h.check_serializability().is_ok());
    }

    #[test]
    fn lost_update_style_cycle() {
        // Both T1 and T2 read initial x, both write x: rw T1→T2 (T1 read
        // v0, T2 wrote v2?) — construct: T1 reads x0 writes x (v1);
        // T2 reads x0 writes x (v2). T2's read of v0 → rw edge to writer
        // of v1 = T1; ww T1 → T2; T1's read of v0 → rw to T1? self, no —
        // to writer of v1 = itself, skipped; so edges: T2→T1 (rw), T1→T2
        // (ww). Cycle.
        let mut h = History::new();
        let t1 = gid(0, 1);
        let t2 = gid(1, 1);
        h.record_commit(t1, vec![(i(0), None)], vec![i(0)]);
        h.record_commit(t2, vec![(i(0), None)], vec![i(0)]);
        assert!(h.check_serializability().is_err());
    }
}
