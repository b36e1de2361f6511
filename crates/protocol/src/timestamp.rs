//! DAG(T) timestamps (§3.1–§3.3).
//!
//! A timestamp is a vector of *(site, local-counter)* tuples — one tuple
//! for the committing site and one for a subset of its copy-graph
//! ancestors — prefixed by an *epoch number* (§3.3). Within the vector,
//! tuples appear in ascending site order; but when two timestamps are
//! *compared*, the first differing tuple is ordered by **descending** site
//! (Definition 3.3). The paper's motivating examples:
//!
//! ```text
//! (s1,1)           <  (s1,1)(s2,1)      (prefix)
//! (s1,1)(s3,1)     <  (s1,1)(s2,1)      (s3 > s2 at the first difference)
//! (s1,1)(s2,1)     <  (s1,1)(s2,2)      (same site, smaller counter)
//! ```
//!
//! Epochs dominate: timestamps with different epoch numbers order by
//! epoch alone. This yields a total order over all timestamps ever
//! generated (each site's tuple counter is strictly monotone).

use alloc::vec;
use alloc::vec::Vec;
use core::cmp::Ordering;
use core::fmt;

use repl_types::SiteId;

/// One `(site, LTS)` tuple (Definition 3.1).
pub type Tuple = (SiteId, u64);

/// A DAG(T) transaction/site timestamp: epoch number plus tuple vector.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Timestamp {
    /// Epoch number (§3.3); dominant in comparisons.
    pub epoch: u64,
    /// Tuples in ascending site order.
    pub tuples: Vec<Tuple>,
}

impl Timestamp {
    /// Heap bytes of the tuples.
    pub fn heap_bytes(&self) -> usize {
        self.tuples.capacity() * size_of::<Tuple>()
    }

    /// The initial timestamp of site `s`: epoch 0, single tuple `(s, 0)`.
    pub fn initial(site: SiteId) -> Self {
        Timestamp { epoch: 0, tuples: vec![(site, 0)] }
    }

    /// The tuple for `site`, if present.
    pub fn tuple_for(&self, site: SiteId) -> Option<u64> {
        self.tuples.iter().find(|(s, _)| *s == site).map(|(_, l)| *l)
    }

    /// Increment the local counter in the tuple for `site` (step 1 of the
    /// primary-subtransaction commit protocol, §3.2.2).
    ///
    /// # Panics
    /// If the timestamp has no tuple for `site` — a site timestamp always
    /// carries its own tuple.
    pub fn bump_local(&mut self, site: SiteId) {
        let t = self
            .tuples
            .iter_mut()
            .find(|(s, _)| *s == site)
            .expect("site timestamp must contain the site's own tuple");
        t.1 += 1;
    }

    /// The concatenation `TS(Tj) ∘ (site, lts)` performed when a secondary
    /// subtransaction commits (§3.2.3): the committed subtransaction's
    /// timestamp extended with the site's own tuple. Inserted in site
    /// order; any stale tuple for `site` is replaced.
    pub fn concat_site(&self, site: SiteId, lts: u64, epoch: u64) -> Timestamp {
        let mut tuples: Vec<Tuple> =
            self.tuples.iter().copied().filter(|(s, _)| *s != site).collect();
        let pos = tuples.partition_point(|(s, _)| *s < site);
        tuples.insert(pos, (site, lts));
        Timestamp { epoch, tuples }
    }

    /// True if `self`'s tuple vector is a strict prefix of `other`'s and
    /// the epochs agree.
    pub fn is_prefix_of(&self, other: &Timestamp) -> bool {
        self.epoch == other.epoch
            && self.tuples.len() < other.tuples.len()
            && other.tuples[..self.tuples.len()] == self.tuples[..]
    }

    /// Validate the internal invariant: tuples strictly ascending by site.
    pub fn is_well_formed(&self) -> bool {
        self.tuples.windows(2).all(|w| w[0].0 < w[1].0)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.epoch)?;
        for (s, l) in &self.tuples {
            write!(f, "({s},{l})")?;
        }
        Ok(())
    }
}

impl PartialOrd for Timestamp {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Timestamp {
    fn cmp(&self, other: &Self) -> Ordering {
        // Epoch numbers dominate (§3.3).
        match self.epoch.cmp(&other.epoch) {
            Ordering::Equal => {}
            ord => return ord,
        }
        // Definition 3.3: find the first differing tuple.
        let mut i = 0;
        loop {
            match (self.tuples.get(i), other.tuples.get(i)) {
                (None, None) => return Ordering::Equal,
                // A strict prefix is smaller.
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
                (Some(&(si, li)), Some(&(sj, lj))) => {
                    if si == sj {
                        match li.cmp(&lj) {
                            Ordering::Equal => {
                                i += 1;
                                continue;
                            }
                            ord => return ord,
                        }
                    }
                    // Reversed site order: the *larger* site sorts first.
                    return sj.cmp(&si);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::format;

    fn s(n: u32) -> SiteId {
        SiteId(n)
    }

    fn ts(tuples: &[(u32, u64)]) -> Timestamp {
        Timestamp { epoch: 0, tuples: tuples.iter().map(|&(a, b)| (s(a), b)).collect() }
    }

    #[test]
    fn paper_examples_of_definition_3_3() {
        // 1. (s1,1) < (s1,1)(s2,1)
        assert!(ts(&[(1, 1)]) < ts(&[(1, 1), (2, 1)]));
        // 2. (s1,1)(s3,1) < (s1,1)(s2,1)   — reversed site order!
        assert!(ts(&[(1, 1), (3, 1)]) < ts(&[(1, 1), (2, 1)]));
        // 3. (s1,1)(s2,1) < (s1,1)(s2,2)
        assert!(ts(&[(1, 1), (2, 1)]) < ts(&[(1, 1), (2, 2)]));
    }

    #[test]
    fn example_1_1_ordering() {
        // §3.2.3: T1 gets (s1,1); T2 gets (s1,1)(s2,1). T1 is a prefix, so
        // T1 executes first at s3.
        let t1 = ts(&[(1, 1)]);
        let t2 = ts(&[(1, 1), (2, 1)]);
        assert!(t1 < t2);
        assert!(t1.is_prefix_of(&t2));
        // §3.1 motivation: a T3 committing at s3 right after T1 gets
        // (s1,1)(s3,1), serialized before T2.
        let t3 = ts(&[(1, 1), (3, 1)]);
        assert!(t3 < t2);
        assert!(t1 < t3);
    }

    #[test]
    fn epochs_dominate() {
        let mut lo = ts(&[(9, 99)]);
        let mut hi = ts(&[(1, 1)]);
        lo.epoch = 0;
        hi.epoch = 1;
        assert!(lo < hi, "larger epoch always wins");
    }

    #[test]
    fn progress_scenario_from_section_3_3() {
        // The §3.3 pathology: at s3 with parents s1, s2, a T1 with (s1,1)
        // never runs because every (s2, j) < (s1, 1). Verify the inversion
        // that causes it...
        let t1 = ts(&[(1, 1)]);
        for j in 0..100 {
            assert!(ts(&[(2, j)]) < t1);
        }
        // ...and that an epoch bump unblocks it.
        let mut dummy = ts(&[(2, 5)]);
        dummy.epoch = 1;
        assert!(t1 < dummy);
    }

    #[test]
    fn initial_bump_and_concat() {
        let mut site_ts = Timestamp::initial(s(2));
        assert_eq!(site_ts.tuple_for(s(2)), Some(0));
        site_ts.bump_local(s(2));
        assert_eq!(site_ts.tuple_for(s(2)), Some(1));

        // A secondary with timestamp (s0,3) commits at s2 (lts=1, epoch 0):
        // new site timestamp is (s0,3)(s2,1).
        let sub = ts(&[(0, 3)]);
        let merged = sub.concat_site(s(2), 1, 0);
        assert_eq!(merged.tuples, vec![(s(0), 3), (s(2), 1)]);
        assert!(merged.is_well_formed());

        // Concat replaces a stale own-tuple rather than duplicating it.
        let stale = ts(&[(0, 3), (2, 0)]);
        let merged = stale.concat_site(s(2), 7, 0);
        assert_eq!(merged.tuples, vec![(s(0), 3), (s(2), 7)]);
    }

    #[test]
    fn concat_keeps_site_order_with_arbitrary_labels() {
        let sub = ts(&[(5, 1), (9, 2)]);
        let merged = sub.concat_site(s(7), 4, 3);
        assert_eq!(merged.tuples, vec![(s(5), 1), (s(7), 4), (s(9), 2)]);
        assert_eq!(merged.epoch, 3);
        assert!(merged.is_well_formed());
    }

    fn arb_ts() -> impl Strategy<Value = Timestamp> {
        (0u64..3, prop::collection::btree_map(0u32..6, 0u64..4, 1..5)).prop_map(|(epoch, m)| {
            Timestamp { epoch, tuples: m.into_iter().map(|(site, l)| (s(site), l)).collect() }
        })
    }

    proptest! {
        /// Definition 3.3 must induce a total order: antisymmetry is free
        /// from Ord, so check transitivity and totality-consistency.
        #[test]
        fn ordering_is_transitive(a in arb_ts(), b in arb_ts(), c in arb_ts()) {
            prop_assert!(a.is_well_formed());
            if a < b && b < c {
                prop_assert!(a < c);
            }
            if a <= b && b <= a {
                prop_assert_eq!(&a, &b);
            }
        }

        /// Comparison agrees with equality.
        #[test]
        fn ordering_consistent_with_eq(a in arb_ts(), b in arb_ts()) {
            prop_assert_eq!(a == b, a.cmp(&b) == std::cmp::Ordering::Equal);
        }

        /// concat_site preserves well-formedness and makes the source a
        /// (non-strict) lexicographic predecessor when appending a larger
        /// site id.
        #[test]
        fn concat_well_formed(a in arb_ts(), lts in 0u64..5) {
            let merged = a.concat_site(s(10), lts, a.epoch);
            prop_assert!(merged.is_well_formed());
            prop_assert_eq!(merged.tuple_for(s(10)), Some(lts));
            // Appending a strictly larger site: original is a prefix.
            prop_assert!(a.is_prefix_of(&merged));
        }

        /// A site's successive primary-commit timestamps are strictly
        /// increasing (what makes transaction timestamps unique, §3.2.2).
        #[test]
        fn bump_strictly_increases(a in arb_ts()) {
            // Treat `a` as the timestamp of site = first tuple's site.
            let site = a.tuples[0].0;
            let mut bumped = a.clone();
            bumped.bump_local(site);
            prop_assert!(a < bumped || a.tuples.len() > 1);
            // With the site's tuple in first position the order is strict:
            if a.tuples.len() == 1 {
                prop_assert!(a < bumped);
            }
        }
    }
}
