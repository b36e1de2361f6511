//! Data placement: primary sites and replica sets.

use std::fmt;
use std::ops::Range;

use repl_types::{ItemId, SiteId};

/// One distinct way an item is placed: its primary site and its replica
/// set, as a range of [`DataPlacement::replica_sites`].
#[derive(Clone, Debug)]
struct Layout {
    primary: SiteId,
    replicas: Range<u32>,
}

/// Where every item's primary copy and replicas live.
///
/// Items are added one at a time; the placement then answers the questions
/// the protocols ask: who is the primary site of an item, which sites hold
/// copies, which items have a copy at a given site.
///
/// Items are only ever appended, and real placements put long runs of
/// consecutive items on the same sites, so an item stores nothing but
/// the index of its [`Layout`]: consecutive items with the same primary
/// and replica set share one. Memory is 4 bytes per item plus the
/// per-site indexes, in a number of allocations that depends on the
/// sites and layouts, not on the items.
#[derive(Clone, Debug)]
pub struct DataPlacement {
    num_sites: u32,
    /// item index → index into `layouts`
    layout_of: Vec<u32>,
    /// The distinct layouts, in first-use order.
    layouts: Vec<Layout>,
    /// The layouts' replica sets back to back (each sorted, never
    /// containing its layout's primary).
    replica_sites: Vec<SiteId>,
    /// site index → items with a copy (primary or replica) at that site
    items_at: Vec<Vec<ItemId>>,
    /// site index → items whose primary copy is at that site
    primaries_at: Vec<Vec<ItemId>>,
}

impl DataPlacement {
    /// Create an empty placement over `num_sites` sites.
    pub fn new(num_sites: u32) -> Self {
        DataPlacement {
            num_sites,
            layout_of: Vec::new(),
            layouts: Vec::new(),
            replica_sites: Vec::new(),
            items_at: vec![Vec::new(); num_sites as usize],
            primaries_at: vec![Vec::new(); num_sites as usize],
        }
    }

    /// Number of sites in the system.
    pub fn num_sites(&self) -> u32 {
        self.num_sites
    }

    /// Iterate over all site ids.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> {
        (0..self.num_sites).map(SiteId)
    }

    /// Number of distinct logical items (not counting replicas).
    pub fn num_items(&self) -> u32 {
        self.layout_of.len() as u32
    }

    /// Iterate over all item ids.
    pub fn items(&self) -> impl Iterator<Item = ItemId> {
        (0..self.num_items()).map(ItemId)
    }

    /// Add an item with its primary copy at `primary` and replicas at
    /// `replicas`, returning the new item's id.
    ///
    /// # Panics
    /// If `primary` or any replica site is out of range, or a replica
    /// duplicates the primary.
    pub fn add_item(&mut self, primary: SiteId, replicas: &[SiteId]) -> ItemId {
        if replicas.windows(2).all(|w| w[0] < w[1]) {
            self.add_item_sorted(primary, replicas)
        } else {
            let mut reps = replicas.to_vec();
            reps.sort_unstable();
            reps.dedup();
            self.add_item_sorted(primary, &reps)
        }
    }

    /// [`DataPlacement::add_item`] for a strictly ascending replica list.
    fn add_item_sorted(&mut self, primary: SiteId, reps: &[SiteId]) -> ItemId {
        assert!(primary.0 < self.num_sites, "primary site out of range");
        assert!(!reps.contains(&primary), "replica set must not contain the primary site");
        assert!(reps.iter().all(|r| r.0 < self.num_sites), "replica site out of range");
        let id = ItemId(self.layout_of.len() as u32);
        let shares_last = self.layouts.last().is_some_and(|last| {
            last.primary == primary && &self.replica_sites[as_usize(&last.replicas)] == reps
        });
        if !shares_last {
            let start = self.replica_sites.len() as u32;
            self.replica_sites.extend_from_slice(reps);
            self.layouts.push(Layout { primary, replicas: start..self.replica_sites.len() as u32 });
        }
        self.layout_of.push(self.layouts.len() as u32 - 1);
        for r in reps {
            self.items_at[r.index()].push(id);
        }
        self.items_at[primary.index()].push(id);
        self.primaries_at[primary.index()].push(id);
        id
    }

    fn layout(&self, item: ItemId) -> &Layout {
        &self.layouts[self.layout_of[item.index()] as usize]
    }

    /// The primary site of `item`.
    pub fn primary_of(&self, item: ItemId) -> SiteId {
        self.layout(item).primary
    }

    /// The replica sites of `item` (excluding the primary), sorted.
    pub fn replicas_of(&self, item: ItemId) -> &[SiteId] {
        &self.replica_sites[as_usize(&self.layout(item).replicas)]
    }

    /// True if `site` stores a copy (primary or secondary) of `item`.
    pub fn has_copy(&self, site: SiteId, item: ItemId) -> bool {
        self.primary_of(item) == site || self.replicas_of(item).binary_search(&site).is_ok()
    }

    /// All items with a copy at `site`, ascending by id (ids are handed
    /// out in order and each item is listed as it is added).
    pub fn items_at(&self, site: SiteId) -> &[ItemId] {
        &self.items_at[site.index()]
    }

    /// All items whose primary copy is at `site` (the only items a
    /// transaction originating at `site` may update, §1.1).
    pub fn primaries_at(&self, site: SiteId) -> &[ItemId] {
        &self.primaries_at[site.index()]
    }

    /// Total number of replicas in the system (secondary copies only).
    pub fn total_replicas(&self) -> usize {
        self.items().map(|item| self.replicas_of(item).len()).sum()
    }

    /// The placement's spec as a [`fmt::Display`] value: formatting it
    /// writes the spec piece by piece, so it can feed a hasher or a
    /// socket without ever being materialised. See
    /// [`DataPlacement::to_spec`] for the format.
    pub fn spec(&self) -> impl fmt::Display + '_ {
        Spec(self)
    }

    /// A compact single-line description of the placement, parsable by
    /// [`DataPlacement::from_spec`], used to hand a placement to a
    /// `repld` process on its command line or config file. Format:
    /// `sites|primary[:r1,r2]|primary[:r1]|…` with one `|`-separated
    /// field per item in item-id order, e.g. Example 1.1 is `3|0:1,2|1:2`.
    pub fn to_spec(&self) -> String {
        self.spec().to_string()
    }

    /// Parse a spec produced by [`DataPlacement::to_spec`].
    pub fn from_spec(spec: &str) -> Result<DataPlacement, String> {
        let (sites, rest) = match spec.split_once('|') {
            Some((sites, rest)) => (sites, Some(rest)),
            None => (spec, None),
        };
        let sites: u32 = sites
            .trim()
            .parse()
            .map_err(|_| format!("bad site count in placement spec {spec:?}"))?;
        if sites == 0 {
            return Err("placement spec has zero sites".into());
        }
        let fields = || rest.into_iter().flat_map(|rest| rest.split('|'));
        // First pass: validate every field and size every array, so the
        // second pass allocates nothing per item.
        let mut p = DataPlacement::new(sites);
        let mut copies = vec![0usize; sites as usize];
        let mut primaries = vec![0usize; sites as usize];
        let mut replicas = Vec::new();
        let mut items = 0;
        for field in fields() {
            let primary = parse_field(field, sites, &mut replicas)?;
            items += 1;
            primaries[primary.index()] += 1;
            copies[primary.index()] += 1;
            replicas.iter().for_each(|r| copies[r.index()] += 1);
        }
        p.layout_of.reserve_exact(items);
        for site in 0..sites as usize {
            p.items_at[site].reserve_exact(copies[site]);
            p.primaries_at[site].reserve_exact(primaries[site]);
        }
        for field in fields() {
            let primary = parse_field(field, sites, &mut replicas)?;
            p.add_item(primary, &replicas);
        }
        Ok(p)
    }
}

fn as_usize(r: &Range<u32>) -> Range<usize> {
    r.start as usize..r.end as usize
}

/// Parse one `primary[:r1,r2]` item field of a spec over `sites` sites:
/// returns the primary and leaves the replica list, sorted and
/// deduplicated, in `replicas`.
fn parse_field(field: &str, sites: u32, replicas: &mut Vec<SiteId>) -> Result<SiteId, String> {
    let (primary, reps) = match field.split_once(':') {
        Some((p, r)) => (p, Some(r)),
        None => (field, None),
    };
    let primary: u32 = primary
        .trim()
        .parse()
        .map_err(|_| format!("bad primary site {primary:?} in placement spec"))?;
    replicas.clear();
    for r in reps.into_iter().flat_map(|reps| reps.split(',')) {
        let r: u32 =
            r.trim().parse().map_err(|_| format!("bad replica site {r:?} in placement spec"))?;
        replicas.push(SiteId(r));
    }
    if primary >= sites || replicas.iter().any(|r| r.0 >= sites) {
        return Err(format!("site out of range in placement field {field:?}"));
    }
    if replicas.contains(&SiteId(primary)) {
        return Err(format!("replica equals primary in placement field {field:?}"));
    }
    replicas.sort_unstable();
    replicas.dedup();
    Ok(SiteId(primary))
}

/// [`DataPlacement::spec`]'s formatter.
struct Spec<'a>(&'a DataPlacement);

impl fmt::Display for Spec<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.0;
        write!(f, "{}", p.num_sites())?;
        for item in p.items() {
            write!(f, "|{}", p.primary_of(item).0)?;
            for (i, r) in p.replicas_of(item).iter().enumerate() {
                write!(f, "{}{}", if i == 0 { ':' } else { ',' }, r.0)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_1_1_placement() {
        // Figure 1: item a primary at s1 (here s0), replicas s2, s3
        // (s1, s2); item b primary at s2 (s1), replica s3 (s2).
        let mut p = DataPlacement::new(3);
        let a = p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
        let b = p.add_item(SiteId(1), &[SiteId(2)]);
        assert_eq!(p.primary_of(a), SiteId(0));
        assert_eq!(p.replicas_of(a), &[SiteId(1), SiteId(2)]);
        assert_eq!(p.primary_of(b), SiteId(1));
        assert!(p.has_copy(SiteId(2), a));
        assert!(p.has_copy(SiteId(2), b));
        assert!(!p.has_copy(SiteId(0), b));
        assert_eq!(p.items_at(SiteId(2)), &[a, b]);
        assert_eq!(p.primaries_at(SiteId(1)), &[b]);
        assert_eq!(p.total_replicas(), 3);
    }

    /// Callers walk a site's copies in id order without sorting them
    /// (`CopyState`, checkpoints): unsorted and duplicated replica lists,
    /// interleaved primaries and a round trip through the spec all leave
    /// every per-site list strictly ascending.
    #[test]
    fn per_site_item_lists_are_ascending_for_add_item_and_from_spec_alike() {
        let mut p = DataPlacement::new(4);
        for k in 0..40u32 {
            let primary = SiteId(k * 7 % 4);
            let replicas: Vec<SiteId> = [k % 4, (k / 2) % 4, (k * 3) % 4]
                .map(SiteId)
                .into_iter()
                .filter(|r| *r != primary)
                .rev()
                .collect();
            p.add_item(primary, &replicas);
        }
        let parsed = DataPlacement::from_spec(&p.to_spec()).unwrap();
        for placement in [&p, &parsed] {
            for site in placement.sites() {
                for list in [placement.items_at(site), placement.primaries_at(site)] {
                    assert!(list.windows(2).all(|w| w[0] < w[1]), "{site:?}: {list:?}");
                }
                let copies = placement.items().filter(|&i| placement.has_copy(site, i));
                assert!(placement.items_at(site).iter().copied().eq(copies));
            }
        }
    }

    #[test]
    fn replica_dedup_and_sort() {
        let mut p = DataPlacement::new(4);
        let x = p.add_item(SiteId(0), &[SiteId(3), SiteId(1), SiteId(3)]);
        assert_eq!(p.replicas_of(x), &[SiteId(1), SiteId(3)]);
    }

    #[test]
    #[should_panic(expected = "must not contain the primary")]
    fn replica_equal_to_primary_panics() {
        let mut p = DataPlacement::new(2);
        p.add_item(SiteId(0), &[SiteId(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_primary_panics() {
        let mut p = DataPlacement::new(2);
        p.add_item(SiteId(5), &[]);
    }

    #[test]
    fn spec_roundtrip() {
        let mut p = DataPlacement::new(3);
        p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
        p.add_item(SiteId(1), &[SiteId(2)]);
        p.add_item(SiteId(2), &[]);
        assert_eq!(p.to_spec(), "3|0:1,2|1:2|2");
        let q = DataPlacement::from_spec(&p.to_spec()).unwrap();
        assert_eq!(q.to_spec(), p.to_spec());
        assert_eq!(q.num_sites(), 3);
        assert_eq!(q.replicas_of(ItemId(0)), &[SiteId(1), SiteId(2)]);
    }

    #[test]
    fn bad_specs_rejected() {
        for bad in ["", "x", "0", "2|", "2|5", "2|0:9", "2|0:0", "2|0:a", "2|0|"] {
            assert!(DataPlacement::from_spec(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn runs_of_equally_placed_items_share_a_layout() {
        let mut p = DataPlacement::new(3);
        for _ in 0..100 {
            p.add_item(SiteId(0), &[SiteId(2), SiteId(1)]);
        }
        for _ in 0..100 {
            p.add_item(SiteId(1), &[SiteId(2)]);
        }
        let a = p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
        assert_eq!(p.layouts.len(), 3);
        assert_eq!(p.replica_sites.len(), 5);
        assert_eq!(p.replicas_of(ItemId(99)), &[SiteId(1), SiteId(2)]);
        assert_eq!(
            (p.primary_of(ItemId(100)), p.replicas_of(ItemId(100))),
            (SiteId(1), &[SiteId(2)][..])
        );
        assert_eq!((p.primary_of(a), p.replicas_of(a)), (SiteId(0), &[SiteId(1), SiteId(2)][..]));
        assert_eq!(p.total_replicas(), 302);
        // Parsing sizes every array exactly and reproduces the same answers.
        let q = DataPlacement::from_spec(&p.to_spec()).unwrap();
        assert_eq!(q.to_spec(), p.to_spec());
        assert_eq!(q.layouts.len(), 3);
        for site in p.sites() {
            assert_eq!(q.items_at(site), p.items_at(site));
            assert_eq!(q.primaries_at(site), p.primaries_at(site));
            assert_eq!(q.items_at[site.index()].capacity(), q.items_at(site).len());
        }
        assert_eq!(q.layout_of.capacity(), 201);
    }

    #[test]
    fn local_items_have_no_replicas() {
        let mut p = DataPlacement::new(2);
        let x = p.add_item(SiteId(1), &[]);
        assert!(p.replicas_of(x).is_empty());
        assert!(p.has_copy(SiteId(1), x));
        assert!(!p.has_copy(SiteId(0), x));
    }
}
