//! Data placement: primary sites and replica sets.

use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

use repl_types::{ItemId, SiteId};

/// One run of consecutive items placed alike: its primary site, its
/// replica set as a range of [`DataPlacement::replica_sites`], and the id
/// of its first item (the run ends where the next one starts).
#[derive(Clone, Debug)]
struct Layout {
    primary: SiteId,
    replicas: Range<u32>,
    first: u32,
}

/// Why [`DataPlacement::from_spec`] refused a spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The leading site count is not an integer.
    BadSiteCount(String),
    /// The site count is zero.
    ZeroSites,
    /// A primary or replica site is not an integer.
    BadSite(String),
    /// A run length after `*` is not a positive integer.
    BadRunLength(String),
    /// A field names a site not below the site count.
    SiteOutOfRange(String),
    /// A field lists its primary among its replicas.
    ReplicaIsPrimary(String),
    /// The run lengths sum past `u32::MAX` items.
    TooManyItems,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadSiteCount(s) => write!(f, "bad site count {s:?} in placement spec"),
            SpecError::ZeroSites => write!(f, "placement spec has zero sites"),
            SpecError::BadSite(s) => write!(f, "bad site {s:?} in placement spec"),
            SpecError::BadRunLength(s) => write!(f, "bad run length {s:?} in placement spec"),
            SpecError::SiteOutOfRange(field) => {
                write!(f, "site out of range in placement field {field:?}")
            }
            SpecError::ReplicaIsPrimary(field) => {
                write!(f, "replica equals primary in placement field {field:?}")
            }
            SpecError::TooManyItems => {
                write!(f, "placement spec has more than {} items", u32::MAX)
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Where every item's primary copy and replicas live.
///
/// Items are added in runs (one item is a run of one); the placement then
/// answers the questions the protocols ask: who is the primary site of an
/// item, which sites hold copies, which items have a copy at a given site.
///
/// Items are only ever appended, and real placements put long runs of
/// consecutive items on the same sites (§5.2's per-site classes), so the
/// placement stores its runs and nothing per item: an item's run is
/// found by a binary search over the runs' first ids. Memory is
/// O(runs), whatever the item count. The per-site item lists
/// ([`DataPlacement::items_at`], [`DataPlacement::primaries_at`]) cost
/// 4 bytes an entry, and are built only for a site that is asked for
/// one; a site walks its own copies run by run instead
/// ([`DataPlacement::copies_at`]).
#[derive(Clone, Debug)]
pub struct DataPlacement {
    num_sites: u32,
    num_items: u32,
    /// The maximal runs, in item order.
    layouts: Vec<Layout>,
    /// The layouts' replica sets back to back (each sorted, never
    /// containing its layout's primary).
    replica_sites: Vec<SiteId>,
    /// site index → items with a copy (primary or replica) at that
    /// site, built on first ask
    items_at: Vec<OnceLock<Vec<ItemId>>>,
    /// site index → items whose primary copy is at that site, built on
    /// first ask
    primaries_at: Vec<OnceLock<Vec<ItemId>>>,
}

impl DataPlacement {
    /// Create an empty placement over `num_sites` sites.
    pub fn new(num_sites: u32) -> Self {
        let lazy = || (0..num_sites).map(|_| OnceLock::new()).collect();
        DataPlacement {
            num_sites,
            num_items: 0,
            layouts: Vec::new(),
            replica_sites: Vec::new(),
            items_at: lazy(),
            primaries_at: lazy(),
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
        self.num_items
    }

    /// Iterate over all item ids.
    pub fn items(&self) -> impl Iterator<Item = ItemId> {
        (0..self.num_items()).map(ItemId)
    }

    /// Add an item with its primary copy at `primary` and replicas at
    /// `replicas`, returning the new item's id.
    ///
    /// # Panics
    /// As [`DataPlacement::add_run`].
    pub fn add_item(&mut self, primary: SiteId, replicas: &[SiteId]) -> ItemId {
        self.add_run(primary, replicas, 1)
    }

    /// Add `count` consecutive items, each with its primary copy at
    /// `primary` and replicas at `replicas`, returning the first one's
    /// id (the next item's, if `count` is 0).
    ///
    /// # Panics
    /// If `primary` or any replica site is out of range, a replica
    /// duplicates the primary, or the placement would exceed `u32::MAX`
    /// items.
    pub fn add_run(&mut self, primary: SiteId, replicas: &[SiteId], count: u32) -> ItemId {
        if replicas.windows(2).all(|w| w[0] < w[1]) {
            self.add_run_sorted(primary, replicas, count)
        } else {
            let mut reps = replicas.to_vec();
            reps.sort_unstable();
            reps.dedup();
            self.add_run_sorted(primary, &reps, count)
        }
    }

    /// [`DataPlacement::add_run`] for a strictly ascending replica list.
    fn add_run_sorted(&mut self, primary: SiteId, reps: &[SiteId], count: u32) -> ItemId {
        assert!(primary.0 < self.num_sites, "primary site out of range");
        assert!(!reps.contains(&primary), "replica set must not contain the primary site");
        assert!(reps.iter().all(|r| r.0 < self.num_sites), "replica site out of range");
        let first = self.num_items();
        let end = first.checked_add(count).expect("a placement holds at most u32::MAX items");
        if count == 0 {
            return ItemId(first);
        }
        let extends_last = self.layouts.last().is_some_and(|last| {
            last.primary == primary && &self.replica_sites[as_usize(&last.replicas)] == reps
        });
        if !extends_last {
            let start = self.replica_sites.len() as u32;
            self.replica_sites.extend_from_slice(reps);
            let replicas = start..self.replica_sites.len() as u32;
            self.layouts.push(Layout { primary, replicas, first });
        }
        self.num_items = end;
        self.items_at.iter_mut().chain(&mut self.primaries_at).for_each(|list| drop(list.take()));
        ItemId(first)
    }

    /// The placement as maximal runs of consecutive items placed alike,
    /// in item order: `(primary, replicas, count)`, replicas sorted and
    /// `count` at least 1. The counts sum to [`DataPlacement::num_items`].
    pub fn runs(&self) -> impl Iterator<Item = (SiteId, &[SiteId], u32)> + '_ {
        let ends = self.layouts.iter().skip(1).map(|next| next.first).chain([self.num_items()]);
        self.layouts.iter().zip(ends).map(|(run, end)| {
            (run.primary, &self.replica_sites[as_usize(&run.replicas)], end - run.first)
        })
    }

    /// The run holding `item`: the last whose first id is at most
    /// `item`'s.
    ///
    /// # Panics
    /// If `item` is not below [`DataPlacement::num_items`].
    fn layout(&self, item: ItemId) -> &Layout {
        assert!(item.0 < self.num_items, "item {item:?} is not in the placement");
        let next = self.layouts.partition_point(|run| run.first <= item.0);
        &self.layouts[next - 1]
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

    /// All items with a copy at `site`, ascending by id. The list is
    /// built from the runs on the first call for `site` and kept until
    /// the placement next changes; [`DataPlacement::copies_at`] walks
    /// the same items without building it.
    pub fn items_at(&self, site: SiteId) -> &[ItemId] {
        self.items_at[site.index()].get_or_init(|| self.copies_at(site).collect())
    }

    /// All items whose primary copy is at `site` (the only items a
    /// transaction originating at `site` may update, §1.1), built and
    /// kept as [`DataPlacement::items_at`]'s list is.
    pub fn primaries_at(&self, site: SiteId) -> &[ItemId] {
        self.primaries_at[site.index()].get_or_init(|| {
            let runs = self.runs_where(|run| run.primary == site);
            runs.flat_map(|run| run.map(ItemId)).collect()
        })
    }

    /// The runs of items with a copy at `site`, as ascending ranges of
    /// item ids: O(runs) to walk, and nothing allocated.
    pub fn runs_at(&self, site: SiteId) -> impl Iterator<Item = Range<u32>> + Clone + '_ {
        self.runs_where(move |run| {
            run.primary == site || self.replica_sites[as_usize(&run.replicas)].contains(&site)
        })
    }

    /// The item ranges of the runs `keep` accepts, in item order.
    fn runs_where<'a>(
        &'a self,
        keep: impl Fn(&Layout) -> bool + Clone + 'a,
    ) -> impl Iterator<Item = Range<u32>> + Clone + 'a {
        let ends = self.layouts.iter().skip(1).map(|next| next.first).chain([self.num_items]);
        self.layouts
            .iter()
            .zip(ends)
            .filter(move |(run, _)| keep(run))
            .map(|(run, end)| run.first..end)
    }

    /// The items with a copy at `site`, ascending by id, walked run by
    /// run ([`DataPlacement::runs_at`]): an exact-size iterator whose
    /// `nth` (and so `skip`) steps over whole runs.
    pub fn copies_at(&self, site: SiteId) -> Copies<impl Iterator<Item = Range<u32>> + Clone + '_> {
        let runs = self.runs_at(site);
        let left = runs.clone().map(|run| run.len()).sum();
        Copies { runs, run: 0..0, left }
    }

    /// Heap bytes this placement holds: its runs, their replica sets,
    /// and whichever per-site lists have been built.
    pub fn heap_bytes(&self) -> usize {
        let lists = self.items_at.iter().chain(&self.primaries_at);
        let built: usize = lists.filter_map(OnceLock::get).map(|l| l.capacity() * 4).sum();
        self.layouts.capacity() * size_of::<Layout>()
            + self.replica_sites.capacity() * size_of::<SiteId>()
            + 2 * self.items_at.capacity() * size_of::<OnceLock<Vec<ItemId>>>()
            + built
    }

    /// Total number of replicas in the system (secondary copies only).
    pub fn total_replicas(&self) -> usize {
        self.runs().map(|(_, replicas, count)| replicas.len() * count as usize).sum()
    }

    /// The spec with every run written out item by item — one field per
    /// item, no `*count` — as a [`fmt::Display`] value, so it can feed a
    /// hasher without ever being materialised. This is the form the
    /// cluster fingerprint is defined over, so that sites built before
    /// run-length specs still admit this build's. Each run's field is
    /// formatted once and written `count` times.
    pub fn per_item_spec(&self) -> impl fmt::Display + '_ {
        PerItemSpec(self)
    }

    /// A compact single-line description of the placement, parsable by
    /// [`DataPlacement::from_spec`], used to hand a placement to a
    /// `repld` process on its command line or config file. Grammar:
    /// `sites|primary[:r1,r2][*count]|…` — one `|`-separated field per
    /// maximal run of consecutive items placed alike, in item-id order;
    /// `*count` is omitted for a run of one. Example 1.1 is `3|0:1,2|1:2`;
    /// the benchmark's `chain3` is `3|0:1,2*1000|1:2*1000|2*1000`.
    pub fn to_spec(&self) -> String {
        Spec(self).to_string()
    }

    /// Parse a spec in [`DataPlacement::to_spec`]'s grammar. A field
    /// without `*count` is a run of one, so the per-item form of a
    /// placement parses to the same placement as its run form. Work and
    /// allocations are per field and per site, never per item.
    pub fn from_spec(spec: &str) -> Result<DataPlacement, SpecError> {
        let (sites, rest) = match spec.split_once('|') {
            Some((sites, rest)) => (sites, Some(rest)),
            None => (spec, None),
        };
        let sites: u32 =
            sites.trim().parse().map_err(|_| SpecError::BadSiteCount(sites.to_string()))?;
        if sites == 0 {
            return Err(SpecError::ZeroSites);
        }
        let fields = || rest.into_iter().flat_map(|rest| rest.split('|'));
        // Nothing is kept per item, so one pass validates and builds:
        // the item count is checked before each run is added.
        let mut p = DataPlacement::new(sites);
        let mut replicas = Vec::new();
        for field in fields() {
            let (primary, count) = parse_field(field, sites, &mut replicas)?;
            p.num_items.checked_add(count).ok_or(SpecError::TooManyItems)?;
            p.add_run_sorted(primary, &replicas, count);
        }
        p.layouts.shrink_to_fit();
        p.replica_sites.shrink_to_fit();
        Ok(p)
    }
}

/// The items with a copy at one site, ascending by id
/// ([`DataPlacement::copies_at`]).
#[derive(Clone, Debug)]
pub struct Copies<R> {
    /// The site's runs not yet started.
    runs: R,
    /// What is left of the current run.
    run: Range<u32>,
    /// Items left, over `run` and `runs`.
    left: usize,
}

impl<R: Iterator<Item = Range<u32>>> Iterator for Copies<R> {
    type Item = ItemId;

    fn next(&mut self) -> Option<ItemId> {
        loop {
            if let Some(id) = self.run.next() {
                self.left -= 1;
                return Some(ItemId(id));
            }
            self.run = self.runs.next()?;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    /// Skip `n` items a run at a time.
    fn nth(&mut self, mut n: usize) -> Option<ItemId> {
        while n >= self.run.len() {
            n -= self.run.len();
            self.left -= self.run.len();
            let Some(run) = self.runs.next() else {
                self.run = 0..0;
                return None;
            };
            self.run = run;
        }
        self.run.start += n as u32;
        self.left -= n;
        self.next()
    }
}

impl<R: Iterator<Item = Range<u32>>> ExactSizeIterator for Copies<R> {}

fn as_usize(r: &Range<u32>) -> Range<usize> {
    r.start as usize..r.end as usize
}

/// Parse one `primary[:r1,r2][*count]` field of a spec over `sites`
/// sites: returns the primary and the run length, and leaves the replica
/// list, sorted and deduplicated, in `replicas`.
fn parse_field(
    field: &str,
    sites: u32,
    replicas: &mut Vec<SiteId>,
) -> Result<(SiteId, u32), SpecError> {
    let (placed, count) = match field.split_once('*') {
        Some((placed, count)) => {
            let n = count.trim().parse().ok().filter(|&n: &u32| n > 0);
            (placed, n.ok_or_else(|| SpecError::BadRunLength(count.to_string()))?)
        }
        None => (field, 1),
    };
    let (primary, reps) = match placed.split_once(':') {
        Some((p, r)) => (p, Some(r)),
        None => (placed, None),
    };
    let primary: u32 = primary.trim().parse().map_err(|_| SpecError::BadSite(primary.into()))?;
    replicas.clear();
    for r in reps.into_iter().flat_map(|reps| reps.split(',')) {
        let r: u32 = r.trim().parse().map_err(|_| SpecError::BadSite(r.into()))?;
        replicas.push(SiteId(r));
    }
    if primary >= sites || replicas.iter().any(|r| r.0 >= sites) {
        return Err(SpecError::SiteOutOfRange(field.into()));
    }
    if replicas.contains(&SiteId(primary)) {
        return Err(SpecError::ReplicaIsPrimary(field.into()));
    }
    replicas.sort_unstable();
    replicas.dedup();
    Ok((SiteId(primary), count))
}

/// Write one run's `|primary[:r1,r2]` field, without its count.
fn write_field(out: &mut impl fmt::Write, primary: SiteId, replicas: &[SiteId]) -> fmt::Result {
    write!(out, "|{}", primary.0)?;
    for (i, r) in replicas.iter().enumerate() {
        write!(out, "{}{}", if i == 0 { ':' } else { ',' }, r.0)?;
    }
    Ok(())
}

/// [`DataPlacement::to_spec`]'s formatter.
struct Spec<'a>(&'a DataPlacement);

impl fmt::Display for Spec<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.0;
        write!(f, "{}", p.num_sites())?;
        for (primary, replicas, count) in p.runs() {
            write_field(f, primary, replicas)?;
            if count > 1 {
                write!(f, "*{count}")?;
            }
        }
        Ok(())
    }
}

/// [`DataPlacement::per_item_spec`]'s formatter.
struct PerItemSpec<'a>(&'a DataPlacement);

impl fmt::Display for PerItemSpec<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.0;
        write!(f, "{}", p.num_sites())?;
        let mut field = String::new();
        for (primary, replicas, count) in p.runs() {
            field.clear();
            write_field(&mut field, primary, replicas)?;
            for _ in 0..count {
                f.write_str(&field)?;
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

    /// Walking a site's copies run by run gives its list exactly, from
    /// any starting copy, with an exact length; skipping steps over
    /// whole runs.
    #[test]
    fn copies_at_walks_items_at_from_any_copy() {
        let p = DataPlacement::from_spec("4|0:1*3|1:2,3*2|2|0:3*5|3:0,1*4").unwrap();
        for site in p.sites() {
            let list = p.items_at(site);
            let ranges: Vec<_> = p.runs_at(site).collect();
            assert!(ranges.iter().cloned().flatten().map(ItemId).eq(list.iter().copied()));
            for from in 0..=list.len() + 2 {
                let copies = p.copies_at(site).skip(from);
                assert_eq!(copies.len(), list.len().saturating_sub(from), "{site:?} from {from}");
                assert!(copies.eq(list.get(from..).unwrap_or_default().iter().copied()));
            }
            let mut copies = p.copies_at(site);
            let mut k = 0;
            while let Some(item) = copies.nth(1) {
                assert_eq!(item, list[k + 1]);
                k += 2;
                assert_eq!(copies.len(), list.len() - k);
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
        let run = |s: &str| SpecError::BadRunLength(s.into());
        for (bad, why) in [
            ("2|0*0", run("0")),
            ("2|0*", run("")),
            ("2|0*x", run("x")),
            ("2|0**2", run("*2")),
            ("2|0:1*2*3", run("2*3")),
            ("2|0*4294967296", run("4294967296")),
            ("2|0*-1", run("-1")),
            // Counts summing past `u32::MAX` items: the sum is checked
            // before anything is sized from it.
            ("3|0*4294967295|1*2", SpecError::TooManyItems),
            ("3|0*4294967294|1*1|2*1", SpecError::TooManyItems),
            ("2|0:5*3", SpecError::SiteOutOfRange("0:5*3".into())),
            ("2|1:1*3", SpecError::ReplicaIsPrimary("1:1*3".into())),
        ] {
            assert_eq!(DataPlacement::from_spec(bad).unwrap_err(), why, "{bad:?}");
        }
    }

    /// Adjacent fields placed alike merge into one run, and a run of one
    /// is printed without `*1`.
    #[test]
    fn adjacent_fields_placed_alike_merge_into_one_run() {
        let p = DataPlacement::from_spec("2|0:1*2|0:1|1*1|0").unwrap();
        assert_eq!(p.to_spec(), "2|0:1*3|1|0");
        assert_eq!(p.per_item_spec().to_string(), "2|0:1|0:1|0:1|1|0");
        let runs: Vec<_> = p.runs().map(|(p, r, n)| (p.0, r.len(), n)).collect();
        assert_eq!(runs, [(0, 1, 3), (1, 0, 1), (0, 0, 1)]);
        assert_eq!((p.layouts.len(), p.total_replicas()), (3, 3));
    }

    #[test]
    fn add_run_equals_add_item_repeated() {
        let mut runs = DataPlacement::new(3);
        assert_eq!(runs.add_run(SiteId(1), &[SiteId(2), SiteId(0)], 4), ItemId(0));
        assert_eq!(runs.add_run(SiteId(2), &[], 0), ItemId(4));
        assert_eq!(runs.add_run(SiteId(1), &[SiteId(0), SiteId(2)], 2), ItemId(4));
        assert_eq!(runs.add_run(SiteId(2), &[SiteId(0)], 3), ItemId(6));
        let mut items = DataPlacement::new(3);
        for _ in 0..6 {
            items.add_item(SiteId(1), &[SiteId(0), SiteId(2)]);
        }
        for _ in 0..3 {
            items.add_item(SiteId(2), &[SiteId(0)]);
        }
        assert_eq!(runs.to_spec(), "3|1:0,2*6|2:0*3");
        assert_eq!(runs.to_spec(), items.to_spec());
        for site in runs.sites() {
            assert_eq!(runs.items_at(site), items.items_at(site));
            assert_eq!(runs.primaries_at(site), items.primaries_at(site));
        }
        assert!(runs.items().all(|i| runs.primary_of(i) == items.primary_of(i)
            && runs.replicas_of(i) == items.replicas_of(i)));
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
            let built = q.items_at[site.index()].get().map(Vec::capacity);
            assert_eq!(built, Some(q.items_at(site).len()));
        }
        assert_eq!((q.layouts.capacity(), q.replica_sites.capacity()), (3, 5));
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
