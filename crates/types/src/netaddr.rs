//! Cluster address maps.
//!
//! A deployed cluster (one OS process per site, `repld`) is described by
//! a map from site id to a `host:port` string (`repld` itself takes only
//! an IP address for the host, and resolves no names). The map is a
//! plain sorted vector rather than a hash map so iteration order is
//! deterministic and duplicate entries remain *representable* — the
//! `repl-analysis` RA011 lint wants to see malformed maps (duplicate
//! site ids, duplicate addresses, missing peers) as data, not have them
//! silently collapsed by insertion.
//!
//! Addresses are kept as strings: this crate (and everything below
//! `repl-runtime`) stays free of `std::net` so the deterministic layers
//! cannot accidentally grow a socket dependency (replint RL006).

/// A site-id → address table for one cluster.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AddressMap {
    entries: Vec<(SiteId, String)>,
}

use crate::SiteId;

impl AddressMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an entry. Keeps the map sorted by site id; duplicates are
    /// retained (the linter flags them, [`AddressMap::get`] returns the
    /// first).
    pub fn insert(&mut self, site: SiteId, addr: impl Into<String>) {
        let addr = addr.into();
        let pos = self.entries.partition_point(|(s, _)| *s <= site);
        self.entries.insert(pos, (site, addr));
    }

    /// Point `site` at `addr` alone (a site that moved, say).
    pub fn set(&mut self, site: SiteId, addr: impl Into<String>) {
        self.entries.retain(|(s, _)| *s != site);
        self.insert(site, addr);
    }

    /// The first address recorded for `site`.
    pub fn get(&self, site: SiteId) -> Option<&str> {
        self.entries.iter().find(|(s, _)| *s == site).map(|(_, a)| a.as_str())
    }

    /// All entries in ascending site order (duplicates included).
    pub fn entries(&self) -> &[(SiteId, String)] {
        &self.entries
    }

    /// Number of entries (duplicates included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(site, addr)` pairs in ascending site order.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, &str)> {
        self.entries.iter().map(|(s, a)| (*s, a.as_str()))
    }
}

impl FromIterator<(SiteId, String)> for AddressMap {
    fn from_iter<I: IntoIterator<Item = (SiteId, String)>>(iter: I) -> Self {
        let mut map = AddressMap::new();
        for (s, a) in iter {
            map.insert(s, a);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_site_order_and_duplicates() {
        let mut m = AddressMap::new();
        m.insert(SiteId(2), "c:3");
        m.insert(SiteId(0), "a:1");
        m.insert(SiteId(1), "b:2");
        m.insert(SiteId(1), "b2:4");
        let sites: Vec<u32> = m.iter().map(|(s, _)| s.0).collect();
        assert_eq!(sites, vec![0, 1, 1, 2]);
        assert_eq!(m.get(SiteId(1)), Some("b:2"));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn set_replaces_every_address_of_the_site() {
        let mut m = AddressMap::new();
        m.insert(SiteId(1), "b:2");
        m.insert(SiteId(1), "b2:4");
        m.insert(SiteId(0), "a:1");
        m.set(SiteId(1), "b3:5");
        assert_eq!(m.get(SiteId(1)), Some("b3:5"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn get_missing_is_none() {
        let m = AddressMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(SiteId(0)), None);
    }
}
