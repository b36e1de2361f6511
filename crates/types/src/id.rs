//! Newtype identifiers for sites, items, threads and transactions.
//!
//! All identifiers are small dense integers so they can be used directly as
//! vector indices in the simulation engine; the newtype wrappers keep them
//! from being confused with one another.

use std::fmt;

/// Identifier of a site (a node in the distributed system).
///
/// Sites are totally ordered (`s1 < s2 < … < sm`); the DAG(T) timestamp
/// order of Definition 3.3 and the chain-tree construction both rely on
/// this order, which is simply the order of the underlying integers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

impl SiteId {
    /// The index of this site, for use with vectors indexed by site.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of a logical data item.
///
/// A logical item has exactly one *primary copy* (at its primary site) and
/// zero or more *secondary copies* (replicas) at other sites.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

impl ItemId {
    /// The index of this item, for use with vectors indexed by item.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Identifier of a worker thread within one site (the multiprogramming
/// level of §5.2 is the number of these per site).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Site-local transaction identifier handed out by a storage engine.
///
/// Each site's storage engine numbers the (sub)transactions it executes;
/// the pair `(SiteId, TxnId)` is globally unique but the storage crate is
/// deliberately unaware of sites.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Globally unique identifier of a *logical* transaction.
///
/// A logical transaction consists of one primary subtransaction plus all the
/// secondary subtransactions that carry its updates to other sites. Every
/// installed version is tagged with the `GlobalTxnId` of its logical writer,
/// which is what the serializability checker keys on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalTxnId {
    /// Site at which the primary subtransaction originated.
    pub origin: SiteId,
    /// Origin-site-local sequence number.
    pub seq: u64,
}

impl GlobalTxnId {
    /// Construct a global transaction id.
    #[inline]
    pub fn new(origin: SiteId, seq: u64) -> Self {
        Self { origin, seq }
    }
}

impl fmt::Debug for GlobalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}@{}", self.seq, self.origin)
    }
}

impl fmt::Display for GlobalTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}@{}", self.seq, self.origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_ordering_follows_integers() {
        assert!(SiteId(0) < SiteId(1));
        assert!(SiteId(7) > SiteId(3));
        assert_eq!(SiteId(4).index(), 4);
    }

    #[test]
    fn global_txn_id_display() {
        let id = GlobalTxnId::new(SiteId(2), 17);
        assert_eq!(format!("{id}"), "T17@s2");
        assert_eq!(format!("{id:?}"), "T17@s2");
    }

    #[test]
    fn global_txn_ids_are_distinct_across_sites() {
        let a = GlobalTxnId::new(SiteId(0), 1);
        let b = GlobalTxnId::new(SiteId(1), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn item_and_thread_debug_formats() {
        assert_eq!(format!("{:?}", ItemId(9)), "x9");
        assert_eq!(format!("{:?}", ThreadId(2)), "t2");
        assert_eq!(format!("{:?}", TxnId(5)), "T5");
    }
}
