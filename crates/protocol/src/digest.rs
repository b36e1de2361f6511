//! Canonical, order-stable state digests for model checking.
//!
//! The `replmc` model checker (in `repl-analysis`) deduplicates explored
//! global states by fingerprint, so it needs a digest of a
//! [`SiteMachine`](crate::SiteMachine)'s full internal state that is
//! *canonical* — two machines in the same protocol state always hash the
//! same — and *order-stable* — independent of insertion history. Every
//! collection inside the machine is a `BTreeMap`/`BTreeSet`/`Vec` with a
//! deterministic order, so hashing fields in declaration order with a
//! fixed byte encoding gives both properties for free.
//!
//! The hash is FNV-1a over 128 bits (the same construction as the
//! simulator's `StableHasher`): cheap, dependency-free, and
//! with a collision probability around `n²/2¹²⁸` — negligible at model
//! checking scale (millions of states). `std::hash::Hasher` is
//! deliberately not used: its output is documented to be unstable across
//! releases and its `Hash` derives add no length prefixes, which makes
//! adjacent variable-length fields ambiguous.

use repl_types::{GlobalTxnId, SiteId, Value};

use crate::timestamp::Timestamp;
use crate::wire::{Payload, Subtxn, SubtxnKind};

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// An incremental FNV-1a-128 digest writer.
///
/// All multi-byte writes are little-endian and, where the encoded value
/// has variable length, length-prefixed by the caller — the write
/// methods themselves are raw, so composite encoders (like
/// [`digest_subtxn`]) must delimit their own fields.
#[derive(Clone, Debug)]
pub struct StableDigest {
    hash: u128,
}

impl Default for StableDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl StableDigest {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        StableDigest { hash: FNV_OFFSET }
    }

    /// Absorb one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.hash = (self.hash ^ u128::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Absorb a `u32`, little-endian.
    pub fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorb a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorb a `usize` (as `u64`, so the digest is width-portable).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb raw bytes (caller delimits).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// The 128-bit digest of everything written so far.
    pub fn finish(&self) -> u128 {
        self.hash
    }
}

/// Digest a site id.
pub fn digest_site(d: &mut StableDigest, s: SiteId) {
    d.write_u32(s.0);
}

/// Digest a global transaction id.
pub fn digest_gid(d: &mut StableDigest, gid: GlobalTxnId) {
    d.write_u32(gid.origin.0);
    d.write_u64(gid.seq);
}

/// Digest a value (tagged, length-prefixed where variable).
pub fn digest_value(d: &mut StableDigest, v: &Value) {
    match v {
        Value::Initial => d.write_u8(0),
        Value::Int(i) => {
            d.write_u8(1);
            d.write_u64(*i as u64);
        }
        Value::Bytes(b) => {
            d.write_u8(2);
            d.write_usize(b.len());
            d.write_bytes(b);
        }
    }
}

/// Digest a write set (length-prefixed, order as given — write sets are
/// already canonically ordered by their producers).
pub fn digest_writes(d: &mut StableDigest, writes: &[(repl_types::ItemId, Value)]) {
    d.write_usize(writes.len());
    for (item, value) in writes {
        d.write_u32(item.0);
        digest_value(d, value);
    }
}

/// Digest a DAG(T) timestamp.
pub fn digest_timestamp(d: &mut StableDigest, ts: &Timestamp) {
    d.write_u64(ts.epoch);
    d.write_usize(ts.tuples.len());
    for (site, lts) in &ts.tuples {
        digest_site(d, *site);
        d.write_u64(*lts);
    }
}

/// Digest a subtransaction record.
pub fn digest_subtxn(d: &mut StableDigest, sub: &Subtxn) {
    digest_gid(d, sub.gid);
    digest_site(d, sub.origin);
    d.write_u8(match sub.kind {
        SubtxnKind::Normal => 0,
        SubtxnKind::Dummy => 1,
        SubtxnKind::Special => 2,
    });
    match &sub.ts {
        None => d.write_u8(0),
        Some(ts) => {
            d.write_u8(1);
            digest_timestamp(d, ts);
        }
    }
    digest_writes(d, &sub.writes);
    d.write_usize(sub.dest_sites.len());
    for s in &sub.dest_sites {
        digest_site(d, *s);
    }
}

/// Digest a link payload.
pub fn digest_payload(d: &mut StableDigest, payload: &Payload) {
    match payload {
        Payload::Subtxn(sub) => {
            d.write_u8(0);
            digest_subtxn(d, sub);
        }
        Payload::Decision { gid, commit } => {
            d.write_u8(1);
            digest_gid(d, *gid);
            d.write_u8(u8::from(*commit));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;
    use repl_types::ItemId;

    #[test]
    fn digest_is_deterministic() {
        let mut a = StableDigest::new();
        let mut b = StableDigest::new();
        for d in [&mut a, &mut b] {
            d.write_u64(7);
            d.write_bytes(b"abc");
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn digest_distinguishes_field_boundaries() {
        // Length prefixes keep ["ab", "c"] and ["a", "bc"] apart.
        let mut a = StableDigest::new();
        a.write_usize(2);
        a.write_bytes(b"ab");
        a.write_usize(1);
        a.write_bytes(b"c");
        let mut b = StableDigest::new();
        b.write_usize(1);
        b.write_bytes(b"a");
        b.write_usize(2);
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn payload_digest_covers_every_field() {
        let base = Subtxn {
            gid: GlobalTxnId::new(SiteId(1), 4),
            origin: SiteId(1),
            kind: SubtxnKind::Normal,
            ts: None,
            writes: vec![(ItemId(0), Value::int(3))],
            dest_sites: vec![SiteId(2)],
        };
        let mut d0 = StableDigest::new();
        digest_payload(&mut d0, &Payload::Subtxn(base.clone()));
        for (i, tweak) in [
            Subtxn { gid: GlobalTxnId::new(SiteId(1), 5), ..base.clone() },
            Subtxn { origin: SiteId(2), ..base.clone() },
            Subtxn { kind: SubtxnKind::Special, ..base.clone() },
            Subtxn { ts: Some(Timestamp::initial(SiteId(1))), ..base.clone() },
            Subtxn { writes: vec![(ItemId(0), Value::int(4))], ..base.clone() },
            Subtxn { dest_sites: vec![SiteId(3)], ..base.clone() },
        ]
        .into_iter()
        .enumerate()
        {
            let mut d = StableDigest::new();
            digest_payload(&mut d, &Payload::Subtxn(tweak));
            assert_ne!(d0.finish(), d.finish(), "tweak {i} not captured");
        }
        let mut dd = StableDigest::new();
        digest_payload(&mut dd, &Payload::Decision { gid: base.gid, commit: true });
        assert_ne!(d0.finish(), dd.finish());
    }
}
