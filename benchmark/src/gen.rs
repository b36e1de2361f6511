//! The seeded request generator. The fleet receives only what this
//! produces; the same seed gives the same request stream.
//!
//! Transaction shapes follow Table 1's ten operations:
//! * *update* — 6 reads of local copies, then 4 writes of the site's
//!   own primaries. One write is the connection's **heartbeat item**,
//!   whose value is the connection's update sequence number, so a
//!   probe of a replica can tell which commit it has caught up to.
//! * *read-only* — 10 reads of local copies.

use repl_copygraph::DataPlacement;
use repl_types::{ItemId, Op, SiteId};

use crate::spec::{LOAD_CONNS, OPS_PER_TXN, WRITES_PER_UPDATE};

/// The repo-standard splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The heartbeat item of load connection `conn` at `site`: its
/// `conn`-th primary. No other connection writes it.
pub fn heartbeat_item(p: &DataPlacement, site: SiteId, conn: usize) -> ItemId {
    p.primaries_at(site)[conn]
}

/// One generated request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Txn {
    pub ops: Vec<Op>,
    /// The heartbeat value this transaction writes; `None` if read-only.
    pub heartbeat: Option<u64>,
}

/// The request stream of one load connection.
#[derive(Clone, Debug)]
pub struct TxnGen {
    rng: Rng,
    copies: Vec<ItemId>,
    /// The site's primaries, heartbeat items of every connection left out.
    writable: Vec<ItemId>,
    heartbeat: ItemId,
    updates: u64,
    read_only_permille: u32,
}

impl TxnGen {
    pub fn new(
        seed: u64,
        p: &DataPlacement,
        site: SiteId,
        conn: usize,
        read_only_permille: u32,
    ) -> TxnGen {
        let primaries = p.primaries_at(site);
        TxnGen {
            rng: Rng::new(seed ^ (conn as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            copies: p.items_at(site).to_vec(),
            writable: primaries[LOAD_CONNS..].to_vec(),
            heartbeat: heartbeat_item(p, site, conn),
            updates: 0,
            read_only_permille,
        }
    }

    pub fn next_txn(&mut self) -> Txn {
        let read_only = self.rng.below(1000) < u64::from(self.read_only_permille);
        let mut ops: Vec<Op> = Vec::with_capacity(OPS_PER_TXN);
        let mut writes: Vec<Op> = Vec::with_capacity(WRITES_PER_UPDATE);
        let mut heartbeat = None;
        if !read_only {
            self.updates += 1;
            heartbeat = Some(self.updates);
            writes.push(Op::write(self.heartbeat, self.updates as i64));
            while writes.len() < WRITES_PER_UPDATE {
                let item = self.writable[self.rng.below(self.writable.len() as u64) as usize];
                if writes.iter().all(|w| w.item != item) {
                    writes.push(Op::write(item, self.rng.below(1_000_000) as i64));
                }
            }
        }
        while ops.len() < OPS_PER_TXN - writes.len() {
            let item = self.copies[self.rng.below(self.copies.len() as u64) as usize];
            if ops.iter().chain(&writes).all(|o| o.item != item) {
                ops.push(Op::read(item));
            }
        }
        ops.append(&mut writes);
        Txn { ops, heartbeat }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Placement;
    use repl_net::{encode_framed, ClientMsg, WireMsg};

    fn stream(seed: u64, conn: usize, read_only_permille: u32, n: usize) -> Vec<u8> {
        let p = Placement::Chain3.build();
        let mut g = TxnGen::new(seed, &p, SiteId(1), conn, read_only_permille);
        let mut bytes = Vec::new();
        for _ in 0..n {
            let txn = g.next_txn();
            bytes.extend_from_slice(&encode_framed(&WireMsg::Client(ClientMsg::Execute(txn.ops))));
        }
        bytes
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream(1999, 0, 500, 300), stream(1999, 0, 500, 300));
        assert_ne!(stream(1999, 0, 500, 300), stream(2000, 0, 500, 300));
        assert_ne!(stream(1999, 0, 500, 300), stream(1999, 1, 500, 300));
    }

    #[test]
    fn shapes_and_heartbeat() {
        let p = Placement::Ring3.build();
        let site = SiteId(2);
        let hb = [heartbeat_item(&p, site, 0), heartbeat_item(&p, site, 1)];
        let mut g = TxnGen::new(7, &p, site, 1, 300);
        let mut seq = 0;
        for _ in 0..500 {
            let txn = g.next_txn();
            assert_eq!(txn.ops.len(), OPS_PER_TXN);
            let mut items: Vec<ItemId> = txn.ops.iter().map(|o| o.item).collect();
            items.sort_unstable();
            items.dedup();
            assert_eq!(items.len(), OPS_PER_TXN, "no item touched twice");
            let writes: Vec<&Op> = txn.ops.iter().filter(|o| o.is_write()).collect();
            match txn.heartbeat {
                None => assert!(writes.is_empty()),
                Some(v) => {
                    seq += 1;
                    assert_eq!(v, seq);
                    assert_eq!(writes.len(), WRITES_PER_UPDATE);
                    assert_eq!((writes[0].item, writes[0].value.as_int()), (hb[1], Some(v as i64)));
                    assert!(writes[1..].iter().all(|w| !hb.contains(&w.item)));
                    assert!(writes.iter().all(|w| p.primary_of(w.item) == site));
                }
            }
            assert!(txn.ops.iter().all(|o| p.has_copy(site, o.item)));
        }
    }
}
