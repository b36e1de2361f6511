//! Model-based tests for the transactional store: committed effects
//! equal a sequential map with rollback, under random interleavings of
//! concurrent transactions.

#![expect(clippy::disallowed_types, reason = "an unordered shadow of the committed state")]

use std::collections::HashMap;

use proptest::prelude::*;

use repl_storage::{StorageError, Store};
use repl_types::{GlobalTxnId, ItemId, SiteId, TxnId, Value};

#[derive(Clone, Debug)]
enum StoreOp {
    Begin,
    Read { slot: u8, item: u8 },
    Write { slot: u8, item: u8, value: i64 },
    Commit { slot: u8 },
    Abort { slot: u8 },
}

fn arb_store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        1 => Just(StoreOp::Begin),
        3 => (0u8..4, 0u8..6).prop_map(|(slot, item)| StoreOp::Read { slot, item }),
        3 => (0u8..4, 0u8..6, 0i64..10_000)
            .prop_map(|(slot, item, value)| StoreOp::Write { slot, item, value }),
        1 => (0u8..4).prop_map(|slot| StoreOp::Commit { slot }),
        1 => (0u8..4).prop_map(|slot| StoreOp::Abort { slot }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Interleaved transactions with blocking: after finishing everyone,
    /// each item's committed value is the last value written by a
    /// transaction that committed (tracked via a shadow of per-txn write
    /// buffers), and aborted writes leave no trace.
    #[test]
    fn committed_state_matches_model(ops in prop::collection::vec(arb_store_op(), 1..200)) {
        let mut store = Store::new();
        for i in 0..6u32 {
            store.create_item(ItemId(i), Value::Initial);
        }
        // Up to 4 concurrent transaction slots.
        let mut slots: Vec<Option<TxnId>> = vec![None; 4];
        // Shadow committed state and per-slot uncommitted buffers.
        let mut committed: HashMap<ItemId, Value> = HashMap::new();
        let mut buffers: Vec<HashMap<ItemId, Value>> = vec![HashMap::new(); 4];
        let mut blocked: Vec<bool> = vec![false; 4];
        let mut seq = 0u64;

        for op in ops {
            match op {
                StoreOp::Begin => {
                    if let Some(free) = slots.iter().position(Option::is_none) {
                        slots[free] = Some(store.begin());
                        buffers[free].clear();
                        blocked[free] = false;
                    }
                }
                StoreOp::Read { slot, item } => {
                    let s = slot as usize % 4;
                    if blocked[s] { continue; }
                    if let Some(txn) = slots[s] {
                        match store.read(txn, ItemId(item as u32 % 6)) {
                            Ok(r) => {
                                // Read-your-writes, else committed state.
                                let item = ItemId(item as u32 % 6);
                                let expected = buffers[s]
                                    .get(&item)
                                    .or_else(|| committed.get(&item))
                                    .cloned()
                                    .unwrap_or(Value::Initial);
                                prop_assert_eq!(r.value, expected);
                            }
                            Err(StorageError::WouldBlock(_)) => blocked[s] = true,
                            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                        }
                    }
                }
                StoreOp::Write { slot, item, value } => {
                    let s = slot as usize % 4;
                    if blocked[s] { continue; }
                    if let Some(txn) = slots[s] {
                        seq += 1;
                        let gid = GlobalTxnId::new(SiteId(0), seq);
                        let item = ItemId(item as u32 % 6);
                        match store.write(txn, item, Value::int(value), gid) {
                            Ok(()) => {
                                buffers[s].insert(item, Value::int(value));
                            }
                            Err(StorageError::WouldBlock(_)) => blocked[s] = true,
                            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                        }
                    }
                }
                StoreOp::Commit { slot } => {
                    let s = slot as usize % 4;
                    // Blocked transactions cannot commit (they are inside
                    // an op); skip.
                    if blocked[s] { continue; }
                    if let Some(txn) = slots[s].take() {
                        let (_, granted) = store
                            .commit(txn)
                            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
                        for (item, v) in buffers[s].drain() {
                            committed.insert(item, v);
                        }
                        // Only transactions whose queued request was
                        // actually granted become unblocked (the granted
                        // lock is held; the dropped op is not replayed).
                        for g in granted {
                            if let Some(gs) = slots.iter().position(|t| *t == Some(g)) {
                                blocked[gs] = false;
                            }
                        }
                    }
                }
                StoreOp::Abort { slot } => {
                    let s = slot as usize % 4;
                    if let Some(txn) = slots[s].take() {
                        let granted = store
                            .abort(txn)
                            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
                        buffers[s].clear();
                        blocked[s] = false;
                        for g in granted {
                            if let Some(gs) = slots.iter().position(|t| *t == Some(g)) {
                                blocked[gs] = false;
                            }
                        }
                    }
                }
            }
        }
        // Finish everyone by abort; committed state must match the model.
        for slot in &mut slots {
            if let Some(txn) = slot.take() {
                store.abort(txn).map_err(|e| TestCaseError::fail(format!("{e}")))?;
            }
        }
        for i in 0..6u32 {
            let expected = committed.get(&ItemId(i)).cloned().unwrap_or(Value::Initial);
            prop_assert_eq!(store.peek(ItemId(i)).unwrap().value, expected, "item x{}", i);
        }
    }
}
