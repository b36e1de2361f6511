//! Model-based property tests for the lock manager: drive it with random
//! operation sequences and check the 2PL safety and liveness invariants
//! after every step.

#![expect(
    clippy::disallowed_types,
    reason = "an unordered shadow checks the lock table's invariants"
)]

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use repl_storage::{LockManager, LockMode, LockOutcome};
use repl_types::{ItemId, TxnId};

#[derive(Clone, Debug)]
enum LockOp {
    /// txn requests mode on item (skipped if the txn is blocked).
    Request { txn: u8, item: u8, exclusive: bool },
    /// txn releases everything (commit/abort).
    Release { txn: u8 },
    /// txn cancels its queued request.
    Cancel { txn: u8 },
}

fn arb_op() -> impl Strategy<Value = LockOp> {
    prop_oneof![
        3 => (0u8..8, 0u8..6, prop::bool::ANY)
            .prop_map(|(txn, item, exclusive)| LockOp::Request { txn, item, exclusive }),
        1 => (0u8..8).prop_map(|txn| LockOp::Release { txn }),
        1 => (0u8..8).prop_map(|txn| LockOp::Cancel { txn }),
    ]
}

/// A shadow model of which transaction holds which mode on which item,
/// reconstructed from grant notifications.
#[derive(Default)]
struct Shadow {
    /// (txn, item) -> exclusive?
    held: HashMap<(TxnId, ItemId), bool>,
    /// Blocked transactions and the (item, exclusive) they asked for.
    waiting: HashMap<TxnId, (ItemId, bool)>,
}

impl Shadow {
    fn invariants(&self) -> Result<(), String> {
        // No two holders of an X lock; X excludes S.
        let mut by_item: HashMap<ItemId, Vec<bool>> = HashMap::new();
        for ((_, item), &ex) in &self.held {
            by_item.entry(*item).or_default().push(ex);
        }
        for (item, modes) in by_item {
            let x_count = modes.iter().filter(|&&e| e).count();
            if x_count > 1 {
                return Err(format!("{item}: two exclusive holders"));
            }
            if x_count == 1 && modes.len() > 1 {
                return Err(format!("{item}: exclusive shared with others"));
            }
        }
        Ok(())
    }
}

fn apply_grants(shadow: &mut Shadow, granted: Vec<TxnId>) {
    for txn in granted {
        let (item, ex) = shadow.waiting.remove(&txn).expect("granted txn must have been waiting");
        let entry = shadow.held.entry((txn, item)).or_insert(false);
        *entry = *entry || ex;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, .. ProptestConfig::default() })]

    /// Safety: the compatibility matrix is never violated, grants are
    /// consistent with the shadow model, and releasing everything
    /// eventually unblocks everyone (no lost wakeups).
    #[test]
    fn lock_manager_model(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut lm = LockManager::new();
        let mut shadow = Shadow::default();

        for op in ops {
            match op {
                LockOp::Request { txn, item, exclusive } => {
                    let txn = TxnId(txn as u64);
                    let item = ItemId(item as u32);
                    if shadow.waiting.contains_key(&txn) {
                        continue; // a blocked txn cannot issue requests
                    }
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    match lm.request(txn, item, mode) {
                        LockOutcome::Granted => {
                            let entry = shadow.held.entry((txn, item)).or_insert(false);
                            *entry = *entry || exclusive;
                            prop_assert!(lm.holds(txn, item, mode));
                        }
                        LockOutcome::Queued => {
                            shadow.waiting.insert(txn, (item, exclusive));
                            prop_assert_eq!(lm.waiting_on(txn), Some(item));
                        }
                    }
                }
                LockOp::Release { txn } => {
                    let txn = TxnId(txn as u64);
                    let granted = lm.release_all(txn);
                    shadow.waiting.remove(&txn);
                    shadow.held.retain(|(t, _), _| *t != txn);
                    apply_grants(&mut shadow, granted);
                }
                LockOp::Cancel { txn } => {
                    let txn = TxnId(txn as u64);
                    let granted = lm.cancel_wait(txn);
                    shadow.waiting.remove(&txn);
                    apply_grants(&mut shadow, granted);
                }
            }
            shadow.invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(lm.blocked_count(), shadow.waiting.len());
        }

        // Liveness: aborting every transaction (release_all also cancels
        // a pending wait — the engine's abort path) must leave nobody
        // blocked, with every transitive wakeup reported.
        let all_txns: HashSet<TxnId> = shadow
            .held
            .keys()
            .map(|(t, _)| *t)
            .chain(shadow.waiting.keys().copied())
            .collect();
        for txn in all_txns {
            let granted = lm.release_all(txn);
            shadow.waiting.remove(&txn);
            shadow.held.retain(|(t, _), _| *t != txn);
            apply_grants(&mut shadow, granted);
        }
        // Whatever was granted during the drain belongs to transactions
        // we are also aborting; abort them too (order already covered by
        // the set iteration above — anything re-granted is re-released).
        let leftovers: Vec<TxnId> = shadow.held.keys().map(|(t, _)| *t).collect();
        for txn in leftovers {
            let granted = lm.release_all(txn);
            shadow.waiting.remove(&txn);
            shadow.held.retain(|(t, _), _| *t != txn);
            apply_grants(&mut shadow, granted);
        }
        prop_assert!(
            shadow.waiting.is_empty(),
            "lost wakeup: {:?} still blocked after aborting everyone",
            shadow.waiting
        );
        prop_assert_eq!(lm.blocked_count(), 0);
    }

    /// The waits-for detector never reports a cycle on block-free
    /// workloads and always reports one for a constructed cycle.
    #[test]
    fn deadlock_detector_soundness(perm in prop::collection::vec(0u8..20, 3..10)) {
        // Build a ring deadlock of distinct txns.
        let mut txns: Vec<u8> = perm;
        txns.sort_unstable();
        txns.dedup();
        prop_assume!(txns.len() >= 3);
        let mut lm = LockManager::new();
        for (i, &t) in txns.iter().enumerate() {
            lm.request(TxnId(t as u64), ItemId(i as u32), LockMode::Exclusive);
        }
        // No deadlock yet.
        prop_assert!(lm.find_deadlock().is_none());
        let n = txns.len();
        for (i, &t) in txns.iter().enumerate() {
            lm.request(TxnId(t as u64), ItemId(((i + 1) % n) as u32), LockMode::Exclusive);
        }
        let cycle = lm.find_deadlock().expect("ring must deadlock");
        prop_assert_eq!(cycle.len(), n);
        // The victim is on the cycle.
        let victim = lm.pick_victim(&cycle);
        prop_assert!(cycle.contains(&victim));
        // Aborting the victim clears the deadlock.
        lm.release_all(victim);
        prop_assert!(lm.find_deadlock().is_none());
    }
}
