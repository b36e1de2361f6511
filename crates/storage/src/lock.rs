//! Strict two-phase locking with shared/exclusive modes.
//!
//! The §1.1 system model assumes every site runs strict 2PL: "a transaction
//! does not release any locks (read or write) until after it has committed".
//! This lock manager enforces exactly that discipline:
//!
//! * **Shared (S)** and **exclusive (X)** modes with the usual
//!   compatibility matrix, plus S→X **upgrades** (an upgrader is granted as
//!   soon as it is the sole holder, jumping the FIFO queue — the standard
//!   treatment that avoids trivial upgrade starvation);
//! * **FIFO wait queues**: a request is granted only when it is compatible
//!   with the current holders *and* no earlier request is still queued, so
//!   writers are never starved by a stream of readers;
//! * **Waits-for-graph deadlock detection** ([`LockManager::find_deadlock`])
//!   with the paper's fair victim policy — the *latest-arriving* transaction
//!   in the cycle is the victim, so a resubmitted secondary subtransaction
//!   (which keeps its original arrival ordinal via
//!   [`LockManager::set_arrival`]) is never chosen forever (§2: "some fair
//!   victim selection policy, e.g., the transaction which arrived at the
//!   site the latest, will have to be used").
//!
//! Timeout-based detection — what the prototype actually used (50 ms) — is
//! driven by the protocol engine's clock: the engine schedules a timer when
//! a request returns [`LockOutcome::Queued`] and calls
//! [`LockManager::cancel_wait`] + abort if it fires first.
//!
//! Because each transaction in the engine executes its operations
//! sequentially, a transaction waits on at most one item at a time; the
//! waits-for graph construction relies on this.

use std::collections::VecDeque;

use repl_types::{ItemId, TxnId};

use crate::hash_index::HashIndex;
use crate::txn_slab::{TxnSlab, RECYCLED_ENTRIES};

/// Lock mode: shared (reads) or exclusive (writes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared — compatible with other shared locks.
    Shared,
    /// Exclusive — compatible with nothing.
    Exclusive,
}

/// Result of a lock request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockOutcome {
    /// The lock is held; the caller may proceed.
    Granted,
    /// The request was enqueued; the caller must suspend the transaction
    /// until a grant notification (or abort it on timeout).
    Queued,
}

#[derive(Clone, Debug)]
struct Request {
    txn: TxnId,
    mode: LockMode,
    /// True if the requester already holds S on the item (upgrade).
    upgrade: bool,
}

/// Current holders of one lock, in grant order. Invariant: either any
/// number of `Shared` entries or exactly one `Exclusive` entry; a
/// transaction appears at most once.
///
/// The first holder is stored inline, so the common lock — one holder,
/// nobody waiting — owns no heap memory; `rest` is non-empty only while
/// several readers share the item, and is empty whenever `first` is.
#[derive(Default, Debug)]
struct Holders {
    first: Option<(TxnId, LockMode)>,
    rest: Vec<(TxnId, LockMode)>,
}

impl Holders {
    fn iter(&self) -> impl Iterator<Item = (TxnId, LockMode)> + '_ {
        self.first.iter().chain(&self.rest).copied()
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The holder, if there is exactly one.
    fn sole(&self) -> Option<TxnId> {
        self.first.filter(|_| self.rest.is_empty()).map(|(txn, _)| txn)
    }

    fn mode_of(&self, txn: TxnId) -> Option<LockMode> {
        self.iter().find(|(t, _)| *t == txn).map(|(_, m)| m)
    }

    fn push(&mut self, txn: TxnId, mode: LockMode) {
        match self.first {
            None => self.first = Some((txn, mode)),
            Some(_) => self.rest.push((txn, mode)),
        }
    }

    /// Strengthen the sole holder's lock to `Exclusive`.
    fn upgrade_sole(&mut self) {
        if let Some((_, mode)) = &mut self.first {
            *mode = LockMode::Exclusive;
        }
    }

    fn remove(&mut self, txn: TxnId) {
        if self.first.is_some_and(|(t, _)| t == txn) {
            self.first = if self.rest.is_empty() { None } else { Some(self.rest.remove(0)) };
        } else {
            self.rest.retain(|(t, _)| *t != txn);
        }
    }
}

#[derive(Default, Debug)]
struct LockState {
    holders: Holders,
    queue: VecDeque<Request>,
}

impl LockState {
    fn compatible(&self, mode: LockMode, requester: TxnId) -> bool {
        match mode {
            LockMode::Shared => {
                self.holders.iter().all(|(t, m)| t == requester || m == LockMode::Shared)
            }
            LockMode::Exclusive => self.holders.iter().all(|(t, _)| t == requester),
        }
    }

    fn is_free(&self) -> bool {
        self.holders.is_empty() && self.queue.is_empty()
    }
}

/// What the lock manager knows about one transaction, from its first
/// request (or [`LockManager::set_arrival`]) until
/// [`LockManager::release_all`].
#[derive(Default, Debug)]
struct TxnLocks {
    /// Items on which the transaction currently holds a lock, in
    /// acquisition order.
    held: Vec<ItemId>,
    /// The single item the transaction is blocked on, if it is.
    waiting_on: Option<ItemId>,
    /// Arrival ordinal for victim selection (latest arrival = victim).
    arrival: u64,
}

/// The per-site lock manager.
///
/// The lock table holds an entry only for an item that is locked or
/// waited for *now* — a handful out of thousands, scattered over the id
/// space — so it is the crate's hash index; the transactions are few
/// and sequential, so they sit in a `TxnSlab`. Once both are warm an
/// uncontended request, grant or release neither allocates nor hashes
/// beyond one multiplication; only a lock with a second holder or a
/// waiter owns a list of them, for as long as it is held.
#[derive(Debug, Default)]
pub struct LockManager {
    table: HashIndex<LockState>,
    txns: TxnSlab<TxnLocks>,
    next_arrival: u64,
}

impl LockManager {
    /// Create an empty lock manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes of the lock table and the per-transaction lists.
    pub fn heap_bytes(&self) -> usize {
        let state = |s: &LockState| {
            s.holders.rest.capacity() * size_of::<(TxnId, LockMode)>()
                + s.queue.capacity() * size_of::<Request>()
        };
        self.table.heap_bytes(state)
            + self.txns.heap_bytes(|t| t.held.capacity() * size_of::<ItemId>())
    }

    /// Register (or re-register) the arrival ordinal of `txn` explicitly.
    ///
    /// Used by the engine to keep a resubmitted secondary subtransaction's
    /// original arrival so the latest-arrival victim policy is fair to it.
    pub fn set_arrival(&mut self, txn: TxnId, ordinal: u64) {
        self.txns.get_or_insert(txn).0.arrival = ordinal;
        self.next_arrival = self.next_arrival.max(ordinal + 1);
    }

    /// The arrival ordinal assigned to `txn`, if any.
    pub fn arrival_of(&self, txn: TxnId) -> Option<u64> {
        self.txns.get(txn).map(|me| me.arrival)
    }

    /// Does `txn` hold a lock on `item` at least as strong as `mode`?
    pub fn holds(&self, txn: TxnId, item: ItemId, mode: LockMode) -> bool {
        match self.table.get(item).and_then(|s| s.holders.mode_of(txn)) {
            Some(LockMode::Exclusive) => true,
            Some(LockMode::Shared) => mode == LockMode::Shared,
            None => false,
        }
    }

    /// The item `txn` is currently blocked on, if any.
    pub fn waiting_on(&self, txn: TxnId) -> Option<ItemId> {
        self.txns.get(txn).and_then(|me| me.waiting_on)
    }

    /// Current holders of locks on `item` (any mode).
    pub fn holders_of(&self, item: ItemId) -> Vec<TxnId> {
        self.table.get(item).map(|s| s.holders.iter().map(|(t, _)| t).collect()).unwrap_or_default()
    }

    /// Items currently locked by `txn`.
    pub fn held_items(&self, txn: TxnId) -> &[ItemId] {
        self.txns.get(txn).map_or(&[], |me| &me.held)
    }

    /// Number of transactions currently blocked.
    pub fn blocked_count(&self) -> usize {
        self.txns.iter().filter(|(_, me)| me.waiting_on.is_some()).count()
    }

    /// Request `mode` on `item` for `txn`.
    ///
    /// Re-entrant: requesting a mode already covered by a held lock is an
    /// immediate grant; requesting X while holding S is an upgrade.
    pub fn request(&mut self, txn: TxnId, item: ItemId, mode: LockMode) -> LockOutcome {
        let (me, first_request) = self.txns.get_or_insert(txn);
        if first_request {
            me.arrival = self.next_arrival;
            self.next_arrival += 1;
        }
        debug_assert!(
            me.waiting_on.is_none(),
            "transaction {txn:?} issued a lock request while already blocked"
        );
        let state = self.table.get_or_insert_with(item, LockState::default);
        let granted = match state.holders.mode_of(txn) {
            Some(LockMode::Exclusive) => return LockOutcome::Granted,
            Some(LockMode::Shared) if mode == LockMode::Shared => return LockOutcome::Granted,
            Some(LockMode::Shared) => {
                // Upgrade. Granted immediately iff sole holder; otherwise
                // the upgrade request jumps ahead of plain requests but
                // behind earlier upgrades.
                if state.holders.sole().is_some() {
                    state.holders.upgrade_sole();
                    true
                } else {
                    let pos = state.queue.iter().take_while(|r| r.upgrade).count();
                    state
                        .queue
                        .insert(pos, Request { txn, mode: LockMode::Exclusive, upgrade: true });
                    false
                }
            }
            None => {
                if state.queue.is_empty() && state.compatible(mode, txn) {
                    state.holders.push(txn, mode);
                    me.held.push(item);
                    true
                } else {
                    state.queue.push_back(Request { txn, mode, upgrade: false });
                    false
                }
            }
        };
        if granted {
            LockOutcome::Granted
        } else {
            me.waiting_on = Some(item);
            LockOutcome::Queued
        }
    }

    /// Grant as many queued requests on `item` as the FIFO-prefix policy
    /// allows, appending the transactions whose requests were granted to
    /// `granted`; an entry nobody holds or waits for leaves the table.
    fn pump(&mut self, item: ItemId, granted: &mut Vec<TxnId>) {
        let Some(state) = self.table.get_mut(item) else {
            return;
        };
        while let Some(front) = state.queue.front() {
            let txn = front.txn;
            if front.upgrade {
                // Upgrade grantable only when the upgrader is the sole
                // remaining holder.
                if state.holders.sole() == Some(txn) {
                    state.holders.upgrade_sole();
                } else {
                    break;
                }
            } else if state.compatible(front.mode, txn) {
                state.holders.push(txn, front.mode);
            } else {
                break;
            }
            let upgrade = front.upgrade;
            state.queue.pop_front();
            if let Some(waiter) = self.txns.get_mut(txn) {
                waiter.waiting_on = None;
                if !upgrade {
                    waiter.held.push(item);
                }
            }
            granted.push(txn);
        }
        if state.is_free() {
            self.table.remove(item);
        }
    }

    /// Release every lock held by `txn` (strict 2PL: called exactly once,
    /// at commit or abort) and drop any queued request it still has.
    ///
    /// Returns the transactions whose queued requests became granted.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
        // Cancelling a queued request can itself unblock later requests
        // (e.g. removing a queued X lets queued S requests through);
        // those grants must be reported too or the wakeup is lost.
        let mut granted = self.cancel_wait(txn);
        let Some(mut me) = self.txns.remove(txn) else {
            return granted;
        };
        for &item in &me.held {
            if let Some(state) = self.table.get_mut(item) {
                state.holders.remove(txn);
            }
            self.pump(item, &mut granted);
        }
        me.held.clear();
        me.held.shrink_to(RECYCLED_ENTRIES);
        self.txns.recycle(me);
        granted
    }

    /// Remove `txn`'s queued request (used when a blocked transaction is
    /// aborted by timeout). Returns transactions unblocked as a side effect
    /// — removing a queued X request can let later S requests through.
    pub fn cancel_wait(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut granted = Vec::new();
        let Some(item) = self.txns.get_mut(txn).and_then(|me| me.waiting_on.take()) else {
            return granted;
        };
        if let Some(state) = self.table.get_mut(item) {
            state.queue.retain(|r| r.txn != txn);
        }
        self.pump(item, &mut granted);
        granted
    }

    /// Build the waits-for graph and search it for a cycle.
    ///
    /// A blocked transaction waits for (a) every current holder of the item
    /// it wants and (b) every request queued ahead of it — (b) is exact,
    /// not conservative, because grants are strictly FIFO-prefix. Returns
    /// the transactions forming one cycle, or `None`. The search starts
    /// from the blocked transactions in ascending id order and follows
    /// each one's blockers holders-first, so which cycle it finds (and
    /// where the returned list starts) is a function of the lock state
    /// alone.
    pub fn find_deadlock(&self) -> Option<Vec<TxnId>> {
        // The blocked transactions, ascending, and who each waits for.
        let mut waiters: Vec<TxnId> = Vec::new();
        let mut edges: Vec<Vec<TxnId>> = Vec::new();
        for (waiter, me) in self.txns.iter() {
            let Some(state) = me.waiting_on.and_then(|item| self.table.get(item)) else {
                continue;
            };
            let mut blockers = Vec::new();
            for (holder, _) in state.holders.iter() {
                if holder != waiter {
                    blockers.push(holder);
                }
            }
            for r in &state.queue {
                if r.txn == waiter {
                    break;
                }
                blockers.push(r.txn);
            }
            waiters.push(waiter);
            edges.push(blockers);
        }

        // Iterative DFS over blocked transactions only (a cycle must consist
        // entirely of blocked transactions), by position in `waiters`.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color = vec![Color::White; waiters.len()];
        for start in 0..waiters.len() {
            if color[start] != Color::White {
                continue;
            }
            // stack of (node, next-edge-index); path tracks the grey chain.
            let mut stack = vec![(start, 0usize)];
            let mut path = vec![start];
            color[start] = Color::Grey;
            while let Some(&mut (node, ref mut edge_idx)) = stack.last_mut() {
                if let Some(&next) = edges[node].get(*edge_idx) {
                    *edge_idx += 1;
                    // Only blocked transactions can be part of a cycle.
                    let Ok(next) = waiters.binary_search(&next) else {
                        continue;
                    };
                    match color[next] {
                        Color::Grey => {
                            // Found a cycle: slice the grey path from next.
                            let pos = path.iter().position(|&t| t == next)?;
                            return Some(path[pos..].iter().map(|&t| waiters[t]).collect());
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
        None
    }

    /// Pick the deadlock victim from a cycle: the latest-arriving
    /// transaction (the paper's fair policy).
    pub fn pick_victim(&self, cycle: &[TxnId]) -> TxnId {
        *cycle
            .iter()
            .max_by_key(|t| self.arrival_of(**t).unwrap_or(u64::MAX))
            .expect("cycle is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }
    fn i(n: u32) -> ItemId {
        ItemId(n)
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(t(1), i(1), LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(t(2), i(1), LockMode::Shared), LockOutcome::Granted);
        assert!(lm.holds(t(1), i(1), LockMode::Shared));
        assert!(lm.holds(t(2), i(1), LockMode::Shared));
        assert!(!lm.holds(t(1), i(1), LockMode::Exclusive));
    }

    #[test]
    fn exclusive_blocks_everything() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(t(1), i(1), LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!(lm.request(t(2), i(1), LockMode::Shared), LockOutcome::Queued);
        assert_eq!(lm.request(t(3), i(1), LockMode::Exclusive), LockOutcome::Queued);
        assert_eq!(lm.waiting_on(t(2)), Some(i(1)));

        let granted = lm.release_all(t(1));
        // FIFO: the shared request (first) is granted; the exclusive one
        // behind it must keep waiting.
        assert_eq!(granted, vec![t(2)]);
        assert!(lm.holds(t(2), i(1), LockMode::Shared));
        assert_eq!(lm.waiting_on(t(3)), Some(i(1)));
    }

    #[test]
    fn fifo_prevents_writer_starvation() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Shared);
        lm.request(t(2), i(1), LockMode::Exclusive); // queued
                                                     // A later shared request must NOT jump the queued writer.
        assert_eq!(lm.request(t(3), i(1), LockMode::Shared), LockOutcome::Queued);
        let granted = lm.release_all(t(1));
        assert_eq!(granted, vec![t(2)]);
        assert!(lm.holds(t(2), i(1), LockMode::Exclusive));
        let granted = lm.release_all(t(2));
        assert_eq!(granted, vec![t(3)]);
    }

    #[test]
    fn reentrant_grants() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        assert_eq!(lm.request(t(1), i(1), LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(t(1), i(1), LockMode::Exclusive), LockOutcome::Granted);
    }

    #[test]
    fn upgrade_sole_holder_immediate() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Shared);
        assert_eq!(lm.request(t(1), i(1), LockMode::Exclusive), LockOutcome::Granted);
        assert!(lm.holds(t(1), i(1), LockMode::Exclusive));
    }

    #[test]
    fn upgrade_waits_for_other_readers_then_jumps_queue() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Shared);
        lm.request(t(2), i(1), LockMode::Shared);
        // t3 queues a plain X request first.
        assert_eq!(lm.request(t(3), i(1), LockMode::Exclusive), LockOutcome::Queued);
        // t1's upgrade must be ordered ahead of t3's request.
        assert_eq!(lm.request(t(1), i(1), LockMode::Exclusive), LockOutcome::Queued);
        let granted = lm.release_all(t(2));
        assert_eq!(granted, vec![t(1)]);
        assert!(lm.holds(t(1), i(1), LockMode::Exclusive));
        // t3 still waits.
        assert_eq!(lm.waiting_on(t(3)), Some(i(1)));
    }

    #[test]
    fn double_upgrade_is_a_deadlock() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Shared);
        lm.request(t(2), i(1), LockMode::Shared);
        assert_eq!(lm.request(t(1), i(1), LockMode::Exclusive), LockOutcome::Queued);
        assert_eq!(lm.request(t(2), i(1), LockMode::Exclusive), LockOutcome::Queued);
        let cycle = lm.find_deadlock().expect("double upgrade must deadlock");
        assert!(cycle.contains(&t(1)) && cycle.contains(&t(2)));
        // Latest arrival is t2.
        assert_eq!(lm.pick_victim(&cycle), t(2));
    }

    #[test]
    fn classic_two_txn_deadlock_detected() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        lm.request(t(2), i(2), LockMode::Exclusive);
        assert_eq!(lm.request(t(1), i(2), LockMode::Exclusive), LockOutcome::Queued);
        assert_eq!(lm.request(t(2), i(1), LockMode::Exclusive), LockOutcome::Queued);
        let cycle = lm.find_deadlock().expect("deadlock");
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn no_false_deadlock_on_simple_waits() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        lm.request(t(2), i(1), LockMode::Exclusive);
        lm.request(t(3), i(1), LockMode::Shared);
        assert!(lm.find_deadlock().is_none());
    }

    #[test]
    fn three_txn_cycle() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        lm.request(t(2), i(2), LockMode::Exclusive);
        lm.request(t(3), i(3), LockMode::Exclusive);
        lm.request(t(1), i(2), LockMode::Exclusive);
        lm.request(t(2), i(3), LockMode::Exclusive);
        lm.request(t(3), i(1), LockMode::Exclusive);
        let cycle = lm.find_deadlock().expect("3-cycle");
        assert_eq!(cycle.len(), 3);
        assert_eq!(lm.pick_victim(&cycle), t(3));
    }

    #[test]
    fn cancel_wait_unblocks_followers() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Shared);
        lm.request(t(2), i(1), LockMode::Exclusive); // queued
        lm.request(t(3), i(1), LockMode::Shared); // queued behind X
                                                  // Aborting the queued writer lets the reader through.
        let granted = lm.cancel_wait(t(2));
        assert_eq!(granted, vec![t(3)]);
        assert!(lm.holds(t(3), i(1), LockMode::Shared));
    }

    #[test]
    fn release_all_clears_everything() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        lm.request(t(1), i(2), LockMode::Shared);
        assert_eq!(lm.held_items(t(1)).len(), 2);
        lm.release_all(t(1));
        assert!(lm.held_items(t(1)).is_empty());
        assert!(!lm.holds(t(1), i(1), LockMode::Shared));
    }

    #[test]
    fn a_wide_transactions_held_list_is_not_kept() {
        let mut lm = LockManager::new();
        for n in 0..1000 {
            lm.request(t(1), i(n), LockMode::Shared);
        }
        assert_eq!(lm.held_items(t(1)).len(), 1000);
        lm.release_all(t(1));
        // The next transaction gets the recycled list, cut back to size.
        lm.request(t(2), i(0), LockMode::Shared);
        let held = &lm.txns.get(t(2)).unwrap().held;
        assert!(held.capacity() <= RECYCLED_ENTRIES, "{} entries kept", held.capacity());
    }

    #[test]
    fn victim_respects_explicit_arrival() {
        let mut lm = LockManager::new();
        // Simulate a resubmitted secondary keeping an old arrival ordinal.
        lm.set_arrival(t(10), 0);
        lm.request(t(10), i(1), LockMode::Exclusive);
        lm.request(t(11), i(2), LockMode::Exclusive);
        lm.request(t(10), i(2), LockMode::Exclusive);
        lm.request(t(11), i(1), LockMode::Exclusive);
        let cycle = lm.find_deadlock().unwrap();
        assert_eq!(lm.pick_victim(&cycle), t(11));
    }

    #[test]
    fn blocked_count_tracks_waiters() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        assert_eq!(lm.blocked_count(), 0);
        lm.request(t(2), i(1), LockMode::Shared);
        assert_eq!(lm.blocked_count(), 1);
        lm.release_all(t(1));
        assert_eq!(lm.blocked_count(), 0);
    }
}
