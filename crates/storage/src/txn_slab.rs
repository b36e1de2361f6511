//! Per-transaction state for the handful of transactions live at once.
//!
//! A site numbers its (sub)transactions sequentially and each lives
//! briefly, so the live ones are few and arrive in ascending id order.
//! [`TxnSlab`] keeps them in one small vector sorted by id — the newest
//! is the last entry, which is the one nearly every lookup wants; the
//! rest are a binary search away — and keeps the state of finished
//! transactions for reuse, so the buffers inside (read and write sets,
//! held-lock lists) are allocated once and then recycled — up to
//! [`RECYCLED_ENTRIES`] each, so one wide transaction does not leave its
//! buffers behind for good. Nothing is hashed, memory is bounded by the
//! most transactions ever live together, and iteration is ascending by
//! id, which is what makes everything derived from it (deadlock search
//! order) deterministic.

use repl_types::TxnId;

/// Capacity a recycled buffer keeps at most: its owner empties it and
/// `shrink_to`s this before [`TxnSlab::recycle`]. Table 1's transactions
/// have 10 operations; a client may send one with as many as fit a
/// frame, and what that one needed is given back when it finishes.
pub(crate) const RECYCLED_ENTRIES: usize = 64;

/// Live transactions' state, ascending by [`TxnId`].
#[derive(Debug)]
pub(crate) struct TxnSlab<T> {
    live: Vec<(TxnId, T)>,
    /// States of finished transactions, emptied but with their buffers'
    /// capacity, handed out again by [`TxnSlab::get_or_insert`].
    spare: Vec<T>,
}

impl<T> Default for TxnSlab<T> {
    fn default() -> Self {
        TxnSlab { live: Vec::new(), spare: Vec::new() }
    }
}

impl<T> TxnSlab<T> {
    /// Heap bytes of the slab's two arrays, plus `inner` of each state
    /// live or spare.
    pub(crate) fn heap_bytes(&self, inner: impl Fn(&T) -> usize) -> usize {
        self.live.capacity() * size_of::<(TxnId, T)>()
            + self.spare.capacity() * size_of::<T>()
            + self.live.iter().map(|(_, state)| inner(state)).sum::<usize>()
            + self.spare.iter().map(&inner).sum::<usize>()
    }
}

impl<T: Default> TxnSlab<T> {
    /// Where `txn` is (`Ok`) or would be inserted (`Err`).
    fn position(&self, txn: TxnId) -> Result<usize, usize> {
        match self.live.last() {
            None => Err(0),
            Some((last, _)) if *last == txn => Ok(self.live.len() - 1),
            Some((last, _)) if *last < txn => Err(self.live.len()),
            Some(_) => self.live.binary_search_by_key(&txn, |(id, _)| *id),
        }
    }

    /// The state of `txn`, if it is live.
    pub(crate) fn get(&self, txn: TxnId) -> Option<&T> {
        self.position(txn).ok().map(|at| &self.live[at].1)
    }

    /// The state of `txn`, if it is live, for mutation.
    pub(crate) fn get_mut(&mut self, txn: TxnId) -> Option<&mut T> {
        self.position(txn).ok().map(|at| &mut self.live[at].1)
    }

    /// The state of `txn`, and whether this call made it live — with a
    /// recycled state or, while warming up, a default one.
    pub(crate) fn get_or_insert(&mut self, txn: TxnId) -> (&mut T, bool) {
        let (at, fresh) = match self.position(txn) {
            Ok(at) => (at, false),
            Err(at) => {
                let state = self.spare.pop().unwrap_or_default();
                self.live.insert(at, (txn, state));
                (at, true)
            }
        };
        (&mut self.live[at].1, fresh)
    }

    /// End `txn`, handing its state to the caller — who, having taken
    /// what it needs, empties it and gives it back through
    /// [`TxnSlab::recycle`].
    pub(crate) fn remove(&mut self, txn: TxnId) -> Option<T> {
        self.position(txn).ok().map(|at| self.live.remove(at).1)
    }

    /// Keep `state` — emptied by the caller, so equal to a default one
    /// but for the capacity of its buffers, which the caller has cut
    /// back to [`RECYCLED_ENTRIES`] — for the next transaction.
    pub(crate) fn recycle(&mut self, state: T) {
        self.spare.push(state);
    }

    /// The live transactions, ascending by id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (TxnId, &T)> {
        self.live.iter().map(|(txn, state)| (*txn, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn a_finished_transactions_buffers_serve_the_next() {
        let mut slab: TxnSlab<Vec<u32>> = TxnSlab::default();
        slab.get_or_insert(TxnId(0)).0.extend(0..100);
        let mut state = slab.remove(TxnId(0)).unwrap();
        let buffer = state.as_ptr();
        state.clear();
        slab.recycle(state);
        let (next, fresh) = slab.get_or_insert(TxnId(1));
        assert!(fresh && next.is_empty());
        assert_eq!(next.as_ptr(), buffer);
        assert!(next.capacity() >= 100);
        assert_eq!(slab.remove(TxnId(0)), None);
    }

    proptest! {
        /// Whatever order ids come and go in, the slab is a map from the
        /// live ones to their state, iterated ascending.
        #[test]
        fn behaves_like_an_ordered_map(
            ops in prop::collection::vec((0u64..12, 0u8..3, 0u32..100), 0..200),
        ) {
            let mut slab: TxnSlab<Vec<u32>> = TxnSlab::default();
            let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for (id, op, n) in ops {
                match op {
                    0 => {
                        let (state, fresh) = slab.get_or_insert(TxnId(id));
                        prop_assert_eq!(fresh, !model.contains_key(&id));
                        state.push(n);
                        model.entry(id).or_default().push(n);
                    }
                    1 => {
                        let state = slab.remove(TxnId(id));
                        prop_assert_eq!(&state, &model.remove(&id));
                        if let Some(mut state) = state {
                            state.clear();
                            slab.recycle(state);
                        }
                    }
                    _ => {
                        if let Some(state) = slab.get_mut(TxnId(id)) {
                            state.push(n);
                        }
                        if let Some(state) = model.get_mut(&id) {
                            state.push(n);
                        }
                    }
                }
                prop_assert_eq!(slab.get(TxnId(id)), model.get(&id));
                let live: Vec<(u64, Vec<u32>)> =
                    slab.iter().map(|(txn, s)| (txn.0, s.clone())).collect();
                let expected: Vec<(u64, Vec<u32>)> =
                    model.iter().map(|(id, s)| (*id, s.clone())).collect();
                prop_assert_eq!(live, expected);
            }
        }
    }
}
