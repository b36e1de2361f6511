//! The apply scheduler: the paper's ordering rules as an explicit
//! partial order over queued secondary subtransactions.
//!
//! Every propagation protocol in the paper constrains *when* a queued
//! secondary subtransaction may start applying: DAG(WT) and BackEdge
//! require strict FIFO order behind the tree parent's link (§2), DAG(T)
//! requires the minimum-timestamp head across all parent queues
//! (§3.2.3), and NaiveLazy imposes arrival order only. The seed
//! implementation realized those constraints as a single applier slot —
//! a *total* order. This module makes the real dependency structure
//! explicit so drivers can exploit the parallelism the protocols
//! actually permit:
//!
//! * **Admission order is the serial order.** The scheduler admits queue
//!   heads in exactly the sequence the single-slot machine would have
//!   chosen (FIFO per parent, min-timestamp across parents). Nothing is
//!   ever admitted out of that sequence, which is what keeps the
//!   protocols' correctness arguments (Theorem 2.1 / 3.1) intact.
//! * **Write-set disjointness is the parallelism test.** A later
//!   admission may *overlap* an earlier one only if their write sets
//!   touch disjoint items; conflicting subtransactions serialize in
//!   admission order exactly as 2PL would have ordered them.
//! * **Dummies and specials are barriers.** A DAG(T) dummy advances the
//!   site timestamp and a BackEdge special holds prepared locks; both
//!   depend on everything admitted before them and admit nothing past
//!   themselves until they finish.
//! * **Completion is released in admission order.** The driver reports
//!   [`Input::Applied`](crate::Input::Applied) in admission order
//!   (commits happen in admission order even when execution overlapped),
//!   and post-apply effects — tree forwarding, timestamp merging —
//!   happen at release time, preserving the serial machine's observable
//!   command sequence.
//!
//! With `window == 1` (the default) the scheduler degenerates to the
//! seed's single applier slot, byte-for-byte: the model checker and the
//! differential matrix pin that equivalence down.

use std::collections::VecDeque;

use repl_types::{GlobalTxnId, SiteId};

use crate::digest::{digest_site, digest_subtxn, StableDigest};
use crate::machine::{ProtocolError, ProtocolId, SeededBug};
use crate::timestamp::Timestamp;
use crate::wire::{Subtxn, SubtxnKind};

/// One admitted subtransaction occupying an applier slot.
#[derive(Clone)]
pub(crate) struct InFlight {
    /// The admitted record.
    pub(crate) sub: Subtxn,
    /// The queue it was admitted from (crash recovery restores it there).
    pub(crate) queue: usize,
    /// True when the slot holds a BackEdge special executing toward
    /// prepared rather than a normal apply.
    pub(crate) prepare: bool,
}

/// The partial-order scheduler for one site's secondary subtransactions.
///
/// Owns the incoming per-parent queues and the in-flight window. The
/// [`SiteMachine`](crate::SiteMachine) consults [`ApplyScheduler::pick`]
/// for the next admissible queue, pops with [`ApplyScheduler::admit`],
/// and releases completions in admission order. Only the simulator
/// widens the window past 1 (its virtual worker pool is what overlaps);
/// every live site and the model checker run the single slot.
#[derive(Clone)]
pub struct ApplyScheduler {
    /// Incoming subtransaction queues, keyed by sender. NaiveLazy: one
    /// arrival-ordered catch-all (keyed by the local site). DAG(WT)/
    /// BackEdge: the tree parent's queue. DAG(T): one per copy-graph
    /// parent.
    queues: Vec<(SiteId, VecDeque<Subtxn>)>,
    /// Admitted subtransactions in admission order. The front is the
    /// oldest; only the front may complete.
    inflight: VecDeque<InFlight>,
    /// Maximum concurrently admitted subtransactions. `1` reproduces the
    /// seed's single applier slot exactly.
    window: usize,
}

impl ApplyScheduler {
    /// A scheduler over `queues` with the serial single-slot window.
    pub(crate) fn new(queues: Vec<(SiteId, VecDeque<Subtxn>)>) -> Self {
        ApplyScheduler { queues, inflight: VecDeque::new(), window: 1 }
    }

    /// Set the maximum number of concurrently admitted subtransactions
    /// (clamped to at least 1).
    pub(crate) fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// The configured window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Index of the queue fed by `from`, if any.
    pub(crate) fn queue_index(&self, from: SiteId) -> Option<usize> {
        self.queues.iter().position(|(s, _)| *s == from)
    }

    /// Append `sub` to queue `qi`.
    pub(crate) fn enqueue(&mut self, qi: usize, sub: Subtxn) {
        self.queues[qi].1.push_back(sub);
    }

    /// The next admissible queue under `protocol`'s ordering rule, the
    /// window capacity, and the write-set disjointness test. `None`
    /// means nothing may start right now.
    pub(crate) fn pick(
        &self,
        protocol: ProtocolId,
        bug: Option<SeededBug>,
    ) -> Result<Option<usize>, ProtocolError> {
        if self.inflight.len() >= self.window {
            return Ok(None);
        }
        let picked = match protocol {
            ProtocolId::DagT => self.pick_min_timestamp(bug)?,
            // First (only) non-empty queue, strict FIFO.
            _ => self.queues.iter().position(|(_, q)| !q.is_empty()),
        };
        let Some(qi) = picked else { return Ok(None) };
        if self.inflight.is_empty() {
            return Ok(Some(qi));
        }
        // The window is partially full: only a normal subtransaction
        // whose write set is disjoint from every in-flight write set may
        // overlap. Dummies and specials depend on everything admitted
        // before them, and a special in flight (prepare) blocks all
        // later admissions — its locks are held until the decision.
        let head = self.queues[qi].1.front().expect("picked queue is non-empty");
        if head.kind != SubtxnKind::Normal {
            return Ok(None);
        }
        if self.inflight.iter().any(|f| f.prepare || !disjoint(&f.sub, head)) {
            return Ok(None);
        }
        Ok(Some(qi))
    }

    /// DAG(T) §3.2.3: only when every incoming queue is non-empty, pick
    /// the minimum-timestamp head (ties to the lowest queue index).
    fn pick_min_timestamp(&self, bug: Option<SeededBug>) -> Result<Option<usize>, ProtocolError> {
        if self.queues.is_empty() {
            return Ok(None);
        }
        if bug == Some(SeededBug::SkipMinTimestamp) {
            // Seeded bug: greedy FIFO without the wait-for-all-queues
            // minimum rule (what the checker must catch).
            return Ok(self.queues.iter().position(|(_, q)| !q.is_empty()));
        }
        let mut best: Option<(usize, &Timestamp)> = None;
        for (i, (_, q)) in self.queues.iter().enumerate() {
            // Any empty queue ⇒ wait (progress via dummies, §3.3).
            let Some(head) = q.front() else { return Ok(None) };
            let ts = head.ts.as_ref().ok_or(ProtocolError::MissingTimestamp { gid: head.gid })?;
            match best {
                Some((_, bts)) if ts >= bts => {}
                _ => best = Some((i, ts)),
            }
        }
        Ok(best.map(|(i, _)| i))
    }

    /// Pop the head of queue `qi` (which [`Self::pick`] just returned).
    pub(crate) fn admit(&mut self, qi: usize) -> Subtxn {
        self.queues[qi].1.pop_front().expect("picked queue is non-empty")
    }

    /// Occupy a window slot with an admitted subtransaction.
    pub(crate) fn begin(&mut self, f: InFlight) {
        debug_assert!(self.inflight.len() < self.window, "window overrun");
        self.inflight.push_back(f);
    }

    /// Release the front in-flight entry if it is `gid`. Completions
    /// must arrive in admission order; anything else returns `None`.
    pub(crate) fn complete_front(&mut self, gid: GlobalTxnId) -> Option<InFlight> {
        match self.inflight.front() {
            Some(f) if f.sub.gid == gid => self.inflight.pop_front(),
            _ => None,
        }
    }

    /// Remove the in-flight special `gid` (decision or prepared-done).
    /// Specials are barriers, so if present it is the only entry.
    pub(crate) fn take_prepare(&mut self, gid: GlobalTxnId) -> Option<InFlight> {
        if self.inflight.front().is_some_and(|f| f.prepare && f.sub.gid == gid) {
            self.inflight.pop_front()
        } else {
            None
        }
    }

    /// Crash semantics: every in-flight subtransaction goes back to the
    /// front of its queue (reverse admission order restores each queue's
    /// original order) — the driver's store rolled them back, and the
    /// link layer's durable high-water mark means they will not be
    /// redelivered, so the scheduler must keep them.
    pub(crate) fn crashed(&mut self) {
        while let Some(f) = self.inflight.pop_back() {
            self.queues[f.queue].1.push_front(f.sub);
        }
    }

    /// True when the window is empty and every queue is empty.
    pub(crate) fn idle(&self) -> bool {
        self.inflight.is_empty() && self.queues.iter().all(|(_, q)| q.is_empty())
    }

    /// True when the window is empty and nothing but DAG(T) dummies is
    /// queued.
    pub(crate) fn only_dummies_queued(&self) -> bool {
        self.inflight.is_empty()
            && self.queues.iter().all(|(_, q)| q.iter().all(|sub| sub.kind == SubtxnKind::Dummy))
    }

    /// Number of subtransactions currently occupying window slots.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// The oldest in-flight subtransaction, if any.
    pub(crate) fn front_gid(&self) -> Option<GlobalTxnId> {
        self.inflight.front().map(|f| f.sub.gid)
    }

    /// Queue occupancy by sender, for stall diagnostics.
    pub(crate) fn queue_summary(&self) -> Vec<(SiteId, usize)> {
        self.queues.iter().map(|(s, q)| (*s, q.len())).collect()
    }

    /// Absorb the scheduler's mutable state into `d`, canonically (see
    /// [`SiteMachine::fingerprint`](crate::SiteMachine::fingerprint)).
    /// The window size is static driver configuration, like the
    /// placement, and is not hashed.
    pub(crate) fn fingerprint(&self, d: &mut StableDigest) {
        d.write_usize(self.queues.len());
        for (sender, q) in &self.queues {
            digest_site(d, *sender);
            d.write_usize(q.len());
            for sub in q {
                digest_subtxn(d, sub);
            }
        }
        d.write_usize(self.inflight.len());
        for f in &self.inflight {
            digest_subtxn(d, &f.sub);
            d.write_usize(f.queue);
            d.write_u8(u8::from(f.prepare));
        }
    }
}

/// True when the two records write disjoint item sets. Conservative: it
/// tests the records' full write sets, not the site-filtered subsets, so
/// a pair that only conflicts on items this site does not store still
/// serializes — never the other way around.
fn disjoint(a: &Subtxn, b: &Subtxn) -> bool {
    !a.writes.iter().any(|(item, _)| b.writes.iter().any(|(other, _)| other == item))
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_types::{ItemId, Value};

    fn sub(seq: u64, items: &[u32]) -> Subtxn {
        Subtxn {
            gid: GlobalTxnId::new(SiteId(0), seq),
            origin: SiteId(0),
            kind: SubtxnKind::Normal,
            ts: None,
            writes: items.iter().map(|&i| (ItemId(i), Value::int(1))).collect(),
            dest_sites: vec![SiteId(1)],
        }
    }

    fn sched_one_queue(window: usize) -> ApplyScheduler {
        let mut s = ApplyScheduler::new(vec![(SiteId(0), VecDeque::new())]);
        s.set_window(window);
        s
    }

    #[test]
    fn serial_window_admits_one_at_a_time() {
        let mut s = sched_one_queue(1);
        s.enqueue(0, sub(1, &[0]));
        s.enqueue(0, sub(2, &[1]));
        let qi = s.pick(ProtocolId::DagWt, None).unwrap().unwrap();
        let first = s.admit(qi);
        s.begin(InFlight { sub: first, queue: qi, prepare: false });
        // Window full: nothing more admits even though writes are disjoint.
        assert_eq!(s.pick(ProtocolId::DagWt, None).unwrap(), None);
        assert!(s.complete_front(GlobalTxnId::new(SiteId(0), 1)).is_some());
        assert!(s.pick(ProtocolId::DagWt, None).unwrap().is_some());
    }

    #[test]
    fn disjoint_writes_overlap_conflicts_serialize() {
        let mut s = sched_one_queue(4);
        s.enqueue(0, sub(1, &[0, 1]));
        s.enqueue(0, sub(2, &[2]));
        s.enqueue(0, sub(3, &[1, 3]));
        for expect_seq in [1, 2] {
            let qi = s.pick(ProtocolId::DagWt, None).unwrap().unwrap();
            let f = s.admit(qi);
            assert_eq!(f.gid.seq, expect_seq);
            s.begin(InFlight { sub: f, queue: qi, prepare: false });
        }
        // seq 3 writes item 1, conflicting with in-flight seq 1: blocked.
        assert_eq!(s.pick(ProtocolId::DagWt, None).unwrap(), None);
        // Releasing the conflicting front unblocks it.
        assert!(s.complete_front(GlobalTxnId::new(SiteId(0), 1)).is_some());
        assert!(s.pick(ProtocolId::DagWt, None).unwrap().is_some());
    }

    #[test]
    fn completion_is_admission_order_only() {
        let mut s = sched_one_queue(2);
        s.enqueue(0, sub(1, &[0]));
        s.enqueue(0, sub(2, &[1]));
        for _ in 0..2 {
            let qi = s.pick(ProtocolId::DagWt, None).unwrap().unwrap();
            let f = s.admit(qi);
            s.begin(InFlight { sub: f, queue: qi, prepare: false });
        }
        // The second admission may not complete before the first.
        assert!(s.complete_front(GlobalTxnId::new(SiteId(0), 2)).is_none());
        assert!(s.complete_front(GlobalTxnId::new(SiteId(0), 1)).is_some());
        assert!(s.complete_front(GlobalTxnId::new(SiteId(0), 2)).is_some());
    }

    #[test]
    fn barriers_block_and_crash_restores_queue_order() {
        let mut s = sched_one_queue(4);
        s.enqueue(0, sub(1, &[0]));
        s.enqueue(0, sub(2, &[1]));
        let mut special = sub(3, &[2]);
        special.kind = SubtxnKind::Special;
        s.enqueue(0, special);
        for _ in 0..2 {
            let qi = s.pick(ProtocolId::DagWt, None).unwrap().unwrap();
            let f = s.admit(qi);
            s.begin(InFlight { sub: f, queue: qi, prepare: false });
        }
        // The special head blocks while normals are in flight.
        assert_eq!(s.pick(ProtocolId::DagWt, None).unwrap(), None);
        // Crash: both in-flight normals return to the queue front in order.
        s.crashed();
        assert_eq!(s.inflight_len(), 0);
        let order: Vec<u64> = s.queues[0].1.iter().map(|x| x.gid.seq).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }
}
