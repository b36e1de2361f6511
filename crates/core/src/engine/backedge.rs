//! The BackEdge protocol's eager phase (§4.1) — driver half.
//!
//! When a transaction `Ti` at site `si` has updates destined for sites
//! that are its *ancestors* in the propagation tree (backedge
//! subtransactions), commit is delayed:
//!
//! 1. the backedge subtransaction `S1` is sent directly to the farthest
//!    ancestor `si1` and executed there **without committing**;
//! 2. a *special* secondary subtransaction then rides the ordinary FIFO
//!    tree machinery from `si1` down toward `si`, executing (and holding
//!    locks) at each intermediate site, never committing;
//! 3. when the special reaches `si` — necessarily after everything queued
//!    before it has committed — `Ti` and all the prepared subtransactions
//!    commit atomically (a commit decision is broadcast; absent failures
//!    2PC degenerates to this);
//! 4. updates for descendant sites then propagate lazily à la DAG(WT).
//!
//! Routing, path bookkeeping and decisions are the machine's job. The
//! runner (`runner.rs`) executes each of its `Prepare`s, queued or
//! direct, like any other subtransaction; this module holds what it
//! prepared until the `CommitPrepared`/`AbortPrepared` decision, and owns
//! what the machine cannot see: the eager-phase timeout and the escape
//! hatches of Example 4.1's global-deadlock rule.

use repl_protocol::Input;
use repl_sim::{SimDuration, SimTime};
use repl_types::{GlobalTxnId, SiteId};

use super::event::{Event, Message, TimeoutScope};
use super::site::{Owner, PreparedHold, PrimaryPhase, Run, RunKey};
use super::Engine;

impl Engine {
    /// §4.1 step 2: the special at `key` executed every write. Move it
    /// from the runner to the prepared table, keeping its locks, and tell
    /// the machine, which forwards the special one hop toward its origin
    /// (and, for a queued special, pumps the next subtransaction into the
    /// freed applier).
    pub(crate) fn hold_prepared(&mut self, now: SimTime, site: SiteId, key: RunKey) {
        let st = &mut self.sites[site.index()];
        let Run { gid, origin, writes, local, .. } =
            st.take_run(key).expect("the runner holds the special");
        st.owner.insert(local, Owner::Prepared { gid });
        let _ = st.store.prepare(local);
        st.prepared.insert(gid, PreparedHold { local, origin, writes });
        let cmds = self.machine_input(site, Input::Prepared { gid });
        self.run_commands(now, site, cmds);
    }

    /// Execute a machine-issued `ArmEagerTimeout`: abort the eager wait
    /// after `Tuning::eager_timeout`, jittered like a lock wait. A global
    /// deadlock may resolve earlier through blocker inspection (see
    /// `break_backedge_blockers`).
    pub(crate) fn arm_eager_timeout(&mut self, now: SimTime, site: SiteId, gid: GlobalTxnId) {
        let Some(thread) = self.thread_waiting_backedge(site, gid) else { return };
        let wait_seq =
            self.active(site, thread).expect("found by thread_waiting_backedge").wait_seq;
        let wait = self.eager_wait;
        let extra = self.jitter(SimDuration::micros(wait.as_micros() / 10 + 1));
        self.queue.push_at(
            now + wait + extra,
            Event::Timeout { site, scope: TimeoutScope::PrimaryEager { thread }, wait_seq },
        );
    }

    /// Execute a machine-issued `CommitPrepared`: the commit decision for
    /// a prepared backedge/special subtransaction at this site.
    pub(crate) fn commit_prepared(&mut self, now: SimTime, site: SiteId, gid: GlobalTxnId) {
        let Some(hold) = self.sites[site.index()].prepared.remove(&gid) else {
            debug_assert!(false, "commit decision with no prepared subtransaction at {site}");
            return;
        };
        self.sites[site.index()].owner.remove(&hold.local);
        let (_, granted) =
            self.sites[site.index()].store.commit(hold.local).expect("commit prepared special");
        if !hold.writes.is_empty() {
            self.metrics.on_apply(gid, now);
        }
        self.resume_granted(now, site, granted);
    }

    /// Execute a machine-issued `AbortPrepared`: release a special —
    /// prepared, or still in the runner (a direct special, or a queued
    /// one in the applier slot, which the machine already cleared).
    pub(crate) fn abort_prepared(&mut self, now: SimTime, site: SiteId, gid: GlobalTxnId) {
        let st = &mut self.sites[site.index()];
        let local = match st.prepared.remove(&gid) {
            Some(hold) => hold.local,
            None => {
                let run = st.direct.remove(&gid).or_else(|| st.applier.take_if(|a| a.gid == gid));
                // Otherwise the special has not arrived yet; the machine's
                // tombstone discards it on arrival.
                let Some(run) = run else { return };
                run.local
            }
        };
        st.owner.remove(&local);
        let granted = st.store.abort(local).expect("abort special");
        self.resume_granted(now, site, granted);
    }

    /// The origin's eager timeout fired (or a remote abort request came
    /// in): global-deadlock abort, the Example 4.1 resolution. The
    /// machine broadcasts the abort decision and tombstones the special.
    pub(crate) fn abort_eager_primary(&mut self, now: SimTime, site: SiteId, thread: u32) {
        let Some(a) = self.active(site, thread) else { return };
        let gid = a.gid;
        let cmds = self.machine_input(site, Input::AbortEager { gid });
        self.run_commands(now, site, cmds);
        self.abort_primary(now, site, thread, false);
    }

    /// §4.1 deadlock rule, generalized from the Example 4.1 trace: when a
    /// subtransaction's lock wait times out, any blocker that is part of
    /// an eager phase is the party to kill — a primary waiting for its
    /// special subtransaction (abort it locally), or a prepared backedge
    /// subtransaction (ask its origin to abort). Aborting the waiting
    /// subtransaction itself never helps, because it must eventually run.
    pub(crate) fn break_backedge_blockers(
        &mut self,
        now: SimTime,
        site: SiteId,
        blocked: repl_storage::TxnId,
    ) {
        let Some(item) = self.sites[site.index()].store.locks().waiting_on(blocked) else {
            return;
        };
        let holders = self.sites[site.index()].store.locks().holders_of(item);
        for holder in holders {
            match self.sites[site.index()].owner.get(&holder).copied() {
                Some(Owner::Primary { thread }) => {
                    let waiting_eager = self
                        .active(site, thread)
                        .map(|a| a.phase == PrimaryPhase::WaitingBackedge)
                        .unwrap_or(false);
                    if waiting_eager {
                        self.abort_eager_primary(now, site, thread);
                    }
                }
                Some(Owner::Prepared { gid } | Owner::Run(RunKey::Direct(gid))) => {
                    let st = &self.sites[site.index()];
                    let origin = st.prepared.get(&gid).map(|h| h.origin);
                    if let Some(origin) = origin.or_else(|| st.direct.get(&gid).map(|r| r.origin)) {
                        self.send(now, site, origin, Message::BackedgeAbortReq { gid });
                    }
                }
                _ => {}
            }
        }
    }

    /// A remote site asked us to abort `gid`'s eager phase because its
    /// prepared subtransaction blocks a timed-out lock wait there.
    pub(crate) fn recv_backedge_abort_req(&mut self, now: SimTime, to: SiteId, gid: GlobalTxnId) {
        if let Some(thread) = self.thread_waiting_backedge(to, gid) {
            self.abort_eager_primary(now, to, thread);
        }
    }

    /// The thread at `site` whose active attempt is `gid`, waiting in its
    /// eager phase.
    fn thread_waiting_backedge(&self, site: SiteId, gid: GlobalTxnId) -> Option<u32> {
        (0..self.sites[site.index()].threads.len() as u32).find(|&t| {
            self.active(site, t)
                .map(|a| a.gid == gid && a.phase == PrimaryPhase::WaitingBackedge)
                .unwrap_or(false)
        })
    }
}
