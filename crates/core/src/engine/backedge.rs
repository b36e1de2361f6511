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
//! Routing, path bookkeeping and decisions are the machine's job; this
//! module executes its `Prepare`/`CommitPrepared`/`AbortPrepared`
//! commands against the store, and owns what the machine cannot see:
//! lock waits, the timeout escape hatches (Example 4.1's global-deadlock
//! rule), and CPU costing.

use repl_protocol::Input;
use repl_sim::{SimDuration, SimTime};
use repl_types::{GlobalTxnId, ItemId, SiteId, StorageError, Value};

use super::event::{Event, Message, TimeoutScope};
use super::site::{BackedgeRun, Owner, PrimaryPhase};
use super::Engine;

impl Engine {
    /// Execute a machine-issued direct `Prepare`: `S1` arrived at the
    /// farthest ancestor, run it as an independent (non-applier)
    /// subtransaction. The writes are already filtered to this site.
    pub(crate) fn start_direct_special(
        &mut self,
        now: SimTime,
        site: SiteId,
        gid: GlobalTxnId,
        origin: SiteId,
        writes: Vec<(ItemId, Value)>,
    ) {
        let st = &mut self.sites[site.index()];
        let local = st.store.begin();
        st.owner.insert(local, Owner::Backedge { gid });
        st.backedge_txns.insert(
            gid,
            BackedgeRun { local, origin, writes, idx: 0, prepared: false, blocked: false },
        );
        self.exec_backedge_step(now, site, gid);
    }

    /// Apply the next write of a direct backedge subtransaction.
    fn exec_backedge_step(&mut self, now: SimTime, site: SiteId, gid: GlobalTxnId) {
        let (local, next, idx) = {
            let Some(run) = self.sites[site.index()].backedge_txns.get(&gid) else {
                return; // aborted by a decision meanwhile
            };
            (run.local, run.writes.get(run.idx).cloned(), run.idx)
        };
        match next {
            Some((item, value)) => {
                match self.sites[site.index()].store.write(local, item, value, gid) {
                    Ok(()) => {
                        let at = self.sites[site.index()].cpu.run(now, self.params.apply_cpu);
                        self.queue.push_at(at, Event::BackedgeStepDone { site, gid, idx });
                    }
                    Err(StorageError::WouldBlock(_)) => {
                        if let Some(run) = self.sites[site.index()].backedge_txns.get_mut(&gid) {
                            run.blocked = true;
                        }
                        // On timeout the blockers are inspected (the
                        // subtransaction itself is never the victim —
                        // §4.1: aborting it "does not help").
                        self.schedule_timeout(now, site, TimeoutScope::BackedgeExec { gid }, 0);
                        if matches!(
                            self.params.deadlock_mode,
                            crate::config::DeadlockMode::WaitsFor
                        ) {
                            self.detect_and_break_deadlock(now, site);
                        }
                    }
                    Err(e) => panic!("backedge write failed at {site}: {e}"),
                }
            }
            None => self.backedge_prepared(now, site, gid),
        }
    }

    /// CPU slice for one backedge write finished.
    pub(crate) fn backedge_step_done(
        &mut self,
        now: SimTime,
        site: SiteId,
        gid: GlobalTxnId,
        idx: usize,
    ) {
        let valid = self.sites[site.index()]
            .backedge_txns
            .get(&gid)
            .map(|r| !r.prepared && !r.blocked && r.idx == idx)
            .unwrap_or(false);
        if !valid {
            return;
        }
        self.sites[site.index()].backedge_txns.get_mut(&gid).unwrap().idx += 1;
        self.exec_backedge_step(now, site, gid);
    }

    /// A blocked backedge subtransaction's lock was granted.
    pub(crate) fn resume_backedge_exec(&mut self, now: SimTime, site: SiteId, gid: GlobalTxnId) {
        let resumable = self.sites[site.index()]
            .backedge_txns
            .get_mut(&gid)
            .map(|r| {
                let was = r.blocked;
                r.blocked = false;
                was && !r.prepared
            })
            .unwrap_or(false);
        if resumable {
            self.exec_backedge_step(now, site, gid);
        }
    }

    /// §4.1 step 2: execution finished — hold locks and tell the machine,
    /// which forwards the special one hop toward its origin.
    fn backedge_prepared(&mut self, now: SimTime, site: SiteId, gid: GlobalTxnId) {
        let local = {
            let run =
                self.sites[site.index()].backedge_txns.get_mut(&gid).expect("prepared run exists");
            run.prepared = true;
            run.local
        };
        let _ = self.sites[site.index()].store.prepare(local);
        let cmds = self.machine_input(site, Input::Prepared { gid });
        self.run_commands(now, site, cmds);
    }

    /// The applier at an intermediate site finished executing a special
    /// subtransaction: transfer it to the prepared table (keeping its
    /// locks) and tell the machine, which forwards the special and pumps
    /// the next queued subtransaction into the freed applier.
    pub(crate) fn special_executed(&mut self, now: SimTime, site: SiteId) {
        let a = self.sites[site.index()].applier.take().expect("special in applier");
        let gid = a.gid;
        self.sites[site.index()].owner.insert(a.local, Owner::Backedge { gid });
        let _ = self.sites[site.index()].store.prepare(a.local);
        let idx = a.writes.len();
        self.sites[site.index()].backedge_txns.insert(
            gid,
            BackedgeRun {
                local: a.local,
                origin: gid.origin,
                writes: a.writes,
                idx,
                prepared: true,
                blocked: false,
            },
        );
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
        let Some(run) = self.sites[site.index()].backedge_txns.remove(&gid) else {
            debug_assert!(false, "commit decision with no prepared subtransaction at {site}");
            return;
        };
        debug_assert!(run.prepared, "commit decision for an unprepared subtransaction");
        self.sites[site.index()].owner.remove(&run.local);
        let (_, granted) =
            self.sites[site.index()].store.commit(run.local).expect("commit prepared backedge txn");
        if !run.writes.is_empty() {
            self.metrics.on_apply(gid, now);
        }
        self.resume_granted(now, site, granted);
    }

    /// Execute a machine-issued `AbortPrepared`: release a backedge/
    /// special subtransaction — prepared, still executing directly, or
    /// (for a queued special) still sitting in the applier slot.
    pub(crate) fn abort_prepared(&mut self, now: SimTime, site: SiteId, gid: GlobalTxnId) {
        if let Some(run) = self.sites[site.index()].backedge_txns.remove(&gid) {
            self.sites[site.index()].owner.remove(&run.local);
            let granted =
                self.sites[site.index()].store.abort(run.local).expect("abort backedge txn");
            self.resume_granted(now, site, granted);
            return;
        }
        // The machine already cleared its busy slot; free the driver's.
        if let Some(ap) = self.sites[site.index()].applier.take_if(|ap| ap.gid == gid) {
            self.sites[site.index()].owner.remove(&ap.local);
            let granted =
                self.sites[site.index()].store.abort(ap.local).expect("abort special in applier");
            self.resume_granted(now, site, granted);
        }
        // Otherwise the special has not arrived yet; the machine's
        // tombstone discards it on arrival.
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

    /// A blocked backedge subtransaction timed out: break its blockers if
    /// they are eager-phase participants, then re-arm.
    pub(crate) fn backedge_exec_timeout(
        &mut self,
        now: SimTime,
        site: SiteId,
        gid: GlobalTxnId,
        _wait_seq: u64,
    ) {
        let Some(run) = self.sites[site.index()].backedge_txns.get(&gid) else { return };
        if !run.blocked || run.prepared {
            return;
        }
        let local = run.local;
        self.break_backedge_blockers(now, site, local);
        // Re-arm: if the blockers were ordinary primaries they will time
        // out and release on their own; keep inspecting meanwhile.
        let still_blocked =
            self.sites[site.index()].backedge_txns.get(&gid).map(|r| r.blocked).unwrap_or(false);
        if still_blocked {
            self.schedule_timeout(now, site, TimeoutScope::BackedgeExec { gid }, 0);
        }
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
                Some(Owner::Backedge { gid }) => {
                    let origin = self.sites[site.index()].backedge_txns.get(&gid).map(|r| r.origin);
                    if let Some(origin) = origin {
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
