//! The subtransaction runner: the driver half of every storage
//! subtransaction the machine hands the engine.
//!
//! What runs next — queue admission, DAG(T)'s minimum-timestamp rule,
//! dummy consumption, forwarding, the route of a BackEdge special — is
//! decided by the shared [`repl_protocol::SiteMachine`]. It hands the
//! engine an `Apply` (a secondary) or a queued `Prepare` (a special
//! riding the tree, §4.1) into its applier slot, one at a time, and a
//! direct `Prepare` (`S1` at the farthest ancestor) off the queue. This
//! module runs each against the simulated store, keyed by where it
//! lives — the applier slot, or the direct special's transaction — one
//! item write per `apply_cpu` slice. A secondary then commits, so the
//! site's commit order is the machine's admission order (§2 FIFO,
//! §3.2.3 minimum timestamp); a special is prepared instead and holds its
//! locks until the decision (`backedge.rs`).
//!
//! An applier run aborted by a local deadlock is resubmitted until it
//! succeeds, keeping its original arrival ordinal so the fair victim
//! policy eventually lets it win (§2). The machine is not told about
//! resubmissions: its command stays outstanding until the run finally
//! lands and the driver reports [`Input::Applied`] or
//! [`Input::Prepared`]. A direct special is never resubmitted and never a
//! waits-for victim: its lock-wait timeout breaks eager-phase blockers
//! and re-arms (§4.1: aborting it "does not help").

use repl_protocol::Input;
use repl_sim::SimTime;
use repl_storage::TxnId;
use repl_types::{GlobalTxnId, ItemId, SiteId, StorageError, Value};

use crate::config::ProtocolKind;

use super::event::{Event, TimeoutScope};
use super::site::{Owner, Run, RunKey};
use super::{Engine, RunKind};

impl Engine {
    /// Execute a machine-issued `Apply` or `Prepare` command: open a
    /// storage transaction for it — in the applier slot, or keyed by
    /// `gid` for a direct special — and start writing. The writes are
    /// already filtered to this site's copies.
    pub(crate) fn start_run(
        &mut self,
        now: SimTime,
        site: SiteId,
        kind: RunKind,
        gid: GlobalTxnId,
        origin: SiteId,
        writes: Vec<(ItemId, Value)>,
    ) {
        let key = match kind {
            RunKind::DirectSpecial => RunKey::Direct(gid),
            RunKind::Secondary | RunKind::QueuedSpecial => RunKey::Applier,
        };
        let st = &mut self.sites[site.index()];
        let local = st.store.begin();
        st.owner.insert(local, Owner::Run(key));
        let arrival = (key == RunKey::Applier).then(|| {
            let ord = st.next_arrival;
            st.next_arrival += 1;
            st.store.locks_mut().set_arrival(local, ord);
            ord
        });
        st.run_gen += 1;
        let gen = st.run_gen;
        let run = Run {
            gid,
            kind,
            origin,
            writes,
            local,
            write_idx: 0,
            arrival,
            gen,
            blocked: false,
            committing: false,
            wait_seq: 0,
            since: now,
            resubmits: 0,
        };
        match key {
            RunKey::Applier => {
                debug_assert!(st.applier.is_none(), "machine admitted into a busy applier slot");
                st.applier = Some(run);
            }
            RunKey::Direct(gid) => {
                st.direct.insert(gid, run);
            }
        }
        self.exec_step(now, site, key, gen);
    }

    /// Apply the next item write of run `gen` at `key`, or finish the run
    /// once every write executed: a secondary starts its commit, a
    /// special is prepared.
    fn exec_step(&mut self, now: SimTime, site: SiteId, key: RunKey, gen: u64) {
        let (local, gid, next, kind) = {
            let r = self.sites[site.index()].run_by_gen(key, gen).expect("run active");
            (r.local, r.gid, r.writes.get(r.write_idx).cloned(), r.kind)
        };
        let Some((item, value)) = next else {
            if kind == RunKind::Secondary {
                self.sites[site.index()].run_by_gen(key, gen).expect("run active").committing =
                    true;
                let at = self.sites[site.index()].cpu.run(now, self.params.commit_cpu);
                self.queue.push_at(at, Event::SecondaryCommitDone { site, gen });
            } else {
                // BackEdge: prepare + forward, never commit here.
                self.hold_prepared(now, site, key);
            }
            return;
        };
        match self.sites[site.index()].store.write(local, item, value, gid) {
            Ok(()) => {
                let at = self.sites[site.index()].cpu.run(now, self.params.apply_cpu);
                self.queue.push_at(at, Event::StepDone { site, key, gen });
            }
            Err(StorageError::WouldBlock(_)) => {
                let st = &mut self.sites[site.index()];
                st.run_wait_seq += 1;
                let seq = st.run_wait_seq;
                let r = st.run_by_gen(key, gen).expect("run active");
                r.blocked = true;
                r.wait_seq = seq;
                self.lock_wait(now, site, Some((TimeoutScope::Run { key }, seq)));
            }
            Err(e) => panic!("subtransaction write failed at {site}: {e}"),
        }
    }

    pub(crate) fn step_done(&mut self, now: SimTime, site: SiteId, key: RunKey, gen: u64) {
        let Some(r) = self.sites[site.index()].run_by_gen(key, gen) else { return };
        if r.blocked || r.committing {
            return;
        }
        r.write_idx += 1;
        self.exec_step(now, site, key, gen);
    }

    /// The blocked lock request of the run at `key`, running transaction
    /// `txn`, was granted.
    pub(crate) fn resume_run(&mut self, now: SimTime, site: SiteId, key: RunKey, txn: TxnId) {
        let gen = {
            let Some(r) = self.sites[site.index()].run_mut(key) else { return };
            if r.local != txn || !r.blocked {
                return;
            }
            r.blocked = false;
            r.gen
        };
        self.exec_step(now, site, key, gen);
    }

    /// The lock wait of the run at `key` timed out. Under BackEdge an
    /// eager-phase blocker is the deadlock victim, not the run (§4.1);
    /// otherwise an applier run is aborted and resubmitted, and a direct
    /// special inspects its blockers again at its next timeout.
    pub(crate) fn run_timeout(&mut self, now: SimTime, site: SiteId, key: RunKey, wait_seq: u64) {
        let Some((gen, local)) = self.sites[site.index()]
            .run_mut(key)
            .filter(|r| r.blocked && r.wait_seq == wait_seq)
            .map(|r| (r.gen, r.local))
        else {
            return; // resumed or resubmitted since; the timeout is stale
        };
        if self.params.protocol == ProtocolKind::BackEdge {
            self.break_backedge_blockers(now, site, local);
            let still_blocked =
                self.sites[site.index()].run_by_gen(key, gen).is_some_and(|r| r.blocked);
            if !still_blocked {
                return;
            }
        }
        match key {
            RunKey::Applier => self.abort_and_resubmit(now, site, gen),
            RunKey::Direct(_) => {
                self.schedule_timeout(now, site, TimeoutScope::Run { key }, wait_seq)
            }
        }
    }

    /// Deadlock-abort applier run `gen` and immediately resubmit it (§2:
    /// "repeatedly resubmitted until it succeeds"), keeping its arrival
    /// ordinal for fair victim selection. The machine's command stays
    /// outstanding across resubmissions, so it needs no input here.
    pub(crate) fn abort_and_resubmit(&mut self, now: SimTime, site: SiteId, gen: u64) {
        let st = &mut self.sites[site.index()];
        let Some(local) = st.run_by_gen(RunKey::Applier, gen).map(|a| a.local) else { return };
        st.owner.remove(&local);
        let granted = st.store.abort(local).expect("abort live secondary");
        self.resume_granted(now, site, granted);
        let st = &mut self.sites[site.index()];
        // The applier can vanish while the grants cascade (e.g. a
        // BackEdge decision clearing a prepared special).
        let Some(arrival_ord) = st.run_by_gen(RunKey::Applier, gen).and_then(|a| a.arrival) else {
            return;
        };
        let local = st.store.begin();
        st.owner.insert(local, Owner::Run(RunKey::Applier));
        st.store.locks_mut().set_arrival(local, arrival_ord);
        st.run_gen += 1;
        let new_gen = st.run_gen;
        let a = st.applier.as_mut().expect("found above");
        a.local = local;
        a.write_idx = 0;
        a.blocked = false;
        a.committing = false;
        a.gen = new_gen;
        a.wait_seq = 0;
        a.resubmits += 1;
        self.exec_step(now, site, RunKey::Applier, new_gen);
    }

    /// The applier's secondary committed: empty the slot, record metrics,
    /// and tell the machine — it merges timestamps, forwards down the
    /// tree, and pumps the next subtransaction.
    pub(crate) fn secondary_commit_done(&mut self, now: SimTime, site: SiteId, gen: u64) {
        let st = &mut self.sites[site.index()];
        let Some(a) = st.applier.take_if(|a| a.gen == gen && a.committing) else { return };
        st.owner.remove(&a.local);
        let (_, granted) = st.store.commit(a.local).expect("commit live secondary");
        self.resume_granted(now, site, granted);

        if !a.writes.is_empty() {
            self.metrics.on_apply(a.gid, now);
            self.sites[site.index()].wal_len += a.writes.len() as u64;
        }

        let cmds = self.machine_input(site, Input::Applied { gid: a.gid });
        self.run_commands(now, site, cmds);
    }

    // ------------------------------------------------------------------
    // DAG(T) progress machinery (§3.3) — the engine keeps the time.
    // ------------------------------------------------------------------

    /// True while the DAG(T) progress machinery still has work to push
    /// forward; once the workload is done and every update has landed,
    /// timers stop so the calendar can drain.
    fn ticks_needed(&self) -> bool {
        self.live_threads > 0 || self.metrics.unpropagated() > 0
    }

    /// Tell the site's machine the time — it fires what is due — and
    /// schedule the next timer at its deadline.
    pub(crate) fn timer(&mut self, now: SimTime, site: SiteId, gen: u64) {
        if !self.ticks_needed() || gen != self.sites[site.index()].tick_gen {
            return; // done, or a timer chain orphaned by a crash
        }
        let cmds = self.machine_input(site, Input::Timer { now_us: now.as_micros() });
        self.run_commands(now, site, cmds);
        self.arm_timer(site);
    }
}
