//! The per-site applier: the driver half of secondary subtransactions.
//!
//! Which subtransaction runs next — queue admission, DAG(T)'s
//! minimum-timestamp rule, dummy consumption, forwarding — is decided by
//! the shared [`repl_protocol::SiteMachine`], which admits one at a time
//! into its applier slot. This module executes the machine's `Apply`
//! commands (and queued `Prepare`s) against the simulated store, one
//! item write per `apply_cpu` slice, then commits, so the site's commit
//! order is the machine's admission order (§2 FIFO, §3.2.3 minimum
//! timestamp).
//!
//! A secondary aborted by a local deadlock is resubmitted until it
//! succeeds, keeping its original arrival ordinal so the fair victim
//! policy eventually lets it win (§2). The machine is not told about
//! resubmissions: its `Apply` stays outstanding until the commit finally
//! lands and the driver reports [`Input::Applied`].

use repl_protocol::Input;
use repl_sim::SimTime;
use repl_storage::TxnId;
use repl_types::{GlobalTxnId, ItemId, SiteId, StorageError, Value};

use crate::config::{DeadlockMode, ProtocolKind};

use super::event::{Event, TimeoutScope};
use super::site::{ActiveSecondary, Owner};
use super::Engine;

impl Engine {
    /// Execute a machine-issued `Apply` (or queued `Prepare`) command:
    /// open a storage transaction in the applier slot and start writing.
    /// The writes are already filtered to this site's copies.
    pub(crate) fn start_applier(
        &mut self,
        now: SimTime,
        site: SiteId,
        gid: GlobalTxnId,
        writes: Vec<(ItemId, Value)>,
        special: bool,
    ) {
        let st = &mut self.sites[site.index()];
        debug_assert!(st.applier.is_none(), "machine admitted into a busy applier slot");
        let local = st.store.begin();
        st.owner.insert(local, Owner::Secondary);
        let arrival_ord = st.next_arrival;
        st.next_arrival += 1;
        st.store.locks_mut().set_arrival(local, arrival_ord);
        st.applier_gen += 1;
        let gen = st.applier_gen;
        st.applier = Some(ActiveSecondary {
            gid,
            writes,
            special,
            local,
            write_idx: 0,
            arrival_ord,
            gen,
            blocked: false,
            committing: false,
            wait_seq: 0,
            since: now,
            resubmits: 0,
        });
        self.exec_secondary_step(now, site, gen);
    }

    /// Apply the next item write of applier `gen`, or start its commit
    /// once every write executed.
    fn exec_secondary_step(&mut self, now: SimTime, site: SiteId, gen: u64) {
        let (local, gid, next, special) = {
            let a = self.sites[site.index()].applier_by_gen(gen).expect("applier active");
            (a.local, a.gid, a.writes.get(a.write_idx).cloned(), a.special)
        };
        match next {
            Some((item, value)) => {
                match self.sites[site.index()].store.write(local, item, value, gid) {
                    Ok(()) => {
                        let at = self.sites[site.index()].cpu.run(now, self.params.apply_cpu);
                        self.queue.push_at(at, Event::SecondaryStepDone { site, gen });
                    }
                    Err(StorageError::WouldBlock(_)) => {
                        let st = &mut self.sites[site.index()];
                        st.sec_wait_seq += 1;
                        let seq = st.sec_wait_seq;
                        let a = st.applier_by_gen(gen).expect("applier active");
                        a.blocked = true;
                        a.wait_seq = seq;
                        // Timeout in both modes (global-deadlock backstop).
                        self.schedule_timeout(now, site, TimeoutScope::Secondary, seq);
                        if self.params.deadlock_mode == DeadlockMode::WaitsFor {
                            self.detect_and_break_deadlock(now, site);
                        }
                    }
                    Err(e) => panic!("secondary write failed at {site}: {e}"),
                }
            }
            None => {
                if special {
                    // BackEdge: prepare + forward, never commit here.
                    self.special_executed(now, site);
                } else {
                    self.sites[site.index()]
                        .applier_by_gen(gen)
                        .expect("applier active")
                        .committing = true;
                    let at = self.sites[site.index()].cpu.run(now, self.params.commit_cpu);
                    self.queue.push_at(at, Event::SecondaryCommitDone { site, gen });
                }
            }
        }
    }

    pub(crate) fn secondary_step_done(&mut self, now: SimTime, site: SiteId, gen: u64) {
        let Some(a) = self.sites[site.index()].applier_by_gen(gen) else { return };
        if a.blocked || a.committing {
            return;
        }
        a.write_idx += 1;
        self.exec_secondary_step(now, site, gen);
    }

    /// The blocked lock request of the applier running transaction `txn`
    /// was granted.
    pub(crate) fn resume_secondary(&mut self, now: SimTime, site: SiteId, txn: TxnId) {
        let gen = {
            let Some(a) = self.sites[site.index()].applier.as_mut() else { return };
            if a.local != txn || !a.blocked {
                return;
            }
            a.blocked = false;
            a.gen
        };
        self.exec_secondary_step(now, site, gen);
    }

    pub(crate) fn secondary_timeout(&mut self, now: SimTime, site: SiteId, wait_seq: u64) {
        let Some(gen) = self.sites[site.index()]
            .applier
            .as_ref()
            .filter(|a| a.blocked && a.wait_seq == wait_seq)
            .map(|a| a.gen)
        else {
            return; // resumed or resubmitted since; the timeout is stale
        };
        if self.params.protocol == ProtocolKind::BackEdge {
            // §4.1: if the blocker is an eager-phase participant, that
            // participant is the deadlock victim, not this secondary.
            let local = self.sites[site.index()].applier_by_gen(gen).expect("found above").local;
            self.break_backedge_blockers(now, site, local);
            let still_blocked =
                self.sites[site.index()].applier_by_gen(gen).map(|a| a.blocked).unwrap_or(false);
            if !still_blocked {
                return;
            }
        }
        self.abort_and_resubmit_secondary(now, site, gen);
    }

    /// Deadlock-abort applier `gen` and immediately resubmit it (§2:
    /// "repeatedly resubmitted until it succeeds"), keeping its arrival
    /// ordinal for fair victim selection. The machine's `Apply` command
    /// stays outstanding across resubmissions, so it needs no input
    /// here.
    pub(crate) fn abort_and_resubmit_secondary(&mut self, now: SimTime, site: SiteId, gen: u64) {
        let st = &mut self.sites[site.index()];
        let Some(local) = st.applier_by_gen(gen).map(|a| a.local) else { return };
        st.owner.remove(&local);
        let granted = st.store.abort(local).expect("abort live secondary");
        self.resume_granted(now, site, granted);
        let st = &mut self.sites[site.index()];
        // The applier can vanish while the grants cascade (e.g. a
        // BackEdge decision clearing a prepared special).
        let Some(arrival_ord) = st.applier_by_gen(gen).map(|a| a.arrival_ord) else { return };
        let local = st.store.begin();
        st.owner.insert(local, Owner::Secondary);
        st.store.locks_mut().set_arrival(local, arrival_ord);
        st.applier_gen += 1;
        let new_gen = st.applier_gen;
        let a = st.applier.as_mut().expect("found above");
        a.local = local;
        a.write_idx = 0;
        a.blocked = false;
        a.committing = false;
        a.gen = new_gen;
        a.wait_seq = 0;
        a.resubmits += 1;
        self.exec_secondary_step(now, site, new_gen);
    }

    /// The applier committed: empty the slot, record metrics, and tell
    /// the machine — it merges timestamps, forwards down the tree, and
    /// pumps the next subtransaction.
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
