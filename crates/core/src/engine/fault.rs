//! Site crash and recovery handling (fault-plan execution).
//!
//! The fault model mirrors §3.3's motivation for epochs: sites fail
//! abruptly and later recover from their log. Concretely:
//!
//! * **Durable across a crash:** committed store state (the redo WAL
//!   reconstructs it — priced as `replay_cpu` per logged item-write at
//!   restart) and the inbound subtransaction queues (messages are logged
//!   on receipt, so nothing already delivered is lost).
//! * **Volatile (lost at crash):** in-flight primary attempts (aborted;
//!   their writes were never installed), the applier's
//!   partially-applied secondary
//!   (aborted; its message is re-queued at the front for
//!   redelivery), and PSL/Eager proxies held here for remote
//!   transactions (the remote origin's lock-wait timeout copes with the
//!   lost grant).
//! * **While down:** the site's event stream is parked — the dispatch
//!   gate drops its events and buffers deliveries into a backlog.
//!   Senders keep sending; per-link FIFO is preserved because the
//!   backlog is drained *inline* at restart, before any later delivery
//!   can be dispatched.
//! * **At restart:** the CPU is cleared, WAL replay is charged, worker
//!   threads resume their programs after replay, and the machine's
//!   DAG(T) timers are re-armed under a fresh generation. A DAG(T)
//!   *source*'s machine bumped its epoch at the crash (§3.3).
//!
//! Crash faults are supported for DAG(WT), DAG(T), NaiveLazy and PSL.
//! BackEdge and Eager hold prepared/provisional remote writes that an
//! abrupt crash would silently lose (a lost-update divergence, not a
//! stall), so [`Engine::new`] refuses a crash plan under them with
//! [`crate::engine::BuildError::CrashUnrecoverable`].

use repl_protocol::Input;
use repl_sim::{SimDuration, SimTime};
use repl_types::{GlobalTxnId, SiteId};

use super::event::Event;
use super::Engine;

impl Engine {
    /// Turn the fault plan's crash windows into calendar events.
    /// Overlapping windows of one site are merged so crash/restart
    /// events strictly alternate.
    pub(crate) fn seed_fault_events(&mut self) {
        let mut windows = self.params.faults.crashes.clone();
        windows.sort_by_key(|w| (w.site, w.at));
        let mut merged: Vec<(SiteId, SimTime, Option<SimTime>)> = Vec::new();
        for w in windows {
            match merged.last_mut() {
                Some((site, _, restart))
                    if *site == w.site && restart.is_none_or(|r| w.at <= r) =>
                {
                    *restart = match (*restart, w.restart) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        _ => None,
                    };
                }
                _ => merged.push((w.site, w.at, w.restart)),
            }
        }
        for (site, at, restart) in merged {
            debug_assert!(site.index() < self.sites.len(), "crash window for unknown {site}");
            self.queue.push_at(at, Event::SiteCrash { site });
            if let Some(r) = restart {
                self.queue.push_at(r, Event::SiteRestart { site });
            }
        }
    }

    /// Abrupt site failure: park the event stream, lose volatile state,
    /// abort in-flight local work (uncommitted writes are only buffered).
    pub(crate) fn site_crash(&mut self, now: SimTime, site: SiteId) {
        if !self.sites[site.index()].up {
            return; // already down (overlapping windows are pre-merged)
        }
        self.sites[site.index()].up = false;
        self.sites[site.index()].tick_gen += 1;
        self.sites[site.index()].crash_seq = self.sites[site.index()].next_seq;
        self.metrics.on_crash(site, now);

        // The applier's partial work is undone, but its message was
        // durably received: the machine puts it back at the head of its
        // queue so the restarted site re-applies it in order, and drops
        // its volatile prepare/eager state.
        {
            let st = &mut self.sites[site.index()];
            if let Some(a) = st.applier.take() {
                st.run_gen += 1;
                st.run_wait_seq += 1;
                if st.owner.remove(&a.local).is_some() {
                    let _ = st.store.abort(a.local);
                }
            }
        }
        if self.sites[site.index()].machine.is_some() {
            let _cmds = self.machine_input(site, Input::Crashed);
            debug_assert!(_cmds.is_empty(), "a crash notification produces no commands");
        }

        // In-flight primary attempts die with their write buffers. A thread
        // parked between a deadlock abort and its retry has no live
        // storage transaction — the owner map is the source of truth.
        // Crash aborts are not client-visible aborts (§5.3 counts
        // deadlock victims), so metrics.on_abort is not called.
        for t in 0..self.sites[site.index()].threads.len() {
            let st = &mut self.sites[site.index()];
            if let Some(a) = st.threads[t].active.take() {
                if st.owner.remove(&a.local).is_some() {
                    let _ = st.store.abort(a.local);
                }
            }
        }

        // Proxies held *here* for remote transactions are volatile;
        // they drain in `GlobalTxnId` order, the maps' own.
        {
            let st = &mut self.sites[site.index()];
            for (_, p) in std::mem::take(&mut st.proxies) {
                if st.owner.remove(&p.local).is_some() {
                    let _ = st.store.abort(p.local);
                }
            }
            // No special is held here: BackEdge runs no crash plan.
            debug_assert!(st.owner.is_empty(), "crashed {site} leaked txn owners");
        }

        // Failure detector: proxies at *other* sites held for this
        // site's in-flight transactions are orphans — their origin can
        // never send a ProxyRelease. Abort them so their locks are
        // freed for live work. A lock request still in flight from here
        // is dropped on arrival (`recv_remote_lock_req`).
        for other in 0..self.sites.len() {
            if other == site.index() || !self.sites[other].up {
                continue;
            }
            let orphans: Vec<GlobalTxnId> =
                self.sites[other].proxies.keys().copied().filter(|g| g.origin == site).collect();
            for gid in orphans {
                self.recv_proxy_release(now, SiteId(other as u32), gid, false);
            }
        }
    }

    /// Recovery: WAL replay, thread restart, backlog drain, and (DAG(T))
    /// the machine's timers re-armed from now.
    pub(crate) fn site_restart(&mut self, now: SimTime, site: SiteId) {
        if self.sites[site.index()].up {
            return; // never crashed (or already restarted)
        }
        let replay_done = {
            let st = &mut self.sites[site.index()];
            st.up = true;
            st.recovering = true;
            st.cpu.reset(now);
            let work =
                SimDuration::micros(self.params.replay_cpu.as_micros().saturating_mul(st.wal_len));
            let done = st.cpu.run(now, work);
            st.replay_done = done;
            done
        };
        self.metrics.on_restart(site, now);

        if self.sites[site.index()].machine.is_some() {
            self.machine_input(site, Input::Timer { now_us: now.as_micros() }); // re-arms only
            self.arm_timer(site);
        }

        // Worker threads resume their programs once replay finishes
        // (the crash cleared `active`, so StartThreadTxn is safe).
        for t in 0..self.sites[site.index()].threads.len() as u32 {
            let ts = &self.sites[site.index()].threads[t as usize];
            if !ts.finished() && ts.active.is_none() {
                self.queue.push_at(replay_done, Event::StartThreadTxn { site, thread: t });
            }
        }

        // Drain the buffered backlog inline, in arrival order. Pushing
        // these through the calendar instead would give them later
        // insertion sequence numbers than in-flight deliveries already
        // scheduled at `now`, letting newer messages overtake the
        // backlog and breaking per-link FIFO.
        let backlog = std::mem::take(&mut self.sites[site.index()].backlog);
        for msg in backlog {
            self.deliver(now, site, msg);
        }
        self.maybe_mark_recovered(now, site);
    }

    /// Close the recovery interval once the restarted site has caught
    /// up: applier idle and no update-carrying subtransaction queued
    /// (DAG(T) dummies keep flowing and don't count as recovery work).
    /// The recovery instant is floored at `replay_done` (an empty
    /// backlog still pays for WAL replay).
    pub(crate) fn maybe_mark_recovered(&mut self, now: SimTime, site: SiteId) {
        let st = &self.sites[site.index()];
        if st.up && st.recovering && st.no_pending_updates() {
            let at = now.max(st.replay_done);
            self.sites[site.index()].recovering = false;
            self.metrics.on_recovered(site, at);
        }
    }
}
