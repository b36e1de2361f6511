//! Primary-subtransaction driving: worker threads, operation execution,
//! local locking, timeouts, commit and retry.

use repl_protocol::{destinations, write_set_in_order, Command as ProtoCommand, Input};
use repl_sim::SimTime;
use repl_types::{GlobalTxnId, OpKind, SiteId, StorageError};

use crate::config::{DeadlockMode, ProtocolKind};

use super::event::{Event, Message, TimeoutScope};
use super::site::{ActivePrimary, Owner, PrimaryPhase};
use super::Engine;

impl Engine {
    /// True when the thread's current transaction may run as a lock-free
    /// MVCC snapshot read: the option is on and every operation is a read
    /// of an item with a local copy (remote reads still go through PSL's
    /// proxy path, which needs real locks).
    fn snapshot_eligible(&self, site: SiteId, thread: u32) -> bool {
        if !self.mvcc {
            return false;
        }
        let ops = self.sites[site.index()].threads[thread as usize].current_ops();
        !ops.is_empty()
            && ops
                .iter()
                .all(|op| op.kind == OpKind::Read && self.placement.has_copy(site, op.item))
    }

    pub(crate) fn start_thread_txn(&mut self, now: SimTime, site: SiteId, thread: u32) {
        let st = &mut self.sites[site.index()];
        let ts = &mut st.threads[thread as usize];
        debug_assert!(ts.active.is_none(), "thread already has an active txn");
        if ts.finished() {
            return;
        }
        let snapshot = self
            .snapshot_eligible(site, thread)
            .then(|| self.sites[site.index()].store.begin_snapshot());
        let gid = self.sites[site.index()].fresh_gid();
        let local = self.sites[site.index()].store.begin();
        self.sites[site.index()].owner.insert(local, Owner::Primary { thread });
        self.sites[site.index()].threads[thread as usize].active = Some(ActivePrimary {
            gid,
            local,
            pc: 0,
            first_started: now,
            phase: PrimaryPhase::Executing,
            wait_seq: 0,
            remote_reads: Vec::new(),
            proxy_sites: Vec::new(),
            snapshot,
            snap_reads: Vec::new(),
        });
        self.try_op(now, site, thread);
    }

    /// Retry after a deadlock abort: a fresh attempt of the same program,
    /// keeping the original start time for response-time accounting.
    pub(crate) fn retry_thread(&mut self, now: SimTime, site: SiteId, thread: u32) {
        let st = &mut self.sites[site.index()];
        let ts = &mut st.threads[thread as usize];
        let Some(prev) = ts.active.take() else {
            return;
        };
        debug_assert_eq!(prev.phase, PrimaryPhase::WaitingLock, "retry from a live txn");
        let gid = st.fresh_gid();
        let local = st.store.begin();
        st.owner.insert(local, Owner::Primary { thread });
        let snapshot = self
            .snapshot_eligible(site, thread)
            .then(|| self.sites[site.index()].store.begin_snapshot());
        self.sites[site.index()].threads[thread as usize].active = Some(ActivePrimary {
            gid,
            local,
            pc: 0,
            first_started: prev.first_started,
            phase: PrimaryPhase::Executing,
            wait_seq: 0,
            remote_reads: Vec::new(),
            proxy_sites: Vec::new(),
            snapshot,
            snap_reads: Vec::new(),
        });
        self.try_op(now, site, thread);
    }

    /// Attempt the current operation. On success a CPU slice is scheduled;
    /// on a lock conflict the transaction blocks.
    pub(crate) fn try_op(&mut self, now: SimTime, site: SiteId, thread: u32) {
        let (pc, done, gid) = {
            let a = self.active(site, thread).expect("try_op without active txn");
            (
                a.pc,
                a.pc >= self.sites[site.index()].threads[thread as usize].current_ops().len(),
                a.gid,
            )
        };
        if done {
            self.begin_commit_phase(now, site, thread);
            return;
        }
        let op = self.sites[site.index()].threads[thread as usize].current_ops()[pc].clone();
        match op.kind {
            OpKind::Read => {
                if let Some(snap) = self.active(site, thread).unwrap().snapshot {
                    // MVCC: serve from the pinned snapshot — never blocks,
                    // takes no locks (eligibility checked at txn start).
                    let writer = match self.sites[site.index()].store.read_snapshot(snap, op.item) {
                        Ok(r) => r.writer,
                        Err(e) => panic!("snapshot read failed at {site}: {e}"),
                    };
                    self.active_mut(site, thread).unwrap().snap_reads.push((op.item, writer));
                    self.schedule_op_cpu(now, site, thread, gid);
                    return;
                }
                let is_remote = self.params.protocol == ProtocolKind::Psl
                    && self.placement.primary_of(op.item) != site;
                if is_remote {
                    self.issue_remote_lock(now, site, thread, op.item, false, None);
                    return;
                }
                let local = self.active(site, thread).unwrap().local;
                match self.sites[site.index()].store.read(local, op.item) {
                    Ok(_) => self.schedule_op_cpu(now, site, thread, gid),
                    Err(StorageError::WouldBlock(_)) => self.block_primary(now, site, thread),
                    Err(e) => panic!("read failed at {site}: {e}"),
                }
            }
            OpKind::Write => {
                debug_assert_eq!(
                    self.placement.primary_of(op.item),
                    site,
                    "transactions may only update items with a local primary (§1.1)"
                );
                let local = self.active(site, thread).unwrap().local;
                match self.sites[site.index()].store.write(local, op.item, op.value.clone(), gid) {
                    Ok(()) => {
                        if self.params.protocol == ProtocolKind::Eager {
                            // Eager: X-lock (and provisionally install at)
                            // every replica before the op completes.
                            let replicas: Vec<SiteId> =
                                self.placement.replicas_of(op.item).to_vec();
                            if !replicas.is_empty() {
                                self.issue_eager_writes(
                                    now, site, thread, op.item, op.value, replicas,
                                );
                                return;
                            }
                        }
                        self.schedule_op_cpu(now, site, thread, gid);
                    }
                    Err(StorageError::WouldBlock(_)) => self.block_primary(now, site, thread),
                    Err(e) => panic!("write failed at {site}: {e}"),
                }
            }
        }
    }

    fn schedule_op_cpu(&mut self, now: SimTime, site: SiteId, thread: u32, gid: GlobalTxnId) {
        let at = self.sites[site.index()].cpu.run(now, self.params.op_cpu);
        self.queue.push_at(at, Event::PrimaryOpDone { site, thread, gid });
    }

    fn block_primary(&mut self, now: SimTime, site: SiteId, thread: u32) {
        let wait_seq = {
            let a = self.active_mut(site, thread).expect("blocking a missing txn");
            a.phase = PrimaryPhase::WaitingLock;
            a.wait_seq += 1;
            a.wait_seq
        };
        // The timeout is scheduled in both modes: waits-for detection only
        // sees site-local cycles, and PSL/Eager/BackEdge can weave global
        // deadlocks through proxies and prepared subtransactions that no
        // local graph ever closes.
        self.schedule_timeout(now, site, TimeoutScope::PrimaryLocal { thread }, wait_seq);
        if self.params.deadlock_mode == DeadlockMode::WaitsFor {
            self.detect_and_break_deadlock(now, site);
        }
    }

    pub(crate) fn primary_op_done(
        &mut self,
        now: SimTime,
        site: SiteId,
        thread: u32,
        gid: GlobalTxnId,
    ) {
        let valid = self
            .active(site, thread)
            .map(|a| a.gid == gid && a.phase == PrimaryPhase::Executing)
            .unwrap_or(false);
        if !valid {
            return; // stale slice from an aborted attempt
        }
        let a = self.active_mut(site, thread).unwrap();
        a.pc += 1;
        self.try_op(now, site, thread);
    }

    /// A blocked primary's lock was granted: resume the pending op.
    pub(crate) fn resume_primary(&mut self, now: SimTime, site: SiteId, thread: u32) {
        let Some(a) = self.active_mut(site, thread) else { return };
        if a.phase != PrimaryPhase::WaitingLock {
            return;
        }
        a.phase = PrimaryPhase::Executing;
        a.wait_seq += 1;
        self.try_op(now, site, thread);
    }

    /// All operations executed: ask the machine whether the commit may
    /// proceed now ([`ProtoCommand::CommitLocal`]) or must first run a
    /// BackEdge eager phase (§4.1). PSL/Eager have no machine — their
    /// replica coordination happened per-op through proxies — and commit
    /// immediately.
    fn begin_commit_phase(&mut self, now: SimTime, site: SiteId, thread: u32) {
        if self.sites[site.index()].machine.is_none() {
            self.schedule_commit_cpu(now, site, thread);
            return;
        }
        let (gid, writes) = {
            let ops = self.sites[site.index()].threads[thread as usize].current_ops();
            let writes = write_set_in_order(ops);
            (self.active(site, thread).expect("commit without txn").gid, writes)
        };
        let cmds = self.machine_input(site, Input::CommitIntent { gid, writes });
        let immediate = cmds.iter().any(|c| matches!(c, ProtoCommand::CommitLocal { .. }));
        if !immediate {
            // BackEdge eager phase: park the thread *before* running the
            // machine's Send/ArmEagerTimeout commands, which read the
            // bumped wait sequence.
            let a = self.active_mut(site, thread).expect("checked above");
            a.phase = PrimaryPhase::WaitingBackedge;
            a.wait_seq += 1;
        }
        self.run_commands(now, site, cmds);
    }

    /// Execute a machine-issued `CommitLocal`: the transaction may commit
    /// now — either immediately at commit intent, or because its BackEdge
    /// special arrived home through the FIFO queue (§4.1 step 3).
    pub(crate) fn commit_local_ready(&mut self, now: SimTime, site: SiteId, gid: GlobalTxnId) {
        let thread = (0..self.sites[site.index()].threads.len() as u32).find(|&t| {
            self.active(site, t)
                .map(|a| {
                    a.gid == gid
                        && matches!(
                            a.phase,
                            PrimaryPhase::Executing | PrimaryPhase::WaitingBackedge
                        )
                })
                .unwrap_or(false)
        });
        if let Some(thread) = thread {
            self.schedule_commit_cpu(now, site, thread);
        }
    }

    pub(crate) fn schedule_commit_cpu(&mut self, now: SimTime, site: SiteId, thread: u32) {
        let gid = {
            let a = self.active_mut(site, thread).expect("commit without txn");
            a.phase = PrimaryPhase::Committing;
            a.wait_seq += 1;
            a.gid
        };
        // Group commit: only update transactions append WAL records, and
        // every `group_commit_batch`-th one at a site pays the batch's
        // fsync-equivalent (batch size 1 = classic per-commit durability).
        let updates = self.sites[site.index()].threads[thread as usize]
            .current_ops()
            .iter()
            .any(|op| op.kind == OpKind::Write);
        let mut cost = self.params.commit_cpu;
        if updates {
            let st = &mut self.sites[site.index()];
            st.commits_since_fsync += 1;
            if st.commits_since_fsync >= self.group_commit {
                st.commits_since_fsync = 0;
                cost = cost + self.params.fsync_cpu;
            }
        }
        let at = self.sites[site.index()].cpu.run(now, cost);
        self.queue.push_at(at, Event::PrimaryCommitDone { site, thread, gid });
    }

    pub(crate) fn primary_commit_done(
        &mut self,
        now: SimTime,
        site: SiteId,
        thread: u32,
        gid: GlobalTxnId,
    ) {
        let valid = self
            .active(site, thread)
            .map(|a| a.gid == gid && a.phase == PrimaryPhase::Committing)
            .unwrap_or(false);
        if !valid {
            return;
        }
        let a = self.sites[site.index()].threads[thread as usize]
            .active
            .take()
            .expect("validated above");
        self.sites[site.index()].owner.remove(&a.local);

        let (info, granted) =
            self.sites[site.index()].store.commit(a.local).expect("commit of live txn");
        self.resume_granted(now, site, granted);
        if let Some(snap) = a.snapshot {
            self.sites[site.index()].store.end_snapshot(snap);
        }

        // History: local reads plus remotely served reads (PSL) plus
        // MVCC snapshot reads.
        let mut reads = info.reads.clone();
        reads.extend(a.remote_reads.iter().copied());
        reads.extend(a.snap_reads.iter().copied());
        let writes = info.write_set();
        self.history.record_commit(gid, reads, writes.iter().map(|(i, _)| *i).collect());
        self.metrics.on_commit(site, now, a.first_started);
        self.sites[site.index()].wal_len += writes.len() as u64;

        // Propagation: the machine decides what to ship where.
        let dests = destinations(&self.placement, site, &writes);
        match self.params.protocol {
            ProtocolKind::Psl => {
                // Replica reads are served from primaries; no propagation.
                self.release_proxies(now, site, &a, true);
            }
            ProtocolKind::Eager => {
                self.metrics.expect_propagation(gid, dests.len(), now);
                self.release_proxies(now, site, &a, true);
            }
            _ => {
                self.metrics.expect_propagation(gid, dests.len(), now);
                let cmds = self.machine_input(site, Input::Committed { gid, writes });
                self.run_commands(now, site, cmds);
            }
        }

        // Thread advances to its next transaction.
        let ts = &mut self.sites[site.index()].threads[thread as usize];
        ts.next_txn += 1;
        if ts.finished() {
            self.live_threads -= 1;
        } else {
            self.queue.push_at(now, Event::StartThreadTxn { site, thread });
        }
    }

    /// Abort the thread's current attempt (deadlock victim) and schedule a
    /// retry. Handles local rollback, remote-proxy release and metrics.
    pub(crate) fn abort_primary(
        &mut self,
        now: SimTime,
        site: SiteId,
        thread: u32,
        _by_detection: bool,
    ) {
        let Some(a) = self.active(site, thread).cloned() else { return };
        // Roll back locally; this also cancels any queued lock request.
        self.sites[site.index()].owner.remove(&a.local);
        let granted = self.sites[site.index()].store.abort(a.local).expect("abort of live txn");
        self.resume_granted(now, site, granted);
        if let Some(snap) = a.snapshot {
            self.sites[site.index()].store.end_snapshot(snap);
        }
        // Tell remote proxies (PSL/Eager) to abort.
        for proxy_site in a.proxy_sites.iter().copied() {
            self.send(now, site, proxy_site, Message::ProxyRelease { gid: a.gid, commit: false });
        }
        self.metrics.on_abort();
        let st = &mut self.sites[site.index()].threads[thread as usize];
        let active = st.active.as_mut().expect("checked above");
        active.phase = PrimaryPhase::WaitingLock; // parked until retry
        active.wait_seq += 1;
        // Jittered backoff in [1x, 2x): fixed backoffs make deterministic
        // retries re-deadlock in exactly the same pattern forever.
        let backoff = self.params.retry_backoff + self.jitter(self.params.retry_backoff);
        self.queue.push_at(now + backoff, Event::RetryThread { site, thread });
    }

    pub(crate) fn primary_timeout(
        &mut self,
        now: SimTime,
        site: SiteId,
        thread: u32,
        scope: TimeoutScope,
        wait_seq: u64,
    ) {
        let Some(a) = self.active(site, thread) else { return };
        if a.wait_seq != wait_seq {
            return; // stale
        }
        let phase = a.phase;
        match (scope, phase) {
            (TimeoutScope::PrimaryLocal { .. }, PrimaryPhase::WaitingLock) => {
                self.abort_primary(now, site, thread, false)
            }
            (TimeoutScope::PrimaryRemote { .. }, PrimaryPhase::WaitingRemote(_)) => {
                self.abort_primary(now, site, thread, false)
            }
            (TimeoutScope::PrimaryEager { .. }, PrimaryPhase::WaitingBackedge) => {
                self.abort_eager_primary(now, site, thread)
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Small accessors.
    // ------------------------------------------------------------------

    pub(crate) fn active(&self, site: SiteId, thread: u32) -> Option<&ActivePrimary> {
        self.sites[site.index()].threads[thread as usize].active.as_ref()
    }

    pub(crate) fn active_mut(&mut self, site: SiteId, thread: u32) -> Option<&mut ActivePrimary> {
        self.sites[site.index()].threads[thread as usize].active.as_mut()
    }
}
