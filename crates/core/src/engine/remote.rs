//! Remote locking for PSL and Eager: proxy transactions at primary sites.
//!
//! PSL (§5.1): a read of an item whose primary copy is remote ships a
//! shared-lock request to the primary site; the lock is held by a *proxy*
//! transaction there until the reader commits or aborts, and the grant
//! message carries the current value (here: its logical writer, which is
//! what the history checker needs). Updates touch only the local primary
//! copy and are never pushed — "updates are propagated in the system
//! lazily when the item is actually accessed".
//!
//! Eager reuses the same machinery with exclusive locks: a write op
//! provisionally installs the new value at every replica under X locks,
//! and the commit broadcast makes the proxies commit (read-one-write-all
//! + commit decision, the §1 motivation for lazy protocols).

use repl_sim::SimTime;
use repl_types::{GlobalTxnId, ItemId, SiteId, StorageError, Value};

use super::event::{Event, Message, TimeoutScope};
use super::site::{Owner, PendingProxyReq, PrimaryPhase, ProxyState};
use super::Engine;

impl Engine {
    /// PSL: issue the remote shared-lock request for the current read op.
    pub(crate) fn issue_remote_lock(
        &mut self,
        now: SimTime,
        site: SiteId,
        thread: u32,
        item: ItemId,
        exclusive: bool,
        value: Option<Value>,
    ) {
        let target = self.placement.primary_of(item);
        let (gid, wait_seq) = {
            let a = self.active_mut(site, thread).expect("remote lock without txn");
            a.phase = PrimaryPhase::WaitingRemote(1);
            a.wait_seq += 1;
            if !a.proxy_sites.contains(&target) {
                a.proxy_sites.push(target);
            }
            (a.gid, a.wait_seq)
        };
        self.send(
            now,
            site,
            target,
            Message::RemoteLockReq {
                item,
                exclusive,
                value,
                gid,
                origin_site: site,
                origin_thread: thread,
            },
        );
        self.schedule_timeout(now, site, TimeoutScope::PrimaryRemote { thread }, wait_seq);
    }

    /// Eager: X-lock and provisionally install the written value at every
    /// replica site before the write op completes.
    pub(crate) fn issue_eager_writes(
        &mut self,
        now: SimTime,
        site: SiteId,
        thread: u32,
        item: ItemId,
        value: Value,
        replicas: Vec<SiteId>,
    ) {
        let (gid, wait_seq) = {
            let a = self.active_mut(site, thread).expect("eager write without txn");
            a.phase = PrimaryPhase::WaitingRemote(replicas.len() as u32);
            a.wait_seq += 1;
            for &r in &replicas {
                if !a.proxy_sites.contains(&r) {
                    a.proxy_sites.push(r);
                }
            }
            (a.gid, a.wait_seq)
        };
        for r in replicas {
            self.send(
                now,
                site,
                r,
                Message::RemoteLockReq {
                    item,
                    exclusive: true,
                    value: Some(value.clone()),
                    gid,
                    origin_site: site,
                    origin_thread: thread,
                },
            );
        }
        self.schedule_timeout(now, site, TimeoutScope::PrimaryRemote { thread }, wait_seq);
    }

    /// A lock request arrives at the serving site.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recv_remote_lock_req(
        &mut self,
        now: SimTime,
        to: SiteId,
        item: ItemId,
        exclusive: bool,
        value: Option<Value>,
        gid: GlobalTxnId,
        origin_site: SiteId,
        origin_thread: u32,
    ) {
        if gid.seq < self.sites[origin_site.index()].crash_seq {
            // The origin crashed since it sent this: the failure detector
            // (`site_crash`) would have aborted the proxy it makes.
            return;
        }
        let st = &mut self.sites[to.index()];
        let local = match st.proxies.get(&gid) {
            Some(p) => p.local,
            None => {
                let local = st.store.begin();
                st.owner.insert(local, Owner::Proxy { gid });
                st.proxies.insert(gid, ProxyState { local, pending: None });
                local
            }
        };
        let outcome = if exclusive {
            st.store
                .write(local, item, value.clone().expect("eager write carries a value"), gid)
                .map(|()| None)
        } else {
            st.store.read(local, item).map(|r| Some(r.writer))
        };
        match outcome {
            Ok(writer) => {
                self.finish_proxy_request(now, to, gid, item, writer, origin_site, origin_thread)
            }
            Err(StorageError::WouldBlock(_)) => {
                let st = &mut self.sites[to.index()];
                st.proxies.get_mut(&gid).expect("inserted above").pending =
                    Some(PendingProxyReq { item, exclusive, value, origin_site, origin_thread });
                // The origin's remote wait carries the timeout.
                self.lock_wait(now, to, None);
            }
            Err(e) => panic!("proxy access to {item} at {to} failed: {e}"),
        }
    }

    /// Complete a granted proxy request: charge service CPU, ship the
    /// grant back to the origin.
    #[allow(clippy::too_many_arguments)] // mirrors the RemoteLockGrant wire fields
    fn finish_proxy_request(
        &mut self,
        now: SimTime,
        site: SiteId,
        gid: GlobalTxnId,
        item: ItemId,
        writer: Option<Option<GlobalTxnId>>,
        origin_site: SiteId,
        origin_thread: u32,
    ) {
        let done = self.sites[site.index()].cpu.run(now, self.params.op_cpu);
        self.send(
            done,
            site,
            origin_site,
            Message::RemoteLockGrant { gid, origin_thread, item, ok: true, writer },
        );
    }

    /// A blocked proxy's lock was granted by a local release.
    pub(crate) fn resume_proxy(&mut self, now: SimTime, site: SiteId, gid: GlobalTxnId) {
        let Some(pending) =
            self.sites[site.index()].proxies.get_mut(&gid).and_then(|p| p.pending.take())
        else {
            return;
        };
        let local = self.sites[site.index()].proxies[&gid].local;
        let st = &mut self.sites[site.index()];
        let outcome = if pending.exclusive {
            st.store
                .write(local, pending.item, pending.value.clone().expect("value"), gid)
                .map(|()| None)
        } else {
            st.store.read(local, pending.item).map(|r| Some(r.writer))
        };
        match outcome {
            Ok(writer) => self.finish_proxy_request(
                now,
                site,
                gid,
                pending.item,
                writer,
                pending.origin_site,
                pending.origin_thread,
            ),
            Err(e) => panic!("resumed proxy still blocked at {site}: {e}"),
        }
    }

    /// Waits-for deadlock detection chose a blocked proxy as victim: abort
    /// it and deny the origin.
    pub(crate) fn deny_proxy(&mut self, now: SimTime, site: SiteId, gid: GlobalTxnId) {
        let Some(proxy) = self.sites[site.index()].proxies.remove(&gid) else {
            return;
        };
        self.sites[site.index()].owner.remove(&proxy.local);
        let granted = self.sites[site.index()].store.abort(proxy.local).expect("abort live proxy");
        self.resume_granted(now, site, granted);
        if let Some(p) = proxy.pending {
            self.send(
                now,
                site,
                p.origin_site,
                Message::RemoteLockGrant {
                    gid,
                    origin_thread: p.origin_thread,
                    item: p.item,
                    ok: false,
                    writer: None,
                },
            );
        }
    }

    /// A grant (or denial) arrives back at the origin.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recv_remote_lock_grant(
        &mut self,
        now: SimTime,
        to: SiteId,
        gid: GlobalTxnId,
        origin_thread: u32,
        item: ItemId,
        ok: bool,
        writer: Option<Option<GlobalTxnId>>,
    ) {
        let matches_attempt = self.active(to, origin_thread).map(|a| a.gid == gid).unwrap_or(false);
        if !matches_attempt {
            // Stale grant for an aborted attempt; the abort already sent
            // ProxyRelease(abort) to every proxy site, so nothing to do.
            return;
        }
        if !ok {
            // Only a live remote wait can be aborted by a denial. If the
            // attempt is parked between a timeout abort and its retry
            // (same gid, local txn already rolled back), the denial is
            // stale — acting on it would double-abort.
            let waiting = matches!(
                self.active(to, origin_thread).map(|a| a.phase),
                Some(PrimaryPhase::WaitingRemote(_))
            );
            if waiting {
                self.abort_primary(now, to, origin_thread, false);
            }
            return;
        }
        let remaining = {
            let a = self.active_mut(to, origin_thread).expect("checked above");
            let PrimaryPhase::WaitingRemote(n) = a.phase else {
                return; // stale (phase moved on)
            };
            if let Some(w) = writer {
                a.remote_reads.push((item, w));
            }
            let n = n - 1;
            a.phase = PrimaryPhase::WaitingRemote(n);
            n
        };
        if remaining == 0 {
            let gid = {
                let a = self.active_mut(to, origin_thread).unwrap();
                a.phase = PrimaryPhase::Executing;
                a.wait_seq += 1;
                a.gid
            };
            let at = self.sites[to.index()].cpu.run(now, self.params.op_cpu);
            self.queue.push_at(at, Event::PrimaryOpDone { site: to, thread: origin_thread, gid });
        }
    }

    /// The origin committed/aborted: finish the proxy accordingly.
    pub(crate) fn recv_proxy_release(
        &mut self,
        now: SimTime,
        to: SiteId,
        gid: GlobalTxnId,
        commit: bool,
    ) {
        let Some(proxy) = self.sites[to.index()].proxies.remove(&gid) else {
            return; // proxy already denied/aborted
        };
        self.sites[to.index()].owner.remove(&proxy.local);
        let granted = if proxy.pending.is_some() || !commit {
            // A pending request can only exist on the abort path.
            self.sites[to.index()].store.abort(proxy.local).expect("abort live proxy")
        } else {
            let (info, granted) =
                self.sites[to.index()].store.commit(proxy.local).expect("commit live proxy");
            if !info.writes.is_empty() {
                // Eager: the provisional writes just became visible.
                self.metrics.on_apply(gid, now);
            }
            granted
        };
        self.resume_granted(now, to, granted);
    }

    /// Origin-side helper: tell every proxy site to commit/abort.
    pub(crate) fn release_proxies(
        &mut self,
        now: SimTime,
        site: SiteId,
        a: &super::site::ActivePrimary,
        commit: bool,
    ) {
        for &p in &a.proxy_sites {
            self.send(now, site, p, Message::ProxyRelease { gid: a.gid, commit });
        }
    }
}
