//! DAG(T)'s timer contract (§3.3), as a driver sees it: the machine
//! decides when a source's epoch moves and which children get a dummy,
//! and the driver only tells it the time.
//!
//! A fleet of clocked machines over a generated DAG placement is driven
//! through random commits, deliveries, crashes, untimed heartbeats and
//! `Timer`s, with one
//! clock that never runs backwards. Beside it runs a model of the rules
//! built only from what the machines emitted: when each child was last
//! sent a subtransaction, and when each timer is due. After every step:
//!
//! * an epoch moves only at a source: by one at a `Timer` once its due
//!   time is reached, and by one at a crash — a site with parents only
//!   follows the epochs its parents sent it;
//! * a `Timer` sends a dummy to exactly the children idle for at least
//!   one heartbeat period, a child never sent to counting as idle;
//! * `next_deadline` is the earliest due time, and `None` at a site with
//!   neither children nor a source's epoch, and from a crash to the
//!   `Timer` that re-arms;
//! * a machine without a `Tuning`, or under any other protocol, ignores
//!   `Timer` and has no deadline.
//!
//! Two example tests pin the deadline's exact values under
//! [`Tuning::PAPER`] and the restart rule.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use repl_copygraph::DataPlacement;
use repl_protocol::{
    Command, Input, Payload, ProtocolId, Routing, SiteMachine, StableDigest, SubtxnKind, TreeKind,
    Tuning,
};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

/// A placement over `n` sites numbered in topological order: item `k`
/// is primary at `primary % n` and copied at each later site whose bit
/// is set in `mask`.
fn placement(n: u32, items: &[(u32, u32)]) -> DataPlacement {
    let mut p = DataPlacement::new(n);
    for &(primary, mask) in items {
        let primary = primary % n;
        let replicas: Vec<SiteId> =
            (primary + 1..n).filter(|q| mask & (1 << q) != 0).map(SiteId).collect();
        p.add_item(SiteId(primary), &replicas);
    }
    p
}

/// Every site's machine under `protocol`, with `tuning` attached if any.
fn machines(p: &DataPlacement, protocol: ProtocolId, tuning: Option<&Tuning>) -> Vec<SiteMachine> {
    let Routing { graph, tree, .. } =
        Routing::build(protocol.into(), p, TreeKind::Chain).expect("a forward placement routes");
    let p = Arc::new(p.clone());
    p.sites()
        .map(|s| {
            let m = SiteMachine::new(s, protocol, p.clone(), graph.clone(), tree.clone())
                .expect("the routing carries the tree");
            match tuning {
                Some(t) => m.with_tuning(t),
                None => m,
            }
        })
        .collect()
}

/// The model's view of one site's timers.
#[derive(Clone, Debug)]
struct Model {
    children: Vec<SiteId>,
    source: bool,
    armed: bool,
    heartbeat_due: Option<u64>,
    epoch_due: Option<u64>,
    last_sent: BTreeMap<SiteId, u64>,
    /// A source's epoch: what its timers and crashes made it.
    epoch: u64,
    /// The highest epoch any parent sent this site.
    parent_epoch: u64,
    down: bool,
}

impl Model {
    fn arm(&mut self, now: u64, epoch: u64) {
        self.armed = true;
        self.heartbeat_due = (!self.children.is_empty()).then(|| now.saturating_add(1));
        self.epoch_due = self.source.then(|| now.saturating_add(epoch));
    }

    fn deadline(&self) -> Option<u64> {
        if !self.armed {
            return None;
        }
        [self.heartbeat_due, self.epoch_due].into_iter().flatten().min()
    }
}

struct Fleet {
    machines: Vec<SiteMachine>,
    models: Vec<Model>,
    links: BTreeMap<(SiteId, SiteId), VecDeque<Payload>>,
    placement: DataPlacement,
    heartbeat: u64,
    epoch: u64,
    now: u64,
    seq: u64,
}

impl Fleet {
    /// Feed `input` to `site` at the fleet's time and carry out what it
    /// emits, depth-first as the live site does; the link sends it made.
    fn feed(&mut self, site: SiteId, input: Input) -> Vec<(SiteId, Payload)> {
        let mut sent = Vec::new();
        let mut work = VecDeque::from([input]);
        while let Some(input) = work.pop_front() {
            let m = &mut self.machines[site.index()];
            m.set_now(self.now);
            let cmds = m.on_input(input).expect("a legal input");
            let mut next = Vec::new();
            for cmd in cmds {
                match cmd {
                    Command::Send { to, payload } => {
                        if let Payload::Subtxn(_) = payload {
                            self.models[site.index()].last_sent.insert(to, self.now);
                        }
                        self.links.entry((site, to)).or_default().push_back(payload.clone());
                        sent.push((to, payload));
                    }
                    Command::Apply { gid, .. } => next.push(Input::Applied { gid }),
                    Command::CommitLocal { gid } => {
                        let item = self.placement.primaries_at(site)[0];
                        let writes = vec![(item, Value::int(gid.seq as i64))];
                        next.push(Input::Committed { gid, writes });
                    }
                    other => panic!("DAG(T) emitted {other:?}"),
                }
            }
            for input in next.into_iter().rev() {
                work.push_front(input);
            }
        }
        sent
    }

    fn commit(&mut self, site: SiteId) {
        let Some(&item) = self.placement.primaries_at(site).first() else { return };
        self.seq += 1;
        let gid = GlobalTxnId::new(site, self.seq);
        let writes = vec![(item, Value::int(self.seq as i64))];
        self.feed(site, Input::CommitIntent { gid, writes });
    }

    fn deliver(&mut self, pick: usize) {
        let up: Vec<(SiteId, SiteId)> = self
            .links
            .iter()
            .filter(|&(&(_, to), q)| !q.is_empty() && !self.models[to.index()].down)
            .map(|(&k, _)| k)
            .collect();
        if up.is_empty() {
            return;
        }
        let (from, to) = up[pick % up.len()];
        let payload =
            self.links.get_mut(&(from, to)).and_then(VecDeque::pop_front).expect("non-empty");
        if let Payload::Subtxn(sub) = &payload {
            let epoch = sub.ts.as_ref().expect("DAG(T) stamps").epoch;
            let model = &mut self.models[to.index()];
            model.parent_epoch = model.parent_epoch.max(epoch);
        }
        self.feed(to, Input::Deliver { from, payload });
    }

    /// A `Timer` at `site`, checked against the model.
    fn timer(&mut self, site: SiteId) -> Result<(), TestCaseError> {
        let now = self.now;
        let before = self.machines[site.index()].site_ts().epoch;
        let model = &self.models[site.index()];
        let restart = !model.armed;
        let epoch_fires = !restart && model.epoch_due.is_some_and(|due| now >= due);
        let heartbeat_fires = !restart && model.heartbeat_due.is_some_and(|due| now >= due);
        let idle: Vec<SiteId> = if heartbeat_fires {
            let h = self.heartbeat;
            let quiet = |c: &SiteId| model.last_sent.get(c).is_none_or(|&t| now - t >= h);
            model.children.iter().copied().filter(quiet).collect()
        } else {
            Vec::new()
        };
        let sent = self.feed(site, Input::Timer { now_us: now });
        let dummies: Vec<SiteId> = sent
            .iter()
            .map(|(to, payload)| match payload {
                Payload::Subtxn(sub) if sub.kind == SubtxnKind::Dummy => *to,
                other => panic!("a timer sent {other:?}"),
            })
            .collect();
        prop_assert_eq!(&dummies, &idle, "dummies at {site} at {now}us: {dummies:?}, not {idle:?}");
        let after = self.machines[site.index()].site_ts().epoch;
        let want = before + u64::from(epoch_fires);
        prop_assert_eq!(after, want, "epoch at {site} at {now}us: {after}, not {want}");
        let (heartbeat, epoch) = (self.heartbeat, self.epoch);
        let model = &mut self.models[site.index()];
        model.epoch = after;
        if restart {
            model.arm(now, epoch);
            model.down = false;
        }
        if epoch_fires {
            model.epoch_due = Some(now.saturating_add(epoch));
        }
        if heartbeat_fires {
            model.heartbeat_due = Some(now.saturating_add(heartbeat));
        }
        Ok(())
    }

    fn crash(&mut self, site: SiteId) -> Result<(), TestCaseError> {
        let before = self.machines[site.index()].site_ts().epoch;
        let cmds = self.machines[site.index()].on_input(Input::Crashed).expect("a crash");
        prop_assert!(cmds.is_empty());
        let model = &mut self.models[site.index()];
        let after = self.machines[site.index()].site_ts().epoch;
        let want = before + u64::from(model.source);
        prop_assert_eq!(after, want, "epoch at {site} after a crash: {after}, not {want}");
        model.epoch = after;
        model.armed = false;
        model.down = true;
        Ok(())
    }

    /// What holds between steps at every site.
    fn check(&self) -> Result<(), TestCaseError> {
        for (m, model) in self.machines.iter().zip(&self.models) {
            let (got, want) = (m.next_deadline(), model.deadline());
            prop_assert_eq!(got, want, "deadline at {}: {got:?}, not {want:?}", m.me());
            let epoch = m.site_ts().epoch;
            if model.source {
                prop_assert_eq!(epoch, model.epoch, "{} moved its epoch untimed", m.me());
            } else {
                prop_assert!(epoch <= model.parent_epoch, "{} leads its parents", m.me());
            }
        }
        Ok(())
    }
}

fn arb_items() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..4, 0u32..16), 1..7)
}

proptest! {
    #[test]
    fn the_machine_times_dummies_and_epochs_as_the_rules_say(
        n in 2u32..5,
        items in arb_items(),
        heartbeat in 0u64..30,
        epoch in 0u64..60,
        steps in prop::collection::vec((0u8..9, 0u32..64, 0u64..25), 1..80),
    ) {
        let placement = placement(n, &items);
        let tuning = Tuning {
            heartbeat_period: Duration::from_micros(heartbeat),
            epoch_period: Duration::from_micros(epoch),
            ..Tuning::PAPER
        };
        let machines = machines(&placement, ProtocolId::DagT, Some(&tuning));
        let models = machines
            .iter()
            .map(|m| {
                let mut model = Model {
                    children: m.children().collect(),
                    source: m.is_source(),
                    armed: false,
                    heartbeat_due: None,
                    epoch_due: None,
                    last_sent: BTreeMap::new(),
                    epoch: 0,
                    parent_epoch: 0,
                    down: false,
                };
                model.arm(0, epoch);
                model
            })
            .collect();
        let mut fleet = Fleet {
            machines,
            models,
            links: BTreeMap::new(),
            placement,
            heartbeat,
            epoch,
            now: 0,
            seq: 0,
        };
        fleet.check()?;
        for (kind, pick, dt) in steps {
            let site = SiteId(pick % n);
            let down = fleet.models[site.index()].down;
            match kind {
                0 | 1 if !down => fleet.commit(site),
                2 | 3 => fleet.deliver(pick as usize),
                4..=6 => {
                    fleet.now += dt;
                    fleet.timer(site)?;
                }
                7 if !down && dt < 3 => fleet.crash(site)?,
                8 if !down => {
                    let idle_children = fleet.models[site.index()].children.clone();
                    fleet.feed(site, Input::HeartbeatTick { idle_children });
                }
                _ => {}
            }
            fleet.check()?;
        }
    }

    #[test]
    fn an_untimed_machine_or_another_protocol_ignores_the_time(
        n in 2u32..5,
        items in arb_items(),
        protocol in 0u8..4,
        times in prop::collection::vec(0u64..100_000, 1..10),
    ) {
        let placement = placement(n, &items);
        let (protocol, tuning) = match protocol {
            0 => (ProtocolId::DagT, None),
            1 => (ProtocolId::DagWt, Some(Tuning::PAPER)),
            2 => (ProtocolId::BackEdge, Some(Tuning::PAPER)),
            _ => (ProtocolId::NaiveLazy, Some(Tuning::PAPER)),
        };
        let digest = |m: &SiteMachine| {
            let mut d = StableDigest::new();
            m.fingerprint(&mut d);
            d.finish()
        };
        let mut now = 0;
        for mut m in machines(&placement, protocol, tuning.as_ref()) {
            let before = digest(&m);
            for &dt in &times {
                now += dt;
                m.set_now(now);
                prop_assert_eq!(m.on_input(Input::Timer { now_us: now }), Ok(Vec::new()));
                prop_assert_eq!(m.next_deadline(), None);
            }
            prop_assert_eq!(digest(&m), before);
        }
    }
}

/// `chain3` (s0's item copied at s1 and s2, s1's at s2) under
/// `protocol`, with [`Tuning::PAPER`]'s timers attached.
fn clocked_chain3(protocol: ProtocolId) -> Vec<SiteMachine> {
    machines(&placement(3, &[(0, 0b110), (1, 0b100), (2, 0)]), protocol, Some(&Tuning::PAPER))
}

/// The dummies a timer at `now` sent, by child.
fn timer(m: &mut SiteMachine, now: u64) -> Vec<SiteId> {
    let cmds = m.on_input(Input::Timer { now_us: now }).expect("a timer");
    cmds.iter()
        .map(|c| match c {
            Command::Send { to, payload: Payload::Subtxn(sub) } => {
                assert_eq!(sub.kind, SubtxnKind::Dummy);
                *to
            }
            other => panic!("a timer emitted {other:?}"),
        })
        .collect()
}

/// The deadline, pinned under `PAPER`'s 25 ms heartbeat and 50 ms
/// epoch: none at a DAG(WT) site, or at DAG(T)'s leaf s2, which has
/// neither children nor a source's epoch; at s0 and s1 the heartbeat
/// is due 1 µs after boot, then every 25 ms, and s0's epoch at 50 ms.
#[test]
fn the_deadline_is_the_next_heartbeat_or_epoch_due_time() {
    assert!(clocked_chain3(ProtocolId::DagWt).iter().all(|m| m.next_deadline().is_none()));
    let [mut s0, mut s1, s2] = clocked_chain3(ProtocolId::DagT).try_into().unwrap();
    assert_eq!(
        [s0.next_deadline(), s1.next_deadline(), s2.next_deadline()],
        [Some(1), Some(1), None]
    );
    assert_eq!(timer(&mut s0, 1), [SiteId(1), SiteId(2)]);
    assert_eq!(s0.next_deadline(), Some(25_001));
    assert_eq!(timer(&mut s0, 25_001), [SiteId(1), SiteId(2)]);
    assert_eq!(s0.next_deadline(), Some(50_000));
    assert_eq!(timer(&mut s0, 50_000), []);
    assert_eq!(s0.site_ts().epoch, 1);
    assert_eq!(s0.next_deadline(), Some(50_001));
    // A child never sent to is idle; one sent a subtransaction 1 µs
    // before the heartbeat is not, and is again a period later.
    assert_eq!(timer(&mut s1, 1), [SiteId(2)]);
    s1.set_now(25_000);
    let writes = vec![(ItemId(1), Value::int(1))];
    let gid = GlobalTxnId::new(SiteId(1), 1);
    let sent = s1.on_input(Input::Committed { gid, writes }).unwrap();
    assert!(matches!(sent[..], [Command::Send { to: SiteId(2), .. }]));
    assert_eq!(s1.next_deadline(), Some(25_001));
    assert_eq!(timer(&mut s1, 25_001), []);
    assert_eq!(s1.next_deadline(), Some(50_001));
    assert_eq!(timer(&mut s1, 50_001), [SiteId(2)]);
    assert_eq!(s1.site_ts().epoch, 0, "s1 has a parent: no epoch timer");
}

/// A crash at a source bumps its epoch and stops its timers; the
/// next timer re-arms both from its time and sends nothing. At a
/// site with parents the crash moves no epoch.
#[test]
fn a_crash_bumps_a_source_epoch_and_the_next_timer_re_arms() {
    let [mut s0, mut s1, _] = clocked_chain3(ProtocolId::DagT).try_into().unwrap();
    assert_eq!(s0.on_input(Input::Crashed), Ok(Vec::new()));
    assert_eq!((s0.site_ts().epoch, s0.next_deadline()), (1, None));
    assert_eq!(timer(&mut s0, 70_000), []);
    assert_eq!(s0.next_deadline(), Some(70_001));
    assert_eq!(timer(&mut s0, 120_000), [SiteId(1), SiteId(2)]);
    assert_eq!(s0.site_ts().epoch, 2, "the epoch is due 50 ms after the restart");
    assert_eq!(s1.on_input(Input::Crashed), Ok(Vec::new()));
    assert_eq!((s1.site_ts().epoch, s1.next_deadline()), (0, None));
}
