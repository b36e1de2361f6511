//! Deterministic fault plans: site crashes, link outages, delay jitter.
//!
//! The paper assumes reliable FIFO links (§1.1) and introduces epoch
//! numbers (§3.3) precisely so DAG(T) survives site failures. A
//! [`FaultPlan`] makes those failures injectable without giving up
//! reproducibility: every fault is a pure function of the plan's
//! declarative windows and its seed — no wall clock, no OS entropy.
//!
//! Two invariants the plan is designed around:
//!
//! * **Faults stall, they never reorder.** A link outage or jitter only
//!   *adds* delay; [`crate::Network`] then clamps the delivery time to be
//!   no earlier than the link's previous delivery, so per-link FIFO
//!   (§1.1) survives every fault schedule.
//! * **Crash windows are data, not events.** The plan lists when each
//!   site crashes and (optionally) restarts; the engine turns the list
//!   into `SiteCrash`/`SiteRestart` events at build time, so two runs of
//!   the same plan replay the same failure history.

use repl_types::{splitmix64, SiteId};

use crate::time::{SimDuration, SimTime};

/// One site failure: the site crashes at `at` and, if `restart` is set,
/// rejoins (with WAL replay) at that later instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// The site that fails.
    pub site: SiteId,
    /// Crash instant (virtual time).
    pub at: SimTime,
    /// Restart instant; `None` means the site stays down forever.
    pub restart: Option<SimTime>,
}

/// One transient outage of the ordered link `from → to`: messages whose
/// send falls inside `[start, end)` depart only at `end`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkOutage {
    /// Sending side of the affected ordered link.
    pub from: SiteId,
    /// Receiving side of the affected ordered link.
    pub to: SiteId,
    /// Outage start (inclusive).
    pub start: SimTime,
    /// Outage end (exclusive): first instant messages flow again.
    pub end: SimTime,
}

/// A declarative, seeded fault schedule consulted by [`crate::Network`]
/// and the engine. The empty plan ([`FaultPlan::none`]) injects nothing
/// and costs nothing.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Site crash/restart windows, in schedule order.
    pub crashes: Vec<CrashWindow>,
    /// Transient link outages.
    pub outages: Vec<LinkOutage>,
    /// Maximum extra per-message latency; each message on a jittered
    /// link draws a deterministic delay in `[0, max_jitter]`.
    pub max_jitter: SimDuration,
    /// Seed for the jitter stream (and for generated plans).
    pub seed: u64,
}

impl FaultPlan {
    /// The empty plan: no crashes, no outages, no jitter.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True if the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.outages.is_empty() && self.max_jitter == SimDuration::ZERO
    }

    /// Add a crash window (builder style).
    pub fn crash(mut self, site: SiteId, at: SimTime, restart: Option<SimTime>) -> Self {
        assert!(restart.is_none_or(|r| r > at), "restart must come strictly after the crash");
        self.crashes.push(CrashWindow { site, at, restart });
        self
    }

    /// Add a transient outage of the ordered link `from → to`.
    pub fn outage(mut self, from: SiteId, to: SiteId, start: SimTime, end: SimTime) -> Self {
        assert!(end > start, "outage must have positive length");
        self.outages.push(LinkOutage { from, to, start, end });
        self
    }

    /// Enable per-message delay jitter up to `max` on every link.
    pub fn jitter(mut self, max: SimDuration) -> Self {
        self.max_jitter = max;
        self
    }

    /// Set the seed the jitter stream derives from.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A generated plan: `count` crash/restart windows spread
    /// deterministically (from `seed`) over sites `0..num_sites` within
    /// `[horizon/8, horizon]`, each down for `downtime`. Used by the
    /// fault sweep to turn a scalar "crash intensity" axis into a
    /// concrete schedule.
    pub fn random_crashes(
        seed: u64,
        num_sites: u32,
        horizon: SimTime,
        count: u32,
        downtime: SimDuration,
    ) -> Self {
        let mut plan = FaultPlan::none().seeded(seed);
        let span = horizon.as_micros().saturating_sub(horizon.as_micros() / 8).max(1);
        let mut state = seed ^ 0xFA_17_FA_17_FA_17_FA_17;
        for k in 0..count {
            state = splitmix64(state.wrapping_add(k as u64));
            let site = SiteId((state % num_sites as u64) as u32);
            state = splitmix64(state);
            let at = SimTime(horizon.as_micros() / 8 + state % span);
            plan = plan.crash(site, at, Some(at + downtime));
        }
        plan
    }

    /// Extra delay for the `msg_index`-th message sent on `from → to` at
    /// `now`: outage deferral (wait out every window containing the
    /// send instant) plus deterministic jitter. Strictly additive — the
    /// caller's FIFO clamp does the rest.
    pub fn extra_delay(
        &self,
        now: SimTime,
        from: SiteId,
        to: SiteId,
        msg_index: u64,
    ) -> SimDuration {
        let mut depart = now;
        // Chase overlapping/chained windows: deferring past one outage
        // may land the departure inside another.
        loop {
            let next = self
                .outages
                .iter()
                .filter(|o| o.from == from && o.to == to && o.start <= depart && depart < o.end)
                .map(|o| o.end)
                .max();
            match next {
                Some(end) => depart = end,
                None => break,
            }
        }
        let mut extra = depart.since(now);
        if self.max_jitter > SimDuration::ZERO {
            let key = self
                .seed
                .wrapping_add((from.0 as u64) << 40)
                .wrapping_add((to.0 as u64) << 20)
                .wrapping_add(msg_index);
            let draw = splitmix64(key) % (self.max_jitter.as_micros() + 1);
            extra = extra + SimDuration::micros(draw);
        }
        extra
    }

    /// True if `site` is down at `now` under this plan (inside any crash
    /// window that has not yet restarted).
    pub fn is_down(&self, site: SiteId, now: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.site == site && c.at <= now && c.restart.is_none_or(|r| now < r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u32) -> SiteId {
        SiteId(n)
    }

    #[test]
    fn empty_plan_adds_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.extra_delay(SimTime(123), s(0), s(1), 0), SimDuration::ZERO);
        assert!(!plan.is_down(s(0), SimTime(999)));
    }

    #[test]
    fn outage_defers_to_window_end() {
        let plan = FaultPlan::none().outage(s(0), s(1), SimTime(100), SimTime(500));
        // Before / inside / at-end / after:
        assert_eq!(plan.extra_delay(SimTime(50), s(0), s(1), 0), SimDuration::ZERO);
        assert_eq!(plan.extra_delay(SimTime(100), s(0), s(1), 0), SimDuration::micros(400));
        assert_eq!(plan.extra_delay(SimTime(499), s(0), s(1), 0), SimDuration::micros(1));
        assert_eq!(plan.extra_delay(SimTime(500), s(0), s(1), 0), SimDuration::ZERO);
        // Other links unaffected, including the reverse direction.
        assert_eq!(plan.extra_delay(SimTime(200), s(1), s(0), 0), SimDuration::ZERO);
    }

    #[test]
    fn chained_outages_are_chased() {
        let plan = FaultPlan::none().outage(s(0), s(1), SimTime(100), SimTime(300)).outage(
            s(0),
            s(1),
            SimTime(250),
            SimTime(600),
        );
        // Deferring past the first window lands inside the second.
        assert_eq!(plan.extra_delay(SimTime(150), s(0), s(1), 0), SimDuration::micros(450));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let plan = FaultPlan::none().seeded(7).jitter(SimDuration::micros(200));
        for i in 0..64 {
            let d = plan.extra_delay(SimTime(0), s(0), s(1), i);
            assert!(d <= SimDuration::micros(200), "jitter out of bounds: {d:?}");
            assert_eq!(d, plan.extra_delay(SimTime(0), s(0), s(1), i), "not reproducible");
        }
        // Different seeds draw different streams (with overwhelming
        // probability over 64 draws).
        let other = FaultPlan::none().seeded(8).jitter(SimDuration::micros(200));
        assert!(
            (0..64).any(|i| plan.extra_delay(SimTime(0), s(0), s(1), i)
                != other.extra_delay(SimTime(0), s(0), s(1), i)),
            "seed has no effect on jitter"
        );
    }

    #[test]
    fn crash_windows_report_down_sites() {
        let plan = FaultPlan::none().crash(s(2), SimTime(1_000), Some(SimTime(5_000))).crash(
            s(3),
            SimTime(2_000),
            None,
        );
        assert!(!plan.is_down(s(2), SimTime(999)));
        assert!(plan.is_down(s(2), SimTime(1_000)));
        assert!(plan.is_down(s(2), SimTime(4_999)));
        assert!(!plan.is_down(s(2), SimTime(5_000)), "restarted site is up");
        assert!(plan.is_down(s(3), SimTime(1 << 40)), "no restart: down forever");
    }

    #[test]
    fn generated_plans_are_reproducible() {
        let horizon = SimTime(10_000_000);
        let a = FaultPlan::random_crashes(42, 9, horizon, 5, SimDuration::millis(200));
        let b = FaultPlan::random_crashes(42, 9, horizon, 5, SimDuration::millis(200));
        assert_eq!(a, b);
        assert_eq!(a.crashes.len(), 5);
        for c in &a.crashes {
            assert!(c.site.0 < 9);
            assert!(c.at.as_micros() >= horizon.as_micros() / 8);
            assert!(c.at <= horizon);
            assert_eq!(c.restart, Some(c.at + SimDuration::millis(200)));
        }
        let c = FaultPlan::random_crashes(43, 9, horizon, 5, SimDuration::millis(200));
        assert_ne!(a, c, "seed must vary the schedule");
    }
}
