//! Timing policy: every retry, backoff, timeout and pacing duration of
//! the live runtime, in one place. Each is a constant, but for what the
//! simulator reads too: [`RuntimeOptions::tuning`].
//!
//! Under fault injection fixed paces are exactly wrong: a fixed 20 ms
//! dial retry against a partitioned peer burns CPU and (worse)
//! synchronizes every dialer in the cluster into lockstep reconnect
//! storms. [`dial_delay`] is a jittered-exponential backoff seeded with
//! splitmix64 from the dialing pair, so two sites retrying one dead
//! peer draw different delays while a run with the same sites paces
//! identically — no OS entropy, matching the determinism story of the
//! simulator's `FaultPlan`.
//!
//! `crates/runtime/clippy.toml` disallows `std::thread::sleep` and the
//! wall-clock reads in the crate: the sanctioned sleep is [`pace`], and
//! the sanctioned read is [`Clock`]'s, each with its one `#[expect]`.

use std::time::{Duration, Instant};

use repl_protocol::Tuning;
use repl_types::{splitmix64, SiteId};

use crate::nemesis::NetFaultPlan;

/// How long `ClusterHandle::quiesce` (and the chaos drivers) wait for the
/// outstanding-application count to reach zero before giving up with a
/// typed `ClusterError::QuiesceTimeout`.
pub(crate) const QUIESCE_TIMEOUT: Duration = Duration::from_secs(60);

/// First dial retry delay (the backoff exponential's base).
pub(crate) const DIAL_BASE: Duration = Duration::from_millis(5);
/// Cap on any single dial retry delay.
pub(crate) const DIAL_MAX: Duration = Duration::from_millis(200);
/// Cap on one blocking `connect` attempt (loopback connects resolve in
/// microseconds; this bounds the pathological case of an address that
/// routes to a black hole).
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_millis(50);

/// Peer health: no ack/frame progress for this long (with traffic
/// pending) demotes Up → Suspect.
pub(crate) const SUSPECT_AFTER: Duration = Duration::from_millis(150);
/// Peer health: no progress for this long demotes Suspect → Down.
pub(crate) const DOWN_AFTER: Duration = Duration::from_secs(1);

/// The sanctioned blocking sleep of the runtime crate. Everything that
/// paces a loop goes through here: `crates/runtime/clippy.toml`
/// disallows `std::thread::sleep` everywhere else.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned sleep of the runtime")]
pub(crate) fn pace(d: Duration) {
    std::thread::sleep(d);
}

/// A monotonic clock anchored where it started. A site's reactor
/// starts one at boot and reads it once a pass: every time a site
/// decides by is microseconds since its boot, as a `u64`.
pub(crate) struct Clock(Instant);

impl Clock {
    /// A clock reading 0 now.
    pub(crate) fn start() -> Clock {
        Clock(instant())
    }

    /// The time since [`Clock::start`].
    pub(crate) fn elapsed(&self) -> Duration {
        instant().saturating_duration_since(self.0)
    }

    /// [`Clock::elapsed`] in whole microseconds.
    pub(crate) fn now_us(&self) -> u64 {
        micros(self.elapsed())
    }
}

/// The sanctioned wall-clock read of the runtime crate: every time it
/// decides by goes through [`Clock`], and `crates/runtime/clippy.toml`
/// disallows `Instant::now` and `Instant::elapsed` everywhere else.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned clock read of the runtime")]
fn instant() -> Instant {
    Instant::now()
}

/// `d` in whole microseconds, saturating.
pub(crate) fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The delay `me` waits before dial retry number `attempt` (0-based)
/// toward `peer`.
///
/// Drawn uniformly from `[ceil / 2, ceil]` with `ceil = DIAL_BASE·2^k`
/// capped at [`DIAL_MAX`] — "equal jitter", which keeps at least half
/// the exponential spacing while decorrelating concurrent dialers. The
/// draw is splitmix64 of `(me, peer, attempt)`: one pair repeats its
/// sequence exactly, two sites dialing one peer do not share it.
pub(crate) fn dial_delay(me: SiteId, peer: SiteId, attempt: u32) -> Duration {
    let seed = splitmix64((u64::from(me.0) << 32) | u64::from(peer.0));
    let ceil = DIAL_BASE.saturating_mul(1 << attempt.min(16)).min(DIAL_MAX).as_nanos() as u64;
    let jitter = splitmix64(seed ^ u64::from(attempt).wrapping_mul(0xA5A5_5A5A_1234_5678));
    Duration::from_nanos(ceil / 2 + jitter % (ceil - ceil / 2 + 1))
}

/// The settable knobs of a live deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeOptions {
    /// The settings the simulator reads too ([`Tuning::LIVE`] here).
    pub tuning: Tuning,
    /// Per-peer outbox bound: a write transaction is refused with
    /// `ClusterError::Backpressure` while any outgoing lane holds at
    /// least this many unacknowledged messages (degradation instead of
    /// unbounded `VecDeque` growth during a partition).
    pub outbox_high_water: usize,
    /// Deterministic network-fault injection at the transport seam;
    /// `None` runs the wire clean.
    pub nemesis: Option<NetFaultPlan>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions { tuning: Tuning::LIVE, outbox_high_water: 100_000, nemesis: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic_and_bounded() {
        let (me, peer) = (SiteId(0), SiteId(2));
        for attempt in 0..20 {
            let d = dial_delay(me, peer, attempt);
            assert_eq!(d, dial_delay(me, peer, attempt), "same (seed, attempt) must repeat");
            assert!(d <= DIAL_MAX, "attempt {attempt}: {d:?} over cap");
            let ceil = DIAL_BASE.saturating_mul(1 << attempt.min(16)).min(DIAL_MAX);
            assert!(d >= ceil / 2, "attempt {attempt}: {d:?} under half-ceiling {ceil:?}");
        }
    }

    #[test]
    fn delays_grow_with_attempts() {
        let delay = |attempt| dial_delay(SiteId(0), SiteId(2), attempt);
        // Half-ceiling of attempt 6 (160 ms at the 200 ms cap ⇒ 100 ms
        // floor) already exceeds the full ceiling of attempt 0 (5 ms).
        assert!(delay(6) > delay(0));
    }

    /// Two sites retrying one dead peer do not retry in lockstep: their
    /// sequences differ within the first 8 attempts, while each pair's
    /// sequence repeats exactly and stays within `[ceil / 2, ceil]`.
    #[test]
    fn seeds_decorrelate() {
        let seq = |me| (0..8).map(|k| dial_delay(SiteId(me), SiteId(2), k)).collect::<Vec<_>>();
        let (s0, s1) = (seq(0), seq(1));
        assert_ne!(s0, s1, "s0→s2 and s1→s2 back off in lockstep");
        assert_eq!(s0, seq(0));
        assert_eq!(s1, seq(1));
        for (k, (a, b)) in s0.iter().zip(&s1).enumerate() {
            let ceil = DIAL_BASE.saturating_mul(1 << k).min(DIAL_MAX);
            for d in [a, b] {
                assert!(
                    ceil / 2 <= *d && *d <= ceil,
                    "attempt {k}: {d:?} outside [{ceil:?}/2, {ceil:?}]"
                );
            }
        }
    }
}
