//! Timing policy: every retry, backoff, timeout and pacing duration of
//! the live runtime, in one place.
//!
//! Under fault injection fixed paces are exactly wrong: a fixed 20 ms
//! dial retry against a partitioned peer burns CPU and (worse)
//! synchronizes every dialer in the cluster into lockstep reconnect
//! storms. [`RetryPolicy`] is one configurable jittered-exponential
//! backoff, seeded with splitmix64 so two runs with the same seed pace
//! identically — no OS entropy, matching the determinism story of the
//! simulator's `FaultPlan`.
//!
//! `crates/runtime/clippy.toml` disallows `std::thread::sleep` in the
//! crate, and the sanctioned sleep is [`pace`], its one `#[expect]`.

use std::time::Duration;

use crate::nemesis::NetFaultPlan;

/// How long `ClusterHandle::quiesce` (and the chaos drivers) wait for the
/// outstanding-application count to reach zero before giving up with a
/// typed `ClusterError::QuiesceTimeout`.
pub(crate) const QUIESCE_TIMEOUT: Duration = Duration::from_secs(60);

/// The sanctioned blocking sleep of the runtime crate. Everything that
/// paces a loop goes through here: `crates/runtime/clippy.toml`
/// disallows `std::thread::sleep` everywhere else.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned sleep of the runtime")]
pub(crate) fn pace(d: Duration) {
    std::thread::sleep(d);
}

/// Jittered exponential backoff for the epoll reactor's dial pass.
///
/// The delay before attempt `k` is drawn uniformly (splitmix64-seeded,
/// deterministic per `(seed, k)`) from `[base·2^k / 2, base·2^k]`,
/// capped at `max` — "equal jitter", which keeps at least half the
/// exponential spacing while decorrelating concurrent dialers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-retry delay (the exponential's base).
    pub base: Duration,
    /// Cap on any single delay.
    pub max: Duration,
    /// Cap on one blocking `connect` attempt (loopback connects resolve
    /// in microseconds; this bounds the pathological case of an address
    /// that routes to a black hole).
    pub connect_timeout: Duration,
    /// Jitter seed. Same seed ⇒ same delay sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(5),
            max: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(50),
            seed: 0x9E37_79B9,
        }
    }
}

impl RetryPolicy {
    /// The delay to wait before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let shift = attempt.min(16);
        let ceil = self
            .base
            .saturating_mul(1u32 << shift.min(31))
            .min(self.max)
            .max(Duration::from_micros(1));
        let ceil_nanos = ceil.as_nanos() as u64;
        let half = ceil_nanos / 2;
        let jitter = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0xA5A5_5A5A_1234_5678))
            % (ceil_nanos - half + 1);
        Duration::from_nanos(half + jitter)
    }
}

/// Every tunable timing/bound knob of a live deployment, with defaults
/// matching the pre-nemesis behaviour closely enough that fault-free
/// runs are unaffected.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeOptions {
    /// Reconnect/dial backoff.
    pub retry: RetryPolicy,
    /// BackEdge eager phase: abort the waiting transaction
    /// (`Input::AbortEager`) if its special has not come home after
    /// this long. Generous by default — an abort is a client-visible
    /// failure, so only a genuinely wedged phase should hit it.
    pub eager_timeout: Duration,
    /// Per-peer outbox bound: a write transaction is refused with
    /// `ClusterError::Backpressure` while any outgoing lane holds at
    /// least this many unacknowledged messages (degradation instead of
    /// unbounded `VecDeque` growth during a partition).
    pub outbox_high_water: usize,
    /// Stall-recovery cadence: how often a site checks each non-empty
    /// outgoing lane for ack progress and replays it if the front
    /// sequence has not moved (the live analogue of the simulator's
    /// loss-free network — frames a nemesis black-holed get retried).
    pub replay_period: Duration,
    /// Peer health: no ack/frame progress for this long (with traffic
    /// pending) demotes Up → Suspect.
    pub suspect_after: Duration,
    /// Peer health: no progress for this long demotes Suspect → Down.
    pub down_after: Duration,
    /// Deterministic network-fault injection at the transport seam;
    /// `None` runs the wire clean.
    pub nemesis: Option<NetFaultPlan>,
    /// Serve all-read client transactions from an MVCC snapshot of the
    /// local store (lock-free reads of committed versions) instead of running
    /// them through the 2PL store transaction.
    pub mvcc_reads: bool,
    /// Group-commit batch size for the redo WAL: commit records are
    /// staged in a [`repl_storage::CommitPipeline`] and flushed to the
    /// log every this-many update commits (1 = append per commit,
    /// byte-identical to the historical behaviour).
    pub group_commit_batch: usize,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            retry: RetryPolicy::default(),
            eager_timeout: Duration::from_secs(10),
            outbox_high_water: 100_000,
            replay_period: Duration::from_millis(25),
            suspect_after: Duration::from_millis(150),
            down_after: Duration::from_secs(1),
            nemesis: None,
            mvcc_reads: false,
            group_commit_batch: 1,
        }
    }
}

/// The repo-standard splitmix64 mix (same constants as the simulator's
/// fault plan and the differential matrix).
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 0..20 {
            let d = p.delay(attempt);
            assert_eq!(d, p.delay(attempt), "same (seed, attempt) must repeat");
            assert!(d <= p.max, "attempt {attempt}: {d:?} over cap");
            let ceil = p.base.saturating_mul(1 << attempt.min(16)).min(p.max);
            assert!(d >= ceil / 2, "attempt {attempt}: {d:?} under half-ceiling {ceil:?}");
        }
    }

    #[test]
    fn delays_grow_with_attempts() {
        let p = RetryPolicy::default();
        // Half-ceiling of attempt 6 (160 ms at the 200 ms cap ⇒ 100 ms
        // floor) already exceeds the full ceiling of attempt 0 (5 ms).
        assert!(p.delay(6) > p.delay(0));
    }

    #[test]
    fn seeds_decorrelate() {
        let a = RetryPolicy { seed: 1, ..RetryPolicy::default() };
        let b = RetryPolicy { seed: 2, ..RetryPolicy::default() };
        assert!((0..8).any(|k| a.delay(k) != b.delay(k)));
    }
}
