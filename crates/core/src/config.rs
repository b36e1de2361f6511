//! Simulation parameters (the knobs of Table 1) and protocol selection,
//! plus a stable hasher that run summaries are digested with.

pub use repl_protocol::{ProtocolKind, TreeKind, Tuning};
use repl_sim::{FaultPlan, SimDuration};

/// 128-bit FNV-1a hasher with a *stable* digest: unlike
/// [`std::hash::Hasher`] implementations, the result is guaranteed
/// identical across processes, platforms and compiler versions, which is
/// what lets a test pin a run's digest as a constant.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u128,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: Self::OFFSET }
    }

    /// Fold raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold an `f64` into the digest via its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// How local deadlocks are detected.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeadlockMode {
    /// Lock-wait timeouts — the prototype's mechanism (50 ms, §5). Also
    /// the only mechanism that catches *global* deadlocks.
    Timeout,
    /// Local waits-for-graph detection, checked on every block, with the
    /// latest-arrival victim policy. Global deadlocks still fall back to
    /// the timeout.
    WaitsFor,
}

/// All engine parameters. Workload-shape parameters (Table 1) live in
/// `repl-workload`; these are the execution-model knobs.
#[derive(Clone, Debug)]
pub struct SimParams {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Tree used by DAG(WT)/BackEdge.
    pub tree: TreeKind,
    /// Deadlock handling.
    pub deadlock_mode: DeadlockMode,
    /// Worker threads per site (Table 1 default: 3).
    pub threads_per_site: u32,
    /// Transactions per thread (Table 1 default: 1000).
    pub txns_per_thread: u32,
    /// One-way network latency (Table 1 default: ≈0.15 ms measured).
    pub network_latency: SimDuration,
    /// Deadlock timeout interval (Table 1 default: 50 ms).
    pub deadlock_timeout: SimDuration,
    /// CPU cost of one read/write operation of a primary subtransaction.
    pub op_cpu: SimDuration,
    /// CPU cost of commit/abort bookkeeping.
    pub commit_cpu: SimDuration,
    /// CPU cost of receiving/dispatching one message.
    pub msg_cpu: SimDuration,
    /// CPU cost of applying one item write of a secondary subtransaction.
    pub apply_cpu: SimDuration,
    /// Delay before a deadlock-aborted primary is retried.
    pub retry_backoff: SimDuration,
    /// The settings the live fleet reads too ([`Tuning::PAPER`] here).
    pub tuning: Tuning,
    /// Injected faults: site crash/restart windows, link outages, delay
    /// jitter. The empty plan (the default) is the reliable §1.1 network.
    pub faults: FaultPlan,
    /// CPU cost of replaying one WAL record during crash recovery.
    pub replay_cpu: SimDuration,
    /// CPU cost of the fsync-equivalent a WAL batch flush pays (0 keeps
    /// the historical in-memory-log cost model).
    pub fsync_cpu: SimDuration,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            protocol: ProtocolKind::BackEdge,
            tree: TreeKind::Chain,
            deadlock_mode: DeadlockMode::Timeout,
            threads_per_site: 3,
            txns_per_thread: 1000,
            network_latency: SimDuration::micros(150),
            deadlock_timeout: SimDuration::millis(50),
            op_cpu: SimDuration::micros(1_000),
            commit_cpu: SimDuration::micros(600),
            msg_cpu: SimDuration::micros(250),
            apply_cpu: SimDuration::micros(800),
            retry_backoff: SimDuration::millis(5),
            tuning: Tuning::PAPER,
            faults: FaultPlan::none(),
            replay_cpu: SimDuration::micros(50),
            fsync_cpu: SimDuration::micros(0),
        }
    }
}

impl SimParams {
    /// A configuration sized for fast tests: 2 threads a site of 30
    /// transactions each, every other setting the default.
    pub fn quick_test(protocol: ProtocolKind) -> Self {
        SimParams { protocol, txns_per_thread: 30, threads_per_site: 2, ..SimParams::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let p = SimParams::default();
        assert_eq!(p.threads_per_site, 3);
        assert_eq!(p.txns_per_thread, 1000);
        assert_eq!(p.network_latency, SimDuration::micros(150));
        assert_eq!(p.deadlock_timeout, SimDuration::millis(50));
    }

    #[test]
    fn stable_hasher_primitives() {
        // Empty input hashes to the offset basis.
        assert_eq!(StableHasher::new().finish(), StableHasher::OFFSET);
        let digest = |write: &dyn Fn(&mut StableHasher)| {
            let mut h = StableHasher::new();
            write(&mut h);
            h.finish()
        };
        // Integers fold little-endian, floats by their exact bit pattern.
        let v = 0x0102_0304_0506_0708_u64;
        assert_eq!(digest(&|h| h.write_u64(v)), digest(&|h| h.write_bytes(&v.to_le_bytes())));
        let bits = 1.5f64.to_bits().to_le_bytes();
        assert_eq!(digest(&|h| h.write_f64(1.5)), digest(&|h| h.write_bytes(&bits)));
        assert_ne!(digest(&|h| h.write_f64(0.0)), digest(&|h| h.write_f64(-0.0)));
        // Order matters: the digest is not a sum of its inputs.
        let (ab, ba) = (digest(&|h| h.write_bytes(b"ab")), digest(&|h| h.write_bytes(b"ba")));
        assert_ne!(ab, ba);
    }

    #[test]
    fn protocol_metadata() {
        assert!(ProtocolKind::DagWt.requires_dag());
        assert!(ProtocolKind::DagT.requires_dag());
        assert!(!ProtocolKind::BackEdge.requires_dag());
        assert!(!ProtocolKind::Psl.requires_dag());
        assert_eq!(ProtocolKind::BackEdge.name(), "BackEdge");
        assert_eq!(ProtocolKind::ALL.len(), 6);
        assert!(!ProtocolKind::SERIALIZABLE.contains(&ProtocolKind::NaiveLazy));
    }
}
