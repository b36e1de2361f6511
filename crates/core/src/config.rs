//! Simulation parameters (the knobs of Table 1) and protocol selection,
//! plus the stable parameter hashing the experiment cache is keyed on.

use repl_sim::{FaultPlan, SimDuration};

/// 128-bit FNV-1a hasher with a *stable* digest: unlike
/// [`std::hash::Hasher`] implementations, the result is guaranteed
/// identical across processes, platforms and compiler versions, which is
/// what makes it usable as an on-disk cache key for experiment results.
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

    /// Fold a `u32` into the digest.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold an `f64` into the digest via its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    /// Fold a `bool` into the digest.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[v as u8]);
    }

    /// Fold a length-prefixed string into the digest.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u128 {
        self.state
    }

    /// The digest as 32 lowercase hex characters (cache file stem).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.state)
    }
}

/// Types whose parameter content can be folded into a [`StableHasher`].
///
/// Implementations must be *total* (every field that influences a
/// simulation's outcome is hashed) so that equal hashes imply equal
/// runs; the experiment result cache relies on this.
pub trait StableHash {
    /// Fold `self` into `h`.
    fn stable_hash(&self, h: &mut StableHasher);
}

impl StableHash for SimDuration {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.as_micros());
    }
}

impl StableHash for FaultPlan {
    fn stable_hash(&self, h: &mut StableHasher) {
        // Destructured like SimParams below: a new fault field that is
        // not hashed would let the cache serve results for a different
        // failure schedule.
        let FaultPlan { crashes, outages, max_jitter, seed } = self;
        h.write_u64(crashes.len() as u64);
        for c in crashes {
            h.write_u32(c.site.0);
            h.write_u64(c.at.as_micros());
            h.write_bool(c.restart.is_some());
            h.write_u64(c.restart.map_or(0, |r| r.as_micros()));
        }
        h.write_u64(outages.len() as u64);
        for o in outages {
            h.write_u32(o.from.0);
            h.write_u32(o.to.0);
            h.write_u64(o.start.as_micros());
            h.write_u64(o.end.as_micros());
        }
        max_jitter.stable_hash(h);
        h.write_u64(*seed);
    }
}

/// Which update-propagation protocol the engine runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolKind {
    /// Indiscriminate lazy propagation — the commercial-style strawman of
    /// §1/Example 1.1. **Not serializable**; included to demonstrate the
    /// anomaly against the checker.
    NaiveLazy,
    /// DAG(WT): lazy propagation along a propagation tree, FIFO per
    /// parent (§2). Requires an acyclic copy graph.
    DagWt,
    /// DAG(T): lazy propagation along copy-graph edges, ordered by
    /// timestamps with epochs (§3). Requires an acyclic copy graph whose
    /// site numbering is a topological order.
    DagT,
    /// BackEdge: eager along backedges, DAG(WT)-lazy elsewhere (§4).
    /// Handles arbitrary copy graphs.
    BackEdge,
    /// Primary-site locking (§5.1): remote S-locks + value shipping for
    /// replica reads, no explicit propagation. The paper's baseline.
    Psl,
    /// Eager read-one-write-all with a commit broadcast (the §1
    /// motivation for laziness; not in the paper's measurements).
    Eager,
}

impl ProtocolKind {
    /// All protocols, for exhaustive test sweeps.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::NaiveLazy,
        ProtocolKind::DagWt,
        ProtocolKind::DagT,
        ProtocolKind::BackEdge,
        ProtocolKind::Psl,
        ProtocolKind::Eager,
    ];

    /// All protocols that guarantee serializability.
    pub const SERIALIZABLE: [ProtocolKind; 5] = [
        ProtocolKind::DagWt,
        ProtocolKind::DagT,
        ProtocolKind::BackEdge,
        ProtocolKind::Psl,
        ProtocolKind::Eager,
    ];

    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::NaiveLazy => "NaiveLazy",
            ProtocolKind::DagWt => "DAG(WT)",
            ProtocolKind::DagT => "DAG(T)",
            ProtocolKind::BackEdge => "BackEdge",
            ProtocolKind::Psl => "PSL",
            ProtocolKind::Eager => "Eager",
        }
    }

    /// True if the protocol requires the copy graph to be a DAG.
    pub fn requires_dag(self) -> bool {
        matches!(self, ProtocolKind::DagWt | ProtocolKind::DagT)
    }
}

impl StableHash for ProtocolKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self.name());
    }
}

/// Propagation-tree shape for DAG(WT)/BackEdge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TreeKind {
    /// The chain over a topological order — what the paper's prototype
    /// used (§5.1).
    Chain,
    /// The general branching tree (§2); expected to dominate the chain.
    General,
}

impl StableHash for TreeKind {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(match self {
            TreeKind::Chain => "chain",
            TreeKind::General => "general",
        });
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

impl StableHash for DeadlockMode {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(match self {
            DeadlockMode::Timeout => "timeout",
            DeadlockMode::WaitsFor => "waitsfor",
        });
    }
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
    /// DAG(T): period at which source sites bump their epoch (§3.3).
    pub epoch_period: SimDuration,
    /// DAG(T): a site sends a dummy subtransaction on a link idle longer
    /// than this (§3.3 "no communication for a while").
    pub heartbeat_period: SimDuration,
    /// BackEdge: multiple of the deadlock timeout after which a primary
    /// still waiting for its special subtransaction gives up (the
    /// prototype's lock timeout applied to the commit wait as well; large
    /// values rely on blocker inspection instead).
    pub eager_wait_timeout_factor: u64,
    /// BackEdge: when a lock wait times out and a blocker is an
    /// eager-phase participant, abort that participant (the generalized
    /// Example 4.1 rule). Disabling leaves only the eager-wait timeout.
    pub victimize_eager_holders: bool,
    /// Safety valve: the run aborts if virtual time exceeds this.
    pub max_virtual_time: SimDuration,
    /// Injected faults: site crash/restart windows, link outages, delay
    /// jitter. The empty plan (the default) is the reliable §1.1 network.
    pub faults: FaultPlan,
    /// CPU cost of replaying one WAL record during crash recovery.
    pub replay_cpu: SimDuration,
    /// Run read-only transactions as lock-free MVCC snapshot reads
    /// instead of 2PL S-lock reads (the snapshot-read protocol-matrix
    /// dimension).
    pub snapshot_reads: bool,
    /// Group-commit batch size: one fsync-equivalent is paid per this
    /// many commits at a site (1 = classic per-commit durability).
    pub group_commit_batch: u32,
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
            epoch_period: SimDuration::millis(50),
            heartbeat_period: SimDuration::millis(25),
            eager_wait_timeout_factor: 1,
            victimize_eager_holders: true,
            max_virtual_time: SimDuration::secs(36_000),
            faults: FaultPlan::none(),
            replay_cpu: SimDuration::micros(50),
            snapshot_reads: false,
            group_commit_batch: 1,
            fsync_cpu: SimDuration::micros(0),
        }
    }
}

impl SimParams {
    /// A configuration sized for fast tests: few transactions, small
    /// timeouts.
    pub fn quick_test(protocol: ProtocolKind) -> Self {
        SimParams { protocol, txns_per_thread: 30, threads_per_site: 2, ..SimParams::default() }
    }
}

impl StableHash for SimParams {
    fn stable_hash(&self, h: &mut StableHasher) {
        // Destructure so that adding a field without extending the hash is
        // a compile error — a silently incomplete hash would let the
        // result cache serve stale summaries.
        let SimParams {
            protocol,
            tree,
            deadlock_mode,
            threads_per_site,
            txns_per_thread,
            network_latency,
            deadlock_timeout,
            op_cpu,
            commit_cpu,
            msg_cpu,
            apply_cpu,
            retry_backoff,
            epoch_period,
            heartbeat_period,
            eager_wait_timeout_factor,
            victimize_eager_holders,
            max_virtual_time,
            faults,
            replay_cpu,
            snapshot_reads,
            group_commit_batch,
            fsync_cpu,
        } = self;
        protocol.stable_hash(h);
        tree.stable_hash(h);
        deadlock_mode.stable_hash(h);
        h.write_u32(*threads_per_site);
        h.write_u32(*txns_per_thread);
        network_latency.stable_hash(h);
        deadlock_timeout.stable_hash(h);
        op_cpu.stable_hash(h);
        commit_cpu.stable_hash(h);
        msg_cpu.stable_hash(h);
        apply_cpu.stable_hash(h);
        retry_backoff.stable_hash(h);
        epoch_period.stable_hash(h);
        heartbeat_period.stable_hash(h);
        h.write_u64(*eager_wait_timeout_factor);
        h.write_bool(*victimize_eager_holders);
        max_virtual_time.stable_hash(h);
        faults.stable_hash(h);
        replay_cpu.stable_hash(h);
        h.write_bool(*snapshot_reads);
        h.write_u32(*group_commit_batch);
        fsync_cpu.stable_hash(h);
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

    fn digest<T: StableHash>(v: &T) -> u128 {
        let mut h = StableHasher::new();
        v.stable_hash(&mut h);
        h.finish()
    }

    #[test]
    fn stable_hash_is_reproducible_and_sensitive() {
        let base = SimParams::default();
        assert_eq!(digest(&base), digest(&base.clone()));
        // Every kind of knob moves the digest.
        let variants = [
            SimParams { protocol: ProtocolKind::Psl, ..base.clone() },
            SimParams { tree: TreeKind::General, ..base.clone() },
            SimParams { deadlock_mode: DeadlockMode::WaitsFor, ..base.clone() },
            SimParams { txns_per_thread: 999, ..base.clone() },
            SimParams { network_latency: SimDuration::micros(151), ..base.clone() },
            SimParams { victimize_eager_holders: false, ..base.clone() },
            SimParams {
                faults: FaultPlan::none().crash(
                    repl_types::SiteId(0),
                    repl_sim::SimTime(1_000),
                    None,
                ),
                ..base.clone()
            },
            SimParams {
                faults: FaultPlan::none().jitter(SimDuration::micros(10)).seeded(3),
                ..base.clone()
            },
            SimParams { replay_cpu: SimDuration::micros(51), ..base.clone() },
            SimParams { snapshot_reads: true, ..base.clone() },
            SimParams { group_commit_batch: 8, ..base.clone() },
            SimParams { fsync_cpu: SimDuration::micros(100), ..base.clone() },
        ];
        for v in &variants {
            assert_ne!(digest(&base), digest(v), "digest blind to a field: {v:?}");
        }
    }

    #[test]
    fn stable_hasher_primitives() {
        // Empty input hashes to the offset basis.
        assert_eq!(StableHasher::new().finish(), StableHasher::OFFSET);
        let mut a = StableHasher::new();
        a.write_str("ab");
        let mut b = StableHasher::new();
        b.write_str("a");
        let mut c = b.clone();
        b.write_str("b"); // length prefix keeps "ab" != "a","b"
        c.write_bytes(b"b");
        assert_ne!(a.finish(), b.finish());
        assert_ne!(a.finish(), c.finish());
        assert_eq!(a.hex().len(), 32);
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
