//! Parallel sweep execution for the §5 harness.
//!
//! Every experiment point is a pure function of `(TableOneParams,
//! SimParams, seed)` (DESIGN.md §3), so a figure's points can run on any
//! number of worker threads and still aggregate to byte-identical output:
//! the pool assigns each point a dense index at expansion time and the
//! collector places results by that index, never by completion order.
//!
//! The module is three layers:
//!
//! * [`spec`] — the declarative [`ExperimentSpec`]/[`SweepResult`] API the
//!   experiments build figures with;
//! * [`Runner`] (this file) — the worker pool: `REPRO_WORKERS` scoped
//!   threads claiming job indices from one shared counter, per-sweep
//!   progress and wall-clock reporting on stderr, deterministic
//!   aggregation;
//! * [`cache`] — the content-addressed on-disk result cache under
//!   `results/cache/`, keyed by a stable hash of every parameter that can
//!   influence a point (`REPRO_NO_CACHE=1` opts out).

mod cache;
mod emit;
mod spec;

pub use cache::{PointCache, CACHE_VERSION};
pub use emit::{Column, Emit};
pub use spec::{ExperimentSpec, SweepResult, SweepRow};

use std::io::{IsTerminal, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use repl_core::config::{SimParams, StableHash, StableHasher};
use repl_core::engine::{BuildError, Engine};
use repl_core::metrics::MetricsSummary;
use repl_core::scenario::generate_programs;
use repl_workload::{build_placement, TableOneParams};

/// Why one experiment point failed.
///
/// A failed point is *reported*, not fatal: the worker pool keeps running
/// the remaining points and the failure surfaces as an error cell in the
/// sweep's emitted series. The thin panicking wrappers
/// ([`crate::run_point`], [`crate::run_point_with`]) remain for tests that
/// want the old tear-down-on-failure behaviour.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The engine could not be assembled from the placement/params.
    Build(BuildError),
    /// The run hit the virtual-time safety valve before quiescing.
    Stalled {
        /// Protocol display name.
        protocol: &'static str,
        /// Virtual microseconds elapsed when the valve fired.
        virtual_us: u64,
    },
    /// The recorded history failed the one-copy-serializability check.
    NotSerializable {
        /// Protocol display name.
        protocol: &'static str,
        /// Witness cycle, rendered.
        cycle: String,
    },
}

impl RunError {
    /// Short tag used for error cells in emitted tables/CSV.
    pub fn tag(&self) -> &'static str {
        match self {
            RunError::Build(_) => "ERR:build",
            RunError::Stalled { .. } => "ERR:stall",
            RunError::NotSerializable { .. } => "ERR:1SR",
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Build(e) => write!(f, "engine build failed: {e}"),
            RunError::Stalled { protocol, virtual_us } => {
                write!(f, "{protocol} run stalled (virtual time {virtual_us} us)")
            }
            RunError::NotSerializable { protocol, cycle } => {
                write!(f, "{protocol} produced a non-serializable history: {cycle}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<BuildError> for RunError {
    fn from(e: BuildError) -> Self {
        RunError::Build(e)
    }
}

/// Run one experiment point, reporting failures instead of panicking.
///
/// The fallible core behind [`crate::run_point_with`]: builds the
/// engine, runs it to quiescence and checks the serializability oracle,
/// mapping each failure mode onto a [`RunError`].
pub fn try_run_point_with(
    table: &TableOneParams,
    base: &SimParams,
    seed: u64,
) -> Result<MetricsSummary, RunError> {
    let placement = build_placement(table, seed);
    let params = table.sim_params(base);
    let programs = generate_programs(
        &placement,
        &table.mix(),
        params.threads_per_site,
        params.txns_per_thread,
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
    );
    let mut engine = Engine::new(&placement, &params, programs)?;
    let report = engine.run();
    if report.stalled {
        return Err(RunError::Stalled {
            protocol: base.protocol.name(),
            virtual_us: report.summary.virtual_duration.as_micros(),
        });
    }
    if !report.serializable {
        return Err(RunError::NotSerializable {
            protocol: base.protocol.name(),
            cycle: format!("{:?}", report.cycle),
        });
    }
    Ok(report.summary)
}

/// One fully-specified experiment point: pure data that workers read in
/// place.
#[derive(Clone, Debug)]
pub struct PointJob {
    /// Workload/placement parameters (Table 1).
    pub table: TableOneParams,
    /// Engine parameters *before* folding `table` in (protocol, tree,
    /// cost model); [`TableOneParams::sim_params`] folds at run time.
    pub sim: SimParams,
    /// Placement/workload seed.
    pub seed: u64,
}

impl PointJob {
    /// Content-addressed cache key: a stable 128-bit digest of everything
    /// that can influence the point's outcome — the full Table-1
    /// parameters, the *folded* engine parameters and the seed, plus
    /// [`CACHE_VERSION`] so semantic engine changes invalidate en masse.
    pub fn cache_key(&self) -> String {
        let mut h = StableHasher::new();
        h.write_u32(CACHE_VERSION);
        self.table.stable_hash(&mut h);
        self.table.sim_params(&self.sim).stable_hash(&mut h);
        h.write_u64(self.seed);
        h.hex()
    }

    /// Execute the point (no cache involvement).
    pub fn run(&self) -> Result<MetricsSummary, RunError> {
        try_run_point_with(&self.table, &self.sim, self.seed)
    }
}

/// Aggregate statistics of one runner invocation.
#[derive(Clone, Debug, Default)]
pub struct RunnerStats {
    /// Total points the sweep expanded to.
    pub points: usize,
    /// Points that ran through the engine.
    pub executed: usize,
    /// Points served from the on-disk cache.
    pub cache_hits: usize,
    /// Points that finished with a [`RunError`].
    pub failed: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
}

/// The worker-pool executor.
///
/// `repro` builds one with [`crate::Scale::runner`] (honours
/// `REPRO_WORKERS` / `REPRO_NO_CACHE`); tests configure [`Runner::new`]
/// explicitly, independent of the environment.
#[derive(Debug)]
pub struct Runner {
    workers: usize,
    cache: Option<PointCache>,
    progress: bool,
    emit: Emit,
}

impl Runner {
    /// A serial runner with no cache and no progress output.
    pub fn new() -> Self {
        Runner { workers: 1, cache: None, progress: false, emit: Emit::default() }
    }

    /// Set the worker-thread count (clamped to ≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Use (or disable) an explicit cache directory.
    pub fn cache_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.cache = dir.map(PointCache::at);
        self
    }

    /// Enable/disable progress reporting on stderr.
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// The files a sweep's [`SweepResult::print`] also writes.
    pub fn emit(mut self, emit: Emit) -> Self {
        self.emit = emit;
        self
    }

    /// Expand `spec` into points, execute them across the pool and
    /// aggregate into a [`SweepResult`] whose emitted series are
    /// byte-identical for any worker count.
    pub fn run(&self, spec: &ExperimentSpec) -> SweepResult {
        let jobs = spec.jobs();
        let (results, stats) = self.run_points(spec.id(), &jobs);
        SweepResult { emit: self.emit, ..spec.aggregate(results, stats) }
    }

    /// Execute raw points, returning per-point results **in job order**
    /// plus the pool statistics. `label` names the sweep in progress
    /// output.
    pub fn run_points(
        &self,
        label: &str,
        jobs: &[PointJob],
    ) -> (Vec<Result<MetricsSummary, RunError>>, RunnerStats) {
        let started = Instant::now();
        let workers = self.workers.max(1).min(jobs.len().max(1));
        let mut slots: Vec<Option<Result<MetricsSummary, RunError>>> =
            (0..jobs.len()).map(|_| None).collect();
        let mut stats = RunnerStats { points: jobs.len(), workers, ..RunnerStats::default() };

        // Workers claim job indices from one counter (`Relaxed`: it guards
        // no other data; results travel over the channel), and results come
        // back tagged with their index, so completion order never shows.
        let next = AtomicUsize::new(0);
        let (res_tx, res_rx) = mpsc::channel::<(usize, Result<MetricsSummary, RunError>, bool)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let res_tx = res_tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let (result, cached) = self.run_job(job);
                    if res_tx.send((i, result, cached)).is_err() {
                        break;
                    }
                });
            }
            drop(res_tx);

            let fancy = self.progress && std::io::stderr().is_terminal();
            let mut done = 0usize;
            for (i, result, cached) in res_rx {
                done += 1;
                if cached {
                    stats.cache_hits += 1;
                } else {
                    stats.executed += 1;
                }
                if result.is_err() {
                    stats.failed += 1;
                }
                slots[i] = Some(result);
                if fancy {
                    eprint!(
                        "\r[{label}] {done}/{} points ({} cached, {} failed) {:.1}s",
                        jobs.len(),
                        stats.cache_hits,
                        stats.failed,
                        started.elapsed().as_secs_f64()
                    );
                    let _ = std::io::stderr().flush();
                }
            }
            if fancy {
                eprintln!();
            }
        });

        stats.wall = started.elapsed();
        if self.progress {
            eprintln!(
                "[{label}] {} points in {:.2}s ({} executed, {} cached, {} failed, {} workers)",
                stats.points,
                stats.wall.as_secs_f64(),
                stats.executed,
                stats.cache_hits,
                stats.failed,
                stats.workers
            );
        }
        let results =
            slots.into_iter().map(|s| s.expect("every job index reported exactly once")).collect();
        (results, stats)
    }

    /// Serve `job` from the cache, or run it and cache a success. The
    /// flag says whether the cache served it.
    fn run_job(&self, job: &PointJob) -> (Result<MetricsSummary, RunError>, bool) {
        let Some(cache) = &self.cache else { return (job.run(), false) };
        let key = job.cache_key();
        if let Some(summary) = cache.load(&key) {
            return (Ok(summary), true);
        }
        let result = job.run();
        if let Ok(s) = &result {
            cache.store(&key, s);
        }
        (result, false)
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_core::config::ProtocolKind;

    fn tiny() -> TableOneParams {
        TableOneParams { txns_per_thread: 10, threads_per_site: 2, ..Default::default() }
    }

    #[test]
    fn lint_rejection_is_an_error_not_a_panic() {
        // DAG(WT) on the default (cyclic, b=0.2) placement: the routing
        // refuses the cycle, and the point reports it as a build error.
        let base = SimParams { protocol: ProtocolKind::DagWt, ..SimParams::default() };
        match try_run_point_with(&tiny(), &base, 42) {
            Err(e @ RunError::Build(BuildError::CopyGraphCyclic)) => {
                assert_eq!(e.tag(), "ERR:build")
            }
            other => panic!("expected a refused routing, got {other:?}"),
        }
    }

    #[test]
    fn naive_lazy_reports_non_serializable_instead_of_panicking() {
        // The tag and message a non-serializable point renders with.
        let e = RunError::NotSerializable { protocol: "NaiveLazy", cycle: "w0->r1".into() };
        assert_eq!(e.tag(), "ERR:1SR");
        assert!(e.to_string().contains("non-serializable"));
    }

    #[test]
    fn cache_key_is_sensitive_to_each_input() {
        let a = PointJob { table: tiny(), sim: SimParams::default(), seed: 42 };
        let mut b = a.clone();
        b.seed = 43;
        let mut c = a.clone();
        c.table.backedge_prob = 0.7;
        let mut d = a.clone();
        d.sim.protocol = ProtocolKind::Psl;
        assert_eq!(a.cache_key(), a.clone().cache_key());
        assert_ne!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), c.cache_key());
        assert_ne!(a.cache_key(), d.cache_key());
    }

    #[test]
    fn pool_preserves_job_order_at_any_worker_count() {
        // Different seeds produce different histories; results must land
        // at their job index regardless of completion order, also when
        // there are more workers than jobs.
        let jobs: Vec<PointJob> = (0..6)
            .map(|s| PointJob { table: tiny(), sim: SimParams::default(), seed: 42 + s })
            .collect();
        let (serial, s1) = Runner::new().run_points("test", &jobs);
        assert_eq!(s1.executed, 6);
        for (asked, used) in [(4, 4), (8, 6)] {
            let (parallel, stats) = Runner::new().workers(asked).run_points("test", &jobs);
            assert_eq!((stats.executed, stats.workers), (6, used));
            for (a, b) in serial.iter().zip(parallel.iter()) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.commits, b.commits);
                assert_eq!(a.messages, b.messages);
                assert_eq!(a.virtual_duration, b.virtual_duration);
            }
        }
    }

    #[test]
    fn pool_returns_at_once_with_no_jobs() {
        let (results, stats) = Runner::new().workers(4).run_points("empty", &[]);
        assert!(results.is_empty());
        assert_eq!((stats.points, stats.executed, stats.workers), (0, 0, 1));
    }
}
