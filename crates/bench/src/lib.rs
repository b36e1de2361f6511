//! Experiment harness for §5 of the paper.
//!
//! One *point* = one simulation run at a fixed parameter setting; one
//! *series* = a protocol swept over one Table-1 parameter; one *figure* =
//! the series the paper plots. The `repro` binary regenerates each
//! figure/table by name from the [`experiments::EXPERIMENTS`] registry;
//! `benches/figures.rs` wraps scaled-down versions in Criterion for
//! timing regression.
//!
//! Figures are declared with [`runner::ExperimentSpec`] and executed by
//! the parallel [`runner::Runner`]: every point is a pure function of
//! `(Params, seed)`, so the pool schedules points across `REPRO_WORKERS`
//! threads, serves repeats from the content-addressed cache under
//! `results/cache/`, and still aggregates byte-identical output.
//!
//! Scale knobs (environment variables, so the full paper-scale run and a
//! quick smoke run share one binary), read once by [`Scale::from_env`]:
//!
//! * `REPRO_TXNS`     — transactions per thread (default 1000, Table 1);
//! * `REPRO_SEEDS`    — seeds averaged per point (default 1);
//! * `REPRO_SCALE`    — shorthand: `quick` sets `REPRO_TXNS=150`;
//! * `REPRO_WORKERS`  — worker threads (default: all cores);
//! * `REPRO_NO_CACHE` — `1` disables the on-disk point cache;
//! * `REPRO_EMIT`     — comma list of `csv`,`json`: also write
//!   `results/<figure>.<ext>` next to the printed table.

#![warn(missing_docs)]

pub mod experiments;
pub mod runner;

pub use runner::{
    try_run_point_with, Column, ExperimentSpec, PointCache, PointJob, RunError, Runner,
    RunnerStats, SweepResult, SweepRow, CACHE_VERSION,
};

use repl_core::config::{ProtocolKind, SimParams};
use repl_core::metrics::MetricsSummary;
use repl_workload::TableOneParams;

/// The harness's scale knobs, parsed from the environment in one place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Transactions per thread (`REPRO_TXNS`, or 150 under
    /// `REPRO_SCALE=quick`; default 1000).
    pub txns: u32,
    /// Seeds averaged per point (`REPRO_SEEDS`; default 1).
    pub seeds: u64,
    /// Worker threads (`REPRO_WORKERS`; default: all cores).
    pub workers: usize,
    /// Whether the on-disk point cache is used (`REPRO_NO_CACHE=1` turns
    /// it off).
    pub cache: bool,
}

impl Scale {
    /// Read the knobs from the process environment.
    pub fn from_env() -> Result<Scale, String> {
        Scale::parse(|name| std::env::var(name).ok())
    }

    /// Read the knobs through `var`. A numeric knob that is set but does
    /// not parse, or is 0, is an error naming the variable.
    fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Scale, String> {
        let positive = |name: &str| match var(name) {
            None => Ok(None),
            Some(raw) => match raw.parse::<u32>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(format!("{name} must be a positive integer, got {raw:?}")),
            },
        };
        let (txns, seeds) = (positive("REPRO_TXNS")?, positive("REPRO_SEEDS")?);
        let workers = positive("REPRO_WORKERS")?;
        let quick = var("REPRO_SCALE").is_some_and(|s| s == "quick");
        Ok(Scale {
            txns: if quick { 150 } else { txns.unwrap_or(1000) },
            seeds: seeds.map_or(1, u64::from),
            workers: workers.map_or_else(
                || std::thread::available_parallelism().map_or(1, |n| n.get()),
                |n| n as usize,
            ),
            cache: var("REPRO_NO_CACHE").is_none_or(|v| v != "1"),
        })
    }

    /// Default Table-1 configuration at this scale.
    pub fn table(&self) -> TableOneParams {
        TableOneParams { txns_per_thread: self.txns, ..Default::default() }
    }

    /// A spec named `id` titled `title` on [`Scale::table`], averaging
    /// this scale's seeds.
    pub fn spec(&self, id: &str, title: &str) -> ExperimentSpec {
        ExperimentSpec::new(id, title).table(self.table()).seeds(self.seeds)
    }

    /// The pool at this scale: its workers, the shared `results/cache`
    /// unless the cache is off, progress on stderr.
    pub fn runner(&self) -> Runner {
        Runner::new()
            .workers(self.workers)
            .cache_dir(self.cache.then(|| "results/cache".into()))
            .progress(true)
    }
}

/// Run one experiment point and return its metrics.
///
/// Thin panicking wrapper over [`try_run_point_with`] for tests that want
/// a failure to tear the process down; harness code goes through the
/// fallible runner API instead.
pub fn run_point(table: &TableOneParams, protocol: ProtocolKind, seed: u64) -> MetricsSummary {
    let base = SimParams { protocol, ..SimParams::default() };
    run_point_with(table, &base, seed)
}

/// Like [`run_point`], with full control over the engine parameters
/// (tree kind, deadlock mode, cost model) for the ablation studies.
pub fn run_point_with(table: &TableOneParams, base: &SimParams, seed: u64) -> MetricsSummary {
    try_run_point_with(table, base, seed).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::Scale;

    fn parse(vars: &[(&str, &str)]) -> Result<Scale, String> {
        Scale::parse(|name| vars.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn unset_knobs_take_paper_defaults() {
        let s = parse(&[("REPRO_WORKERS", "3")]).unwrap();
        assert_eq!(s, Scale { txns: 1000, seeds: 1, workers: 3, cache: true });
        let quick = parse(&[("REPRO_SCALE", "quick"), ("REPRO_TXNS", "40")]).unwrap();
        assert_eq!(quick.txns, 150, "quick wins over REPRO_TXNS, as it always has");
        assert!(!parse(&[("REPRO_NO_CACHE", "1")]).unwrap().cache);
    }

    #[test]
    fn a_zero_or_unparsable_knob_names_its_variable() {
        for name in ["REPRO_TXNS", "REPRO_SEEDS", "REPRO_WORKERS"] {
            for bad in ["0", "abc", "", "-1"] {
                let err = parse(&[(name, bad)]).unwrap_err();
                assert!(err.starts_with(name), "{name}={bad:?}: {err}");
            }
        }
        // Validated even where REPRO_SCALE=quick overrides the value.
        assert!(parse(&[("REPRO_SCALE", "quick"), ("REPRO_TXNS", "abc")]).is_err());
    }
}
