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
//! threads and still aggregates byte-identical output. Every point is
//! computed on every run; `repro` writes a file only where `REPRO_EMIT`
//! or an experiment's `--out` asks for one.
//!
//! Scale knobs (environment variables, so the full paper-scale run and a
//! quick smoke run share one binary), read once by [`Scale::from_env`]:
//!
//! * `REPRO_TXNS`     — transactions per thread (default 1000, Table 1);
//! * `REPRO_SEEDS`    — seeds averaged per point (default 1);
//! * `REPRO_SCALE`    — shorthand: `quick` sets `REPRO_TXNS=150`;
//! * `REPRO_WORKERS`  — worker threads (default: all cores);
//! * `REPRO_EMIT`     — comma list of `csv`,`json`: also write
//!   `results/<figure>.<ext>` next to the printed table.
//!
//! A knob that is set to anything else is refused, naming the variable:
//! `repro` exits 2 before it runs a point.

#![warn(missing_docs)]

pub mod experiments;
pub mod runner;

pub use runner::{
    try_run_point_with, Column, Emit, ExperimentSpec, PointJob, RunError, Runner, RunnerStats,
    SweepResult, SweepRow,
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
    /// The files a printed sweep also writes (`REPRO_EMIT`; default
    /// none).
    pub emit: Emit,
}

impl Scale {
    /// Read the knobs from the process environment.
    pub fn from_env() -> Result<Scale, String> {
        Scale::parse(|name| std::env::var(name).ok())
    }

    /// Read the knobs through `var`. A knob that is set to a value it
    /// does not take — a numeric one that does not parse or is 0, a
    /// `REPRO_SCALE` other than `quick`, a `REPRO_EMIT` entry other than
    /// `csv` or `json` — is an error naming the variable.
    fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Scale, String> {
        let count = |name: &str| var(name).map(|raw| positive(name, &raw)).transpose();
        let (txns, seeds) = (count("REPRO_TXNS")?, count("REPRO_SEEDS")?);
        let workers = count("REPRO_WORKERS")?;
        let quick = match var("REPRO_SCALE").as_deref() {
            None => false,
            Some("quick") => true,
            Some(raw) => return Err(format!("REPRO_SCALE must be quick or unset, got {raw:?}")),
        };
        let emit = match var("REPRO_EMIT") {
            None => Emit::default(),
            Some(raw) => Emit::parse(&raw).map_err(|e| format!("REPRO_EMIT {raw:?}: {e}"))?,
        };
        Ok(Scale {
            txns: if quick { 150 } else { txns.unwrap_or(1000) },
            seeds: seeds.map_or(1, u64::from),
            workers: workers.map_or_else(
                || std::thread::available_parallelism().map_or(1, |n| n.get()),
                |n| n as usize,
            ),
            emit,
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

    /// The pool at this scale: its workers, progress on stderr, and the
    /// files its sweeps also write.
    pub fn runner(&self) -> Runner {
        Runner::new().workers(self.workers).progress(true).emit(self.emit)
    }
}

/// Parse a count that must be at least 1; the error names `name`.
pub(crate) fn positive(name: &str, raw: &str) -> Result<u32, String> {
    match raw.parse::<u32>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{name} must be a positive integer, got {raw:?}")),
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
    use super::{Emit, Scale};

    fn parse(vars: &[(&str, &str)]) -> Result<Scale, String> {
        Scale::parse(|name| vars.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn unset_knobs_take_paper_defaults() {
        let s = parse(&[("REPRO_WORKERS", "3")]).unwrap();
        let none = Emit::default();
        assert_eq!(s, Scale { txns: 1000, seeds: 1, workers: 3, emit: none });
        let quick = parse(&[("REPRO_SCALE", "quick"), ("REPRO_TXNS", "40")]).unwrap();
        assert_eq!(quick.txns, 150, "quick wins over REPRO_TXNS, as it always has");
        let both = Emit { csv: true, json: true };
        assert_eq!(parse(&[("REPRO_EMIT", "csv, json")]).unwrap().emit, both);
        assert_eq!(parse(&[("REPRO_EMIT", "json")]).unwrap().emit, Emit { json: true, ..none });
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
        // A misspelt word would otherwise run at full scale or write no
        // file, and exit 0.
        let words = [
            ("REPRO_SCALE", &["Quick", "fast", "full", ""][..]),
            ("REPRO_EMIT", &["jsn", "CSV", "csv,", ""]),
        ];
        for (name, spellings) in words {
            for bad in spellings {
                let err = parse(&[(name, bad)]).unwrap_err();
                assert!(err.starts_with(name), "{name}={bad:?}: {err}");
            }
        }
    }
}
