//! The declarative experiment API: what to sweep, which series to run,
//! how many seeds to average.
//!
//! A spec is `base Table-1 config × swept axis × series × seeds`:
//!
//! ```no_run
//! use repl_bench::runner::{Column, ExperimentSpec, Runner};
//! use repl_core::config::ProtocolKind;
//!
//! let spec = ExperimentSpec::new("fig2a", "Figure 2(a): Throughput vs Backedge Probability")
//!     .axis("b", (0..=10).map(|i| i as f64 / 10.0), |t, _, b| t.backedge_prob = b)
//!     .protocols(&[ProtocolKind::BackEdge, ProtocolKind::Psl]);
//! Runner::new().workers(4).run(&spec).print(&[Column::Throughput, Column::AbortPct]);
//! ```

use repl_core::config::{ProtocolKind, SimParams};
use repl_core::metrics::MetricsSummary;
use repl_workload::TableOneParams;

use super::{Emit, PointJob, RunError, RunnerStats};

/// Mutates the workload/engine parameters for one swept x value.
pub type AxisSetter = Box<dyn Fn(&mut TableOneParams, &mut SimParams, f64)>;

/// One curve of a figure: a label, the engine parameters it runs under,
/// and optionally its own Table-1 base (e.g. the DAG protocols need a
/// `b = 0` placement next to BackEdge's default one).
struct Series {
    label: String,
    sim: SimParams,
    table: Option<TableOneParams>,
}

/// A declarative sweep: build with the fluent methods, execute on a
/// [`super::Runner`] (`repro` uses [`crate::Scale::runner`]).
pub struct ExperimentSpec {
    id: String,
    title: String,
    xlabel: String,
    table: TableOneParams,
    xs: Vec<f64>,
    set: AxisSetter,
    series: Vec<Series>,
    seeds: u64,
}

impl ExperimentSpec {
    /// A spec named `id` (progress label, emitted-file stem) titled
    /// `title`, starting from the Table-1 defaults, one x point, no axis,
    /// one seed. [`crate::Scale::spec`] starts one at the environment's
    /// scale instead.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentSpec {
            id: id.into(),
            title: title.into(),
            xlabel: String::new(),
            table: TableOneParams::default(),
            xs: vec![0.0],
            set: Box::new(|_, _, _| {}),
            series: Vec::new(),
            seeds: 1,
        }
    }

    /// Replace the base Table-1 configuration.
    pub fn table(mut self, table: TableOneParams) -> Self {
        self.table = table;
        self
    }

    /// Declare the swept axis: its display label, the x values, and the
    /// setter applied to fresh copies of the base parameters per point.
    pub fn axis(
        mut self,
        xlabel: impl Into<String>,
        xs: impl IntoIterator<Item = f64>,
        set: impl Fn(&mut TableOneParams, &mut SimParams, f64) + 'static,
    ) -> Self {
        self.xlabel = xlabel.into();
        self.xs = xs.into_iter().collect();
        self.set = Box::new(set);
        self
    }

    /// Add one series per protocol, labelled with the protocol name.
    pub fn protocols(mut self, protocols: &[ProtocolKind]) -> Self {
        for &p in protocols {
            self.series.push(Series {
                label: p.name().to_string(),
                sim: SimParams { protocol: p, ..SimParams::default() },
                table: None,
            });
        }
        self
    }

    /// Add one custom series (ablations: tree kinds, epoch periods, …).
    pub fn series(mut self, label: impl Into<String>, sim: SimParams) -> Self {
        self.series.push(Series { label: label.into(), sim, table: None });
        self
    }

    /// Add a custom series with its own Table-1 base, replacing the
    /// spec-level one before the axis setter runs.
    pub fn series_with_table(
        mut self,
        label: impl Into<String>,
        sim: SimParams,
        table: TableOneParams,
    ) -> Self {
        self.series.push(Series { label: label.into(), sim, table: Some(table) });
        self
    }

    /// Seeds averaged per `(x, series)` cell (default 1).
    pub fn seeds(mut self, seeds: u64) -> Self {
        self.seeds = seeds.max(1);
        self
    }

    /// The spec's name (used as progress label and emitted-file stem).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Expand to the full point list, in deterministic aggregation order:
    /// x-major, then series, then seed (seed values start at 42, matching
    /// the serial harness).
    pub fn jobs(&self) -> Vec<PointJob> {
        let mut jobs = Vec::with_capacity(self.xs.len() * self.series.len() * self.seeds as usize);
        for &x in &self.xs {
            for series in &self.series {
                let mut table = series.table.clone().unwrap_or_else(|| self.table.clone());
                let mut sim = series.sim.clone();
                (self.set)(&mut table, &mut sim, x);
                for s in 0..self.seeds {
                    jobs.push(PointJob { table: table.clone(), sim: sim.clone(), seed: 42 + s });
                }
            }
        }
        jobs
    }

    /// Fold flat point results (in [`ExperimentSpec::jobs`] order) back
    /// into rows, averaging each cell's seeds.
    pub(crate) fn aggregate(
        &self,
        results: Vec<Result<MetricsSummary, RunError>>,
        stats: RunnerStats,
    ) -> SweepResult {
        let seeds = self.seeds as usize;
        let mut it = results.into_iter();
        let rows = self
            .xs
            .iter()
            .map(|&x| {
                let cells = self
                    .series
                    .iter()
                    .map(|_| {
                        let cell: Vec<Result<MetricsSummary, RunError>> =
                            it.by_ref().take(seeds).collect();
                        assert_eq!(cell.len(), seeds, "runner returned too few results");
                        average_cell(cell)
                    })
                    .collect();
                SweepRow { x, cells }
            })
            .collect();
        SweepResult {
            id: self.id.clone(),
            title: self.title.clone(),
            xlabel: self.xlabel.clone(),
            series: self.series.iter().map(|s| s.label.clone()).collect(),
            rows,
            stats,
            emit: Emit::default(),
        }
    }
}

/// Average the headline metrics of one cell's seed runs (identity for
/// one run); any failed seed fails the cell.
fn average_cell(runs: Vec<Result<MetricsSummary, RunError>>) -> Result<MetricsSummary, RunError> {
    let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    if runs.len() == 1 {
        return Ok(runs[0].clone());
    }
    let n = runs.len() as f64;
    let mut acc = runs[0].clone();
    acc.throughput_per_site = runs.iter().map(|r| r.throughput_per_site).sum::<f64>() / n;
    acc.abort_rate_pct = runs.iter().map(|r| r.abort_rate_pct).sum::<f64>() / n;
    acc.mean_response_ms = runs.iter().map(|r| r.mean_response_ms).sum::<f64>() / n;
    acc.mean_propagation_ms = runs.iter().map(|r| r.mean_propagation_ms).sum::<f64>() / n;
    acc.max_propagation_ms = runs.iter().map(|r| r.max_propagation_ms).fold(0.0_f64, f64::max);
    acc.commits = runs.iter().map(|r| r.commits).sum::<u64>() / runs.len() as u64;
    acc.aborts = runs.iter().map(|r| r.aborts).sum::<u64>() / runs.len() as u64;
    acc.messages = runs.iter().map(|r| r.messages).sum::<u64>() / runs.len() as u64;
    acc.crashes = runs.iter().map(|r| r.crashes).sum::<u64>() / runs.len() as u64;
    acc.availability_pct = runs.iter().map(|r| r.availability_pct).sum::<f64>() / n;
    acc.mean_recovery_ms = runs.iter().map(|r| r.mean_recovery_ms).sum::<f64>() / n;
    acc.stall_ms = runs.iter().map(|r| r.stall_ms).sum::<f64>() / n;
    Ok(acc)
}

/// One emitted row: the swept x value and one result per series.
#[derive(Debug)]
pub struct SweepRow {
    /// The swept parameter value.
    pub x: f64,
    /// Per-series outcome, in spec series order.
    pub cells: Vec<Result<MetricsSummary, RunError>>,
}

/// A completed sweep: deterministic rows plus pool statistics.
#[derive(Debug)]
pub struct SweepResult {
    /// Spec id (emitted-file stem).
    pub id: String,
    /// Figure title.
    pub title: String,
    /// Axis label; empty for single-point experiments.
    pub xlabel: String,
    /// Series labels, in column order.
    pub series: Vec<String>,
    /// One row per swept x value.
    pub rows: Vec<SweepRow>,
    /// Pool statistics (points, failures, workers, wall clock).
    pub stats: RunnerStats,
    /// The files [`SweepResult::print`] also writes.
    pub emit: Emit,
}

impl SweepResult {
    /// The summary at (`row`, `series`), if that cell succeeded.
    pub fn cell(&self, row: usize, series: usize) -> Option<&MetricsSummary> {
        self.rows.get(row)?.cells.get(series)?.as_ref().ok()
    }

    /// Every error in the sweep, with its coordinates.
    pub fn errors(&self) -> Vec<(f64, &str, &RunError)> {
        let mut out = Vec::new();
        for row in &self.rows {
            for (si, cell) in row.cells.iter().enumerate() {
                if let Err(e) = cell {
                    out.push((row.x, self.series[si].as_str(), e));
                }
            }
        }
        out
    }
}
