//! The single emit path for every figure: aligned text tables for the
//! terminal, CSV/JSON for downstream tooling.
//!
//! All output is a pure function of the [`SweepResult`] rows, so a sweep
//! emits byte-identical series no matter how many workers produced it —
//! the property `tests/parallel_runner.rs` pins down.

use repl_core::metrics::MetricsSummary;
use repl_types::json::{self, Object};

use super::spec::SweepResult;

/// The files a printed sweep also writes under `results/`, beside its
/// text table (`REPRO_EMIT`, read by `Scale::from_env`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Emit {
    /// Write `results/<id>.csv`.
    pub csv: bool,
    /// Write `results/<id>.json`.
    pub json: bool,
}

impl Emit {
    /// Parse a comma list of `csv` and `json`. Any other entry, an empty
    /// one included, is refused with the entry named.
    pub fn parse(list: &str) -> Result<Emit, String> {
        let mut emit = Emit::default();
        for kind in list.split(',') {
            match kind.trim() {
                "csv" => emit.csv = true,
                "json" => emit.json = true,
                other => return Err(format!("unknown kind {other:?} (want csv, json)")),
            }
        }
        Ok(emit)
    }
}

/// A metric column of an emitted series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Column {
    /// Committed primaries per site per virtual second (§5.3 metric 1).
    Throughput,
    /// Percentage of primary attempts that aborted (§5.3 metric 2).
    AbortPct,
    /// Mean response time of committed transactions, ms (§5.3.4).
    ResponseMs,
    /// Mean commit-to-last-replica propagation delay, ms (§5.3.4).
    PropMs,
    /// Worst-case propagation delay, ms.
    MaxPropMs,
    /// Total network messages.
    Messages,
    /// Site crashes injected by the fault plan.
    Crashes,
    /// Percentage of site-time the sites were up.
    Availability,
    /// Mean restart-to-caught-up recovery latency, ms.
    RecoveryMs,
}

impl Column {
    /// Short header used in text tables.
    pub fn short(self) -> &'static str {
        match self {
            Column::Throughput => "thr/s",
            Column::AbortPct => "ab%",
            Column::ResponseMs => "resp ms",
            Column::PropMs => "prop ms",
            Column::MaxPropMs => "max prop",
            Column::Messages => "msgs",
            Column::Crashes => "crash",
            Column::Availability => "avail%",
            Column::RecoveryMs => "recov ms",
        }
    }

    /// Stable machine-readable key used in CSV headers.
    pub fn key(self) -> &'static str {
        match self {
            Column::Throughput => "throughput_per_site",
            Column::AbortPct => "abort_rate_pct",
            Column::ResponseMs => "mean_response_ms",
            Column::PropMs => "mean_propagation_ms",
            Column::MaxPropMs => "max_propagation_ms",
            Column::Messages => "messages",
            Column::Crashes => "crashes",
            Column::Availability => "availability_pct",
            Column::RecoveryMs => "mean_recovery_ms",
        }
    }

    /// Table rendering (fixed precision per metric).
    pub fn display(self, s: &MetricsSummary) -> String {
        match self {
            Column::Throughput => format!("{:.2}", s.throughput_per_site),
            Column::AbortPct => format!("{:.1}", s.abort_rate_pct),
            Column::ResponseMs => format!("{:.1}", s.mean_response_ms),
            Column::PropMs => format!("{:.1}", s.mean_propagation_ms),
            Column::MaxPropMs => format!("{:.1}", s.max_propagation_ms),
            Column::Messages => s.messages.to_string(),
            Column::Crashes => s.crashes.to_string(),
            Column::Availability => format!("{:.2}", s.availability_pct),
            Column::RecoveryMs => format!("{:.1}", s.mean_recovery_ms),
        }
    }

    /// CSV rendering (full shortest-round-trip precision).
    pub fn raw(self, s: &MetricsSummary) -> String {
        match self {
            Column::Throughput => s.throughput_per_site.to_string(),
            Column::AbortPct => s.abort_rate_pct.to_string(),
            Column::ResponseMs => s.mean_response_ms.to_string(),
            Column::PropMs => s.mean_propagation_ms.to_string(),
            Column::MaxPropMs => s.max_propagation_ms.to_string(),
            Column::Messages => s.messages.to_string(),
            Column::Crashes => s.crashes.to_string(),
            Column::Availability => s.availability_pct.to_string(),
            Column::RecoveryMs => s.mean_recovery_ms.to_string(),
        }
    }
}

/// Right-align `cells` (first row = header) into lines joined by `sep`.
fn align(table: &[Vec<String>], group: usize) -> String {
    let cols = table.first().map(|r| r.len()).unwrap_or(0);
    let widths: Vec<usize> =
        (0..cols).map(|c| table.iter().map(|r| r[c].chars().count()).max().unwrap_or(0)).collect();
    let mut out = String::new();
    for row in table {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                // Group boundary (new series) gets a column separator.
                out.push_str(if group > 0 && (c - 1) % group == 0 { " | " } else { "  " });
            }
            out.push_str(&" ".repeat(widths[c].saturating_sub(cell.chars().count())));
            out.push_str(cell);
        }
        out.push('\n');
    }
    out
}

fn error_lines(result: &SweepResult, xlabel: &str) -> String {
    let mut out = String::new();
    for (x, series, err) in result.errors() {
        out.push_str(&format!("! {series} @ {xlabel}={x}: {err}\n"));
    }
    out
}

impl SweepResult {
    /// The figure as an aligned text table: one row per x value, one
    /// column group per series. Failed cells render as the error tag and
    /// are detailed below the table.
    pub fn text(&self, cols: &[Column]) -> String {
        let xlabel = if self.xlabel.is_empty() { "x" } else { &self.xlabel };
        let mut table: Vec<Vec<String>> = Vec::with_capacity(self.rows.len() + 1);
        let mut header = vec![xlabel.to_string()];
        for series in &self.series {
            for col in cols {
                header.push(format!("{series} {}", col.short()));
            }
        }
        table.push(header);
        for row in &self.rows {
            let mut line = vec![format!("{:.2}", row.x)];
            for cell in &row.cells {
                for col in cols {
                    line.push(match cell {
                        Ok(s) => col.display(s),
                        Err(e) => e.tag().to_string(),
                    });
                }
            }
            table.push(line);
        }
        format!(
            "\n=== {} ===\n{}{}",
            self.title,
            align(&table, cols.len()),
            error_lines(self, xlabel)
        )
    }

    /// Single-x experiments rendered with one row per *series* (the shape
    /// `response_time`/`propagation` report in).
    pub fn text_transposed(&self, cols: &[Column]) -> String {
        let mut table: Vec<Vec<String>> = Vec::with_capacity(self.series.len() + 1);
        let mut header = vec!["series".to_string()];
        header.extend(cols.iter().map(|c| c.short().to_string()));
        table.push(header);
        for row in &self.rows {
            for (si, cell) in row.cells.iter().enumerate() {
                let mut line = vec![if self.rows.len() > 1 {
                    format!("{} @ {:.2}", self.series[si], row.x)
                } else {
                    self.series[si].clone()
                }];
                match cell {
                    Ok(s) => line.extend(cols.iter().map(|c| c.display(s))),
                    Err(e) => line.extend(cols.iter().map(|_| e.tag().to_string())),
                }
                table.push(line);
            }
        }
        format!("\n=== {} ===\n{}{}", self.title, align(&table, 0), error_lines(self, "x"))
    }

    /// The series as CSV with full-precision values; failed cells carry
    /// the error tag in every column.
    pub fn csv(&self, cols: &[Column]) -> String {
        let xlabel = if self.xlabel.is_empty() { "x" } else { &self.xlabel };
        let mut out = String::new();
        out.push_str(xlabel);
        for series in &self.series {
            for col in cols {
                out.push_str(&format!(",{series}/{}", col.key()));
            }
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.x.to_string());
            for cell in &row.cells {
                for col in cols {
                    out.push(',');
                    match cell {
                        Ok(s) => out.push_str(&col.raw(s)),
                        Err(e) => out.push_str(e.tag()),
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// The full sweep — every metric of every cell — as JSON.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let mut o = Object::new(&mut out);
        o.str("id", &self.id).str("title", &self.title).str("xlabel", &self.xlabel);
        o.field("series", |out| json::array(out, &self.series, |out, s| json::string(out, s)));
        o.field("rows", |out| {
            json::array(out, &self.rows, |out, row| {
                let mut r = Object::new(out);
                r.field("x", |out| out.push_str(&row.x.to_string()));
                r.field("cells", |out| {
                    json::array(out, &row.cells, |out, cell| match cell {
                        Ok(s) => out.push_str(&s.to_json()),
                        Err(e) => {
                            let mut err = Object::new(out);
                            err.str("error", &e.to_string());
                            err.end();
                        }
                    })
                });
                r.end();
            })
        });
        o.end();
        out
    }

    /// Print the text table to stdout and also write
    /// `results/<id>.<ext>` for each kind [`SweepResult::emit`] names.
    pub fn print(&self, cols: &[Column]) {
        print!("{}", self.text(cols));
        self.emit_files(cols);
    }

    /// [`SweepResult::print`], transposed (single-x experiments).
    pub fn print_transposed(&self, cols: &[Column]) {
        print!("{}", self.text_transposed(cols));
        self.emit_files(cols);
    }

    fn emit_files(&self, cols: &[Column]) {
        let Emit { csv, json } = self.emit;
        if !(csv || json) {
            return;
        }
        // Nothing under `results/` is tracked; a fresh checkout has no such directory.
        let _ = std::fs::create_dir_all("results");
        let csv = csv.then(|| (format!("results/{}.csv", self.id), self.csv(cols)));
        let json = json.then(|| (format!("results/{}.json", self.id), self.json()));
        for (path, body) in csv.into_iter().chain(json) {
            match std::fs::write(&path, body) {
                Ok(()) => eprintln!("[{}] wrote {path}", self.id),
                Err(e) => eprintln!("[{}] failed to write {path}: {e}", self.id),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunError, RunnerStats, SweepRow};
    use repl_sim::SimDuration;

    fn summary(thr: f64) -> MetricsSummary {
        MetricsSummary {
            commits: 100,
            aborts: 5,
            throughput_per_site: thr,
            abort_rate_pct: 4.76,
            mean_response_ms: 180.0,
            mean_propagation_ms: 250.0,
            max_propagation_ms: 400.0,
            incomplete_propagations: 0,
            messages: 1234,
            virtual_duration: SimDuration::secs(12),
            crashes: 0,
            availability_pct: 100.0,
            mean_recovery_ms: 0.0,
            stall_ms: 0.0,
        }
    }

    fn result() -> SweepResult {
        SweepResult {
            id: "t".into(),
            title: "Test Figure".into(),
            xlabel: "b".into(),
            series: vec!["BackEdge".into(), "PSL".into()],
            rows: vec![
                SweepRow { x: 0.0, cells: vec![Ok(summary(120.5)), Ok(summary(40.25))] },
                SweepRow {
                    x: 0.5,
                    cells: vec![
                        Ok(summary(99.0)),
                        Err(RunError::Stalled {
                            protocol: "PSL",
                            span_s: 60,
                            virtual_us: 7,
                            last_progress_us: 0,
                            head: None,
                        }),
                    ],
                },
            ],
            stats: RunnerStats::default(),
            emit: Emit::default(),
        }
    }

    #[test]
    fn text_table_contains_headers_values_and_error_tags() {
        let t = result().text(&[Column::Throughput, Column::AbortPct]);
        assert!(t.contains("=== Test Figure ==="), "{t}");
        assert!(t.contains("BackEdge thr/s"), "{t}");
        assert!(t.contains("PSL ab%"), "{t}");
        assert!(t.contains("120.50"), "{t}");
        assert!(t.contains("ERR:stall"), "{t}");
        assert!(t.contains("! PSL @ b=0.5"), "{t}");
    }

    #[test]
    fn csv_has_stable_header_and_full_precision() {
        let c = result().csv(&[Column::Throughput]);
        let mut lines = c.lines();
        assert_eq!(lines.next(), Some("b,BackEdge/throughput_per_site,PSL/throughput_per_site"));
        assert_eq!(lines.next(), Some("0,120.5,40.25"));
        assert_eq!(lines.next(), Some("0.5,99,ERR:stall"));
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_cells() {
        let j = result().json();
        assert!(j.starts_with("{\"id\":\"t\""), "{j}");
        assert!(j.contains("\"throughput_per_site\":120.5"), "{j}");
        assert!(j.contains("\"error\":"), "{j}");
    }

    #[test]
    fn transposed_layout_names_series_per_row() {
        let mut r = result();
        r.rows.truncate(1);
        let t = r.text_transposed(&[Column::Throughput, Column::Messages]);
        assert!(t.contains("BackEdge"), "{t}");
        assert!(t.contains("1234"), "{t}");
    }
}
