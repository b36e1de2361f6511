//! What is printed and written: the one-line result the driver reads,
//! the metric table, run-set files, the trajectory, and `compare`.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::json::{quote, Json};
use crate::run::{Metric, RunOutput};
use crate::stats::{median, spread};

/// The last line of standard output of one run:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
pub fn result_line(out: &RunOutput) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&m.name),
            m.value,
            quote(m.unit)
        );
    }
    s.push_str("}}");
    s
}

/// Every metric by name, with its unit and the observations behind it.
pub fn table(workload: &str, metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let _ = writeln!(
            s,
            "{workload:<18} {:<40} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    s
}

/// The commit a run set was measured at; a checkout without git says so.
pub fn commit_id() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One workload of a run set: its repeats' end-to-end values and one
/// traced run's per-layer values.
#[derive(Default)]
pub struct WorkloadSet {
    pub name: String,
    /// Per end-to-end metric: unit and one value per repeat.
    pub end_to_end: Vec<(String, &'static str, Vec<f64>)>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl WorkloadSet {
    pub fn add_repeat(&mut self, out: &RunOutput) {
        for m in &out.metrics {
            match self.end_to_end.iter_mut().find(|(n, _, _)| *n == m.name) {
                Some((_, _, values)) => values.push(m.value),
                None => self.end_to_end.push((m.name.clone(), m.unit, vec![m.value])),
            }
        }
    }
}

/// Write a run set as JSON, for `compare`.
pub fn write_set(
    path: &Path,
    commit: &str,
    seed: u64,
    secs: f64,
    sets: &[WorkloadSet],
) -> std::io::Result<()> {
    let mut s = format!(
        "{{\"commit\": {}, \"seed\": {seed}, \"seconds\": {secs}, \"workloads\": {{\n",
        quote(commit)
    );
    for (i, w) in sets.iter().enumerate() {
        let _ = write!(
            s,
            "{}: {{\"correct\": {}, \"attempted\": {}, \"failed\": {},\n  \"end_to_end\": {{",
            quote(&w.name),
            w.correct,
            w.attempted,
            w.failed
        );
        for (j, (name, unit, values)) in w.end_to_end.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let list: Vec<String> = values.iter().map(f64::to_string).collect();
            let _ = write!(
                s,
                "{sep}\n    {}: {{\"unit\": {}, \"values\": [{}]}}",
                quote(name),
                quote(unit),
                list.join(", ")
            );
        }
        s.push_str("},\n  \"per_layer\": {");
        for (j, m) in w.per_layer.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\n    {}: {{\"unit\": {}, \"value\": {}, \"samples\": {}}}",
                quote(&m.name),
                quote(m.unit),
                m.value,
                m.samples
            );
        }
        s.push_str(if i + 1 < sets.len() { "}},\n" } else { "}}\n" });
    }
    s.push_str("}}\n");
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, s)
}

/// Append one line per workload (commit, seed, medians) to the
/// committed trajectory.
pub fn append_trajectory(
    path: &Path,
    commit: &str,
    seed: u64,
    sets: &[WorkloadSet],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut file = fs::OpenOptions::new().create(true).append(true).open(path)?;
    for w in sets {
        let mut line = format!(
            "{{\"commit\": {}, \"seed\": {seed}, \"workload\": {}, \"correct\": {}, \"metrics\": {{",
            quote(commit),
            quote(&w.name),
            w.correct
        );
        let medians = w.end_to_end.iter().map(|(n, _, v)| (n.as_str(), median(v)));
        // The demoted metrics are in both lists; the trajectory keeps the
        // medians over the repeats.
        let repeated = |name: &str| w.end_to_end.iter().any(|(n, _, _)| n == name);
        let layers =
            w.per_layer.iter().filter(|m| !repeated(&m.name)).map(|m| (m.name.as_str(), m.value));
        for (i, (name, value)) in medians.chain(layers).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(line, "{sep}{}: {value}", quote(name));
        }
        line.push_str("}}\n");
        file.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// A bound and a direction per end-to-end metric, from `BENCHMARK.json`.
pub fn declared_bounds(benchmark: &Json) -> Vec<(String, bool, f64)> {
    benchmark
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let higher = m.get("better")?.as_str()? == "higher";
            Some((name, higher, m.get("bound")?.as_f64()?))
        })
        .collect()
}

/// Compare two run sets, workload × end-to-end metric; the verdicts
/// are the same whichever way round the sets are given. Returns the
/// table and whether any pair differs beyond its bound, the difference
/// being taken as a share of the smaller median. Where either side's
/// spread exceeds the bound the pair is *unresolved*: the runs cannot
/// tell a change of that size from noise. Metrics without a bound in
/// `BENCHMARK.json` (the demoted ones) are shown without a verdict.
pub fn compare(a: &Json, b: &Json, bounds: &[(String, bool, f64)]) -> (String, bool) {
    let mut s = format!(
        "{:<18} {:<16} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "median A", "spread", "median B", "spread", "B vs A", "bound"
    );
    let mut differ = false;
    let metrics = |set: &Json, workload: &str| -> Vec<(String, Vec<f64>)> {
        let listed = set
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("end_to_end"))
            .map(Json::members)
            .unwrap_or_default();
        let values = |m: &Json| -> Vec<f64> {
            m.get("values").map_or(&[][..], Json::as_arr).iter().filter_map(Json::as_f64).collect()
        };
        listed.iter().map(|(name, m)| (name.clone(), values(m))).collect()
    };
    let workloads = a.get("workloads").map(Json::members).unwrap_or_default();
    for (workload, _) in workloads {
        let in_b = metrics(b, workload);
        for (metric, va) in metrics(a, workload) {
            let vb = in_b.iter().find(|(name, _)| *name == metric).map(|(_, v)| v.as_slice());
            let Some(vb) = vb.filter(|v| !v.is_empty() && !va.is_empty()) else {
                let _ = writeln!(s, "{workload:<18} {metric:<16} missing on one side");
                differ = true;
                continue;
            };
            let (ma, mb) = (median(&va), median(vb));
            let (sa, sb) = (spread(&va).unwrap_or(0.0), spread(vb).unwrap_or(0.0));
            let base = ma.abs().min(mb.abs());
            let change = if base != 0.0 { (mb - ma) / base } else { 0.0 };
            let bound = bounds.iter().find(|(name, _, _)| *name == metric);
            let verdict = match bound {
                None => "no bound",
                Some((_, _, bound)) if sa > *bound || sb > *bound => "unresolved",
                Some((_, higher_better, bound)) if change.abs() > *bound => {
                    differ = true;
                    if (change > 0.0) == *higher_better {
                        "A WORSE"
                    } else {
                        "B WORSE"
                    }
                }
                Some(_) => "within bound",
            };
            let bound = bound.map_or("-".to_string(), |(_, _, b)| format!("{:.1}%", b * 100.0));
            let _ = writeln!(
                s,
                "{workload:<18} {metric:<16} {ma:>12.3} {:>7.1}% {mb:>12.3} {:>7.1}% {:>+7.1}% {bound:>6}  {verdict}",
                sa * 100.0,
                sb * 100.0,
                change * 100.0,
            );
        }
    }
    (s, differ)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(tps: &[f64], p50: &[f64]) -> Json {
        let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        Json::parse(&format!(
            "{{\"workloads\": {{\"w\": {{\"end_to_end\": {{\
             \"throughput_tps\": {{\"unit\": \"1/s\", \"values\": [{}]}},\
             \"commit_p50_us\": {{\"unit\": \"us\", \"values\": [{}]}}}}}}}}}}",
            list(tps),
            list(p50)
        ))
        .unwrap()
    }

    #[test]
    fn compare_verdicts() {
        let bounds = vec![
            ("throughput_tps".to_string(), true, 0.1),
            ("commit_p50_us".to_string(), false, 0.1),
        ];
        let a = set(&[100.0, 101.0, 102.0], &[50.0, 50.5, 51.0]);
        // B: throughput and latency both a fifth lower. B is worse on
        // the first and A on the second, whichever set is named first.
        let b = set(&[80.0, 81.0, 82.0], &[40.0, 40.5, 41.0]);
        let (ab, bad_ab) = compare(&a, &b, &bounds);
        let (ba, bad_ba) = compare(&b, &a, &bounds);
        let verdicts = |text: &str| -> Vec<String> {
            text.lines().skip(1).map(|l| l.rsplit("  ").next().unwrap().to_string()).collect()
        };
        assert!(bad_ab && bad_ba);
        assert_eq!(verdicts(&ab), ["B WORSE", "A WORSE"], "{ab}");
        assert_eq!(verdicts(&ba), ["A WORSE", "B WORSE"], "{ba}");
        // 141.5 against 183 is beyond a quarter from either side.
        let quarter = vec![("commit_p50_us".to_string(), false, 0.25)];
        let (low, high) =
            (set(&[1.0], &[141.0, 141.5, 142.0]), set(&[1.0], &[182.0, 183.0, 184.0]));
        assert!(compare(&low, &high, &quarter).1 && compare(&high, &low, &quarter).1);
        // A noisy side cannot show a difference or its absence.
        let (text, bad) = compare(&a, &set(&[60.0, 100.0, 140.0], &[50.0, 50.5, 51.0]), &bounds);
        assert!(!bad && text.contains("unresolved"), "{text}");
        // A metric without a bound gets no verdict.
        let (text, bad) = compare(&a, &b, &bounds[..1]);
        assert!(bad && text.contains("no bound"), "{text}");
        let (_, bad) = compare(&a, &a, &bounds);
        assert!(!bad);
    }

    #[test]
    fn trajectory_names_each_metric_once() {
        let metric =
            |name: &str, value| Metric { name: name.into(), unit: "us", value, samples: 1 };
        let set = WorkloadSet {
            name: "w".into(),
            end_to_end: vec![("commit_p50_us".into(), "us", vec![40.0, 50.0, 60.0])],
            per_layer: vec![metric("commit_p50_us", 70.0), metric("client.wait_us", 30.0)],
            correct: true,
            ..Default::default()
        };
        let path = std::env::temp_dir().join(format!("replbench-traj-{}", std::process::id()));
        append_trajectory(&path, "abc", 7, &[set]).unwrap();
        let line = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        fs::remove_file(&path).unwrap();
        let metrics = line.get("metrics").unwrap().members();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["commit_p50_us", "client.wait_us"]);
        assert_eq!(metrics[0].1.as_f64(), Some(50.0));
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let out = RunOutput {
            metrics: vec![Metric { name: "setup_s".into(), unit: "s", value: 0.8127, samples: 5 }],
            attempted: 1000,
            failed: 0,
            correct: true,
            reason: None,
        };
        let parsed = Json::parse(&result_line(&out)).unwrap();
        let keys: Vec<&str> = parsed.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(
            (m.get("value").unwrap().as_f64(), m.get("unit").unwrap().as_str()),
            (Some(0.8127), Some("s"))
        );
    }
}
