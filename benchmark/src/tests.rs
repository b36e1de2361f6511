//! Tests that cross modules: the declared names, and the watchdog
//! against a live fleet.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::run::{run, RunConfig};
use crate::{fleet, spec};

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> BTreeSet<String> {
    list.as_arr().iter().map(|m| m.get("name").unwrap().as_str().unwrap().to_string()).collect()
}

#[test]
fn printed_names_are_the_declared_names() {
    let declared = benchmark_json();
    let workloads: BTreeSet<String> =
        spec::workloads().iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, names(declared.get("workloads").unwrap()));
    let end_to_end: BTreeSet<String> = spec::END_TO_END.iter().map(|m| m.0.to_string()).collect();
    assert_eq!(end_to_end, names(declared.get("end_to_end").unwrap()));
    let per_layer: BTreeSet<String> = spec::per_layer().into_iter().map(|m| m.0).collect();
    assert_eq!(per_layer, names(declared.get("per_layer").unwrap()));
    assert_eq!(per_layer.len(), spec::per_layer().len(), "a per-layer name is declared twice");

    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(name.len() <= 64 && name.chars().all(ok), "bad name {name:?}");
        assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()), "bad name {name:?}");
    }
    // Units printed are the units declared.
    for section in ["end_to_end", "per_layer"] {
        for m in declared.get(section).unwrap().as_arr() {
            let (name, unit) =
                (m.get("name").unwrap().as_str().unwrap(), m.get("unit").unwrap().as_str());
            let printed = spec::units().into_iter().find(|(n, _)| n == name).map(|(_, u)| u);
            assert_eq!(printed, unit, "unit of {name}");
        }
    }
}

/// Live-fleet tests count this process's `repld` children, so they
/// must not overlap.
static LIVE_FLEET: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn short_run(secs: f64) -> RunConfig {
    RunConfig {
        wl: spec::workloads().swap_remove(0),
        seed: 1999,
        secs,
        warmup_secs: 0.2,
        trace: false,
        options: fleet::default_options(),
        drain_deadline: Duration::from_secs(2),
        fleets: 1,
        check_txns: 200,
        results_dir: None,
    }
}

/// A healthy short run: two load connections, every end-to-end metric
/// printed and non-zero (the bounded ones, then the demoted ones),
/// nothing failed.
#[test]
fn short_run_reports_every_end_to_end_metric() {
    let _serial = LIVE_FLEET.lock().unwrap_or_else(|e| e.into_inner());
    let out = run(&short_run(1.0)).expect("fleet runs");
    assert!(out.correct && out.failed == 0, "{:?}", out.reason);
    let printed: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    let declared: Vec<&str> = spec::END_TO_END.iter().chain(&spec::DEMOTED).map(|m| m.0).collect();
    assert_eq!(printed, declared);
    assert!(out.metrics.iter().all(|m| m.value > 0.0), "{:?}", out.metrics);
    assert!(crate::procfs::repld_children().is_empty(), "repld children left behind");
}

/// SIGSTOP one site mid-run. The watchdog must end the run within its
/// deadline, report it failed with a reason, and leave no child behind.
#[test]
fn watchdog_ends_a_run_whose_site_stopped() {
    let _serial = LIVE_FLEET.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = short_run(1.5);
    let stopper = std::thread::spawn(|| {
        // Stop s1, the relay of the chain, once the window is under way.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let sites = crate::procfs::repld_children();
            if let Some((pid, _)) =
                sites.iter().find(|(_, site)| *site == 1).filter(|_| sites.len() == 3)
            {
                std::thread::sleep(Duration::from_millis(700));
                fleet::signal(*pid, "STOP");
                return;
            }
            assert!(Instant::now() < deadline, "fleet never came up");
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    let start = Instant::now();
    let out = run(&cfg).expect("the harness itself must survive");
    stopper.join().unwrap();
    // 0.2 s warm-up + 1.5 s window + two 2 s deadlines, with slack.
    assert!(start.elapsed() < Duration::from_secs(12), "took {:?}", start.elapsed());
    assert!(!out.correct);
    assert!(
        out.failed > 0 && out.failed == out.attempted,
        "failed {} of {}",
        out.failed,
        out.attempted
    );
    let reason = out.reason.expect("a failed run states why");
    assert!(reason.starts_with("watchdog:"), "{reason}");
    assert!(crate::procfs::repld_children().is_empty(), "repld children survived the watchdog");
}
