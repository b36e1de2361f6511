//! The `repro` command line: how it answers a name it does not know, a
//! scale knob it cannot use, and what a plain run leaves on disk.

use std::path::Path;
use std::process::{Command, Output};

use repl_bench::experiments::EXPERIMENTS;

/// Run `repro` in `dir` with every `REPRO_*` knob unset but `env`.
fn repro_in(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).current_dir(dir);
    for var in ["REPRO_TXNS", "REPRO_SEEDS", "REPRO_WORKERS", "REPRO_SCALE", "REPRO_EMIT"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied()).output().expect("repro runs")
}

fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    repro_in(&std::env::temp_dir(), args, env)
}

#[test]
fn an_unknown_or_missing_name_exits_2_and_lists_the_experiments() {
    for args in [&["no_such_experiment"][..], &[]] {
        let out = repro(args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
        let listing = String::from_utf8(out.stderr).unwrap();
        for (name, ..) in EXPERIMENTS {
            assert!(listing.contains(name), "{args:?}: listing lacks {name}");
        }
    }
}

#[test]
fn a_zero_or_unparsable_scale_knob_exits_2_before_any_table() {
    let knobs = [
        ("REPRO_SEEDS", "0"),
        ("REPRO_TXNS", "abc"),
        ("REPRO_WORKERS", "0"),
        ("REPRO_SCALE", "fast"),
        ("REPRO_EMIT", "jsn"),
    ];
    for (var, value) in knobs {
        let out = repro(&["response_time"], &[(var, value)]);
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        assert!(out.stdout.is_empty(), "{var}={value} printed a table");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(var), "{var}={value}: {err}");
    }
}

#[test]
fn a_sweep_leaves_its_working_directory_as_it_found_it() {
    // Every point is computed on every run: without `REPRO_EMIT` a sweep
    // prints its table and writes nothing, not even a directory.
    let dir = std::env::temp_dir().join(format!("repro-cli-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir(&dir).unwrap();
    let out = repro_in(&dir, &["response_time"], &[("REPRO_TXNS", "10")]);
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(table.contains("BackEdge") && table.contains("PSL"), "no table: {table}");
    assert!(left.is_empty(), "repro left {left:?} behind");
}
