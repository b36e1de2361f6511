//! The `repro` command line: how it answers a name it does not know, and
//! a scale knob it cannot use. Neither case runs a simulation.

use std::process::{Command, Output};

use repl_bench::experiments::EXPERIMENTS;

fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).current_dir(std::env::temp_dir());
    for var in ["REPRO_TXNS", "REPRO_SEEDS", "REPRO_WORKERS", "REPRO_SCALE", "REPRO_EMIT"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied()).output().expect("repro runs")
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
    for (var, value) in [("REPRO_SEEDS", "0"), ("REPRO_TXNS", "abc"), ("REPRO_WORKERS", "0")] {
        let out = repro(&["response_time"], &[(var, value), ("REPRO_NO_CACHE", "1")]);
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        assert!(out.stdout.is_empty(), "{var}={value} printed a table");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(var), "{var}={value}: {err}");
    }
}
