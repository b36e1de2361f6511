//! `replmc`'s count flags, against the built binary. `--sites`, `--txns`
//! and `--timers` go through one `u32` parser: a value past `u32::MAX`
//! would wrap to another scenario, and zero sites or transactions
//! explore nothing, so each exits 2 naming its flag. A zero
//! `--max-states` or `--max-depth` truncates every scenario, so it
//! checks nothing and exits 2 the same way.

/// `replmc` on DAG(WT)/chain3x2 with `flag value` added.
fn run(flag: &str, value: &str) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_replmc"))
        .args(["--protocol", "dagwt", "--topology", "chain", flag, value])
        .output()
        .expect("replmc runs")
}

/// `flag value` exits 2 naming the flag.
fn refused(flags: &[&str], value: &str) {
    for flag in flags {
        let out = run(flag, value);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value:?}: {stderr}");
        assert!(stderr.contains(&format!("replmc: {flag} needs")), "{flag} {value:?}: {stderr}");
    }
}

#[test]
fn zero_sites_or_transactions_are_refused() {
    refused(&["--sites", "--txns"], "0");
    assert_eq!(run("--timers", "0").status.code(), Some(0), "zero timers is a budget");
}

#[test]
fn a_zero_state_or_depth_bound_is_refused() {
    refused(&["--max-states", "--max-depth"], "0");
}

#[test]
fn a_count_past_u32_is_refused_not_wrapped() {
    refused(&["--sites", "--txns", "--timers"], "4294967296");
}

#[test]
fn a_count_that_is_not_a_number_is_refused() {
    refused(&["--sites", "--txns", "--timers"], "abc");
}

#[test]
fn an_empty_count_is_refused() {
    refused(&["--sites", "--txns", "--timers"], "");
}
