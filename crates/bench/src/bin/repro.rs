//! `repro` — regenerate one of the paper's §5 experiments by name.
//!
//! ```text
//! repro <experiment> [args…]
//! ```
//!
//! The experiments are the [`repl_bench::experiments::EXPERIMENTS`]
//! registry; with no name, or a name it does not know, `repro` lists them
//! and exits 2. Tables go to stdout, progress to stderr. Exit codes: 0 on
//! success, 1 when an experiment misses its acceptance bar, 2 on bad
//! arguments or environment (e.g. `REPRO_SEEDS=0`) or a failed chaos
//! cell. The `REPRO_*` scale knobs are described in the crate docs.

use std::process::ExitCode;

use repl_bench::experiments::{find, Failure, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, run)) = args.first().and_then(|name| Some((name, find(name)?))) else {
        if let Some(name) = args.first() {
            eprintln!("repro: unknown experiment {name:?}\n");
        }
        eprintln!("usage: repro <experiment> [args…]\n\nexperiments:");
        for (name, about, _) in EXPERIMENTS {
            eprintln!("  {name:<15} {about}");
        }
        return ExitCode::from(2);
    };
    match run.main(&args[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Bar) => ExitCode::from(1),
        Err(Failure::Error(msg)) => {
            eprintln!("{name}: {msg}");
            ExitCode::from(2)
        }
    }
}
