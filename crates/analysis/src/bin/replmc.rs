//! `replmc` — exhaustive bounded model checking of the protocol machines.
//!
//! Usage:
//!
//! ```text
//! replmc [--stats] [--json] [OPTIONS]            # run the CI gate matrix
//! replmc --protocol P --topology T [OPTIONS]     # run one scenario
//! ```
//!
//! Options: `--sites N` (default 3), `--txns N` (default 2), `--crash`
//! (allow one DAG(T) crash), `--heartbeats N` (DAG(T) budget, default 2),
//! `--aborts`/`--no-aborts` (BackEdge eager victimization), `--inject
//! skip-forward|skip-min-timestamp` (seeded mutation), `--max-states N`,
//! `--max-depth N`, `--no-sleep`, `--no-dedup`.
//!
//! Exits 0 when every scenario explores exhaustively with zero
//! diagnostics, 1 on any diagnostic, 2 on usage or truncation (a
//! truncated run proved nothing).

use repl_analysis::diag::{render, to_json, Diagnostic, Witness};
use repl_analysis::mc::{check_scenario, Config, Scenario, Topology};
use repl_protocol::{ProtocolId, SeededBug};

/// [`ProtocolId::parse`]'s spellings plus three short ones.
fn parse_protocol(s: &str) -> Option<ProtocolId> {
    match s.to_ascii_lowercase().as_str() {
        "wt" => Some(ProtocolId::DagWt),
        "t" => Some(ProtocolId::DagT),
        "be" => Some(ProtocolId::BackEdge),
        other => ProtocolId::parse(other),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: replmc [--stats] [--json] [--protocol P --topology T] [--sites N] [--txns N]\n\
         \x20             [--crash] [--heartbeats N] [--aborts|--no-aborts]\n\
         \x20             [--inject skip-forward|skip-min-timestamp]\n\
         \x20             [--max-states N] [--max-depth N] [--no-sleep] [--no-dedup]\n\
         protocols: naive, dagwt, dagt, backedge; topologies: fan, chain, diamond, cross"
    );
    std::process::exit(2);
}

struct Cli {
    protocol: Option<ProtocolId>,
    topology: Option<Topology>,
    sites: u32,
    txns: u32,
    crash: bool,
    heartbeats: Option<u32>,
    aborts: Option<bool>,
    bug: Option<SeededBug>,
    config: Config,
    stats: bool,
    json: bool,
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        protocol: None,
        topology: None,
        sites: 3,
        txns: 2,
        crash: false,
        heartbeats: None,
        aborts: None,
        bug: None,
        config: Config::default(),
        stats: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("replmc: {flag} needs a value");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stats" => cli.stats = true,
            "--json" => cli.json = true,
            "--crash" => cli.crash = true,
            "--aborts" => cli.aborts = Some(true),
            "--no-aborts" => cli.aborts = Some(false),
            "--no-sleep" => cli.config.sleep_sets = false,
            "--no-dedup" => cli.config.dedup = false,
            "--protocol" => {
                let v = value(&mut args, "--protocol");
                cli.protocol = Some(parse_protocol(&v).unwrap_or_else(|| {
                    eprintln!("replmc: unknown protocol {v:?}");
                    usage()
                }));
            }
            "--topology" => {
                let v = value(&mut args, "--topology");
                cli.topology = Some(Topology::parse(&v).unwrap_or_else(|| {
                    eprintln!("replmc: unknown topology {v:?}");
                    usage()
                }));
            }
            "--inject" => {
                let v = value(&mut args, "--inject");
                cli.bug = Some(match v.as_str() {
                    "skip-forward" => SeededBug::SkipForward,
                    "skip-min-timestamp" => SeededBug::SkipMinTimestamp,
                    _ => {
                        eprintln!("replmc: unknown mutation {v:?}");
                        usage()
                    }
                });
            }
            "--sites" | "--txns" | "--heartbeats" | "--max-states" | "--max-depth" => {
                let v = value(&mut args, &arg);
                let n: u64 = v.parse().unwrap_or_else(|_| {
                    eprintln!("replmc: {arg} needs a number, got {v:?}");
                    usage()
                });
                match arg.as_str() {
                    "--sites" => cli.sites = n as u32,
                    "--txns" => cli.txns = n as u32,
                    "--heartbeats" => cli.heartbeats = Some(n as u32),
                    "--max-states" => cli.config.bounds.max_states = n as usize,
                    "--max-depth" => cli.config.bounds.max_depth = n as usize,
                    _ => unreachable!(),
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("replmc: unknown argument {other:?}");
                usage();
            }
        }
    }
    cli
}

fn main() {
    let cli = parse_args();
    let scenarios: Vec<Scenario> = match (cli.protocol, cli.topology) {
        (Some(p), Some(t)) => {
            let mut s = Scenario::new(p, t, cli.sites, cli.txns);
            if cli.crash {
                s.crash_budget = 1;
            }
            if let Some(hb) = cli.heartbeats {
                s.heartbeat_budget = hb;
            }
            if let Some(a) = cli.aborts {
                s.allow_aborts = a;
            }
            s.bug = cli.bug;
            vec![s]
        }
        (None, None) => repl_analysis::mc::gate_matrix(),
        _ => {
            eprintln!("replmc: --protocol and --topology go together");
            usage();
        }
    };

    let mut all_diags: Vec<Diagnostic> = Vec::new();
    let mut truncated = false;
    for scenario in &scenarios {
        let report = match check_scenario(scenario, &cli.config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replmc: {}: {e}", scenario.label());
                std::process::exit(2);
            }
        };
        let s = &report.stats;
        let verdict = if s.truncated {
            "TRUNCATED"
        } else if report.findings.is_empty() {
            "ok"
        } else {
            "FAIL"
        };
        if cli.stats || !cli.json {
            eprintln!(
                "replmc: {:<24} {:>9} states {:>10} transitions {:>9} sleep-skips \
                 {:>9} dedup-hits {:>6} quiescent depth {:<4} {}",
                scenario.label(),
                s.states,
                s.transitions,
                s.sleep_skips,
                s.dedup_hits,
                s.quiescent_states,
                s.max_depth_seen,
                verdict
            );
        }
        truncated |= s.truncated;
        if !s.truncated && s.quiescent_states == 0 {
            eprintln!(
                "replmc: {}: exhaustive exploration reached no quiescent state — \
                 budgets too tight to mean anything",
                scenario.label()
            );
            truncated = true;
        }
        for f in report.findings {
            if !cli.json {
                print!("{}", render(std::slice::from_ref(&f.diagnostic)));
                if let Witness::McTrace { steps } = &f.diagnostic.witness {
                    println!("    replay ({} steps): {}", steps.len(), steps.join(", "));
                }
            }
            all_diags.push(f.diagnostic);
        }
    }
    if cli.json {
        println!("{}", to_json(&all_diags));
    }
    if !all_diags.is_empty() {
        std::process::exit(1);
    }
    if truncated {
        std::process::exit(2);
    }
}
