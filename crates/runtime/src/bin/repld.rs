//! `repld` — one replicated-database site per OS process.
//!
//! Serves one site of a cluster over TCP: dials every peer from the
//! address map, accepts peer and client connections, and runs the
//! selected propagation protocol against a recovered local store.
//!
//! Configuration comes from an optional TOML-lite file (`--config`)
//! overridden setting by setting by flags, both read through the one
//! settings table in `repl_runtime::config`:
//!
//! ```text
//! repld --config site0.toml
//! repld --site 0 --listen 127.0.0.1:7100 --protocol dagwt \
//!       --placement "3|0:1,2*1000|1:2*1000|2*1000" \
//!       --peer 0=127.0.0.1:7100 --peer 1=127.0.0.1:7101 --peer 2=127.0.0.1:7102
//! ```
//!
//! The placement above is the benchmark's `chain3`: 1000 items with
//! their primary at site 0 and replicas at 1 and 2, then 1000 at site 1
//! replicated at 2, then 1000 at site 2 alone (see `USAGE` for the
//! grammar).
//!
//! With `--listen 127.0.0.1:0` the kernel picks the port and the chosen
//! address is announced as the first stdout line
//! (`repld: site N listening on ADDR`) — the launcher contract used by
//! `ProcCluster`, which then pushes the full address map over the client
//! protocol instead of `--peer` flags.
//!
//! An address map the settings refuse (a host name, a site twice or
//! missing, two sites at one address) exits 2 before any socket opens.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::process::ExitCode;

use repl_runtime::config::USAGE;
use repl_runtime::{serve_epoll, ServeConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("repld: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let cfg = ServeConfig::from_args(args)?;
    serve_epoll(cfg).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use repl_copygraph::DataPlacement;
    use repl_types::SiteId;

    use super::*;

    /// The command line in this file's module doc, flags and all,
    /// configures a site whose placement parses, and so does the
    /// example in `USAGE`.
    #[test]
    fn documented_example_parses() {
        let doc: String = include_str!("repld.rs")
            .lines()
            .filter_map(|line| line.strip_prefix("//!"))
            .skip_while(|line| !line.contains("repld --site"))
            .take_while(|line| !line.contains("```"))
            .map(|line| line.trim_end_matches('\\'))
            .collect();
        let mut args = Vec::new();
        for (i, part) in doc.split('"').enumerate() {
            match i % 2 {
                0 => args.extend(part.split_whitespace().map(String::from)),
                _ => args.push(part.to_string()),
            }
        }
        assert_eq!(args[0], "repld");
        let spec = args.iter().skip_while(|arg| *arg != "--placement").nth(1).cloned();
        let cfg = ServeConfig::from_args(args.into_iter().skip(1)).unwrap();
        assert_eq!((cfg.site, cfg.peers.len()), (SiteId(0), 3));
        let placement = cfg.placement;
        assert_eq!((placement.num_sites(), placement.num_items()), (3, 3000));
        assert_eq!(Some(placement.to_spec()), spec);
        assert!(USAGE.contains("SPEC is `sites|primary[:r1,r2][*count]|…`"));
        let usage_example =
            USAGE.split("Example 1.1 is ").nth(1).and_then(|s| s.split(".\n").next());
        assert_eq!(DataPlacement::from_spec(usage_example.unwrap()).unwrap().num_items(), 2);
    }

    /// A high water of 0 would refuse every write with `Backpressure`
    /// (`queued >= 0` always holds), so the flag is refused before the
    /// site starts; the settings table refuses the config key the same
    /// way.
    #[test]
    fn zero_outbox_high_water_is_refused() {
        let parse = |hw: &str| {
            let site = ["--site", "0", "--listen", "127.0.0.1:0", "--protocol", "dagwt"];
            let args = site.into_iter().chain(["--placement", "1|0", "--outbox-high-water", hw]);
            ServeConfig::from_args(args.map(String::from))
        };
        let err = parse("0").err().expect("refused");
        assert!(err.contains("--outbox-high-water must be at least 1"), "{err}");
        assert_eq!(parse("1").unwrap().options.outbox_high_water, 1);
    }
}
