//! `repld` — one replicated-database site per OS process.
//!
//! Serves one site of a cluster over TCP: dials every peer from the
//! address map, accepts peer and client connections, and runs the
//! selected propagation protocol against a recovered local store.
//!
//! Configuration comes from an optional TOML-lite file (`--config`)
//! overridden field-by-field by flags:
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
//! A non-empty address map is linted (RA011) before any socket opens;
//! lint errors abort the process with the rendered diagnostics.

use std::process::ExitCode;

use repl_analysis::{check_address_map, has_errors, render};
use repl_copygraph::DataPlacement;
use repl_core::deploy::{removed_batching_knob, DeployConfig, ReactorKind};
use repl_runtime::{serve_epoll, NetFaultPlan, RuntimeOptions, RuntimeProtocol, ServeConfig};
use repl_types::SiteId;

const USAGE: &str = "\
usage: repld [--config FILE] [--site N] [--listen HOST:PORT]
             [--protocol dagwt|dagt|backedge|naive] [--placement SPEC]
             [--reactor epoll] [--peer N=HOST:PORT]...
             [--nemesis SPEC] [--eager-timeout-ms N] [--outbox-high-water N]
             [--mvcc] [--group-commit N]

SPEC is `sites|primary[:r1,r2][*count]|…`: the site count, then one
field per run of consecutive items placed alike, in item order — the
run's primary site, its replica sites, and how many items it holds
(`*count` left out: one). Example 1.1 is 3|0:1,2|1:2.

Flags override --config values. --listen HOST:0 picks an ephemeral port
and announces it on stdout as `repld: site N listening on ADDR`.
Every connection is served from one nonblocking epoll readiness loop;
--reactor epoll names that driver and is accepted for compatibility
(--reactor threads was removed in PR 21 and is refused). --nemesis
injects a deterministic network fault schedule (see
NetFaultPlan::parse; give every site the same spec);
--eager-timeout-ms bounds a BackEdge eager phase before it aborts;
--outbox-high-water caps per-link outbox growth before writes are
refused with a backpressure error. --mvcc serves all-read transactions
from lock-free MVCC snapshots; --group-commit batches N update commits
per WAL flush (default 1). --link-batch and --apply-pool were removed
in PR 23 and are refused: a site applies one transaction at a time and
sends one frame per payload.";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("repld: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let mut cfg = parse_args(std::env::args().skip(1))?;

    let site = cfg.site.ok_or("missing site id (--site or `site =` in the config)")?;
    let listen = cfg.listen.ok_or("missing listen address (--listen)")?.clone();
    let proto_name = cfg.protocol.as_deref().ok_or("missing protocol (--protocol)")?;
    let protocol = RuntimeProtocol::parse(proto_name)
        .ok_or_else(|| format!("unknown protocol {proto_name:?}"))?;
    let placement = {
        // Parsed, the string is not kept.
        let spec = cfg.placement.take().ok_or("missing placement (--placement)")?;
        DataPlacement::from_spec(&spec).map_err(|e| format!("bad placement spec: {e}"))?
    };

    if !cfg.peers.is_empty() {
        let diags = check_address_map(&cfg.peers, placement.num_sites());
        if has_errors(&diags) {
            return Err(format!("malformed address map:\n{}", render(&diags)));
        }
    }

    let mut options = RuntimeOptions::default();
    if let Some(spec) = cfg.nemesis.as_deref() {
        options.nemesis =
            Some(NetFaultPlan::parse(spec).map_err(|e| format!("bad nemesis spec: {e}"))?);
    }
    if let Some(ms) = cfg.eager_timeout_ms {
        options.eager_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(hw) = cfg.outbox_high_water {
        options.outbox_high_water = hw as usize;
    }
    if let Some(mvcc) = cfg.mvcc {
        options.mvcc_reads = mvcc;
    }
    if let Some(batch) = cfg.group_commit {
        options.group_commit_batch = batch.max(1) as usize;
    }

    let serve_cfg =
        ServeConfig { site: SiteId(site), placement, protocol, listen, peers: cfg.peers, options };
    serve_epoll(serve_cfg).map_err(|e| e.to_string())
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<DeployConfig, String> {
    let mut args = args.peekable();
    let mut file_cfg = DeployConfig::default();
    let mut flags = DeployConfig::default();
    while let Some(arg) = args.next() {
        let mut value =
            |name: &str| args.next().ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"));
        match arg.as_str() {
            "--config" => {
                let path = value("--config")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                file_cfg = DeployConfig::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            }
            "--site" => {
                flags.site =
                    Some(value("--site")?.parse().map_err(|_| "site id must be an integer")?);
            }
            "--listen" => flags.listen = Some(value("--listen")?),
            "--protocol" => flags.protocol = Some(value("--protocol")?),
            "--placement" => flags.placement = Some(value("--placement")?),
            "--reactor" => flags.reactor = Some(ReactorKind::parse(&value("--reactor")?)?),
            "--nemesis" => flags.nemesis = Some(value("--nemesis")?),
            "--eager-timeout-ms" => {
                flags.eager_timeout_ms = Some(
                    value("--eager-timeout-ms")?
                        .parse()
                        .map_err(|_| "eager timeout must be an integer (milliseconds)")?,
                );
            }
            "--outbox-high-water" => {
                flags.outbox_high_water = Some(
                    value("--outbox-high-water")?
                        .parse()
                        .map_err(|_| "outbox high water must be an integer (frames)")?,
                );
            }
            "--mvcc" => flags.mvcc = Some(true),
            "--group-commit" => {
                flags.group_commit = Some(
                    value("--group-commit")?
                        .parse()
                        .map_err(|_| "group commit batch must be an integer")?,
                );
            }
            flag @ ("--link-batch" | "--apply-pool") => return Err(removed_batching_knob(flag)),
            "--peer" => {
                let spec = value("--peer")?;
                let (site, addr) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--peer wants N=HOST:PORT, got {spec:?}"))?;
                let site: u32 =
                    site.parse().map_err(|_| format!("bad site id in --peer {spec:?}"))?;
                flags.peers.insert(SiteId(site), addr.to_string());
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    Ok(file_cfg.merged_with(flags))
}

#[cfg(test)]
mod tests {
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
        let cfg = parse_args(args.into_iter().skip(1)).unwrap();
        assert_eq!((cfg.site, cfg.peers.len()), (Some(0), 3));
        let spec = cfg.placement.expect("the example names a placement");
        let placement = DataPlacement::from_spec(&spec).unwrap();
        assert_eq!((placement.num_sites(), placement.num_items()), (3, 3000));
        assert_eq!(placement.to_spec(), spec);
        assert!(!has_errors(&check_address_map(&cfg.peers, placement.num_sites())));
        assert!(USAGE.contains("SPEC is `sites|primary[:r1,r2][*count]|…`"));
        let usage_example =
            USAGE.split("Example 1.1 is ").nth(1).and_then(|s| s.split(".\n").next());
        assert_eq!(DataPlacement::from_spec(usage_example.unwrap()).unwrap().num_items(), 2);
    }
}
