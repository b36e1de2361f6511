//! The trace dump of a traced run: spans kept in memory during the
//! run, written as one JSON file when it ends.
//!
//! Spans are recorded around the harness's own calls; spans inside
//! `repld` are a later change (ROADMAP item 2). A request's five spans
//! share its id and are stored as one row of instants:
//!
//! ```text
//! client.txn     start .. dec1      (root)
//! ├ client.encode  enc0 .. enc1     generate + encode the Execute frame
//! ├ client.write   enc1 .. write1   write(2) to the socket
//! ├ client.wait   write1 .. read0   until the read that carried the reply
//! └ client.decode read0 .. dec1     feed + decode the reply frame
//! ```
//!
//! Self time of `client.txn` is its duration minus its children, which
//! leaves `enc0 − start`: how late the generator began the request.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::load::{LoadResult, Phase};
use crate::run::{RunConfig, SamplerOut};

/// Request rows written at most; aggregates always use every span.
const MAX_ROWS: usize = 20_000;

fn phase_name(p: Phase) -> &'static str {
    match p {
        Phase::Idle => "idle",
        Phase::Warmup => "warmup",
        Phase::Window => "window",
        Phase::Traced => "traced",
        Phase::Drain => "drain",
        Phase::Done => "done",
    }
}

pub fn write(
    dir: &Path,
    cfg: &RunConfig,
    load: &LoadResult,
    sampled: &SamplerOut,
) -> io::Result<()> {
    let mut s = String::with_capacity(2 << 20);
    let _ = writeln!(
        s,
        "{{\"workload\":\"{}\",\"seed\":{},\"time_unit\":\"ns since run epoch\",",
        cfg.wl.name, cfg.seed
    );
    s.push_str(
        "\"span_tree\":{\"client.txn\":[\"start\",\"dec1\",null],\
         \"client.encode\":[\"enc0\",\"enc1\",\"client.txn\"],\
         \"client.write\":[\"enc1\",\"write1\",\"client.txn\"],\
         \"client.wait\":[\"write1\",\"read0\",\"client.txn\"],\
         \"client.decode\":[\"read0\",\"dec1\",\"client.txn\"],\
         \"probe.peek\":[\"send\",\"reply\",null]},\n",
    );

    let _ = writeln!(s, "\"spans_recorded\":{},", load.spans.len());

    let stride = load.spans.len().div_ceil(MAX_ROWS).max(1);
    let _ = write!(
        s,
        "\"request_stride\":{stride},\
         \"request_columns\":[\"id\",\"conn\",\"start\",\"enc0\",\"enc1\",\"write1\",\"read0\",\"dec1\"],\n\
         \"requests\":["
    );
    for (i, r) in load.spans.iter().step_by(stride).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n[{},{},{},{},{},{},{},{}]",
            r.id, r.conn, r.start, r.enc0, r.enc1, r.write1, r.read0, r.dec1
        );
    }
    s.push_str("],\n\"probe_columns\":[\"send\",\"reply\",\"conn\",\"value\"],\n\"probes\":[");
    for (i, p) in sampled.probes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\n[{},{},{},{}]", p.send_ns, p.reply_ns, p.conn, p.value);
    }
    s.push_str("],\n\"gauge_columns\":[\"t\",\"backlog\",\"unhealthy_peers\"],\n\"gauges\":[");
    for (i, g) in sampled.gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\n[{},{},{}]", g.t_ns, g.backlog, g.unhealthy_peers);
    }
    s.push_str("],\n\"proc_columns\":[\"cpu_us\",\"voluntary_switches\",\"rss_kb\",\"hwm_kb\"],\n\"proc\":[");
    for (i, e) in sampled.edges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n{{\"phase\":\"{}\",\"t\":{},\"sites\":[",
            phase_name(e.phase),
            e.t_ns
        );
        for (j, p) in e.sites.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ =
                write!(s, "{sep}[{},{},{},{}]", p.cpu_us, p.voluntary_switches, p.rss_kb, p.hwm_kb);
        }
        s.push_str("]}");
    }
    s.push_str("]}\n");

    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("trace-{}.json", cfg.wl.name)), s)
}
