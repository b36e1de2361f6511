//! What `/proc/<pid>/{stat,status}` and `/proc/<pid>/task/*` say about
//! a `repld` process, and which of this process's children are `repld`
//! sites.
//!
//! `/proc/<pid>/io` is not read: std's sockets use `send`/`recv`, which
//! that accounting does not see.

use std::fs;

/// Clock ticks per second of `utime`/`stime` (`getconf CLK_TCK`); 100
/// on every Linux this runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// One reading of a process's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcSnap {
    /// User + system CPU time consumed so far by the threads now alive,
    /// in microseconds.
    pub cpu_us: f64,
    /// Voluntary context switches so far of the threads now alive: each
    /// is one sleep → wake-up.
    pub voluntary_switches: u64,
    /// Resident set size now, in KiB.
    pub rss_kb: u64,
    /// Peak resident set size, in KiB.
    pub hwm_kb: u64,
}

/// Parent pid, `comm` and CPU ticks out of a `/proc/<pid>/stat` line.
/// `comm` sits in parentheses and may itself contain spaces and `)`,
/// so the fields after it are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<(u32, &str, u64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text.get(open + 1..close)?;
    let mut rest = text.get(close + 1..)?.split_ascii_whitespace();
    // After comm: state(3) ppid(4) ... utime(14) stime(15).
    let ppid = rest.nth(1)?.parse().ok()?;
    let utime: u64 = rest.nth(9)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((ppid, comm, utime + stime))
}

/// `(VmRSS, VmHWM, voluntary_ctxt_switches)` out of `/proc/<pid>/status`.
pub fn parse_status(text: &str) -> Option<(u64, u64, u64)> {
    let field = |key: &str| -> Option<u64> {
        let line = text.lines().find(|l| l.starts_with(key))?;
        line[key.len()..].split_ascii_whitespace().next()?.parse().ok()
    };
    Some((field("VmRSS:")?, field("VmHWM:")?, field("voluntary_ctxt_switches:")?))
}

/// Nanoseconds on a CPU so far, out of a `schedstat` file (its first
/// field). The scheduler's own clock, where `stat`'s `utime` and
/// `stime` are 10 ms ticks: a paced site uses about one tick a second.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// `(on-CPU ns, voluntary context switches)` summed over the threads
/// of `pid`. `/proc/<pid>/schedstat` and the switch count in
/// `/proc/<pid>/status` cover the thread-group leader alone, and under
/// `--reactor threads` the leader idles while spawned threads work.
fn task_sums(pid: u32) -> Option<(u64, u64)> {
    let (mut on_cpu_ns, mut switches) = (0, 0);
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()?.flatten() {
        // A thread may exit between the listing and the reads.
        let dir = task.path();
        let Ok(status) = fs::read_to_string(dir.join("status")) else { continue };
        let key = "voluntary_ctxt_switches:";
        let line = status.lines().find(|l| l.starts_with(key))?;
        switches += line[key.len()..].trim().parse::<u64>().ok()?;
        let schedstat = fs::read_to_string(dir.join("schedstat")).ok();
        on_cpu_ns += schedstat.and_then(|text| parse_schedstat(&text)).unwrap_or(0);
    }
    Some((on_cpu_ns, switches))
}

/// Read the files of `pid`; `None` once the process is gone. CPU time
/// comes from `schedstat` where the kernel keeps it, else from `stat`.
pub fn snapshot(pid: u32) -> Option<ProcSnap> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let (_, _, ticks) = parse_stat(&stat)?;
    let (rss_kb, hwm_kb, _) = parse_status(&status)?;
    let (on_cpu_ns, voluntary_switches) = task_sums(pid)?;
    let cpu_us = match on_cpu_ns {
        0 => ticks as f64 * 1e6 / TICKS_PER_SEC,
        ns => ns as f64 / 1000.0,
    };
    Some(ProcSnap { cpu_us, voluntary_switches, rss_kb, hwm_kb })
}

/// The value following `flag` on a NUL-separated `/proc/<pid>/cmdline`.
pub fn cmdline_flag<'a>(cmdline: &'a str, flag: &str) -> Option<&'a str> {
    let mut args = cmdline.split('\0');
    args.find(|a| *a == flag)?;
    args.next()
}

/// Every live `repld` child of this process, as `(pid, site)`.
/// `ProcCluster` keeps its `Child` handles private, so the harness
/// finds the pids it needs for `/proc` and for the watchdog here.
pub fn repld_children() -> Vec<(u32, u32)> {
    let me = std::process::id();
    let mut out = Vec::new();
    let Ok(dir) = fs::read_dir("/proc") else { return out };
    for entry in dir.flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else { continue };
        if !matches!(parse_stat(&stat), Some((ppid, "repld", _)) if ppid == me) {
            continue;
        }
        let Ok(cmdline) = fs::read_to_string(format!("/proc/{pid}/cmdline")) else { continue };
        if let Some(site) = cmdline_flag(&cmdline, "--site").and_then(|s| s.parse().ok()) {
            out.push((pid, site));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT_TAIL: &str =
        "S 4242 77 77 0 -1 4194304 79 0 0 0 31 12 0 0 20 0 1 0 196440 2703360 283";

    #[test]
    fn stat_with_plain_comm() {
        let line = format!("14367 (repld) {STAT_TAIL}");
        assert_eq!(parse_stat(&line), Some((4242, "repld", 43)));
    }

    #[test]
    fn stat_with_spaces_and_parens_in_comm() {
        let line = format!("14367 (tmux: server (1) x) {STAT_TAIL}");
        assert_eq!(parse_stat(&line), Some((4242, "tmux: server (1) x", 43)));
        let line = format!("9 (a) b) c) {STAT_TAIL}");
        assert_eq!(parse_stat(&line), Some((4242, "a) b) c", 43)));
        assert_eq!(parse_stat("9 (truncated) S 1"), None);
        assert_eq!(parse_stat("no parens"), None);
    }

    #[test]
    fn status_fields() {
        let text = "Name:\trepld\nVmPeak:\t  9000 kB\nVmHWM:\t    1780 kB\nVmRSS:\t    1500 kB\n\
                    Threads:\t1\nvoluntary_ctxt_switches:\t314\nnonvoluntary_ctxt_switches:\t15\n";
        assert_eq!(parse_status(text), Some((1500, 1780, 314)));
        assert_eq!(parse_status("Name:\tkthread\nvoluntary_ctxt_switches:\t1\n"), None);
    }

    #[test]
    fn schedstat_first_field() {
        assert_eq!(parse_schedstat("72150123 4410 17\n"), Some(72_150_123));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn cmdline_flags() {
        let cmdline = ["/x/repld", "--site", "2", "--listen", "127.0.0.1:0", ""].join("\0");
        let cmdline = cmdline.as_str();
        assert_eq!(cmdline_flag(cmdline, "--site"), Some("2"));
        assert_eq!(cmdline_flag(cmdline, "--listen"), Some("127.0.0.1:0"));
        assert_eq!(cmdline_flag(cmdline, "--nemesis"), None);
    }

    #[test]
    fn reads_this_process() {
        let snap = snapshot(std::process::id()).expect("own /proc entry");
        assert!(snap.rss_kb > 0 && snap.hwm_kb >= snap.rss_kb);
    }

    /// The work of a thread that is not the thread-group leader counts:
    /// under `cargo test` the leader waits while test threads run.
    #[test]
    fn counts_every_thread_of_the_process() {
        use std::sync::mpsc::channel;
        use std::time::{Duration, Instant};

        let before = snapshot(std::process::id()).unwrap();
        let (burnt_tx, burnt_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let worker = std::thread::spawn(move || {
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(100) {
                std::hint::spin_loop();
            }
            burnt_tx.send(()).unwrap();
            // Stay alive until read: a thread's counters go with it.
            let _ = release_rx.recv();
        });
        burnt_rx.recv().unwrap();
        let after = snapshot(std::process::id()).unwrap();
        drop(release_tx);
        worker.join().unwrap();
        let burnt_us = after.cpu_us - before.cpu_us;
        // Far below 100 ms, for the tests that share the CPUs; the leader
        // alone would show next to nothing.
        assert!(burnt_us >= 10_000.0, "100 ms of spinning showed as {burnt_us} us");
        assert!(after.voluntary_switches >= before.voluntary_switches);
    }
}
