//! Hot text first (DESIGN.md §9.5): the release `repld` is linked with
//! the functions a site executes at the front of its `.text`, so a
//! running site maps less than half of its code. Only a release build
//! has that layout (`repld.order` names release symbols), so the file
//! is empty in a debug build, which is what tier-1 links; `tools/ci.sh`
//! runs it with `cargo test --release -p repl-runtime --test hot_text`.
#![cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#![cfg(not(debug_assertions))]

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use repl_copygraph::DataPlacement;
use repl_runtime::{ClusterHandle, LaunchOptions, ProcCluster, RuntimeProtocol};
use repl_types::{ItemId, Op, SiteId};

/// A chain3 site may hold this much of `repld`'s text after the pass:
/// nine 64 kB fault-around windows. The ordered functions span ≈ 426 kB
/// and the IFUNC stubs at the segment's end fault one more window, so a
/// site holds 480 or 544 kB, by where ASLR puts the window boundaries.
/// Without the order it holds all of it (≈ 1.1–1.2 MB).
const TEXT_RSS_BUDGET_KB: u64 = 576;

/// Share of `repld.order`'s names the build may lack before the file
/// must be regenerated.
const MISSING_BUDGET_PCT: usize = 5;

fn repld() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_repld"))
}

#[test]
fn every_name_in_the_order_file_is_in_the_release_repld() {
    let order = Path::new(env!("CARGO_MANIFEST_DIR")).join("repld.order");
    let order = std::fs::read_to_string(order).unwrap();
    let wanted: Vec<&str> =
        order.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    let nm = Command::new("nm").arg(repld()).output().expect("run nm (binutils)");
    assert!(nm.status.success(), "nm failed");
    let nm = String::from_utf8(nm.stdout).unwrap();
    let defined: BTreeSet<&str> = nm.lines().filter_map(|l| l.split_whitespace().nth(2)).collect();
    let missing: Vec<&str> = wanted.iter().copied().filter(|n| !defined.contains(n)).collect();
    assert!(
        missing.len() * 100 <= wanted.len() * MISSING_BUDGET_PCT,
        "{} of repld.order's {} names are not in the release repld, first {:?}: \
         regenerate the file with `python3 tools/hot_text.py`",
        missing.len(),
        wanted.len(),
        &missing[..missing.len().min(5)],
    );
}

#[test]
fn a_chain3_site_maps_a_fraction_of_its_text() {
    // Start the sites as the benchmark does. Under cargo a child inherits
    // `LD_LIBRARY_PATH`, and a static glibc parses it at start-up:
    // functions no benchmark site runs, in windows of their own.
    std::env::remove_var("LD_LIBRARY_PATH");
    let placement = DataPlacement::from_spec("3|0:1,2*100|1:2*100|2*100").unwrap();
    let cluster = ProcCluster::launch_with_options(
        repld(),
        &placement,
        RuntimeProtocol::DagWt,
        &LaunchOptions::default(),
    )
    .unwrap();
    // A fixed pass: updates at both primaries with upstream reads,
    // read-only transactions at the replicas, then what a correctness
    // check fetches.
    for i in 0..300u32 {
        let (s0, s1) = (ItemId(i % 100), ItemId(100 + i % 100));
        cluster.execute(SiteId(0), vec![Op::write(s0, i64::from(i))]).unwrap().unwrap();
        cluster
            .execute(SiteId(1), vec![Op::read(s0), Op::write(s1, i64::from(i))])
            .unwrap()
            .unwrap();
        cluster.execute(SiteId(1 + i % 2), vec![Op::read(s0)]).unwrap().unwrap();
        cluster.execute(SiteId(2), vec![Op::read(s0), Op::read(s1)]).unwrap().unwrap();
    }
    cluster.quiesce().unwrap();
    cluster.history().unwrap();
    for site in placement.sites() {
        cluster.copy_state(site).unwrap();
    }
    let binary = repld().canonicalize().unwrap();
    let text_kb: Vec<u64> =
        placement.sites().map(|site| text_rss_kb(cluster.pid(site).unwrap(), &binary)).collect();
    cluster.shutdown();
    for (site, kb) in text_kb.iter().enumerate() {
        assert!(
            *kb <= TEXT_RSS_BUDGET_KB,
            "s{site} holds {kb} kB of repld's text (budget {TEXT_RSS_BUDGET_KB} kB): is the \
             release link ignoring repld.order, or is the file stale? (python3 tools/hot_text.py)"
        );
    }
}

/// Resident kB of `binary`'s executable mapping in `pid`.
fn text_rss_kb(pid: u32, binary: &Path) -> u64 {
    let smaps = std::fs::read_to_string(format!("/proc/{pid}/smaps")).unwrap();
    let mut in_text = false;
    for line in smaps.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() == 6 && fields[0].contains('-') {
            in_text = fields[1] == "r-xp" && Path::new(fields[5]) == binary;
        } else if in_text && fields.first() == Some(&"Rss:") {
            return fields[1].parse().unwrap();
        }
    }
    panic!("{} has no executable mapping in {pid}", binary.display());
}
