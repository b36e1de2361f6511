//! Hot text first (DESIGN.md §9.5): the release `repld` is linked with
//! the functions a site executes at the front of its `.text` and the
//! read-only data it reads at the front of its read-only segment, so a
//! running site maps less than half of its code and two fault-around
//! windows of its data. Only a release build has that layout
//! (`repld.order` names release symbols), so the file is empty in a
//! debug build, which is what tier-1 links; `tools/ci.sh` runs it with
//! `cargo test --release -p repl-runtime --test hot_text`.
#![cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#![cfg(not(debug_assertions))]

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use repl_copygraph::DataPlacement;
use repl_runtime::{ClusterHandle, LaunchOptions, ProcCluster, RuntimeProtocol};
use repl_types::{ItemId, Op, SiteId};

/// A chain3 site may hold this much of `repld`'s text after the pass:
/// eight 64 kB fault-around windows. The stubs sit in front of the
/// ordered functions (`repld.ld`), not in a window of their own at the
/// segment's end, so a site holds 420–480 kB (63 sites in 21 runs)
/// wherever ASLR puts the window boundaries. Without the order it holds
/// all of it (≈ 1.1–1.2 MB).
const TEXT_RSS_BUDGET_KB: u64 = 512;

/// A chain3 site may hold this much of `repld`'s read-only segment: two
/// windows. What a site reads of it (relocations, then the data
/// `repld.ld` and the `# data` names of `repld.order` place first) ends
/// within its first 64 kB, so it spans one window boundary at most: a
/// site holds 64–116 kB, 64 at 50 of 63 sites in 21 runs. Scattered, as
/// it was before `repld.ld`, a site held 224–280 kB of it.
const RODATA_RSS_BUDGET_KB: u64 = 128;

/// Share of `repld.order`'s function names the build may lack before
/// the file must be regenerated. Every `# data` name must resolve: a few
/// sections carry all of the hot data.
const MISSING_BUDGET_PCT: usize = 5;

fn repld() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_repld"))
}

/// `repld.order`'s function names and its `# data` names.
fn order_names() -> (Vec<String>, Vec<String>) {
    let order = Path::new(env!("CARGO_MANIFEST_DIR")).join("repld.order");
    let order = std::fs::read_to_string(order).unwrap();
    let (functions, data) = order.split_once("\n# data").unwrap_or((&order, ""));
    let names = |part: &str| -> Vec<String> {
        part.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).map(String::from).collect()
    };
    // The rest of the `# data` line is its comment.
    (names(functions), names(data.split_once('\n').map_or("", |(_, rest)| rest)))
}

/// The symbols `nm` lists for the release `repld`.
fn defined() -> BTreeSet<String> {
    let nm = Command::new("nm").arg(repld()).output().expect("run nm (binutils)");
    assert!(nm.status.success(), "nm failed");
    let nm = String::from_utf8(nm.stdout).unwrap();
    nm.lines().filter_map(|l| l.split_whitespace().nth(2)).map(String::from).collect()
}

#[test]
fn every_name_in_the_order_file_is_in_the_release_repld() {
    let ((wanted, _), defined) = (order_names(), defined());
    let missing: Vec<&String> = wanted.iter().filter(|n| !defined.contains(*n)).collect();
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
fn every_data_name_in_the_order_file_is_in_the_release_repld() {
    let ((_, data), defined) = (order_names(), defined());
    assert!(!data.is_empty(), "repld.order names no data");
    let missing: Vec<&String> = data.iter().filter(|n| !defined.contains(*n)).collect();
    assert!(
        missing.is_empty(),
        "repld.order's # data names {missing:?} are not in the release repld: \
         regenerate the file with `python3 tools/hot_text.py`"
    );
}

#[test]
fn a_chain3_site_maps_a_fraction_of_its_text_and_read_only_data() {
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
    let rss: Vec<(u64, u64)> = placement
        .sites()
        .map(|site| {
            let pid = cluster.pid(site).unwrap();
            (rss_kb(pid, &binary, "r-xp"), rss_kb(pid, &binary, "r--p"))
        })
        .collect();
    cluster.shutdown();
    for (site, (text, rodata)) in rss.iter().enumerate() {
        assert!(
            *text <= TEXT_RSS_BUDGET_KB,
            "s{site} holds {text} kB of repld's text (budget {TEXT_RSS_BUDGET_KB} kB): is the \
             release link ignoring repld.order, or is the file stale? (python3 tools/hot_text.py)"
        );
        assert!(
            *rodata <= RODATA_RSS_BUDGET_KB,
            "s{site} holds {rodata} kB of repld's read-only segment (budget \
             {RODATA_RSS_BUDGET_KB} kB): is the release link ignoring repld.ld or the # data \
             part of repld.order, or do they miss what a site reads? (python3 tools/hot_text.py)"
        );
    }
}

/// Resident kB of `binary`'s first mapping with permissions `perms` in
/// `pid`: its text (`r-xp`), or its read-only segment (`r--p`), which
/// comes before the relocated data made read-only (RELRO).
fn rss_kb(pid: u32, binary: &Path, perms: &str) -> u64 {
    let smaps = std::fs::read_to_string(format!("/proc/{pid}/smaps")).unwrap();
    let mut found = false;
    for line in smaps.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() == 6 && fields[0].contains('-') {
            found = fields[1] == perms && Path::new(fields[5]) == binary;
        } else if found && fields.first() == Some(&"Rss:") {
            return fields[1].parse().unwrap();
        }
    }
    panic!("{} has no {perms} mapping in {pid}", binary.display());
}
