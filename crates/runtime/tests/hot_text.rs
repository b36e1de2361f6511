//! Hot text first (DESIGN.md §9.5): the release `repld` is linked with
//! the functions a site executes at the front of its `.text` — those it
//! runs in steady state, then those it runs only before its mesh is up,
//! whose pages it drops then — and the read-only data it reads at the
//! front of its read-only segment, so a running site maps a fifth of its
//! code and two fault-around windows of its data. Only a release build
//! has that layout (`repld.order` names release symbols), so the file is
//! empty in a debug build, which is what tier-1 links; `tools/ci.sh`
//! runs it with `cargo test --release -p repl-runtime --test hot_text`.
#![cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#![cfg(not(debug_assertions))]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};

use repl_copygraph::DataPlacement;
use repl_net::{ClientMsg, WireMsg};
use repl_runtime::{ClusterHandle, LaunchOptions, ProcCluster, RuntimeProtocol};
use repl_types::{ItemId, Op, SiteId};

/// A chain3 site may hold this much of `repld`'s text after the pass,
/// which comes after it dropped its boot text: four 64 kB fault-around
/// windows. What it keeps is the stubs and the steady part of the
/// ordered functions, up to the boot marker's page, and the pass faults
/// nothing of the dropped rest back: 200 kB at every site (63 sites in
/// 21 runs). Without the drop a site holds 420–480 kB, and without the
/// order all of it (≈ 1.1–1.2 MB).
const TEXT_RSS_BUDGET_KB: u64 = 256;

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

/// The function the boot part of the text starts with (`shims/epoll`).
const BOOT_MARKER: &str = "boot_text_start";

/// The page `madvise` works in.
const PAGE: u64 = 4096;

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

/// `repld.order`'s steady function names and the names under `# boot`
/// (the marker, the boot functions and the IFUNC siblings).
fn steady_and_boot_names() -> (Vec<String>, Vec<String>) {
    let (functions, _) = order_names();
    let order = Path::new(env!("CARGO_MANIFEST_DIR")).join("repld.order");
    let order = std::fs::read_to_string(order).unwrap();
    let (steady, _) = order.split_once("\n# boot").expect("repld.order has a # boot part");
    let steady = steady.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).count();
    let (steady, boot) = functions.split_at(steady);
    (steady.to_vec(), boot.to_vec())
}

/// Each symbol `nm` lists as defined in the release `repld`: its
/// link-time address and size (0 for one without, such as `etext`).
fn symbols() -> BTreeMap<String, (u64, u64)> {
    let nm = Command::new("nm").args(["-S", "--defined-only"]).arg(repld()).output();
    let nm = nm.expect("run nm (binutils)");
    assert!(nm.status.success(), "nm failed");
    let hex = |field: &str| u64::from_str_radix(field, 16).unwrap();
    String::from_utf8(nm.stdout)
        .unwrap()
        .lines()
        .filter_map(|line| match line.split_whitespace().collect::<Vec<_>>()[..] {
            [addr, size, _, name] => Some((name.to_string(), (hex(addr), hex(size)))),
            [addr, _, name] => Some((name.to_string(), (hex(addr), 0))),
            _ => None,
        })
        .collect()
}

/// Where the boot-text drop starts and ends in the release `repld`, at
/// link-time addresses: the marker rounded up to a page, and `etext`
/// (not rounded).
fn drop_range(symbols: &BTreeMap<String, (u64, u64)>) -> (u64, u64) {
    let addr = |name: &str| match symbols.get(name) {
        Some(&(addr, _)) => addr,
        None => panic!("the release repld defines no {name}"),
    };
    (addr(BOOT_MARKER).next_multiple_of(PAGE), addr("etext"))
}

#[test]
fn every_name_in_the_order_file_is_in_the_release_repld() {
    let ((wanted, _), defined) = (order_names(), symbols());
    let missing: Vec<&String> = wanted.iter().filter(|n| !defined.contains_key(*n)).collect();
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
    let ((_, data), defined) = (order_names(), symbols());
    assert!(!data.is_empty(), "repld.order names no data");
    let missing: Vec<&String> = data.iter().filter(|n| !defined.contains_key(*n)).collect();
    assert!(
        missing.is_empty(),
        "repld.order's # data names {missing:?} are not in the release repld: \
         regenerate the file with `python3 tools/hot_text.py`"
    );
}

#[test]
fn steady_names_lie_before_the_drop_and_boot_names_in_it() {
    let ((steady, boot), sized) = (steady_and_boot_names(), symbols());
    assert_eq!(boot.first().map(String::as_str), Some(BOOT_MARKER));
    let (marker, _) = sized[BOOT_MARKER];
    let (drop_start, etext) = drop_range(&sized);
    assert!(drop_start < etext, "the boot marker at {marker:#x} is not before etext {etext:#x}");
    let late: Vec<&String> = steady
        .iter()
        .filter(|n| sized.get(*n).is_some_and(|&(addr, size)| addr + size > marker))
        .collect();
    assert!(
        late.is_empty(),
        "steady functions {late:?} lie at or after the boot marker at {marker:#x}, so a \
         site drops them: is the release link ignoring repld.order?"
    );
    let early: Vec<&String> =
        boot.iter().filter(|n| sized.get(*n).is_some_and(|&(addr, _)| addr < marker)).collect();
    assert!(
        early.is_empty(),
        "boot functions {early:?} lie before the boot marker at {marker:#x}, in the text a \
         site keeps: do they share a section with a steady one? (python3 tools/hot_text.py \
         lists those as steady)"
    );
}

#[test]
fn the_exit_line_reports_the_bytes_the_drop_covered() {
    // One site: its mesh is up on its first pass.
    let mut child = Command::new(repld())
        .args(["--site", "0", "--listen", "127.0.0.1:0", "--protocol", "dagwt"])
        .args(["--placement", "1|0*10"])
        .env_remove("LD_LIBRARY_PATH")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    let addr = banner.trim().rsplit(" listening on ").next().unwrap();
    let mut shutdown = Vec::new();
    WireMsg::Client(ClientMsg::Shutdown).encode_framed_into(&mut shutdown);
    TcpStream::connect(addr).unwrap().write_all(&shutdown).unwrap();
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(child.wait().unwrap().success(), "{stderr}");
    let dropped: u64 = stderr
        .split("boot_text_dropped=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no boot_text_dropped= on the exit line: {stderr}"))
        .parse()
        .unwrap();
    let (drop_start, etext) = drop_range(&symbols());
    let span = etext - drop_start;
    assert!(
        dropped <= span && span - dropped < PAGE,
        "the drop covered {dropped} B; etext - page_up(marker) is {span} B"
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
        eprintln!("s{site}: text {text} kB, read-only {rodata} kB");
        assert!(
            *text <= TEXT_RSS_BUDGET_KB,
            "s{site} holds {text} kB of repld's text (budget {TEXT_RSS_BUDGET_KB} kB): did it not \
             drop its boot text, is the release link ignoring repld.order, or is the file stale? \
             (python3 tools/hot_text.py)"
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
