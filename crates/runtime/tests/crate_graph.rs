//! The site links no simulator and no checker: `repl-runtime`'s normal
//! dependencies, followed through the workspace manifests, are the
//! site's own layers and nothing of the simulator, the analysis tools,
//! the workload generator or `rand` (DESIGN.md §2). `repl-core` depends
//! on the site, never the reverse.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// What the site depends on, directly or not.
const SITE: [&str; 7] =
    ["bytes", "epoll", "repl-copygraph", "repl-net", "repl-protocol", "repl-storage", "repl-types"];

/// The harness side, which the site must never reach.
const HARNESS: [&str; 5] = ["repl-core", "repl-sim", "repl-analysis", "repl-workload", "rand"];

/// The `name = …` keys of one `[section]` of a manifest.
fn section<'a>(manifest: &'a str, name: &str) -> impl Iterator<Item = (&'a str, &'a str)> {
    let header = format!("[{name}]");
    let lines = manifest.lines().map(str::trim).skip_while(move |line| *line != header);
    let entries = lines.skip(1).take_while(|line| !line.starts_with('['));
    entries.filter_map(|line| line.split_once('=')).map(|(key, value)| (key.trim(), value))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn the_site_depends_on_none_of_the_harness() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let workspace = read(&root.join("Cargo.toml"));
    let dirs: BTreeMap<&str, PathBuf> = section(&workspace, "workspace.dependencies")
        .filter_map(|(name, value)| Some((name, root.join(value.split('"').nth(1)?))))
        .collect();
    let (mut reached, mut todo) = (Vec::new(), vec!["repl-runtime"]);
    while let Some(package) = todo.pop() {
        let manifest = read(&dirs[package].join("Cargo.toml"));
        for (dep, _) in section(&manifest, "dependencies") {
            let dep = *dirs.get_key_value(dep).unwrap_or_else(|| panic!("{dep}: no path")).0;
            if !reached.contains(&dep) {
                reached.push(dep);
                todo.push(dep);
            }
        }
    }
    reached.sort_unstable();
    assert!(HARNESS.iter().all(|h| !reached.contains(h)), "the site reaches the harness");
    assert_eq!(reached, SITE);
}
