//! `replint` — the determinism and panic-freedom lint gate.
//!
//! Usage: `cargo run -p repl-analysis --bin replint [--json] [PATH…]`
//!
//! Recursively scans every `.rs` file under the given paths (a path may
//! also name a single file). The default set covers the crates whose
//! behaviour must be a pure function of their inputs (`crates/sim`,
//! `crates/core`, `crates/copygraph`, `crates/protocol`, plus the model
//! checker and history oracle in `crates/analysis`) with the
//! determinism rules, the storage crate's sources (`crates/storage/src`
//! — not its tests: `tests/lock_model.rs` iterates a `HashMap` shadow on
//! purpose) with the same rules plus, on the MVCC read path, the
//! lock-free-read rule RL011, and the long-running runtime crates
//! (`crates/runtime`, `crates/net`) with the panic-freedom rule — see
//! [`repl_analysis::detlint`] for the path classification. Exits 1 if
//! any error-severity finding is produced; warnings (stale
//! suppressions, RL000) are printed but do not fail the gate.

use std::fs;
use std::path::{Path, PathBuf};

use repl_analysis::detlint;
use repl_analysis::diag::Diagnostic;

fn main() {
    let mut json = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("usage: replint [--json] [PATH...]");
                return;
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        paths = [
            "crates/sim",
            "crates/core",
            "crates/copygraph",
            "crates/protocol",
            "crates/analysis/src/mc",
            "crates/analysis/src/history.rs",
            "crates/storage/src",
            "crates/runtime",
            "crates/net",
        ]
        .iter()
        .map(PathBuf::from)
        .collect();
    }

    let mut files = Vec::new();
    for path in &paths {
        if path.is_file() {
            files.push(path.clone());
        } else {
            collect_rs_files(path, &mut files);
        }
    }
    files.sort();

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut scanned = 0usize;
    for file in &files {
        match fs::read_to_string(file) {
            Ok(src) => {
                scanned += 1;
                diags.extend(detlint::scan_file(&file.display().to_string(), &src));
            }
            Err(e) => eprintln!("replint: skipping {}: {e}", file.display()),
        }
    }

    let errors = diags.iter().filter(|d| d.severity == repl_analysis::Severity::Error).count();
    if json {
        println!("{}", serde::to_json(&diags));
    } else {
        print!("{}", repl_analysis::render(&diags));
        eprintln!(
            "replint: scanned {scanned} files in {} path(s), {} finding(s) ({errors} error(s))",
            paths.len(),
            diags.len()
        );
    }
    if errors > 0 {
        std::process::exit(1);
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("replint: cannot read {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
