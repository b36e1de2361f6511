#!/usr/bin/env bash
# The full local gate, in the order a failure is cheapest to hit:
# formatting, clippy, then build and tests. Clippy carries the source
# rules: the workspace's `clippy.toml` disallows clocks, sleeps, sockets
# and hash-ordered maps in the deterministic crates, `repl-runtime`'s
# disallows a sleep outside `policy::pace`, and the runtime and wire
# crates deny panicking calls outside tests. The rules that are types
# (`repl-protocol` is `no_std`; the reactor's sockets, the snapshot read
# and the link send funnel are private) hold in every build. A gate
# after `cargo test` runs a binary or a different configuration; a named
# test that `cargo test` already ran is not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings (incl. no clock, sleep, socket or hash map in the deterministic crates; no panic in runtime/net)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> hot text gate (release repld: every repld.order name resolves, steady names lie before the boot marker and boot names after it, the exit line reports the boot-text drop, and a chain3 site holds <= 256 kB of its 1.2 MB of text after dropping its boot text and <= 128 kB of its 288 kB read-only segment after a fixed pass; tier-1 links repld in debug, where the order names nothing)"
cargo test --release -q -p repl-runtime --test hot_text

echo "==> mc_smoke (exhaustive bounded model check, 3 sites / 2 txns, all four protocols, then DAG(T) on the 4-site diamond, its merge shape; DAG(T) on each site's logical clock)"
./target/release/replmc --stats --max-states 2000000
./target/release/replmc --protocol dagt --topology diamond --sites 4 --stats

# Building the benchmark package (this gate and the fleet smoke) prunes
# `benchmark/Cargo.lock` of packages the workspace no longer has; the
# committed file is put back however the script exits.
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"' EXIT

echo "==> benchmark package gate (benchmark/ path-depends on crates/ and may not be edited: an API break must fail here, not in the benchmark run)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> differential matrix gate (sim vs in-process vs repld at 6 txns a site, incl. the MVCC and nemesis cells)"
DIFF_MATRIX_TXNS=6 cargo test -q -p repl-runtime --test differential_matrix

echo "==> MVCC smoke gate (quick read-heavy sweep; exits 1 unless MVCC beats 2PL at read-pct >= 0.8)"
REPRO_SCALE=quick REPRO_WORKERS=4 ./target/release/repro read_sweep \
    --out /tmp/bench_mvcc_smoke.json > /dev/null

echo "==> smoke sweep (quick fig2a on the 4-worker pool)"
REPRO_SCALE=quick REPRO_WORKERS=4 ./target/release/repro fig2a > /dev/null

echo "==> fault smoke sweep (seeded crash plans, seeds 42-44)"
REPRO_SCALE=quick REPRO_SEEDS=3 REPRO_WORKERS=4 ./target/release/repro fault_sweep > /dev/null

echo "==> fleet smoke (the benchmark's read_closed workload against a 3-process repld fleet, 2 s, correctness pass included)"
bash benchmark/run.sh --workload read_closed --seed 1 --seconds 2 --trace 0 > /dev/null

echo "==> chaos smoke (seeded nemesis, 4 protocols on inproc + tcp, convergence + 1SR)"
REPLD_BIN=./target/release/repld ./target/release/repro chaos_soak \
    --smoke --out /tmp/bench_chaos_smoke.json > /dev/null

echo "ci: all gates passed"
