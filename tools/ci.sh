#!/usr/bin/env bash
# The full local gate, in the order a failure is cheapest to hit:
# formatting, clippy, the determinism lint, then build and tests. A gate
# after `cargo test` runs a binary or a different configuration; a named
# test that `cargo test` already ran is not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> replint (determinism lint + sans-I/O gate + runtime panic-freedom)"
cargo run -q -p repl-analysis --bin replint

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> mc_smoke (exhaustive bounded model check, 3 sites / 2 txns, all four protocols)"
./target/release/replmc --stats --max-states 2000000

echo "==> benchmark package gate (benchmark/ path-depends on crates/ and may not be edited: an API break must fail here, not in the benchmark run)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> differential matrix gate (sim vs in-process vs repld at 6 txns a site, incl. the MVCC and nemesis cells)"
DIFF_MATRIX_TXNS=6 cargo test -q -p repl-runtime --test differential_matrix

echo "==> MVCC smoke gate (quick read-heavy sweep; exits 1 unless MVCC beats 2PL at read-pct >= 0.8)"
REPRO_SCALE=quick REPRO_WORKERS=4 REPRO_NO_CACHE=1 ./target/release/repro read_sweep \
    --out /tmp/bench_mvcc_smoke.json > /dev/null

echo "==> smoke sweep (quick fig2a on the 4-worker pool, cache off)"
REPRO_SCALE=quick REPRO_WORKERS=4 REPRO_NO_CACHE=1 ./target/release/repro fig2a > /dev/null

echo "==> fault smoke sweep (seeded crash plans, cache off)"
REPRO_SCALE=quick REPRO_WORKERS=4 REPRO_NO_CACHE=1 ./target/release/repro fault_sweep > /dev/null

echo "==> fleet smoke (the benchmark's read_closed workload against a 3-process repld fleet, 2 s, correctness pass included)"
bash benchmark/run.sh --workload read_closed --seed 1 --seconds 2 --trace 0 > /dev/null

echo "==> chaos smoke (seeded nemesis, 4 protocols on inproc + tcp, convergence + 1SR)"
REPLD_BIN=./target/release/repld ./target/release/repro chaos_soak \
    --smoke --out /tmp/bench_chaos_smoke.json > /dev/null

echo "ci: all gates passed"
