#!/usr/bin/env bash
# The full local gate, in the order a failure is cheapest to hit:
# formatting, clippy, the determinism lint, then build and tests.
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

echo "==> per-commit byte budget gate (Table-1 updates: 138 B history per commit, exact; resident WAL + checkpoint <= one 64 KiB segment + 26 B x copies, at 2000 and at 20 000 commits)"
cargo test -q -p repl-runtime --lib commit_budget_2000_table1_updates

echo "==> log allocation budget gate (2000 Table-1 commits: WAL and history allocate ceil(bytes / 64 KiB) segments each and reallocate nothing)"
cargo test -q -p repl-net --test log_alloc_budget logs_of_2000_table1_commits_allocate_whole_segments_and_never_reallocate

echo "==> paged history gate (10 000 Table-1 updates at one site, 1.38 MB of history: fetched and 1SR-checked over channel, TCP threads and TCP epoll)"
cargo test -q -p repl-runtime --test history_paging ten_thousand_updates_are_fetched_and_checked_over_every_transport

echo "==> per-item allocation budget gates (3000-item Store: <= 128 live B/item in <= 32 allocations, unchanged by 2000 updates; chain3 placement: 16 B/item, allocation count independent of the item count)"
cargo test -q -p repl-storage --test alloc_budget store_of_3000_items_is_one_version_per_item
cargo test -q -p repl-copygraph --test alloc_budget chain3_placement_is_sixteen_bytes_an_item

echo "==> differential matrix gate (sim vs channel vs TCP threads vs TCP epoll, incl. MVCC column, quick)"
DIFF_MATRIX_TXNS=6 cargo test -q -p repl-runtime --test differential_matrix

echo "==> MVCC smoke gate (quick read-heavy sweep; exits 1 unless MVCC beats 2PL at read-pct >= 0.8)"
REPRO_SCALE=quick REPRO_WORKERS=4 REPRO_NO_CACHE=1 ./target/release/read_sweep \
    --out /tmp/bench_mvcc_smoke.json > /dev/null

echo "==> batching smoke gate (batch {1,8}; exits 1 unless batched+parallel beats serial for both DAG protocols; byte-identity at batch 8 is in the matrix gate above)"
REPRO_SCALE=quick REPRO_WORKERS=4 REPRO_NO_CACHE=1 ./target/release/prop_sweep \
    --smoke --out /tmp/bench_propagation_smoke.json > /dev/null

echo "==> smoke sweep (quick fig2a on the 4-worker pool, cache off)"
REPRO_SCALE=quick REPRO_WORKERS=4 REPRO_NO_CACHE=1 ./target/release/fig2a > /dev/null

echo "==> fault smoke sweep (seeded crash plans, cache off)"
REPRO_SCALE=quick REPRO_WORKERS=4 REPRO_NO_CACHE=1 ./target/release/fault_sweep > /dev/null

echo "==> loopback TCP smoke (3 repld processes, mid-run connection kill)"
./target/release/tcp_smoke > /dev/null

echo "==> epoll smoke (the benchmark's read_closed workload against a 3-process repld --reactor epoll fleet, 2 s, correctness pass included)"
bash benchmark/run.sh --workload read_closed --seed 1 --seconds 2 --trace 0 > /dev/null

echo "==> chaos smoke (seeded nemesis, 4 protocols on channel + tcp, convergence + 1SR)"
REPLD_BIN=./target/release/repld ./target/release/chaos_soak \
    --smoke --out /tmp/bench_chaos_smoke.json > /dev/null

echo "ci: all gates passed"
