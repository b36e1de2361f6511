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

echo "==> per-commit byte budget gate (Table-1 updates: history entry all varints, exact — 65 090 B at 2000 commits, 684 388 B at 20 000 over 20 one-byte items, 43 B a commit at a 1000-item site; resident WAL + checkpoint <= one 64 KiB segment + 26 B x copies)"
cargo test -q -p repl-runtime --lib commit_budget_2000_table1_updates

echo "==> log allocation budget gate (2000 Table-1 commits: WAL and history allocate ceil(bytes / 64 KiB) segments each and reallocate nothing)"
cargo test -q -p repl-net --test log_alloc_budget logs_of_2000_table1_commits_allocate_whole_segments_and_never_reallocate

echo "==> history codec gates (varints round-trip at every width; truncated, padded and oversized ones are typed errors; an entry costs its varints; hostile History bodies fail cleanly)"
cargo test -q -p repl-storage --lib codec::tests
cargo test -q -p repl-net --lib history::tests
cargo test -q -p repl-net --test codec_fuzz

echo "==> paged history gate (41 000 Table-1 updates at one site, 1.52 MB of history in 24 pages — more than one 1 MiB frame: fetched and 1SR-checked over channel, TCP threads and TCP epoll)"
cargo test -q -p repl-runtime --test history_paging ten_thousand_updates_are_fetched_and_checked_over_every_transport

echo "==> per-item allocation budget gates (Store of 1000, 2000 and 3000 items: <= 64 live B/item in exactly 2 allocations, unchanged by 2000 updates, snapshot versions all returned; chain3 placement: 16 B/item, allocation count independent of the item count)"
cargo test -q -p repl-storage --test alloc_budget _items_is_one_version_per_item
cargo test -q -p repl-copygraph --test alloc_budget chain3_placement_is_sixteen_bytes_an_item

echo "==> per-transaction allocation gates (warm Store: a Table-1 update, a 4-write apply and a 10-read transaction allocate at most the CommitInfo vectors they return; a 40 000-operation transaction leaves <= 8 KiB behind)"
cargo test -q -p repl-storage --test alloc_budget table1_update_allocates_only_what_it_returns
cargo test -q -p repl-storage --test alloc_budget a_wide_transaction_does_not_keep_its_buffers

echo "==> 2PL anomaly gate (dirty read, non-repeatable read, lost update, write skew, two-txn and upgrade deadlocks, own buffered write, victim fairness, mid-transaction snapshot, prepared-then-aborted: exact WouldBlock/grant/unblocked sequences)"
cargo test -q -p repl-storage --test anomalies

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
