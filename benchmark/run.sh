#!/usr/bin/env bash
# The repository's benchmark. Builds `repld` and the harness (release),
# then runs the harness against live 3-process `repld` fleets.
#
#   benchmark/run.sh                 same as `all`
#   benchmark/run.sh all [--seed N] [--seconds S] [--out FILE]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh check           fmt --check + clippy -D warnings on this package
#   benchmark/run.sh --stress update_pipelined --depth 16
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

manifest=benchmark/Cargo.toml
if [[ ! -f Cargo.toml || ! -d crates/runtime || ! -f $manifest ]]; then
    echo "run.sh: not a checkout of the repository (no Cargo.toml, crates/runtime)" >&2
    exit 3
fi

# One target directory when the caller names one; otherwise each
# workspace keeps its own (target/ and benchmark/target/).
root_target=${CARGO_TARGET_DIR:-target}
bench_target=${CARGO_TARGET_DIR:-benchmark/target}

build() {
    cargo build --release --offline -p repl-runtime --bin repld >&2
    cargo build --release --offline --manifest-path $manifest >&2
    export REPLD_BIN="$PWD/$root_target/release/repld"
    [[ $root_target = /* ]] && export REPLD_BIN="$root_target/release/repld"
    return 0
}

case "${1:-all}" in
check)
    cargo fmt --manifest-path $manifest -- --check
    cargo clippy --offline --manifest-path $manifest --all-targets -- -D warnings
    ;;
compare)
    cargo build --release --offline --manifest-path $manifest >&2
    exec "$bench_target/release/replbench" "$@"
    ;;
*)
    build
    if [[ $# -eq 0 ]]; then set -- all; fi
    exec "$bench_target/release/replbench" "$@"
    ;;
esac
