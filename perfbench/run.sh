#!/usr/bin/env bash
# Build `cme` and the benchmark from source, then run one benchmark pass.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload cold_tile --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# servers' cache directories live under it and are removed afterwards.
# The last line of standard output is the JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --bin cme >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --cme "$CARGO_TARGET_DIR/release/cme" --work "$CARGO_TARGET_DIR/perfbench-work"
