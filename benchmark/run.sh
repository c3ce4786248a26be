#!/usr/bin/env bash
# Builds the `bist` daemon and the benchmark in release mode, then runs
# one workload. Run from the repository root:
#
#   bash benchmark/run.sh --workload sweep-deep --seed 1 --seconds 20 --trace 0
#
# Both builds share $CARGO_TARGET_DIR (default: the root `target/`).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p bist-cli --bin bist >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/bist-benchmark" --bist "$CARGO_TARGET_DIR/release/bist" "$@"
