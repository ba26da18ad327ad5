#!/usr/bin/env bash
# Builds the release `olive-serve` daemon and the benchmark from source, then
# runs the benchmark. Run from the repository root:
#
#   bash servebench/run.sh --workload eval_hit --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh --list-metrics
#
# Build output goes to stderr; the benchmark's report and its final JSON line
# go to stdout. Both packages share one target directory (CARGO_TARGET_DIR,
# default `target`).
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --manifest-path Cargo.toml -p olive-serve --bin olive-serve >&2
cargo build --release --quiet --offline --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --serve-bin "$CARGO_TARGET_DIR/release/olive-serve" \
    --out servebench/out \
    "$@"
