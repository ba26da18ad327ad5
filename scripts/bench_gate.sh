#!/usr/bin/env bash
# Bench-regression gate for the OliVe reproduction workspace.
#
# Runs the four micro-benchmarks (encoding, quantized_gemm, simulators, and
# decode: the served prefill tick, its per-token twin and one decode step)
# in --quick mode plus the serve_loadgen serving-throughput benchmark and the
# gen_loadgen streamed-decode benchmark (tokens/sec p50 single-stream, and
# the serve/gen_continuous_tiny 8-stream continuous-batching burst), merges
# their per-kernel medians into BENCH_results.json, and fails if any kernel
# regressed more than the tolerance (default 25%) versus the checked-in
# BENCH_baseline.json.
#
# Usage:
#   scripts/bench_gate.sh               # measure + compare against baseline
#   scripts/bench_gate.sh --rebaseline  # measure + overwrite the baseline
#   scripts/bench_gate.sh --self-test   # prove the gate fails on a 2x slowdown
#
# Environment:
#   GATE_TOLERANCE_PCT   allowed regression percentage      (default 25)
#   GATE_SAMPLES         timed iterations per kernel        (default 25)
#   GATE_WARMUP          warmup iterations per kernel       (default 3)
#   OLIVE_THREADS        thread count for the *_par kernels (default: all cores)
#
# Flakiness policy: wall-clock medians on shared hardware jitter, so a failed
# comparison is retried once with freshly measured results — a regression
# must reproduce in two consecutive runs to fail the gate. A real slowdown
# (the --self-test injects 2x) fails both times.
#
# Re-baselining: medians are wall times on the machine that ran the script,
# so the baseline must be regenerated (--rebaseline, then commit the new
# BENCH_baseline.json) whenever the benchmark set changes, a kernel is
# intentionally made slower/faster, or CI moves to different hardware.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-check}"
BASELINE=BENCH_baseline.json
# Absolute path: cargo runs bench binaries with the package directory
# (crates/bench) as their working directory.
RESULTS="$PWD/BENCH_results.json"
TOLERANCE="${GATE_TOLERANCE_PCT:-25}"

# More samples than the plain --quick smoke run: the gate compares medians,
# so it buys a little extra noise immunity.
export OLIVE_BENCH_SAMPLES="${GATE_SAMPLES:-25}"
export OLIVE_BENCH_WARMUP="${GATE_WARMUP:-3}"

measure() {
    rm -f "$RESULTS"
    for bench in encoding quantized_gemm simulators decode; do
        echo "== cargo bench -p olive-bench --bench $bench -- --quick --json $RESULTS =="
        cargo bench -q -p olive-bench --bench "$bench" -- --quick --json "$RESULTS"
    done
    echo "== cargo run --release -p olive-bench --bin serve_loadgen -- --quick --json $RESULTS =="
    cargo run -q --release -p olive-bench --bin serve_loadgen -- --quick --json "$RESULTS"
    echo "== cargo run --release -p olive-bench --bin gen_loadgen -- --quick --json $RESULTS =="
    cargo run -q --release -p olive-bench --bin gen_loadgen -- --quick --json "$RESULTS"
}

# --self-test only compares a results file against itself, so it reuses the
# measurements of a preceding check/rebaseline run when they exist.
if [[ "$MODE" == --self-test && -f "$RESULTS" ]]; then
    echo "bench_gate: reusing existing $RESULTS for the self-test"
else
    measure
fi

case "$MODE" in
--rebaseline)
    cp "$RESULTS" "$BASELINE"
    echo "bench_gate: baseline rewritten at $BASELINE — review and commit it"
    ;;
--self-test)
    # The gate must demonstrably fail when a synthetic 2x slowdown is
    # injected into an otherwise-clean run compared against itself.
    cargo run -q --release -p olive-bench --bin bench_gate -- \
        "$RESULTS" "$RESULTS" --tolerance-pct "$TOLERANCE"
    if cargo run -q --release -p olive-bench --bin bench_gate -- \
        "$RESULTS" "$RESULTS" --tolerance-pct "$TOLERANCE" --inject-slowdown 2.0; then
        echo "bench_gate: self-test FAILED — a 2x slowdown passed the gate"
        exit 1
    fi
    echo "bench_gate: self-test OK — clean run passes, 2x slowdown fails"
    ;;
check)
    if [[ ! -f "$BASELINE" ]]; then
        echo "bench_gate: no $BASELINE found — run scripts/bench_gate.sh --rebaseline first"
        exit 1
    fi
    if cargo run -q --release -p olive-bench --bin bench_gate -- \
        "$BASELINE" "$RESULTS" --tolerance-pct "$TOLERANCE"; then
        exit 0
    fi
    echo "bench_gate: comparison failed; re-measuring once to rule out machine noise"
    measure
    cargo run -q --release -p olive-bench --bin bench_gate -- \
        "$BASELINE" "$RESULTS" --tolerance-pct "$TOLERANCE"
    ;;
*)
    echo "usage: scripts/bench_gate.sh [--rebaseline|--self-test]"
    exit 2
    ;;
esac
