#!/usr/bin/env bash
# Tier-1 verification gate for the OliVe reproduction workspace.
#
# Runs entirely offline (the workspace has zero crates.io dependencies; see
# README.md). Exits non-zero if the build, the test suite, doc tests, doc
# links, or lints fail.
#
# Lint-tool availability: locally a missing clippy/rustfmt is soft-skipped so
# minimal toolchains can still verify; in CI (the CI env variable is set, as
# GitHub Actions does) a missing lint tool is a hard failure so lint rot
# cannot land through a stripped runner image.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every SIMD kernel has an AVX2 body that only the auto-detected test pass
# runs. On a CPU without AVX2 that pass runs the scalar kernels a second time
# and leaves every AVX2 body untested, so CI must run on an AVX2 host; locally
# a missing avx2 flag is a warning.
if ! grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    if [[ -n "${CI:-}" ]]; then
        echo "== no avx2 in /proc/cpuinfo: the AVX2 kernels would go untested; failing in CI =="
        exit 1
    fi
    echo "== warning: no avx2 in /proc/cpuinfo; the AVX2 kernels go untested (hard failure in CI) =="
fi

echo "== cargo build --workspace --release =="
cargo build --workspace --release

# The examples are the public face of the `olive::api` surface; build them
# all so the API cannot silently rot (CI additionally *runs* quickstart).
echo "== cargo build --release --examples =="
cargo build --release --examples

echo "== cargo test --workspace -q =="
cargo test --workspace -q

# The SIMD kernels (the OVP and uniform scale searches, OVP and uniform fake
# quantization, GELU and the dense GEMMs) have scalar twins that must be
# bit-identical. The workspace run above exercises the auto-detected path;
# this run pins the scalar fallback for olive-core, for olive-models, whose
# one layer stack (under the eval forward and every decode feed) dispatches
# GELU and the dense GEMMs, and whose oracle tests compare it with the eval
# forward's per-head attention and a scalar causal forward, for
# olive-baselines, whose uniform quantizer dispatches its search and fake
# quantization, and for olive-api, whose tbl06/tbl09 goldens pin the bytes
# of those forwards, so both dispatch targets are tested on every verify.
echo "== OLIVE_SIMD=scalar cargo test -q -p olive-core -p olive-models -p olive-baselines -p olive-api =="
OLIVE_SIMD=scalar cargo test -q -p olive-core -p olive-models -p olive-baselines -p olive-api

# The served-path benchmark (servebench/, a package of its own, built into
# servebench/target) imports the library surface — TensorQuantizer,
# should_parallelize, olive_serve::http — so a library change that breaks
# it fails here rather than when the benchmark next runs.
echo "== cargo test --release --manifest-path servebench/Cargo.toml =="
cargo test --release --manifest-path servebench/Cargo.toml

# Static analysis: the determinism & concurrency contracts (see
# crates/lint/RULES.md). The self-test proves the rules still bite by
# injecting one violation per rule.
echo "== olive-lint =="
cargo run --release -q -p olive-lint -- --root .
echo "== olive-lint --self-test =="
cargo run --release -q -p olive-lint -- --self-test

# `cargo test` alone skips doc tests unevenly: the harness=false bench
# targets are test targets too, and lib doc tests are easy to lose in the
# noise. Run them explicitly so documented examples stay honest.
echo "== cargo test --workspace --doc -q =="
cargo test --workspace --doc -q

# Doc links: rustdoc warns on an intra-doc link that no longer resolves or
# that points a public page at a private item, which is what deleting or
# moving a public item leaves behind. Fail on any rustdoc warning.
echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Serving smoke: the olive-serve daemon must come up, answer /healthz and
# /v1/eval with valid JSON via the std-only client, and shut down cleanly.
echo "== scripts/serve_smoke.sh =="
scripts/serve_smoke.sh

# Scale-out smoke: olive-prepare snapshots verify byte-exact with a real
# cold-start speedup, and a 3-worker olive-router topology serves bytes
# identical to a single worker — including across a kill -9 of one worker.
echo "== scripts/router_smoke.sh =="
scripts/router_smoke.sh

if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy --workspace --all-targets -- -D warnings =="
    cargo clippy --workspace --all-targets -- -D warnings
elif [[ -n "${CI:-}" ]]; then
    echo "== clippy unavailable in CI: failing =="
    exit 1
else
    echo "== clippy unavailable; skipped (hard failure in CI) =="
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --all -- --check =="
    cargo fmt --all -- --check
elif [[ -n "${CI:-}" ]]; then
    echo "== rustfmt unavailable in CI: failing =="
    exit 1
else
    echo "== rustfmt unavailable; skipped (hard failure in CI) =="
fi

echo "verify: OK"
