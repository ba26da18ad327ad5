#!/usr/bin/env bash
# Serving smoke test for the OliVe reproduction workspace.
#
# Two layers, both using only what the repo ships (no curl needed):
#
#  1. The process-level smoke *test* (crates/serve/tests/smoke.rs): spawns
#     the real `olive-serve` binary on an ephemeral port, drives /healthz,
#     /v1/eval and a streamed /v1/generate (on a kept-alive connection) with
#     the std-only client library, asserts 200s with valid JSON, and
#     verifies a clean POST /shutdown exit triggered on that same still-open
#     connection (clean shutdown mid-keep-alive).
#  2. A shell-driven rehearsal of the same flow with the `serve_client`
#     binary — proving the daemon + CLI client work exactly as the README
#     documents them, outside any cargo test harness. The /v1/generate step
#     drives one real chunked stream through the daemon. The rehearsal runs
#     with --trace-log and finishes by scraping /metrics and /debug/trace:
#     the served requests must show up as counters, spans and trace-log
#     lines. It also runs with small, non-default back-pressure bounds
#     (--queue-capacity, --max-sessions, --kv-pool-pages) that its
#     one-request-at-a-time traffic fits, so the flags are parsed and
#     applied on every run; the smoke test above keeps the defaults.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo test --release -p olive-serve --test smoke =="
cargo test --release -q -p olive-serve --test smoke

echo "== daemon + serve_client rehearsal =="
cargo build --release -q -p olive-serve

OUT="$(mktemp)"
TRACE_LOG="$(mktemp)"
SERVER_PID=""
# On ANY exit (incl. a failed client step under set -e): never leave the
# daemon orphaned. The happy path disarms the kill by clearing SERVER_PID.
trap '[[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null; rm -f "$OUT" "$TRACE_LOG"' EXIT
target/release/olive-serve --port 0 --allow-shutdown --trace-log "$TRACE_LOG" \
    --queue-capacity 2 --max-sessions 1 --kv-pool-pages 64 >"$OUT" &
SERVER_PID=$!

# Wait (max ~5s) for the listening line, then scrape the URL.
URL=""
for _ in $(seq 1 50); do
    URL="$(sed -n 's/^olive-serve listening on //p' "$OUT")"
    [[ -n "$URL" ]] && break
    sleep 0.1
done
if [[ -z "$URL" ]]; then
    echo "serve_smoke: server did not print its URL" >&2
    exit 1
fi
echo "server is at $URL"

# serve_client exits non-zero unless the status is 200 AND the body parses
# as JSON.
target/release/serve_client GET "$URL/healthz" >/dev/null
target/release/serve_client POST "$URL/v1/eval" \
    --body '{"scheme": "olive-4bit", "batches": 2, "oversample": 2}' >/dev/null
# One real streamed generation: the client decodes the chunked transfer
# coding and still requires the concatenated body to parse as JSON.
target/release/serve_client POST "$URL/v1/generate" \
    --body '{"scheme": "olive-4bit", "prompt_tokens": 4, "max_new_tokens": 6}' >/dev/null

# The traffic above must be visible in the observability surface: request
# counters on /metrics (Prometheus text, so --no-json), finished spans on
# /debug/trace, and one JSON line per span in the --trace-log file.
METRICS="$(target/release/serve_client GET "$URL/metrics" --no-json)"
for want in \
    'olive_http_requests_total{endpoint="/healthz",status="2xx"} 1' \
    'olive_http_requests_total{endpoint="/v1/eval",status="2xx"} 1' \
    'olive_http_requests_total{endpoint="/v1/generate",status="2xx"} 1' \
    'olive_batch_jobs_served_total 1' \
    'olive_decode_streams_served_total 1' \
    'olive_kv_pages_free 64'
do
    if ! grep -qF "$want" <<<"$METRICS"; then
        echo "serve_smoke: /metrics is missing '$want'" >&2
        echo "$METRICS" >&2
        exit 1
    fi
done
TRACES="$(target/release/serve_client GET "$URL/debug/trace?n=8")"
for stage in accepted queued batched first-byte done; do
    if ! grep -qF "\"stage\":\"$stage\"" <<<"$TRACES"; then
        echo "serve_smoke: /debug/trace is missing stage '$stage': $TRACES" >&2
        exit 1
    fi
done
if ! grep -qF '"endpoint":"/v1/generate"' "$TRACE_LOG"; then
    echo "serve_smoke: --trace-log did not record the generate span" >&2
    cat "$TRACE_LOG" >&2
    exit 1
fi
echo "metrics, traces and the trace log all saw the traffic"

target/release/serve_client POST "$URL/shutdown" >/dev/null

# The daemon must exit 0 on its own after /shutdown.
DAEMON_PID="$SERVER_PID"
SERVER_PID=""  # disarm the kill-on-exit trap; from here the daemon owns its exit
if ! wait "$DAEMON_PID"; then
    echo "serve_smoke: server did not shut down cleanly" >&2
    exit 1
fi
echo "serve_smoke: OK"
