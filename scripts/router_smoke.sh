#!/usr/bin/env bash
# Scale-out smoke test for the OliVe reproduction workspace: a 3-worker
# routed topology driven end-to-end with only what the repo ships.
#
# What it proves, in order:
#
#  1. `olive-prepare --verify` snapshots a model offline, and reloading the
#     snapshot is byte-exact AND much cheaper than the preparation it
#     replaces (the cold-start speedup, asserted numerically).
#  2. A 3-worker `olive-router` front door (one worker cold-starting from
#     the snapshot store) serves /v1/eval and a streamed /v1/generate
#     **byte-identical** to a single worker asked directly.
#  3. kill -9 of a worker is absorbed: the router is asked for the exact
#     request the dead worker owned (it must fail over, byte-identically),
#     a multi-seed sweep still answers 200 on every request, and the loss
#     is visible in the aggregated /healthz and the /metrics counters
#     (fail-overs, the unhealthy health-flip, per-worker breakdown).
#  4. `olive-router --spawn N` owns its own workers: it boots them, serves
#     through them, and stops them on shutdown.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo test --release -p olive-router --test routed =="
cargo test --release -q -p olive-router --test routed

echo "== build the daemons =="
cargo build --release -q -p olive-serve -p olive-router

BIN=target/release
EVAL_BODY='{"schemes": ["fp32", "olive-4bit"], "batches": 2, "oversample": 2, "seed": 41}'
GEN_BODY='{"scheme": "olive-4bit", "prompt_tokens": 4, "max_new_tokens": 5, "seed": 41}'

WORKDIR="$(mktemp -d)"
PIDS=()
trap '((${#PIDS[@]})) && kill -9 "${PIDS[@]}" 2>/dev/null; rm -rf "$WORKDIR"' EXIT

# Starts one daemon, scraping its URL from the given listening-line prefix.
# start_daemon VAR OUT_FILE PREFIX CMD...
start_daemon() {
    local -n url_var=$1
    local out=$2 prefix=$3
    shift 3
    "$@" >"$out" &
    PIDS+=($!)
    url_var=""
    for _ in $(seq 1 50); do
        url_var="$(sed -n "s|^$prefix ||p" "$out" | head -n1)"
        [[ -n "$url_var" ]] && break
        sleep 0.1
    done
    if [[ -z "$url_var" ]]; then
        echo "router_smoke: '$prefix' line never appeared in $out" >&2
        exit 1
    fi
}

echo "== olive-prepare: offline snapshot + cold-start speedup =="
ARTDIR="$WORKDIR/artifacts"
mkdir -p "$ARTDIR"
PREPARE_LOG="$WORKDIR/prepare.log"
"$BIN/olive-prepare" --artifact-dir "$ARTDIR" --verify \
    --eval "$EVAL_BODY" --generate "$GEN_BODY" | tee "$PREPARE_LOG"
# Every snapshot line must report load_ms well under prepare_ms (each the
# minimum of olive-prepare's 5 timed runs).
awk '
    /^olive-prepare: wrote / {
        prepare = load = ""
        for (i = 1; i <= NF; i++) {
            if ($i ~ /^prepare_ms=/) prepare = substr($i, 12)
            if ($i ~ /^load_ms=/)    load = substr($i, 9)
        }
        if (prepare == "" || load == "") { print "missing timing: " $0; exit 1 }
        if (load * 2 >= prepare) {
            print "cold-start load (" load "ms) not clearly cheaper than prepare (" prepare "ms)"
            exit 1
        }
        checked++
    }
    END { if (checked != 2) { print "expected 2 snapshot lines, saw " checked; exit 1 } }
' "$PREPARE_LOG"
echo "cold-start speedup verified for both snapshots"

echo "== reference worker (quantizes in-process) =="
start_daemon REF_URL "$WORKDIR/ref.out" "olive-serve listening on" \
    "$BIN/olive-serve" --port 0 --allow-shutdown
"$BIN/serve_client" POST "$REF_URL/v1/eval" --body "$EVAL_BODY" >"$WORKDIR/ref_eval.json"
"$BIN/serve_client" POST "$REF_URL/v1/generate" --body "$GEN_BODY" >"$WORKDIR/ref_gen.json"

echo "== 3 workers (worker 1 cold-starts from the snapshot store) =="
start_daemon W1_URL "$WORKDIR/w1.out" "olive-serve listening on" \
    "$BIN/olive-serve" --port 0 --allow-shutdown --artifact-dir "$ARTDIR"
start_daemon W2_URL "$WORKDIR/w2.out" "olive-serve listening on" \
    "$BIN/olive-serve" --port 0 --allow-shutdown
start_daemon W3_URL "$WORKDIR/w3.out" "olive-serve listening on" \
    "$BIN/olive-serve" --port 0 --allow-shutdown

echo "== router over the 3 workers =="
start_daemon ROUTER_URL "$WORKDIR/router.out" "olive-router listening on" \
    "$BIN/olive-router" --port 0 --allow-shutdown \
    --worker "$W1_URL" --worker "$W2_URL" --worker "$W3_URL"
echo "router is at $ROUTER_URL (workers: $W1_URL $W2_URL $W3_URL)"

echo "== routed bytes must equal single-worker bytes =="
"$BIN/serve_client" GET "$ROUTER_URL/healthz" >/dev/null
"$BIN/serve_client" POST "$ROUTER_URL/v1/eval" --body "$EVAL_BODY" >"$WORKDIR/routed_eval.json"
"$BIN/serve_client" POST "$ROUTER_URL/v1/generate" --body "$GEN_BODY" >"$WORKDIR/routed_gen.json"
diff "$WORKDIR/ref_eval.json" "$WORKDIR/routed_eval.json" \
    || { echo "router_smoke: routed /v1/eval bytes differ from single worker" >&2; exit 1; }
diff "$WORKDIR/ref_gen.json" "$WORKDIR/routed_gen.json" \
    || { echo "router_smoke: routed /v1/generate bytes differ from single worker" >&2; exit 1; }
echo "routed responses are byte-identical"

echo "== router /metrics: routed traffic visible, per-worker sums consistent =="
RMETRICS="$("$BIN/serve_client" GET "$ROUTER_URL/metrics" --no-json)"
# The eval + generate above were both routed; the per-worker breakdown must
# add up to the same total (healthz is answered by the router itself).
awk '
    /^olive_router_requests_served_total / { served = $2 }
    /^olive_router_worker_requests_total\{/ { by_worker += $2 }
    END {
        if (served != 2) { print "router_smoke: expected 2 routed requests, /metrics says " served; exit 1 }
        if (by_worker != served) {
            print "router_smoke: per-worker requests (" by_worker ") do not sum to the total (" served ")"
            exit 1
        }
    }
' <<<"$RMETRICS"
if ! grep -qF 'olive_router_worker_healthy{worker="' <<<"$RMETRICS"; then
    echo "router_smoke: /metrics is missing the per-worker health gauges" >&2
    exit 1
fi
echo "router metrics add up"

# Which worker owns EVAL_BODY's routing key? Ring placement depends on the
# workers' ephemeral ports, so find it empirically: re-post the same body
# (same key → same worker) and see whose per-worker counter moved.
echo "== find the worker that owns the eval key =="
BEFORE="$("$BIN/serve_client" GET "$ROUTER_URL/metrics" --no-json)"
"$BIN/serve_client" POST "$ROUTER_URL/v1/eval" --body "$EVAL_BODY" >/dev/null
AFTER="$("$BIN/serve_client" GET "$ROUTER_URL/metrics" --no-json)"
OWNER="$(awk '
    /^olive_router_worker_requests_total\{/ && match($0, /worker="[^"]*"/) {
        w = substr($0, RSTART + 8, RLENGTH - 9)
        if (NR == FNR) before[w] = $2
        else if ($2 > before[w] + 0) print w
    }
' <(printf '%s\n' "$BEFORE") <(printf '%s\n' "$AFTER"))"
case "$OWNER" in
    "$W1_URL") VICTIM=1 ;;
    "$W2_URL") VICTIM=2 ;;
    "$W3_URL") VICTIM=3 ;;
    *) echo "router_smoke: cannot map eval-key owner '$OWNER' to a worker" >&2; exit 1 ;;
esac
echo "eval key is owned by worker $VICTIM ($OWNER)"

echo "== kill -9 the owner: the same request must fail over, byte-identically =="
# PIDS: [reference, w1, w2, w3, router].
kill -9 "${PIDS[$VICTIM]}"
# The dead worker is still flagged healthy (no probe has failed yet), so it
# stays first in its key's candidate plan: the very next post of the same
# body MUST attempt it, fail, and fail over — deterministically, no sweep.
"$BIN/serve_client" POST "$ROUTER_URL/v1/eval" --body "$EVAL_BODY" >"$WORKDIR/failover_eval.json"
diff "$WORKDIR/ref_eval.json" "$WORKDIR/failover_eval.json" \
    || { echo "router_smoke: failed-over /v1/eval bytes differ from single worker" >&2; exit 1; }
for seed in 1 2 3 4 5 6; do
    "$BIN/serve_client" POST "$ROUTER_URL/v1/eval" \
        --body "{\"scheme\": \"olive-4bit\", \"batches\": 2, \"oversample\": 2, \"seed\": $seed}" \
        >/dev/null
done
echo "6-seed sweep survived the kill"
HEALTH="$("$BIN/serve_client" GET "$ROUTER_URL/healthz")"
if ! grep -q '"workers_healthy": 2' <<<"$HEALTH"; then
    echo "router_smoke: healthz does not report the dead worker: $HEALTH" >&2
    exit 1
fi
if ! grep -q '"status": "degraded"' <<<"$HEALTH"; then
    echo "router_smoke: healthz status should be degraded: $HEALTH" >&2
    exit 1
fi
if ! grep -q '"requests_failed_over": [1-9]' <<<"$HEALTH"; then
    echo "router_smoke: the fail-over is missing from aggregated healthz: $HEALTH" >&2
    exit 1
fi
# Every aggregated-healthz call probes every worker, and each failed probe
# counts toward the unhealthy threshold (3 by default) — so three more
# probes guarantee the dead worker's health FLIP is on the books too.
for _ in 1 2 3; do
    "$BIN/serve_client" GET "$ROUTER_URL/healthz" >/dev/null
done
KMETRICS="$("$BIN/serve_client" GET "$ROUTER_URL/metrics" --no-json)"
if ! grep -E 'olive_router_requests_failed_over_total [1-9]' <<<"$KMETRICS" >/dev/null; then
    echo "router_smoke: /metrics does not count the fail-overs" >&2
    exit 1
fi
if ! grep -E 'olive_router_worker_health_transitions_total\{.*to="unhealthy".*\} [1-9]' <<<"$KMETRICS" >/dev/null; then
    echo "router_smoke: /metrics does not show the health transition" >&2
    exit 1
fi
echo "worker loss is visible in aggregated healthz and /metrics"

echo "== clean shutdowns =="
"$BIN/serve_client" POST "$ROUTER_URL/shutdown" >/dev/null
"$BIN/serve_client" POST "$REF_URL/shutdown" >/dev/null
for url in "$W1_URL" "$W2_URL" "$W3_URL"; do
    [[ "$url" == "$OWNER" ]] && continue
    "$BIN/serve_client" POST "$url/shutdown" >/dev/null
done
for pid in "${PIDS[@]}"; do
    wait "$pid" 2>/dev/null || true
done
PIDS=()

echo "== olive-router --spawn 2 owns its workers =="
start_daemon SPAWN_URL "$WORKDIR/spawned.out" "olive-router listening on" \
    "$BIN/olive-router" --port 0 --allow-shutdown \
    --spawn 2 --serve-bin "$BIN/olive-serve" --artifact-dir "$ARTDIR"
SPAWN_PID="${PIDS[0]}"
"$BIN/serve_client" POST "$SPAWN_URL/v1/eval" --body "$EVAL_BODY" >"$WORKDIR/spawned_eval.json"
diff "$WORKDIR/ref_eval.json" "$WORKDIR/spawned_eval.json" \
    || { echo "router_smoke: spawned-topology bytes differ" >&2; exit 1; }
"$BIN/serve_client" POST "$SPAWN_URL/shutdown" >/dev/null
if ! wait "$SPAWN_PID"; then
    echo "router_smoke: spawning router did not shut down cleanly" >&2
    exit 1
fi
PIDS=()

echo "router_smoke: OK"
