//! Every metric the benchmark reports: unit, layer, how it is measured, and
//! which end-to-end metric on which workload it should move. `--list-metrics`
//! prints this table; `BENCHMARK.json` lists the same names.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    pub how: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    how: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        how,
        moves,
    }
}

const E2E: &str = "end to end";
const ALL: &str = "reported on every workload";

/// Printed with `--trace 0`, measured with tracing off. A p50 is the
/// median within each slice of the timed phase (one merged pair of streams
/// on gen_merged, one block otherwise), averaged over the slices; rates and
/// CPU time are totals over the timed phase. The pooled p90s of the three
/// latencies are printed too, but are not metrics: on a shared 2-vCPU VM
/// they follow host steal (eval_hit's p90 read 2.38-3.21 ms over five seeds
/// while its p50 held within 2%).
pub const END_TO_END: &[Metric] = &[
    m(
        "setup_s",
        "s",
        "lower",
        E2E,
        "daemon spawn -> listening line -> warm-up replies; median of 5 set-ups per run",
        ALL,
    ),
    m(
        "req_p50_ms",
        "ms",
        "lower",
        E2E,
        "request write -> last body byte; median per slice, mean over slices",
        ALL,
    ),
    m(
        "req_per_s",
        "1/s",
        "higher",
        E2E,
        "completed requests / timed-phase wall time",
        ALL,
    ),
    m(
        "ttft_p50_ms",
        "ms",
        "lower",
        E2E,
        "gen: request write -> first chunk carrying a decoded step; unary: -> first response \
         byte; median per slice, mean over slices",
        ALL,
    ),
    m(
        "tpot_p50_ms",
        "ms",
        "lower",
        E2E,
        "gen: gap between consecutive step chunks of a stream; unary: gap between consecutive \
         completed replies on the connection; median per slice, mean over slices",
        ALL,
    ),
    m(
        "tok_per_s",
        "1/s",
        "higher",
        E2E,
        "gen: step chunks / timed-phase wall time; unary: replies / timed-phase wall time",
        ALL,
    ),
    m(
        "cpu_ms_per_req",
        "ms",
        "lower",
        E2E,
        "daemon utime + stime over the timed phase (/proc/<pid>/stat, exited threads included) \
         / completed requests",
        ALL,
    ),
    m(
        "rss_mib",
        "MiB",
        "lower",
        E2E,
        "daemon VmHWM at the end of the timed phase",
        ALL,
    ),
];

/// Printed with `--trace 1`. Daemon numbers are deltas of `/metrics` over
/// the traced timed phase; where a workload never reaches a daemon layer,
/// they come from a short probe of that layer run after the timed phase on
/// the same daemon. In-process numbers time the public functions at the
/// shapes the named workload serves.
pub const PER_LAYER: &[Metric] = &[
    m("batch.queue_wait_ms", "ms", "lower", "serve::batch",
      "daemon: olive_batch_queue_wait_us mean",
      "req_p50_ms, req_per_s on eval_hit; ~6% of eval_miss; nothing on gen_merged"),
    m("batch.execute_ms", "ms", "lower", "serve::batch",
      "daemon: olive_batch_execute_us mean", "req_p50_ms on eval_hit and eval_miss"),
    m("batch.jobs_per_batch", "count", "higher", "serve::batch",
      "daemon: jobs served / batches executed", "req_per_s on eval_hit"),
    m("http.read_request_us", "us", "lower", "serve::http",
      "in-process: http::read_request over each timed request's bytes", "req_p50_ms on eval_hit"),
    m("json.parse_us", "us", "lower", "api::json",
      "in-process: JsonValue::parse of each timed body", "req_p50_ms on eval_hit"),
    m("protocol.decode_us", "us", "lower", "serve::protocol",
      "in-process: EvalRequest/GenerateRequest::decode of each timed body", "req_p50_ms on eval_hit"),
    m("http.write_us", "us", "lower", "serve::http",
      "in-process: writing each timed reply (length-framed or chunked) to memory",
      "req_p50_ms on eval_hit"),
    m("http.server_ms", "ms", "lower", "serve::http",
      "daemon: olive_http_request_duration_us mean on the workload's endpoint",
      "req_p50_ms on eval_hit (its floor once the linger goes)"),
    m("cache.response_hit_ratio", "ratio", "higher", "serve::cache",
      "daemon: 1 - (growth of olive_cached_responses) / timed eval requests; 1.0 on eval_hit \
       and 0.0 on eval_miss by construction", "req_p50_ms on eval_hit"),
    m("cache.hit_us", "us", "lower", "serve::cache",
      "in-process: ModelCache::eval_body on a warm eval_hit body", "req_p50_ms on eval_hit"),
    m("pipeline.teacher_ms", "ms", "lower", "api::pipeline",
      "in-process, eval_miss shape: TinyTransformer::generate",
      "req_p50_ms, cpu_ms_per_req on eval_miss; setup_s on gen_merged"),
    m("pipeline.calibrate_ms", "ms", "lower", "api::pipeline",
      "in-process, eval_miss shape: EvalTask::generate_confident", "req_p50_ms, cpu_ms_per_req on eval_miss"),
    m("pipeline.student_olive4_ms", "ms", "lower", "api::pipeline",
      "in-process, eval_miss shape: quantize_weights with olive-4bit",
      "req_p50_ms, cpu_ms_per_req on eval_miss; setup_s on gen_merged"),
    m("pipeline.student_uniform4_ms", "ms", "lower", "api::pipeline",
      "in-process, eval_miss shape: quantize_weights with uniform:4", "req_p50_ms, cpu_ms_per_req on eval_miss"),
    m("pipeline.eval_olive4_ms", "ms", "lower", "api::pipeline",
      "in-process, eval_miss shape: eval_scores with olive-4bit activations",
      "req_p50_ms, cpu_ms_per_req on eval_miss"),
    m("pipeline.eval_uniform4_ms", "ms", "lower", "api::pipeline",
      "in-process, eval_miss shape: eval_scores with uniform:4 activations",
      "req_p50_ms, cpu_ms_per_req on eval_miss"),
    m("engine.forward_fp32_us", "us", "lower", "models::engine",
      "in-process: TinyTransformer::forward, fp32, one [16]-token input, inside a pool job",
      "req_p50_ms on eval_miss"),
    m("engine.forward_actq_us", "us", "lower", "models::engine",
      "in-process: TinyTransformer::forward with olive-4bit activations, inside a pool job",
      "req_p50_ms on eval_miss"),
    m("actq.forward_us", "us", "lower", "core act-quant (per tensor)",
      "in-process: the 9 olive-4bit quantize_dequantize calls of one forward ([16,32] x7, [16,64] x2)",
      "req_p50_ms on eval_miss"),
    m("engine.forwards_per_req", "count", "lower", "models::engine",
      "computed: batches x oversample + 2 x batches x schemes (48)", "cpu_ms_per_req on eval_miss"),
    m("decode.tick_ms", "ms", "lower", "serve::decode_sched",
      "daemon: olive_decode_tick_duration_us mean", "tpot_p50_ms, tok_per_s on gen_merged"),
    m("decode.rows_per_tick", "count", "higher", "serve::decode_sched",
      "daemon: sessions fed per tick, from olive_decode_batch_size_total", "tok_per_s on gen_merged"),
    m("decode.ticks_per_req", "count", "lower", "serve::decode_sched",
      "daemon: ticks / streams served", "tok_per_s on gen_merged"),
    m("decode.admit_ms", "ms", "lower", "serve::decode_sched",
      "daemon: olive_decode_time_to_first_chunk_us mean: submit -> head chunk at admission, \
       before any decode step (not TTFT)", "ttft_p50_ms on gen_merged"),
    m("decode.inproc_tpot_ms", "ms", "lower", "serve::decode_sched",
      "in-process: one merged tick (student + teacher advance_batch, 2 rows) during decode",
      "tpot_p50_ms on gen_merged"),
    m("decode.student_step_us", "us", "lower", "models::decode",
      "in-process: advance_batch of the olive-4bit student, 2 rows, per-row act-quant",
      "tpot_p50_ms, tok_per_s on gen_merged"),
    m("decode.teacher_step_us", "us", "lower", "models::decode",
      "in-process: advance_batch of the fp32 teacher, 2 rows", "tpot_p50_ms, tok_per_s on gen_merged"),
    m("actq.tick_us", "us", "lower", "core act-quant (per row)",
      "in-process: the 26 olive-4bit quantize_dequantize calls of one tick ([1,64] x20, [1,256] x6)",
      "tpot_p50_ms, tok_per_s on gen_merged"),
    m("actq.tick_share", "ratio", "lower", "core act-quant (per row)",
      "actq.tick_us / in-process merged tick", "tpot_p50_ms, tok_per_s on gen_merged"),
    m("gemm.tick_us", "us", "lower", "tensor::matmul + runtime",
      "in-process: the 26 weight GEMMs of one tick at m=2, default threads", "tok_per_s on gen_merged"),
    m("gemm.tick_inline_us", "us", "lower", "tensor::matmul + runtime",
      "in-process: the same GEMMs under with_threads(1)", "tok_per_s on gen_merged"),
    m("runtime.dispatches_per_tick", "count", "lower", "runtime",
      "counted: should_parallelize over the tick's GEMMs at default threads", "tok_per_s on gen_merged"),
    m("gemm.macs_per_tick", "count", "lower", "tensor::matmul",
      "computed from shapes: sum of m*k*n over the tick's weight GEMMs", "tok_per_s on gen_merged"),
    m("gemm.weight_bytes_per_tick", "bytes", "lower", "tensor::matmul",
      "computed from shapes: f32 weight bytes the tick's GEMMs read", "tok_per_s on gen_merged"),
    m("kv.pages_per_req", "count", "lower", "models::kv",
      "computed: pages one gen_merged stream reserves (student + teacher lanes)",
      "tpot_p50_ms on gen_merged at long context"),
    m("kv.attn_bytes_per_tick", "bytes", "lower", "models::kv",
      "computed from shapes: K/V bytes attention reads per merged tick, mean over a stream",
      "tpot_p50_ms on gen_merged at long context"),
    m("proc.ctx_switches_per_req", "count", "lower", "process",
      "daemon threads' voluntary + nonvoluntary switches over the timed phase / requests",
      "diagnostic"),
    m("host.steal_pct", "%", "lower", "host", "steal share of host CPU time over the timed phase",
      "diagnostic"),
    m("trace.overhead_pct", "%", "lower", "benchmark",
      "traced req_p50_ms vs the untraced req_p50_ms of the same run", "diagnostic"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

pub fn print_list() {
    println!(
        "printed with every --trace 0 run, not metrics: p90, p99 and max of req, ttft and tpot"
    );
    for (title, list) in [
        ("end-to-end (--trace 0)", END_TO_END),
        ("per-layer (--trace 1)", PER_LAYER),
    ] {
        println!("{title}:");
        println!(
            "  {:<28} {:<6} {:<7} {:<27} should move / measured as",
            "metric", "unit", "better", "layer"
        );
        for m in list {
            println!(
                "  {:<28} {:<6} {:<7} {:<27} {}",
                m.name, m.unit, m.better, m.layer, m.moves
            );
            println!("  {:<71} {}", "", m.how);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_api::JsonValue;

    fn listed(manifest: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        manifest
            .get(key)
            .and_then(JsonValue::as_array)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_manifest_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&manifest, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&manifest, "per_layer"), ours(PER_LAYER));
    }
}
