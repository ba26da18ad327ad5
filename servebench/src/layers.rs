//! The traced run's per-layer numbers: deltas of the daemon's `/metrics`,
//! and in-process replays that time the library's public functions at the
//! shapes the workloads serve. Every replay records spans.

use crate::daemon::Delta;
use crate::drive::{trace_id, Exchange};
use crate::http::request_bytes;
use crate::spans::{now, Spans};
use crate::stats::{mean, ratio};
use crate::workload::{self, Workload, MISS_BATCHES, MISS_SCHEMES, OVERSAMPLE};
use olive_api::{JsonValue, ModelFamily, Scheme};
use olive_core::TensorQuantizer;
use olive_models::{
    argmax, eval_scores, pages_needed, EvalTask, KvPool, PagedKv, StepSlot, TinyTransformer,
};
use olive_serve::http::{
    read_request, write_chunk, write_chunked_head, write_last_chunk, Response,
};
use olive_serve::protocol::{EvalRequest, GenerateRequest};
use olive_serve::{ModelCache, SchedConfig};
use olive_tensor::matmul::{gelu, layer_norm, matmul, matmul_transpose_b};
use olive_tensor::rng::Rng;
use olive_tensor::Tensor;
use std::collections::BTreeMap;
use std::hint::black_box;

pub type Values = BTreeMap<&'static str, f64>;

/// The `eval_miss` schemes, by the tag their metric names carry.
const MISS_TAGS: [&str; 2] = ["olive4", "uniform4"];
/// Cache hits timed in-process.
const CACHE_HITS: usize = 256;
/// The act-quant and GEMM probes run on every this-many-th replayed tick.
const TICK_SAMPLE_EVERY: usize = 4;

/// The parallelism the daemon runs with when `OLIVE_THREADS` is unset.
pub fn default_threads() -> usize {
    // olive-lint: allow(no-available-parallelism): the benchmark reproduces the daemon's default thread count, which is this host's parallelism
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Daemon deltas

/// `serve::batch`, from one phase's `/metrics` delta. `None` when the phase
/// served no unary job.
fn batch(d: &Delta) -> Option<[(&'static str, f64); 3]> {
    let jobs = d.get("olive_batch_jobs_served_total");
    (jobs > 0.0).then(|| {
        [
            (
                "batch.queue_wait_ms",
                d.mean_ms("olive_batch_queue_wait_us", ""),
            ),
            ("batch.execute_ms", d.mean_ms("olive_batch_execute_us", "")),
            (
                "batch.jobs_per_batch",
                ratio(jobs, d.get("olive_batches_executed_total")),
            ),
        ]
    })
}

/// `serve::decode_sched`, from one phase's delta. `None` without ticks.
fn decode(d: &Delta) -> Option<[(&'static str, f64); 4]> {
    let ticks = d.get("olive_decode_ticks_total");
    let (rows, fed_ticks) = d.batch_rows();
    (ticks > 0.0).then(|| {
        [
            (
                "decode.tick_ms",
                d.mean_ms("olive_decode_tick_duration_us", ""),
            ),
            ("decode.rows_per_tick", ratio(rows, fed_ticks)),
            (
                "decode.ticks_per_req",
                ratio(ticks, d.get("olive_decode_streams_served_total")),
            ),
            // Observed when the head chunk goes out at admission, before any
            // decode step: an admission time, not a time to first token.
            (
                "decode.admit_ms",
                d.mean_ms("olive_decode_time_to_first_chunk_us", ""),
            ),
        ]
    })
}

/// Response-cache hit ratio over `requests` eval requests: every miss adds
/// one body to the cache.
fn hit_ratio(d: &Delta, requests: usize) -> Option<f64> {
    (requests > 0).then(|| 1.0 - d.get("olive_cached_responses") / requests as f64)
}

/// Daemon-side layers: from the timed phase where it reaches the layer,
/// else from the post-phase probe of that layer.
pub fn daemon(
    out: &mut Values,
    workload: Workload,
    timed: &Delta,
    probe: &Delta,
    probe_evals: usize,
) {
    let evals = if workload.streams() {
        0
    } else {
        workload_requests(timed, "/v1/eval")
    };
    for (name, value) in batch(timed).or_else(|| batch(probe)).into_iter().flatten() {
        out.insert(name, value);
    }
    for (name, value) in decode(timed)
        .or_else(|| decode(probe))
        .into_iter()
        .flatten()
    {
        out.insert(name, value);
    }
    let ratio = hit_ratio(timed, evals).or_else(|| hit_ratio(probe, probe_evals));
    out.insert("cache.response_hit_ratio", ratio.unwrap_or(0.0));
    let labels = format!("{{endpoint=\"{}\"}}", workload.path());
    out.insert(
        "http.server_ms",
        timed.mean_ms("olive_http_request_duration_us", &labels),
    );
}

/// Requests the daemon answered on `endpoint` over the phase.
fn workload_requests(d: &Delta, endpoint: &str) -> usize {
    ["2xx", "4xx", "5xx"]
        .iter()
        .map(|class| {
            d.get(&format!(
                "olive_http_requests_total{{endpoint=\"{endpoint}\",status=\"{class}\"}}"
            ))
        })
        .sum::<f64>() as usize
}

// ---------------------------------------------------------------------------
// In-process replays

/// `serve::http`, `api::json`, `serve::protocol`: replays every timed
/// request of the traced pass (the bytes it sent, the reply it got).
pub fn replay_requests(
    spans: &mut Spans,
    out: &mut Values,
    workload: Workload,
    bodies: &[String],
    exchanges: &[&Exchange],
    trace_prefix: &str,
) {
    for x in exchanges {
        let Some(reply) = x.ok() else { continue };
        let body = &bodies[x.entry];
        let raw = request_bytes(
            "POST",
            workload.path(),
            body,
            Some(&trace_id(trace_prefix, x.entry, x.conn)),
        );
        let request = x.request_id(workload.connections());
        spans.time("replay.request", None, request, |s, id| {
            s.time("http.read_request", Some(id), request, |_, _| {
                black_box(read_request(&mut &raw[..]))
            });
            let json = s.time("json.parse", Some(id), request, |_, _| {
                JsonValue::parse(body)
            });
            let json = json.expect("the daemon answered 200, so the body parses");
            s.time("protocol.decode", Some(id), request, |_, _| {
                if workload.streams() {
                    black_box(GenerateRequest::decode(&json).is_ok())
                } else {
                    black_box(EvalRequest::decode(&json).is_ok())
                }
            });
            let mut wire = Vec::with_capacity(reply.body.len() + 256);
            s.time("http.write", Some(id), request, |_, _| {
                if reply.chunks.is_empty() {
                    let _ = Response::json(200, reply.body.as_str()).write_to(&mut wire, true);
                } else {
                    let _ = write_chunked_head(&mut wire, 200, true);
                    let mut from = 0;
                    for &(_, to) in &reply.chunks {
                        let _ = write_chunk(&mut wire, &reply.body[from..to]);
                        from = to;
                    }
                    let _ = write_last_chunk(&mut wire);
                }
            });
            black_box(wire);
        });
    }
    for (metric, span) in [
        ("http.read_request_us", "http.read_request"),
        ("json.parse_us", "json.parse"),
        ("protocol.decode_us", "protocol.decode"),
        ("http.write_us", "http.write"),
    ] {
        out.insert(metric, spans.mean_us(span));
    }
}

/// `serve::cache`: hits on a warm cache holding `bodies`.
pub fn replay_cache_hits(spans: &mut Spans, out: &mut Values, bodies: &[String]) {
    let cache = ModelCache::new();
    let requests: Vec<EvalRequest> = bodies
        .iter()
        .map(|b| {
            EvalRequest::decode(&JsonValue::parse(b).expect("eval_hit bodies parse"))
                .expect("and decode")
        })
        .collect();
    for req in &requests {
        black_box(cache.eval_body(req));
    }
    for i in 0..CACHE_HITS {
        let req = &requests[i % requests.len()];
        spans.time("cache.hit", None, i as u64, |_, _| {
            black_box(cache.eval_body(req))
        });
    }
    out.insert("cache.hit_us", spans.mean_us("cache.hit"));
}

/// Embedding rows of `tokens` starting at position `first_pos`, with the
/// model's sinusoidal position signal.
fn embed(model: &TinyTransformer, tokens: &[usize], first_pos: usize) -> Tensor {
    let d = model.config.d_model;
    let mut x = Tensor::zeros(vec![tokens.len(), d]);
    for (i, &token) in tokens.iter().enumerate() {
        let pos = (first_pos + i) as f32;
        for (j, v) in x.row_mut(i).iter_mut().enumerate() {
            *v =
                model.embedding.row(token)[j] + (pos / 64f32.powf(j as f32 / d as f32)).sin() * 0.1;
        }
    }
    x
}

/// Realistic inputs for the activation quantizations of one forward over
/// `tokens`: per layer the attention input, a projected stand-in for the
/// attention output, the FFN input and the GELU output; then the LM-head
/// input. `[seq, d]` tensors except the GELU outputs, `[seq, d_ff]`.
fn activations(model: &TinyTransformer, tokens: &[usize], first_pos: usize) -> Vec<Tensor> {
    let x = embed(model, tokens, first_pos);
    let mut acts = Vec::with_capacity(4 * model.layers.len() + 1);
    for layer in &model.layers {
        let attn_in = layer_norm(&x, &layer.ln1_gamma, &layer.ln1_beta, 1e-5);
        let attn_out = matmul(&attn_in, &layer.wo);
        let ffn_in = layer_norm(&x, &layer.ln2_gamma, &layer.ln2_beta, 1e-5);
        let hidden = gelu(&matmul(&ffn_in, &layer.w1));
        acts.extend([attn_in, attn_out, ffn_in, hidden]);
    }
    acts.push(layer_norm(&x, &model.ln_f_gamma, &model.ln_f_beta, 1e-5));
    acts
}

/// `api::pipeline`, `models::engine` and per-tensor act-quant: replays
/// `eval_miss` requests (model seeds `seeds`) stage by stage, as
/// `Pipeline::run` computes them for tiny BERT.
pub fn replay_evals(spans: &mut Spans, out: &mut Values, seeds: &[u64]) {
    let spec = ModelFamily::Bert.tiny();
    let olive = Scheme::parse("olive-4bit").expect("registry spec").build();
    for (r, &seed) in seeds.iter().enumerate() {
        let r = r as u64;
        spans.time("replay.eval", None, r, |s, id| {
            let mut rng = Rng::seed_from(seed);
            let teacher = s.time("pipeline.teacher", Some(id), r, |_, _| {
                TinyTransformer::generate(spec.config, spec.severity, &mut rng)
            });
            let task = s.time("pipeline.calibrate", Some(id), r, |_, _| {
                EvalTask::generate_confident("eval", &teacher, MISS_BATCHES, OVERSAMPLE, &mut rng)
            });
            let mut olive_student = None;
            for (tag, spec) in MISS_TAGS.into_iter().zip(MISS_SCHEMES) {
                let q = Scheme::parse(spec).expect("registry spec").build();
                let student = s.time(format!("pipeline.student_{tag}"), Some(id), r, |_, _| {
                    teacher.quantize_weights(q.as_ref())
                });
                let act = q.quantizes_activations().then_some(q.as_ref());
                s.time(format!("pipeline.eval_{tag}"), Some(id), r, |_, _| {
                    black_box(eval_scores(&teacher, &student, &task, act))
                });
                olive_student.get_or_insert(student);
            }
            let student = olive_student.expect("olive-4bit runs first");
            // Forwards run inside a pool job, as eval_scores runs them, so
            // their GEMMs stay inline exactly as when served.
            let q = olive.as_ref();
            let marks = olive_runtime::par_map(&task.inputs, |input| {
                let acts = activations(&student, input, 0);
                let t0 = now();
                black_box(teacher.forward(input, None));
                let t1 = now();
                black_box(student.forward(input, Some(q)));
                let t2 = now();
                for a in &acts {
                    black_box(q.quantize_dequantize(a));
                }
                [t0, t1, t2, now()]
            });
            for [t0, t1, t2, t3] in marks {
                s.push("engine.forward_fp32", Some(id), r, t0, t1);
                s.push("engine.forward_actq", Some(id), r, t1, t2);
                s.push("actq.forward", Some(id), r, t2, t3);
            }
        });
    }
    for (metric, span) in [
        ("pipeline.teacher_ms", "pipeline.teacher"),
        ("pipeline.calibrate_ms", "pipeline.calibrate"),
        ("pipeline.student_olive4_ms", "pipeline.student_olive4"),
        ("pipeline.student_uniform4_ms", "pipeline.student_uniform4"),
        ("pipeline.eval_olive4_ms", "pipeline.eval_olive4"),
        ("pipeline.eval_uniform4_ms", "pipeline.eval_uniform4"),
    ] {
        out.insert(metric, spans.mean_us(span) / 1000.0);
    }
    out.insert(
        "engine.forward_fp32_us",
        spans.mean_us("engine.forward_fp32"),
    );
    out.insert(
        "engine.forward_actq_us",
        spans.mean_us("engine.forward_actq"),
    );
    out.insert("actq.forward_us", spans.mean_us("actq.forward"));
    let forwards = MISS_BATCHES * OVERSAMPLE + 2 * MISS_BATCHES * MISS_SCHEMES.len();
    out.insert("engine.forwards_per_req", forwards as f64);
}

/// One weight GEMM of a decode tick.
struct TickGemm<'a> {
    a: Tensor,
    b: &'a Tensor,
    transpose_b: bool,
}

impl TickGemm<'_> {
    fn run(&self) -> Tensor {
        if self.transpose_b {
            matmul_transpose_b(&self.a, self.b)
        } else {
            matmul(&self.a, self.b)
        }
    }

    fn macs(&self) -> u64 {
        let n = if self.transpose_b {
            self.b.rows()
        } else {
            self.b.cols()
        };
        (self.a.rows() * self.a.cols() * n) as u64
    }
}

/// Stacks `rows` copies of a `[1, n]` tensor.
fn stack(row: &Tensor, rows: usize) -> Tensor {
    Tensor::from_vec(vec![rows, row.cols()], row.data().repeat(rows))
}

/// The weight GEMMs of one merged tick over `rows` identical rows, for
/// each model (lane): per layer QKV, output, FFN up and down, then the
/// tied LM head.
fn tick_gemms<'a>(
    models: [&'a TinyTransformer; 2],
    token: usize,
    pos: usize,
    rows: usize,
) -> Vec<TickGemm<'a>> {
    let mut gemms = Vec::new();
    for model in models {
        let acts = activations(model, &[token], pos);
        for (layer, act) in model.layers.iter().zip(acts.chunks(4)) {
            let (a_d, a_ff) = (stack(&act[0], rows), stack(&act[3], rows));
            for b in [&layer.wqkv, &layer.wo, &layer.w1] {
                gemms.push(TickGemm {
                    a: a_d.clone(),
                    b,
                    transpose_b: false,
                });
            }
            gemms.push(TickGemm {
                a: a_ff,
                b: &layer.w2,
                transpose_b: false,
            });
        }
        let head = stack(acts.last().expect("head input"), rows);
        gemms.push(TickGemm {
            a: head,
            b: &model.embedding,
            transpose_b: true,
        });
    }
    gemms
}

fn advance(
    model: &TinyTransformer,
    act: Option<&dyn TensorQuantizer>,
    stores: &mut [PagedKv],
    token: usize,
    pos: usize,
) -> Vec<Vec<f32>> {
    let mut slots: Vec<StepSlot<'_>> = stores
        .iter_mut()
        .map(|kv| StepSlot { kv, token, pos })
        .collect();
    model.advance_batch(act, &mut slots)
}

/// `models::decode`, per-row act-quant, `tensor::matmul`, `runtime` and
/// `models::kv`: replays one merged `gen_merged` pair (model seed `seed`)
/// tick by tick, as the scheduler advances it, at the daemon's thread count.
pub fn replay_decode(spans: &mut Spans, out: &mut Values, seed: u64) {
    let body = workload::gen_body(seed);
    let req = GenerateRequest::decode(&JsonValue::parse(&body).expect("gen bodies parse"))
        .expect("and decode");
    let pipeline = req.pipeline();
    let rows = Workload::GenMerged.connections();
    olive_runtime::with_threads(default_threads(), || {
        let prepared = spans.time("decode.prepare", None, 0, |_, _| {
            pipeline.prepare_generation(req.prompt_tokens)
        });
        let q = req.scheme.build();
        let student = spans.time("decode.student_quantize", None, 0, |_, _| {
            prepared.teacher.quantize_weights(q.as_ref())
        });
        let act = pipeline
            .quantizes_activations_with(&req.scheme)
            .then_some(q.as_ref());
        let teacher = &prepared.teacher;
        let cfg = teacher.config;
        let page_floats = SchedConfig::default().kv_page_floats;
        let positions = req.prompt_tokens + req.max_new_tokens - 1;
        let per_store = pages_needed(cfg.n_layers, positions, (page_floats / cfg.d_model).max(1));
        let mut pool = KvPool::new(page_floats, 2 * rows * per_store);
        let mut stores: Vec<PagedKv> = (0..2 * rows)
            .map(|_| {
                let pages = pool
                    .try_reserve(per_store)
                    .expect("the pool holds every lane");
                PagedKv::new(cfg.n_layers, cfg.d_model, page_floats, pages)
            })
            .collect();
        let (student_kv, teacher_kv) = stores.split_at_mut(rows);

        let mut student_logits: Vec<Vec<f32>> = Vec::new();
        let mut dispatches = 0usize;
        let (mut macs, mut weight_bytes, mut attn_bytes) = (0u64, 0u64, 0u64);
        for pos in 0..positions {
            let token = match prepared.prompt.get(pos) {
                Some(&t) => t,
                None => argmax(&student_logits[0]),
            };
            let tick = pos as u64;
            spans.time("decode.tick", None, tick, |s, id| {
                student_logits = s.time("decode.student_step", Some(id), tick, |_, _| {
                    advance(&student, act, student_kv, token, pos)
                });
                s.time("decode.teacher_step", Some(id), tick, |_, _| {
                    black_box(advance(teacher, None, teacher_kv, token, pos))
                });
            });
            // Attention reads K and V of every cached position, per row,
            // lane and layer.
            attn_bytes += (2 * rows * cfg.n_layers * 2 * (pos + 1) * cfg.d_model * 4) as u64;
            if pos % TICK_SAMPLE_EVERY != 0 {
                continue;
            }
            let row_acts = activations(&student, &[token], pos);
            spans.time("actq.tick", None, tick, |_, _| {
                for _ in 0..rows {
                    for a in &row_acts {
                        black_box(q.quantize_dequantize(a));
                    }
                }
            });
            let gemms = tick_gemms([&student, teacher], token, pos, rows);
            spans.time("gemm.tick", None, tick, |_, _| {
                gemms.iter().for_each(|g| drop(black_box(g.run())))
            });
            olive_runtime::with_threads(1, || {
                spans.time("gemm.tick_inline", None, tick, |_, _| {
                    gemms.iter().for_each(|g| drop(black_box(g.run())))
                })
            });
            dispatches = gemms
                .iter()
                .filter(|g| olive_runtime::should_parallelize(g.a.rows(), g.macs()))
                .count();
            macs = gemms.iter().map(TickGemm::macs).sum();
            weight_bytes = gemms.iter().map(|g| (g.b.len() * 4) as u64).sum();
        }
        let tick_us = spans.mean_us("decode.tick");
        let decode_ticks: Vec<f64> = spans
            .named("decode.tick")
            .filter(|s| s.request as usize >= req.prompt_tokens)
            .map(|s| s.us())
            .collect();
        out.insert("decode.inproc_tpot_ms", mean(&decode_ticks) / 1000.0);
        out.insert(
            "decode.student_step_us",
            spans.mean_us("decode.student_step"),
        );
        out.insert(
            "decode.teacher_step_us",
            spans.mean_us("decode.teacher_step"),
        );
        out.insert("actq.tick_us", spans.mean_us("actq.tick"));
        out.insert(
            "actq.tick_share",
            ratio(spans.mean_us("actq.tick"), tick_us),
        );
        out.insert("gemm.tick_us", spans.mean_us("gemm.tick"));
        out.insert("gemm.tick_inline_us", spans.mean_us("gemm.tick_inline"));
        out.insert("runtime.dispatches_per_tick", dispatches as f64);
        out.insert("gemm.macs_per_tick", macs as f64);
        out.insert("gemm.weight_bytes_per_tick", weight_bytes as f64);
        out.insert("kv.pages_per_req", (2 * per_store) as f64);
        out.insert(
            "kv.attn_bytes_per_tick",
            attn_bytes as f64 / positions as f64,
        );
    });
}
