//! Micro-benchmarks of the served decode path at `gen_merged`'s shapes: two
//! identical gpt2-small streams with a 64-token prompt, each fed through an
//! olive-4bit student (per-row activation quantization) and its fp32
//! teacher, over paged KV stores as the decode scheduler holds them.
//!
//! * `decode_prefill/small_p64x2` — the prefill: one `feed_batch` of
//!   2 slots × 64 prompt tokens per model, the two models one after the
//!   other;
//! * `decode_prefill/small_p64x2_tick` — the same two feeds as the decode
//!   scheduler runs them, side by side through `feed_groups`;
//! * `decode_prefill/small_p64x2_per_token` — the reference twin of the
//!   prefill, the same prompts fed as 64 one-token `advance_batch` steps;
//! * `decode_step/small` — one 2-slot decode step at position 64, the two
//!   models one after the other;
//! * `decode_step/small_tick` — the same step through `feed_groups`;
//! * `gelu/small_prefill_128x256` and `gelu/small_step_2x256` — the FFN
//!   GELU of one student layer at the prefill and the step shape, on the
//!   dispatched SIMD path, each with a `_scalar` twin pinned to the scalar
//!   path. The input is a seeded `N(0, 1)` `[rows, d_model]` activation
//!   times the student's first-layer `w1`, copied back before each GELU.
//!
//! Supports `--quick` and `--json <path>` like the other benches.

use olive_api::{ModelFamily, Pipeline, Scheme};
use olive_bench::cli::BenchCli;
use olive_core::simd::{gelu_in_place, with_simd, SimdPath};
use olive_core::TensorQuantizer;
use olive_harness::bench::{black_box, BenchSuite};
use olive_models::{
    feed_groups, pages_needed, FeedGroup, FeedSlot, KvPool, KvStore, PagedKv, StepSlot,
    TinyTransformer, VecKv,
};
use olive_tensor::matmul::matmul;
use olive_tensor::rng::Rng;
use olive_tensor::Tensor;

/// The `gen_merged` request shape: two streams, 64 prompt tokens.
const STREAMS: usize = 2;
const PROMPT: usize = 64;
/// The scheduler's default KV page size.
const PAGE_FLOATS: usize = 2048;

/// A stream's KV store frozen after its prompt: prompt positions are read
/// from the prefilled paged store, and a timed step appends to a scratch
/// tail that each sample starts empty, so every sample decodes position
/// [`PROMPT`] against the same prefix.
struct Frozen<'a> {
    prompt: &'a PagedKv,
    tail: VecKv,
}

impl KvStore for Frozen<'_> {
    fn append(&mut self, layer: usize, k_row: &[f32], v_row: &[f32]) {
        self.tail.append(layer, k_row, v_row);
    }

    fn k_row(&self, layer: usize, pos: usize) -> &[f32] {
        match pos.checked_sub(PROMPT) {
            None => self.prompt.k_row(layer, pos),
            Some(tail) => self.tail.k_row(layer, tail),
        }
    }

    fn v_row(&self, layer: usize, pos: usize) -> &[f32] {
        match pos.checked_sub(PROMPT) {
            None => self.prompt.v_row(layer, pos),
            Some(tail) => self.tail.v_row(layer, tail),
        }
    }
}

/// The two lanes of a stream: the student with its activation quantizer,
/// and the fp32 teacher.
struct Lanes {
    student: TinyTransformer,
    act: Box<dyn TensorQuantizer>,
    teacher: TinyTransformer,
    prompt: Vec<usize>,
}

impl Lanes {
    fn models(&self) -> [(&TinyTransformer, Option<&dyn TensorQuantizer>); 2] {
        [
            (&self.student, Some(self.act.as_ref())),
            (&self.teacher, None),
        ]
    }
}

/// Fresh paged stores for every stream of one lane, reserved from `pool`.
fn reserve(pool: &mut KvPool, model: &TinyTransformer, positions: usize) -> Vec<PagedKv> {
    let cfg = model.config;
    let per_store = pages_needed(cfg.n_layers, positions, PAGE_FLOATS / cfg.d_model);
    (0..STREAMS)
        .map(|_| {
            let pages = pool
                .try_reserve(per_store)
                .expect("the pool holds both lanes");
            PagedKv::new(cfg.n_layers, cfg.d_model, PAGE_FLOATS, pages)
        })
        .collect()
}

fn release(pool: &mut KvPool, stores: Vec<PagedKv>) {
    for kv in stores {
        pool.release(kv.into_pages());
    }
}

/// One slot per store, each feeding `tokens` from position `pos`.
fn slots<'s, S: KvStore>(
    stores: &'s mut [S],
    tokens: &'s [usize],
    pos: usize,
) -> Vec<FeedSlot<'s>> {
    stores
        .iter_mut()
        .map(|kv| FeedSlot { kv, tokens, pos })
        .collect()
}

/// A decode step's stores: the prefilled prompts of every stream of one
/// lane, frozen.
fn frozen<'p>(model: &TinyTransformer, prompts: &'p [PagedKv]) -> Vec<Frozen<'p>> {
    let cfg = model.config;
    prompts
        .iter()
        .map(|prompt| Frozen {
            prompt,
            tail: VecKv::new(cfg.n_layers, cfg.d_model),
        })
        .collect()
}

fn bench_decode(suite: &mut BenchSuite) {
    let pipeline = Pipeline::new(ModelFamily::Gpt2.small()).seed(7);
    let prepared = pipeline.prepare_generation(PROMPT);
    let scheme = Scheme::parse("olive-4bit").expect("registry scheme");
    let act = scheme.build();
    assert!(pipeline.quantizes_activations_with(&scheme));
    let lanes = Lanes {
        student: prepared.teacher.quantize_weights(act.as_ref()),
        act,
        teacher: prepared.teacher,
        prompt: prepared.prompt,
    };
    let mut pool = KvPool::new(PAGE_FLOATS, 1024);
    let rows = (STREAMS * PROMPT) as u64;

    suite.bench_with_elements("decode_prefill/small_p64x2", rows, || {
        for (model, act) in lanes.models() {
            let mut stores = reserve(&mut pool, model, PROMPT + 1);
            black_box(model.feed_batch(act, &mut slots(&mut stores, &lanes.prompt, 0)));
            release(&mut pool, stores);
        }
    });

    suite.bench_with_elements("decode_prefill/small_p64x2_tick", rows, || {
        let mut lane_stores: Vec<Vec<PagedKv>> = lanes
            .models()
            .iter()
            .map(|(model, _)| reserve(&mut pool, model, PROMPT + 1))
            .collect();
        let groups = lanes
            .models()
            .into_iter()
            .zip(&mut lane_stores)
            .map(|((model, act_quant), stores)| FeedGroup {
                model,
                act_quant,
                slots: slots(stores, &lanes.prompt, 0),
            })
            .collect();
        black_box(feed_groups(groups));
        for stores in lane_stores {
            release(&mut pool, stores);
        }
    });

    suite.bench_with_elements("decode_prefill/small_p64x2_per_token", rows, || {
        let mut lane_stores: Vec<Vec<PagedKv>> = lanes
            .models()
            .iter()
            .map(|(model, _)| reserve(&mut pool, model, PROMPT + 1))
            .collect();
        for (pos, &token) in lanes.prompt.iter().enumerate() {
            for ((model, act), stores) in lanes.models().into_iter().zip(&mut lane_stores) {
                let mut slots: Vec<StepSlot<'_>> = stores
                    .iter_mut()
                    .map(|kv| StepSlot { kv, token, pos })
                    .collect();
                black_box(model.advance_batch(act, &mut slots));
            }
        }
        for stores in lane_stores {
            release(&mut pool, stores);
        }
    });

    // Prefill once, then time the step that follows the prompt.
    let prefilled: Vec<Vec<PagedKv>> = lanes
        .models()
        .into_iter()
        .map(|(model, act)| {
            let mut stores = reserve(&mut pool, model, PROMPT + 1);
            model.feed_batch(act, &mut slots(&mut stores, &lanes.prompt, 0));
            stores
        })
        .collect();
    // Any in-vocabulary token costs the same.
    let token = [lanes.prompt[0]];
    suite.bench_with_elements("decode_step/small", STREAMS as u64, || {
        for ((model, act), prompts) in lanes.models().into_iter().zip(&prefilled) {
            let mut stores = frozen(model, prompts);
            black_box(model.feed_batch(act, &mut slots(&mut stores, &token, PROMPT)));
        }
    });

    suite.bench_with_elements("decode_step/small_tick", STREAMS as u64, || {
        let mut lane_stores: Vec<Vec<Frozen<'_>>> = lanes
            .models()
            .into_iter()
            .zip(&prefilled)
            .map(|((model, _), prompts)| frozen(model, prompts))
            .collect();
        let groups = lanes
            .models()
            .into_iter()
            .zip(&mut lane_stores)
            .map(|((model, act_quant), stores)| FeedGroup {
                model,
                act_quant,
                slots: slots(stores, &token, PROMPT),
            })
            .collect();
        black_box(feed_groups(groups));
    });

    bench_gelu(suite, &lanes.student);
}

fn bench_gelu(suite: &mut BenchSuite, student: &TinyTransformer) {
    let w1 = &student.layers[0].w1;
    let mut rng = Rng::seed_from(19);
    for (name, rows) in [
        ("small_prefill_128x256", STREAMS * PROMPT),
        ("small_step_2x256", STREAMS),
    ] {
        let mut x = Tensor::zeros(vec![rows, w1.rows()]);
        rng.fill_normal(x.data_mut(), 0.0, 1.0);
        let h = matmul(&x, w1);
        let mut buf = h.data().to_vec();
        for (suffix, path) in [("", None), ("_scalar", Some(SimdPath::Scalar))] {
            with_simd(path, || {
                suite.bench_with_elements(
                    &format!("gelu/{name}{suffix}"),
                    buf.len() as u64,
                    || {
                        buf.copy_from_slice(h.data());
                        gelu_in_place(black_box(&mut buf));
                    },
                );
            });
        }
    }
}

fn main() {
    let cli = BenchCli::parse();
    let mut suite = cli.suite("decode");
    bench_decode(&mut suite);
    cli.finish(&[&suite]);
}
