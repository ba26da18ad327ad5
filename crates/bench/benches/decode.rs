//! Micro-benchmarks of the served decode path at `gen_merged`'s shapes: two
//! identical gpt2-small streams with a 64-token prompt, each fed through an
//! olive-4bit student (per-row activation quantization) and its fp32
//! teacher, over paged KV stores as the decode scheduler holds them.
//!
//! * `decode_prefill/small_p64x2` — the prefill tick: one `feed_batch` of
//!   2 slots × 64 prompt tokens per model;
//! * `decode_prefill/small_p64x2_per_token` — its reference twin, the same
//!   prompts fed as 64 one-token `advance_batch` steps;
//! * `decode_step/small` — one 2-slot decode step at position 64.
//!
//! Supports `--quick` and `--json <path>` like the other benches.

use olive_api::{ModelFamily, Pipeline, Scheme};
use olive_bench::cli::BenchCli;
use olive_core::TensorQuantizer;
use olive_harness::bench::{black_box, BenchSuite};
use olive_models::{
    pages_needed, FeedSlot, KvPool, KvStore, PagedKv, StepSlot, TinyTransformer, VecKv,
};

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
            let mut slots: Vec<FeedSlot<'_>> = stores
                .iter_mut()
                .map(|kv| FeedSlot {
                    kv,
                    tokens: &lanes.prompt,
                    pos: 0,
                })
                .collect();
            black_box(model.feed_batch(act, &mut slots));
            drop(slots);
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
            let mut slots: Vec<FeedSlot<'_>> = stores
                .iter_mut()
                .map(|kv| FeedSlot {
                    kv,
                    tokens: &lanes.prompt,
                    pos: 0,
                })
                .collect();
            model.feed_batch(act, &mut slots);
            drop(slots);
            stores
        })
        .collect();
    // Any in-vocabulary token costs the same.
    let token = lanes.prompt[0];
    suite.bench_with_elements("decode_step/small", STREAMS as u64, || {
        for ((model, act), stores) in lanes.models().into_iter().zip(&prefilled) {
            let cfg = model.config;
            let mut frozen: Vec<Frozen<'_>> = stores
                .iter()
                .map(|prompt| Frozen {
                    prompt,
                    tail: VecKv::new(cfg.n_layers, cfg.d_model),
                })
                .collect();
            let mut slots: Vec<StepSlot<'_>> = frozen
                .iter_mut()
                .map(|kv| StepSlot {
                    kv,
                    token,
                    pos: PROMPT,
                })
                .collect();
            black_box(model.advance_batch(act, &mut slots));
        }
    });
}

fn main() {
    let cli = BenchCli::parse();
    let mut suite = cli.suite("decode");
    bench_decode(&mut suite);
    cli.finish(&[&suite]);
}
