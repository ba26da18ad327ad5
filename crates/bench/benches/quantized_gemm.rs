//! Micro-benchmarks of the bit-accurate quantized GEMM versus the FP32
//! reference GEMM, on the in-repo olive-harness runner — this workspace
//! builds offline, so no criterion.
//!
//! The FP32 GEMM is measured twice: pinned to one thread (`fp32_seq`) and at
//! the runtime's effective thread count (`fp32_par`, see `OLIVE_THREADS`).
//! `ovp_int4_legacy_seq` times `quantized_matmul` on one thread. `--quick`
//! (CI smoke/gate mode) trims iteration counts and skips the 1024-sized
//! kernels; `--json <path>` records medians for `scripts/bench_gate.sh`.
//!
//! `--scheme <spec>` (repeatable, see `--list-schemes`) switches the bench to
//! the registry: each selected scheme's 256³ GEMM is measured, sequential
//! and parallel, instead of the default kernel set — OliVe schemes run the
//! OVP integer GEMM, every other scheme runs fake-quantization + FP32 GEMM.
//! The default set (no `--scheme`) is what `BENCH_baseline.json` gates, so
//! its kernel names are stable.
//!
//! The `served/*` rows time the dispatched dense GEMMs
//! (`olive_core::simd::matmul` and `matmul_transpose_b`) on one thread at
//! the shapes the served forwards run, each next to a `_scalar` twin pinned
//! to the scalar path, the reference kernels: `m16_tiny_layer` (a BERT-tiny
//! eval layer's four weight GEMMs over 16 tokens), `m16_tiny_head`,
//! `m128_small_layer` and `m2_small_layer` (a gpt2-small layer's four at a
//! two-stream 64-token prefill and a two-stream decode step),
//! `m2_small_head`, `eval_forward_tiny` (one BERT-tiny fp32 forward of
//! 16 tokens, which servebench's `eval_miss` runs 32 times per request)
//! and `eval_forward_small` (one `EngineConfig::small` fp32 forward of 32
//! tokens, the paper-table binaries' model). The forwards' twins also run
//! GELU on the scalar path. The activations are seeded unit Gaussians with
//! no zeros, as the fp32 teacher's are.

use olive_api::Scheme;
use olive_bench::cli::BenchCli;
use olive_core::simd::{self, with_simd, SimdPath};
use olive_core::{quantized_matmul, OliveQuantizer};
use olive_harness::bench::{black_box, BenchConfig, BenchSuite};
use olive_models::{EngineConfig, OutlierSeverity, SynthProfile, TinyTransformer};
use olive_tensor::matmul::matmul;
use olive_tensor::rng::Rng;
use olive_tensor::Tensor;

fn square(n: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    SynthProfile::transformer().generate(vec![n, n], &mut rng)
}

/// Benchmarks one shape's float GEMM, sequential and parallel, and its
/// quantized GEMM on one thread.
fn bench_shape(suite: &mut BenchSuite, n: usize, seed: u64) {
    let a = square(n, seed);
    let b = square(n, seed + 1);
    let qa = OliveQuantizer::int4().quantize(&a);
    let qb = OliveQuantizer::int4().quantize(&b);
    let macs = (n * n * n) as u64;
    let threads = olive_runtime::effective_threads();

    suite.bench_with_elements(&format!("gemm_{n}x{n}x{n}/fp32_seq"), macs, || {
        olive_runtime::with_threads(1, || black_box(matmul(black_box(&a), black_box(&b))))
    });
    suite.bench_with_elements(&format!("gemm_{n}x{n}x{n}/fp32_par"), macs, || {
        olive_runtime::with_threads(threads, || black_box(matmul(black_box(&a), black_box(&b))))
    });
    // The name predates the removal of a decode-once kernel that was timed
    // beside this one; it is kept so the row's baseline stays comparable.
    suite.bench_with_elements(
        &format!("gemm_{n}x{n}x{n}/ovp_int4_legacy_seq"),
        macs,
        || {
            olive_runtime::with_threads(1, || {
                black_box(quantized_matmul(black_box(&qa), black_box(&qb)))
            })
        },
    );
}

/// Benchmarks one registry scheme's 256³ GEMM (seq + par): OliVe schemes
/// execute the integer-domain GEMM, everything else fake-quantizes
/// both operands and runs the FP32 GEMM (how the accuracy harness executes
/// those schemes).
fn bench_scheme(suite: &mut BenchSuite, scheme: &Scheme, n: usize, seed: u64) {
    let a = square(n, seed);
    let b = square(n, seed + 1);
    let macs = (n * n * n) as u64;
    let threads = olive_runtime::effective_threads();
    let spec = scheme.to_string();

    if let Some(oq) = scheme.olive_quantizer() {
        let qa = oq.quantize(&a);
        let qb = oq.quantize(&b);
        suite.bench_with_elements(&format!("gemm_{n}x{n}x{n}/{spec}_seq"), macs, || {
            olive_runtime::with_threads(1, || {
                black_box(quantized_matmul(black_box(&qa), black_box(&qb)))
            })
        });
        suite.bench_with_elements(&format!("gemm_{n}x{n}x{n}/{spec}_par"), macs, || {
            olive_runtime::with_threads(threads, || {
                black_box(quantized_matmul(black_box(&qa), black_box(&qb)))
            })
        });
    } else {
        let q = scheme.build();
        let qa = q.quantize_dequantize(&a);
        let qb = q.quantize_dequantize(&b);
        suite.bench_with_elements(&format!("gemm_{n}x{n}x{n}/{spec}_seq"), macs, || {
            olive_runtime::with_threads(1, || black_box(matmul(black_box(&qa), black_box(&qb))))
        });
        suite.bench_with_elements(&format!("gemm_{n}x{n}x{n}/{spec}_par"), macs, || {
            olive_runtime::with_threads(threads, || {
                black_box(matmul(black_box(&qa), black_box(&qb)))
            })
        });
    }
}

/// A `[rows, cols]` activation of unit Gaussians.
fn activation(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    let mut x = Tensor::zeros(vec![rows, cols]);
    rng.fill_normal(x.data_mut(), 0.0, 1.0);
    x
}

/// The `served/*` rows (see the module docs), each on the dispatched path
/// and pinned to the scalar one, at one thread.
fn bench_served(suite: &mut BenchSuite) {
    let mut rng = Rng::seed_from(0x5E);
    let tiny = TinyTransformer::generate(
        EngineConfig::tiny(),
        OutlierSeverity::transformer(),
        &mut rng,
    );
    let small = TinyTransformer::generate(EngineConfig::small(), OutlierSeverity::llm(), &mut rng);
    let tokens: Vec<usize> = (0..16).map(|_| rng.below(tiny.config.vocab)).collect();
    let layers = [
        ("m16_tiny_layer", 16, &tiny),
        ("m128_small_layer", 128, &small),
        ("m2_small_layer", 2, &small),
    ]
    .map(|(name, m, model)| {
        let layer = &model.layers[0];
        let gemms: Vec<(Tensor, &Tensor)> = [&layer.wqkv, &layer.wo, &layer.w1, &layer.w2]
            .into_iter()
            .map(|w| (activation(&mut rng, m, w.rows()), w))
            .collect();
        (name, gemms)
    });
    let heads = [("m16_tiny_head", 16, &tiny), ("m2_small_head", 2, &small)]
        .map(|(name, m, model)| (name, activation(&mut rng, m, model.config.d_model), model));
    // Drawn last, so the rows above keep their inputs.
    let small_tokens: Vec<usize> = (0..32).map(|_| rng.below(small.config.vocab)).collect();

    let twins = [("", None), ("_scalar", Some(SimdPath::Scalar))];
    let mut timed = |name: &str, macs: u64, f: &mut dyn FnMut()| {
        for (suffix, path) in twins {
            with_simd(path, || {
                olive_runtime::with_threads(1, || {
                    suite.bench_with_elements(&format!("served/{name}{suffix}"), macs, &mut *f);
                })
            });
        }
    };
    for (name, gemms) in &layers {
        let macs = gemms.iter().map(|(x, w)| (x.len() * w.cols()) as u64).sum();
        timed(name, macs, &mut || {
            for (x, w) in gemms {
                black_box(simd::matmul(black_box(x), black_box(w)));
            }
        });
    }
    for (name, x, model) in &heads {
        let macs = (x.len() * model.config.vocab) as u64;
        timed(name, macs, &mut || {
            black_box(simd::matmul_transpose_b(black_box(x), &model.embedding));
        });
    }
    timed("eval_forward_tiny", tokens.len() as u64, &mut || {
        black_box(tiny.forward(black_box(&tokens), None));
    });
    timed("eval_forward_small", small_tokens.len() as u64, &mut || {
        black_box(small.forward(black_box(&small_tokens), None));
    });
}

fn main() {
    let cli = BenchCli::parse();
    let mut suite = cli.suite("quantized_gemm");

    if !cli.schemes.is_empty() {
        // Registry mode: measure exactly the requested schemes.
        for scheme in &cli.schemes {
            bench_scheme(&mut suite, scheme, 256, 0x6E);
        }
        cli.finish(&[&suite]);
        return;
    }

    // The gate's stable kernel set: shapes measured in both modes.
    bench_shape(&mut suite, 256, 0x6E);
    bench_served(&mut suite);

    if cli.quick {
        cli.finish(&[&suite]);
        return;
    }
    // The paper-scale 1024-cubed kernels: heavyweight, so they run with a
    // trimmed sample count and only outside --quick.
    let mut heavy = BenchSuite::with_config("quantized_gemm", BenchConfig::from_env_or(1, 5));
    bench_shape(&mut heavy, 1024, 0x6F);
    cli.finish(&[&suite, &heavy]);
}
