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

use olive_api::Scheme;
use olive_bench::cli::BenchCli;
use olive_core::{quantized_matmul, OliveQuantizer};
use olive_harness::bench::{black_box, BenchConfig, BenchSuite};
use olive_models::SynthProfile;
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
