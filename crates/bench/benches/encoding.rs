//! Micro-benchmarks of the OVP encode/decode path and the abfloat encoder
//! (the per-value software cost of the scheme), on the in-repo olive-harness
//! runner — this workspace builds offline, so no criterion. Supports
//! `--quick` (CI smoke/gate iteration counts) and `--json <path>` (median
//! recording for `scripts/bench_gate.sh`).

use olive_baselines::UniformQuantizer;
use olive_bench::cli::BenchCli;
use olive_core::{with_simd, OliveQuantizer, SimdPath, TensorQuantizer};
use olive_dtypes::abfloat::{AbfloatCode, AbfloatFormat};
use olive_harness::bench::{black_box, BenchSuite};
use olive_models::SynthProfile;
use olive_tensor::rng::Rng;

fn bench_tensor_quantize(suite: &mut BenchSuite) {
    let mut rng = Rng::seed_from(0xBE);
    let t = SynthProfile::transformer().generate(vec![256, 1024], &mut rng);
    let elements = t.len() as u64;
    let q4 = OliveQuantizer::int4();
    suite.bench_with_elements("ovp_quantize/int4_full_search", elements, || {
        black_box(q4.quantize(black_box(&t)))
    });
    let scale4 = q4.select_scale(&t);
    suite.bench_with_elements("ovp_quantize/int4_fixed_scale", elements, || {
        black_box(q4.quantize_with_scale(black_box(&t), scale4))
    });
    let q8 = OliveQuantizer::int8();
    let scale8 = q8.select_scale(&t);
    suite.bench_with_elements("ovp_quantize/int8_fixed_scale", elements, || {
        black_box(q8.quantize_with_scale(black_box(&t), scale8))
    });
}

/// Activation fake quantization at the served shapes: one decode-step row
/// of the small engine (`d_model` 64 and `d_ff` 256) and one eval forward's
/// per-tensor `[16, 64]` input, on the dispatched SIMD path. Each `_scalar`
/// twin runs the same fused path pinned to the scalar kernels, and each
/// `_reference` twin runs the per-candidate reference search and the packed
/// round trip both must match bit for bit.
fn bench_act_quant(suite: &mut BenchSuite) {
    let mut rng = Rng::seed_from(0xAC);
    let q = OliveQuantizer::int4();
    for (name, shape) in [
        ("olive4_row64", vec![1, 64]),
        ("olive4_row256", vec![1, 256]),
        ("olive4_tensor16x64", vec![16, 64]),
    ] {
        let t = SynthProfile::transformer().generate(shape, &mut rng);
        let elements = t.len() as u64;
        let mut out = vec![0.0f32; t.len()];
        for (suffix, path) in [("", None), ("_scalar", Some(SimdPath::Scalar))] {
            with_simd(path, || {
                suite.bench_with_elements(&format!("act_quant/{name}{suffix}"), elements, || {
                    q.quantize_dequantize_into(black_box(t.data()), &mut out);
                    black_box(out[0])
                });
            });
        }
        suite.bench_with_elements(&format!("act_quant/{name}_reference"), elements, || {
            let t = black_box(&t);
            black_box(
                q.quantize_with_scale(t, q.reference_select_scale(t))
                    .dequantize(),
            )
        });
    }
}

/// The `uniform:4` baseline at its served shapes: the eval's per-tensor
/// activations (`[16, 32]`) and the `wqkv` weight (`[32, 96]`). Each
/// `_reference` twin runs the per-candidate reference search and
/// `fake_quant_with_scale`, which the fused path must match bit for bit.
fn bench_uniform_act_quant(suite: &mut BenchSuite) {
    let mut rng = Rng::seed_from(0x04);
    let q = UniformQuantizer::int4();
    for (name, shape) in [
        ("uniform4_tensor16x32", vec![16, 32]),
        ("uniform4_weight32x96", vec![32, 96]),
    ] {
        let t = SynthProfile::transformer().generate(shape, &mut rng);
        let elements = t.len() as u64;
        let mut out = vec![0.0f32; t.len()];
        suite.bench_with_elements(&format!("act_quant/{name}"), elements, || {
            q.quantize_dequantize_into(black_box(t.data()), &mut out);
            black_box(out[0])
        });
        suite.bench_with_elements(&format!("act_quant/{name}_reference"), elements, || {
            let t = black_box(&t);
            black_box(q.fake_quant_with_scale(t, q.reference_select_scale(t)))
        });
    }
}

fn bench_dequantize(suite: &mut BenchSuite) {
    let mut rng = Rng::seed_from(0xDE);
    let t = SynthProfile::transformer().generate(vec![256, 1024], &mut rng);
    let q = OliveQuantizer::int4().quantize(&t);
    let elements = t.len() as u64;
    suite.bench_with_elements("ovp_decode/dequantize", elements, || {
        black_box(q.dequantize())
    });
    suite.bench_with_elements("ovp_decode/decode_expints", elements, || {
        black_box(q.decode_expints())
    });
}

fn bench_abfloat(suite: &mut BenchSuite) {
    let mut rng = Rng::seed_from(0xAB);
    let values: Vec<f32> = (0..4096)
        .map(|_| rng.uniform_range(8.0, 300.0) as f32)
        .collect();
    suite.bench_with_elements("abfloat_encode_e2m1", values.len() as u64, || {
        let mut acc = 0u32;
        for &v in &values {
            acc = acc.wrapping_add(
                AbfloatCode::encode(black_box(v), 2, AbfloatFormat::E2M1).bits() as u32,
            );
        }
        black_box(acc)
    });
}

fn main() {
    let cli = BenchCli::parse();
    let mut suite = cli.suite("encoding");
    bench_tensor_quantize(&mut suite);
    bench_act_quant(&mut suite);
    bench_uniform_act_quant(&mut suite);
    bench_dequantize(&mut suite);
    bench_abfloat(&mut suite);
    cli.finish(&[&suite]);
}
