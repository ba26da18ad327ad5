//! Golden bits of [`quantized_matmul`]: for a fixed set of seeded operands,
//! an FNV-1a checksum of the output's f32 bits and all three
//! [`QuantGemmStats`] counters, checked at one and at eight threads.
//!
//! The values were captured from the decode-per-call reference kernel
//! before the decode-once packed kernel beside it was deleted, so they pin
//! the arithmetic the paper's exponent-integer MAC (Sec. 4.4) defines:
//! integer products, an `i64` accumulator with a per-prefix `i32` overflow
//! check, and one final `f64` rescale per cell.

use olive_core::{quantized_matmul, OliveQuantizer, OvpTensor, QuantGemmStats};
use olive_tensor::rng::Rng;
use olive_tensor::Tensor;

/// Gaussian values with `outliers` planted at ±15–40.
fn random_tensor(shape: Vec<usize>, rng: &mut Rng, outliers: usize) -> Tensor {
    let n: usize = shape.iter().product();
    let mut data = vec![0.0f32; n];
    rng.fill_normal(&mut data, 0.0, 1.0);
    for _ in 0..outliers.min(n) {
        let i = rng.below(n.max(1));
        data[i] = rng.uniform_range(15.0, 40.0) as f32 * if rng.chance(0.5) { 1.0 } else { -1.0 };
    }
    Tensor::from_vec(shape, data)
}

/// 64-bit FNV-1a over the little-endian bytes of each value's bits.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// `[m, k] × [k, n]` operands from `seed`, quantized with `qa` and `qb`.
fn operands(
    (m, k, n): (usize, usize, usize),
    seed: u64,
    qa: OliveQuantizer,
    qb: OliveQuantizer,
) -> (OvpTensor, OvpTensor) {
    let mut rng = Rng::seed_from(seed);
    let a = random_tensor(vec![m, k], &mut rng, 4);
    let b = random_tensor(vec![k, n], &mut rng, 4);
    (qa.quantize(&a), qb.quantize(&b))
}

/// The saturated int8 case's shape: large enough that eight threads shard
/// it.
const SATURATED: (usize, usize, usize) = (16, 128, 160);

/// `B` and the even rows of `A` are scaled by 1000 and quantized at scale
/// 1e-4, which drives them to the int8 grid's E4M3 ceiling (~7.86e6): one
/// such MAC already leaves `i32`. The odd rows of `A` stay near ±1 on the
/// grid and never overflow, so the counter sees both outcomes. Row 1 holds
/// only +1000 and −1000, at columns 0 and 2: where `B`'s rows 0 and 2
/// agree, a cell's partial sum leaves `i32` and its final sum returns to 0,
/// which only a per-prefix check counts.
fn saturated() -> (OvpTensor, OvpTensor) {
    let (m, k, n) = SATURATED;
    let quant = OliveQuantizer::int8();
    let mut rng = Rng::seed_from(0x5A7);
    let mut a = random_tensor(vec![m, k], &mut rng, 0);
    let mut b = random_tensor(vec![k, n], &mut rng, 0);
    for (i, row) in a.data_mut().chunks_mut(k).enumerate() {
        let gain = if i % 2 == 0 { 1000.0 } else { 1e-4 };
        row.iter_mut().for_each(|v| *v *= gain);
    }
    let row1 = &mut a.data_mut()[k..2 * k];
    row1.fill(0.0);
    (row1[0], row1[2]) = (1000.0, -1000.0);
    b.data_mut().iter_mut().for_each(|v| *v *= 1000.0);
    (
        quant.quantize_with_scale(&a, 1e-4),
        quant.quantize_with_scale(&b, 1e-4),
    )
}

fn cases() -> Vec<(&'static str, OvpTensor, OvpTensor)> {
    let (int4, flint4, int8) = (
        OliveQuantizer::int4(),
        OliveQuantizer::flint4(),
        OliveQuantizer::int8(),
    );
    let mut cases = vec![];
    let mut push = |name, (a, b)| cases.push((name, a, b));
    push("int4", operands((33, 67, 16), 0x401, int4, int4));
    push("flint4", operands((16, 48, 24), 0xF14, flint4, flint4));
    push("int8", operands((12, 40, 8), 0x801, int8, int8));
    push("int8_x_int4", operands((8, 40, 12), 0x884, int8, int4));
    push("unit_m", operands((1, 67, 33), 0x001, int4, int4));
    push("saturated", saturated());
    cases
}

/// `(case, checksum, macs, zero_operand_macs, i32_overflows)`.
const GOLDEN: [(&str, u64, u64, u64, u64); 6] = [
    ("int4", 0x4e6d_4c50_7c49_d3f5, 35_376, 14_379, 0),
    ("flint4", 0x7956_034e_4425_d6b7, 18_432, 4_663, 0),
    ("int8", 0xc69c_5571_2e7d_4c24, 3_840, 391, 0),
    ("int8_x_int4", 0xab5e_4a7d_7203_db82, 3_840, 1_043, 0),
    ("unit_m", 0xf797_0c0e_595e_fd39, 2_211, 1_721, 0),
    ("saturated", 0xde69_ca95_998b_ed59, 327_680, 243_600, 1_410),
];

#[test]
fn quantized_matmul_matches_its_golden_bits_at_1_and_8_threads() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len());
    for ((name, qa, qb), (want_name, checksum, macs, zero_operand_macs, i32_overflows)) in
        cases.iter().zip(GOLDEN)
    {
        assert_eq!(*name, want_name);
        let want = QuantGemmStats {
            macs,
            zero_operand_macs,
            i32_overflows,
        };
        for threads in [1, 8] {
            let (c, stats) = olive_runtime::with_threads(threads, || quantized_matmul(qa, qb));
            assert_eq!(stats, want, "{name} stats at {threads} threads");
            assert_eq!(
                fnv1a(c.data()),
                checksum,
                "{name} output bits at {threads} threads"
            );
        }
    }
}

#[test]
fn the_saturated_case_is_sharded_at_8_threads() {
    let (m, k, n) = SATURATED;
    let work = (m * k * n) as u64;
    assert!(olive_runtime::with_threads(8, || {
        olive_runtime::should_parallelize(m, work)
    }));
}
