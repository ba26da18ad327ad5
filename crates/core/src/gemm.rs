//! Bit-accurate quantized GEMM on packed OVP tensors.
//!
//! The accuracy experiments execute matrix multiplications the way the OliVe
//! hardware would: both operands are decoded into exponent-integer pairs, all
//! products and partial sums are integers, and only the final accumulator is
//! rescaled by `scale_A · scale_B`. Because
//! `(b << a) · (d << c) = (b·d) << (a+c)`, evaluating each operand's integer
//! value once and multiplying in `i64` is arithmetically identical to the
//! shift-and-add MAC of Sec. 4.4 while being much faster to simulate.
//!
//! [`quantized_matmul`] decodes both operands once per call and accumulates
//! each output cell in `i64` in ascending `k` order, flagging the cells whose
//! partial sums left the `i32` range. Large products shard their output rows
//! over the [`olive_runtime`] pool; the statistics are integer sums merged in
//! row order, so outputs and statistics are bit-identical at every thread
//! count.

use crate::quantizer::OvpTensor;
use olive_tensor::Tensor;
use std::ops::Range;
use std::sync::OnceLock;

/// Statistics gathered while executing a quantized GEMM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantGemmStats {
    /// Total MAC operations.
    pub macs: u64,
    /// Number of MACs in which at least one operand was zero (victims and
    /// quantized-to-zero values) — these could be skipped by a zero-gating PE.
    pub zero_operand_macs: u64,
    /// Number of partial sums that exceeded the int32 range at some point
    /// (diagnostic; should be zero with clipped outliers and realistic K).
    pub i32_overflows: u64,
}

impl QuantGemmStats {
    /// Accumulates another shard's counters into `self`.
    ///
    /// All fields are integer sums, so merging per-row-block partials in any
    /// order yields exactly the counters a sequential pass would produce —
    /// this is what keeps the parallel [`quantized_matmul`] bit-identical to
    /// the sequential one, statistics included.
    pub fn merge(&mut self, other: QuantGemmStats) {
        self.macs += other.macs;
        self.zero_operand_macs += other.zero_operand_macs;
        self.i32_overflows += other.i32_overflows;
    }
}

/// Computes output rows `rows` of the integer-domain GEMM into `out` (which
/// holds exactly those rows), returning the shard's statistics. The per-cell
/// `k` accumulation order is ascending regardless of how rows are sharded.
fn reference_gemm_block(
    av: &[i64],
    bv: &[i64],
    k: usize,
    n: usize,
    rows: Range<usize>,
    rescale: f64,
    out: &mut [f32],
) -> QuantGemmStats {
    let mut stats = QuantGemmStats::default();
    for (ri, i) in rows.enumerate() {
        let arow = &av[i * k..(i + 1) * k];
        let orow = &mut out[ri * n..(ri + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let mut acc: i64 = 0;
            let mut overflowed = false;
            for kk in 0..k {
                let x = arow[kk];
                let y = bv[kk * n + j];
                if x == 0 || y == 0 {
                    stats.zero_operand_macs += 1;
                }
                acc += x * y;
                if acc > i32::MAX as i64 || acc < i32::MIN as i64 {
                    overflowed = true;
                }
            }
            stats.macs += k as u64;
            if overflowed {
                stats.i32_overflows += 1;
            }
            *o = (acc as f64 * rescale) as f32;
        }
    }
    stats
}

/// Computes `C = A × B` where both operands are OVP-quantized tensors.
///
/// `a` must be `[m, k]` and `b` must be `[k, n]`. The result is a dense `f32`
/// tensor `A·B` evaluated in the quantized domain (integer MACs, final
/// rescale). Zero-sized shapes (`m`, `k` or `n` equal to 0) are valid.
///
/// Both operands are decoded once per call. Large products run row blocks in
/// parallel on the [`olive_runtime`] pool with lock-free per-block statistics
/// slots merged in ascending row order, so both the result tensor and the
/// statistics are bit-identical to the sequential path at every thread count.
///
/// # Panics
///
/// Panics if the operands are not rank-2 or the inner dimensions differ.
pub fn quantized_matmul(a: &OvpTensor, b: &OvpTensor) -> (Tensor, QuantGemmStats) {
    let (m, k) = shape2(a);
    let (kb, n) = shape2(b);
    assert_eq!(k, kb, "quantized_matmul inner dimensions mismatch");
    let av: Vec<i64> = a.decode_expints().iter().map(|p| p.value()).collect();
    let bv: Vec<i64> = b.decode_expints().iter().map(|p| p.value()).collect();
    let rescale = a.spec().scale as f64 * b.spec().scale as f64;
    let block = |rows, out: &mut [f32]| reference_gemm_block(&av, &bv, k, n, rows, rescale, out);

    let mut out = vec![0.0f32; m * n];
    let work = m as u64 * k as u64 * n as u64;
    let stats = if olive_runtime::should_parallelize(m, work) {
        // One pre-sized slot per possible block start: lock-free (each block
        // writes its own slot exactly once) and merged in ascending row
        // order, so the merge order never depends on scheduling.
        let slots: Vec<OnceLock<QuantGemmStats>> = (0..m).map(|_| OnceLock::new()).collect();
        olive_runtime::par_rows_mut(m, n, &mut out, |rows, out| {
            let start = rows.start;
            slots[start]
                .set(block(rows, out))
                .expect("quantized_matmul: row block computed twice");
        });
        let mut stats = QuantGemmStats::default();
        for local in slots.iter().filter_map(OnceLock::get) {
            stats.merge(*local);
        }
        stats
    } else {
        block(0..m, &mut out)
    };
    (Tensor::from_vec(vec![m, n], out), stats)
}

fn shape2(t: &OvpTensor) -> (usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 2, "quantized GEMM requires rank-2 tensors");
    (s[0], s[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::OliveQuantizer;
    use olive_tensor::matmul::matmul;
    use olive_tensor::rng::Rng;

    fn random_tensor(shape: Vec<usize>, seed: u64, outliers: usize) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        let n: usize = shape.iter().product();
        let mut data = vec![0.0f32; n];
        rng.fill_normal(&mut data, 0.0, 1.0);
        for _ in 0..outliers {
            let i = rng.below(n);
            data[i] =
                rng.uniform_range(15.0, 40.0) as f32 * if rng.chance(0.5) { 1.0 } else { -1.0 };
        }
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn quantized_gemm_tracks_float_gemm() {
        let a = random_tensor(vec![16, 64], 1, 4);
        let b = random_tensor(vec![64, 24], 2, 8);
        let qa = OliveQuantizer::int4().quantize(&a);
        let qb = OliveQuantizer::int4().quantize(&b);
        let (qc, stats) = quantized_matmul(&qa, &qb);
        let c = matmul(&a, &b);
        // Relative Frobenius error should be modest for 4-bit quantization.
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for i in 0..c.len() {
            num += ((qc[i] - c[i]) as f64).powi(2);
            den += (c[i] as f64).powi(2);
        }
        let rel = (num / den.max(1e-12)).sqrt();
        assert!(rel < 0.25, "relative error {}", rel);
        assert_eq!(stats.macs, (16 * 24 * 64) as u64);
        assert_eq!(stats.i32_overflows, 0);
    }

    #[test]
    fn quantized_gemm_matches_dequantized_float_gemm_exactly() {
        // The integer-domain GEMM must equal the float GEMM over the
        // *dequantized* operands (up to f32 rounding of the final rescale):
        // this is the bit-accuracy property of the MAC model.
        let a = random_tensor(vec![8, 32], 3, 2);
        let b = random_tensor(vec![32, 8], 4, 2);
        let qa = OliveQuantizer::int4().quantize(&a);
        let qb = OliveQuantizer::int4().quantize(&b);
        let (qc, _) = quantized_matmul(&qa, &qb);
        let ref_c = matmul(&qa.dequantize(), &qb.dequantize());
        for i in 0..qc.len() {
            let diff = (qc[i] - ref_c[i]).abs();
            let tol = 1e-3 * ref_c[i].abs().max(1.0);
            assert!(diff <= tol, "idx {}: {} vs {}", i, qc[i], ref_c[i]);
        }
    }

    #[test]
    fn int8_gemm_is_more_accurate_than_int4_gemm() {
        let a = random_tensor(vec![12, 48], 5, 4);
        let b = random_tensor(vec![48, 12], 6, 4);
        let c = matmul(&a, &b);
        let err = |q: &Tensor| -> f64 {
            let mut s = 0.0;
            for i in 0..c.len() {
                s += ((q[i] - c[i]) as f64).powi(2);
            }
            s
        };
        let (c4, _) = quantized_matmul(
            &OliveQuantizer::int4().quantize(&a),
            &OliveQuantizer::int4().quantize(&b),
        );
        let (c8, _) = quantized_matmul(
            &OliveQuantizer::int8().quantize(&a),
            &OliveQuantizer::int8().quantize(&b),
        );
        assert!(err(&c8) < err(&c4));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = random_tensor(vec![4, 8], 9, 0);
        let b = random_tensor(vec![9, 4], 10, 0);
        let qa = OliveQuantizer::int4().quantize(&a);
        let qb = OliveQuantizer::int4().quantize(&b);
        let _ = quantized_matmul(&qa, &qb);
    }

    #[test]
    fn zero_operand_macs_are_counted() {
        let a = Tensor::zeros(vec![2, 4]);
        let b = random_tensor(vec![4, 2], 11, 0);
        let qa = OliveQuantizer::int4().quantize(&a);
        let qb = OliveQuantizer::int4().quantize(&b);
        let (_, stats) = quantized_matmul(&qa, &qb);
        assert_eq!(stats.zero_operand_macs, stats.macs);
    }
}
