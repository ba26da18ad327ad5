//! Symmetric uniform integer quantization (`int4` / `int8`).
//!
//! The plain quantization every accelerator supports natively: a per-tensor
//! scale maps values onto the integer grid `[-(2^(b-1)-1), 2^(b-1)-1]`. It has
//! no special handling of outliers, which is exactly why the paper's Tbl. 9
//! shows `int4` exploding on large language models: either the scale is set by
//! the outliers (destroying the resolution of the 99.9% normal values) or the
//! outliers are clipped (destroying the model).
//!
//! The scale is chosen by an MSE grid search between "clip at 3σ" and "cover
//! the max", the standard PTQ calibration recipe; `Q8BERT` is represented by
//! the 8-bit instance of this quantizer.
//!
//! ## The fast scale search
//!
//! [`UniformQuantizer::select_scale`] scores all 24 candidate scales in one
//! pass over the whole tensor (no sample cap), vectorised across candidates
//! by `olive_core::simd::score_uniform_candidates`: three 8-lane AVX2
//! vectors, or a scalar loop. Each candidate's error is summed in f64 in
//! element order, exactly as `Tensor::mse` sums it, so the chosen scale is
//! bit-identical to [`UniformQuantizer::reference_select_scale`], the
//! per-candidate loop kept as its oracle. σ and `max |x|` come from one f64
//! pass ([`Moments`]). [`TensorQuantizer::quantize_dequantize_into`] fuses
//! the search with the fake quantization into the caller's buffer without
//! allocating, bit-identical (−0.0 included) to
//! [`UniformQuantizer::fake_quant_with_scale`] at the reference scale. A
//! tensor holding a non-finite value takes the reference search.

use olive_core::simd::{self, CANDIDATE_BLOCK};
use olive_core::TensorQuantizer;
use olive_tensor::stats::{Moments, TensorStats};
use olive_tensor::Tensor;

/// Candidate scales of the MSE search, all scored in one pass.
const SEARCH_STEPS: usize = CANDIDATE_BLOCK;

/// Symmetric per-tensor uniform quantizer.
#[derive(Debug, Clone)]
pub struct UniformQuantizer {
    bits: u32,
    name: String,
}

impl UniformQuantizer {
    /// 4-bit symmetric quantizer (`int4`).
    pub fn int4() -> Self {
        Self::new(4)
    }

    /// 8-bit symmetric quantizer (`int8`, also used for the Q8BERT row).
    pub fn int8() -> Self {
        Self::new(8)
    }

    /// Creates a `bits`-wide symmetric quantizer.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=16`.
    pub fn new(bits: u32) -> Self {
        assert!((2..=16).contains(&bits), "unsupported bit width {}", bits);
        UniformQuantizer {
            bits,
            name: format!("int{}", bits),
        }
    }

    /// Largest representable grid magnitude.
    pub fn qmax(&self) -> i64 {
        (1 << (self.bits - 1)) - 1
    }

    /// Quantize/dequantize with an explicit scale.
    pub fn fake_quant_with_scale(&self, t: &Tensor, scale: f32) -> Tensor {
        let qmax = self.qmax() as f32;
        t.map(|x| {
            let q = (x / scale).round().clamp(-qmax, qmax);
            q * scale
        })
    }

    /// MSE-minimizing per-tensor scale between the 3σ clip and max-value
    /// coverage. Returns the same bits as
    /// [`UniformQuantizer::reference_select_scale`], by the one-pass search
    /// described in the module docs.
    pub fn select_scale(&self, t: &Tensor) -> f32 {
        self.fast_select_scale(t.data())
            .unwrap_or_else(|| self.reference_select_scale(t))
    }

    /// The scale search as one fake quantization and one `Tensor::mse` per
    /// candidate: the oracle [`UniformQuantizer::select_scale`] must match
    /// bit for bit.
    pub fn reference_select_scale(&self, t: &Tensor) -> f32 {
        let stats = TensorStats::compute(t);
        let qmax = self.qmax() as f32;
        if stats.max_abs == 0.0 {
            return 1.0;
        }
        let lo = ((3.0 * stats.std) as f32 / qmax).max(stats.max_abs as f32 / qmax * 1e-3);
        let hi = stats.max_abs as f32 / qmax;
        let (lo, hi) = if lo < hi { (lo, hi) } else { (hi * 0.25, hi) };
        let mut best = hi;
        let mut best_mse = f64::INFINITY;
        for i in 0..SEARCH_STEPS {
            let f = i as f32 / (SEARCH_STEPS - 1).max(1) as f32;
            let scale = lo + (hi - lo) * f;
            if scale <= 0.0 {
                continue;
            }
            let deq = self.fake_quant_with_scale(t, scale);
            let mse = t.mse(&deq);
            if mse < best_mse {
                best_mse = mse;
                best = scale;
            }
        }
        best
    }

    /// The one-pass search; `None` if `data` holds a non-finite value.
    fn fast_select_scale(&self, data: &[f32]) -> Option<f32> {
        if !data.iter().all(|x| x.is_finite()) {
            return None;
        }
        let Moments { std, max_abs, .. } = Moments::of(data);
        let qmax = self.qmax() as f32;
        if max_abs == 0.0 {
            return Some(1.0);
        }
        let lo = ((3.0 * std) as f32 / qmax).max(max_abs as f32 / qmax * 1e-3);
        let hi = max_abs as f32 / qmax;
        let (lo, hi) = if lo < hi { (lo, hi) } else { (hi * 0.25, hi) };
        let candidates: [f32; SEARCH_STEPS] = std::array::from_fn(|i| {
            let f = i as f32 / (SEARCH_STEPS - 1) as f32;
            lo + (hi - lo) * f
        });
        // A non-positive candidate is skipped; its lane scores a unit scale
        // that is never read back.
        let scales = candidates.map(|scale| if scale > 0.0 { scale } else { 1.0 });
        let mut errs = [0.0f64; SEARCH_STEPS];
        simd::score_uniform_candidates(data, &scales, qmax, &mut errs);
        let count = data.len() as f64;
        let mut best = hi;
        let mut best_mse = f64::INFINITY;
        for (&scale, &err) in candidates.iter().zip(&errs) {
            if scale <= 0.0 {
                continue;
            }
            let mse = err / count;
            if mse < best_mse {
                best_mse = mse;
                best = scale;
            }
        }
        Some(best)
    }
}

impl TensorQuantizer for UniformQuantizer {
    fn name(&self) -> &str {
        &self.name
    }

    /// Runs the fused [`TensorQuantizer::quantize_dequantize_into`].
    fn quantize_dequantize(&self, t: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(t.shape().to_vec());
        self.quantize_dequantize_into(t.data(), out.data_mut());
        out
    }

    /// The one-pass search, then the fake quantization straight into `out`:
    /// the bits of `fake_quant_with_scale` at `reference_select_scale`'s
    /// scale, allocating nothing. A non-finite input runs those two.
    fn quantize_dequantize_into(&self, input: &[f32], out: &mut [f32]) {
        assert_eq!(
            input.len(),
            out.len(),
            "quantize_dequantize_into: input and output lengths differ"
        );
        match self.fast_select_scale(input) {
            Some(scale) => simd::uniform_fake_quant_into(input, scale, self.qmax() as f32, out),
            None => {
                let t = Tensor::from_slice(input);
                let scale = self.reference_select_scale(&t);
                out.copy_from_slice(self.fake_quant_with_scale(&t, scale).data());
            }
        }
    }

    fn bits_per_element(&self) -> f64 {
        self.bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_core::OliveQuantizer;
    use olive_tensor::rng::Rng;

    fn gaussian(n: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        let mut d = vec![0.0f32; n];
        rng.fill_normal(&mut d, 0.0, 1.0);
        Tensor::from_vec(vec![n], d)
    }

    fn with_outliers(n: usize, seed: u64) -> Tensor {
        let mut t = gaussian(n, seed);
        let mut rng = Rng::seed_from(seed ^ 0xABCD);
        for _ in 0..(n / 100).max(1) {
            let i = rng.below(n);
            t[i] = rng.uniform_range(30.0, 120.0) as f32 * if rng.chance(0.5) { 1.0 } else { -1.0 };
        }
        t
    }

    #[test]
    fn int8_is_nearly_lossless_on_gaussians() {
        let t = gaussian(4096, 1);
        let q = UniformQuantizer::int8().quantize_dequantize(&t);
        assert!(t.mse(&q) < 1e-3);
    }

    #[test]
    fn int4_handles_gaussians_but_not_outliers() {
        let clean = gaussian(4096, 2);
        let dirty = with_outliers(4096, 2);
        let q4 = UniformQuantizer::int4();
        let clean_mse = clean.mse(&q4.quantize_dequantize(&clean));
        let dirty_mse = dirty.mse(&q4.quantize_dequantize(&dirty));
        assert!(clean_mse < 0.05, "clean mse {}", clean_mse);
        assert!(dirty_mse > 10.0 * clean_mse, "dirty mse {}", dirty_mse);
    }

    #[test]
    fn olive_beats_int4_on_outlier_tensors() {
        let t = with_outliers(8192, 3);
        let int4 = UniformQuantizer::int4().quantize_dequantize(&t);
        let olive = OliveQuantizer::int4().quantize_dequantize(&t);
        assert!(t.mse(&olive) < t.mse(&int4));
    }

    #[test]
    fn more_bits_means_less_error() {
        let t = with_outliers(4096, 4);
        let e4 = t.mse(&UniformQuantizer::new(4).quantize_dequantize(&t));
        let e6 = t.mse(&UniformQuantizer::new(6).quantize_dequantize(&t));
        let e8 = t.mse(&UniformQuantizer::new(8).quantize_dequantize(&t));
        assert!(e6 < e4);
        assert!(e8 < e6);
    }

    #[test]
    fn zero_tensor_is_exact() {
        let t = Tensor::zeros(vec![64]);
        let q = UniformQuantizer::int4().quantize_dequantize(&t);
        assert_eq!(q, t);
    }

    #[test]
    fn names_and_bits() {
        assert_eq!(UniformQuantizer::int4().name(), "int4");
        assert_eq!(UniformQuantizer::int8().bits_per_element(), 8.0);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn rejects_silly_widths() {
        let _ = UniformQuantizer::new(1);
    }
}
