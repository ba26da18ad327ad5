//! The model-level post-training quantization (PTQ) framework.
//!
//! The paper applies OliVe tensor-by-tensor: every weight and activation tensor
//! gets its own scale factor (Sec. 3.4) and, when mixed data types are enabled,
//! its own normal data type (`int4` vs `flint4`, Sec. 3.2). For robustness the
//! framework can escalate individual tensors to 8 bits when their 4-bit
//! round-trip error exceeds a configurable bound — the same mixed-precision
//! mechanism the paper describes for ANT, which OliVe rarely needs.
//!
//! The [`TensorQuantizer`] trait is the interface shared by OliVe and every
//! baseline in `olive-baselines`; model evaluation code only ever sees the
//! trait.

use crate::quantizer::OliveQuantizer;
use olive_dtypes::NormalDataType;
use olive_tensor::Tensor;

/// The granularity at which a quantizer computes its parameters (scale,
/// centroids, clip threshold, …).
///
/// Every quantizer in this workspace is written per-tensor; per-row (also
/// called per-channel) granularity is obtained by wrapping any of them in the
/// generic [`PerRowQuantizer`] adapter, which calibrates each row of a rank-2
/// tensor independently. Scheme spec strings select it with an `@per-row`
/// suffix (see `olive::api`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// One set of quantization parameters for the whole tensor.
    #[default]
    PerTensor,
    /// Independent parameters per row (output channel) of a rank-2 tensor.
    PerRow,
}

impl Granularity {
    /// The spec-string label (`"per-tensor"` / `"per-row"`).
    pub fn label(self) -> &'static str {
        match self {
            Granularity::PerTensor => "per-tensor",
            Granularity::PerRow => "per-row",
        }
    }
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A tensor-granularity fake-quantizer: quantize, then dequantize.
///
/// The accuracy experiments run models with fake-quantized weights and
/// activations, which is numerically equivalent to the real packed execution
/// (see `olive_core::gemm` tests) but lets every baseline plug into the same
/// evaluation harness.
///
/// `Send + Sync` is a supertrait so one quantizer can serve every shard of a
/// batched evaluation (`olive-models` fans inference out over the
/// `olive-runtime` worker pool); all implementations are plain value types.
pub trait TensorQuantizer: Send + Sync {
    /// Human-readable name used in reports ("OliVe-4bit", "GOBO", …).
    fn name(&self) -> &str;

    /// Quantizes and dequantizes a tensor.
    fn quantize_dequantize(&self, t: &Tensor) -> Tensor;

    /// Quantizes and dequantizes `input` as one rank-1 tensor, writing the
    /// result to `out`. The default runs [`TensorQuantizer::quantize_dequantize`]
    /// on a copy; OliVe overrides it with a fused, allocation-free path.
    ///
    /// # Panics
    ///
    /// Panics if `input` and `out` differ in length.
    fn quantize_dequantize_into(&self, input: &[f32], out: &mut [f32]) {
        out.copy_from_slice(self.quantize_dequantize(&Tensor::from_slice(input)).data());
    }

    /// Average storage bits per element (used by the memory-traffic models).
    fn bits_per_element(&self) -> f64;

    /// Bits used for arithmetic (some baselines, e.g. GOBO, compute in FP16
    /// regardless of their storage format). Defaults to the storage width.
    fn compute_bits(&self) -> f64 {
        self.bits_per_element()
    }

    /// Whether activations are quantized too (GOBO quantizes weights only).
    fn quantizes_activations(&self) -> bool {
        true
    }

    /// Granularity at which this quantizer calibrates its parameters.
    /// Everything is per-tensor unless wrapped in [`PerRowQuantizer`].
    fn granularity(&self) -> Granularity {
        Granularity::PerTensor
    }
}

/// Boxed quantizers delegate, so adapters like [`PerRowQuantizer`] can wrap
/// `Box<dyn TensorQuantizer>` values produced by a registry.
impl<Q: TensorQuantizer + ?Sized> TensorQuantizer for Box<Q> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn quantize_dequantize(&self, t: &Tensor) -> Tensor {
        (**self).quantize_dequantize(t)
    }

    fn quantize_dequantize_into(&self, input: &[f32], out: &mut [f32]) {
        (**self).quantize_dequantize_into(input, out)
    }

    fn bits_per_element(&self) -> f64 {
        (**self).bits_per_element()
    }

    fn compute_bits(&self) -> f64 {
        (**self).compute_bits()
    }

    fn quantizes_activations(&self) -> bool {
        (**self).quantizes_activations()
    }

    fn granularity(&self) -> Granularity {
        (**self).granularity()
    }
}

/// Generic per-row granularity adapter: calibrates and quantizes each row
/// (output channel) of a rank-2 tensor independently with the wrapped
/// quantizer.
///
/// Rank-0/1 and single-row tensors are passed through to the inner quantizer
/// unchanged, so per-row and per-tensor granularity agree bit-exactly there
/// (each row is handed to the inner quantizer's
/// [`TensorQuantizer::quantize_dequantize_into`] as a slice, and all
/// workspace quantizers are shape-agnostic).
#[derive(Debug, Clone)]
pub struct PerRowQuantizer<Q: TensorQuantizer> {
    inner: Q,
    name: String,
}

impl<Q: TensorQuantizer> PerRowQuantizer<Q> {
    /// Wraps `inner`, reporting `"<inner name>@per-row"` as the name.
    pub fn new(inner: Q) -> Self {
        let name = format!("{}@per-row", inner.name());
        PerRowQuantizer { inner, name }
    }

    /// The wrapped per-tensor quantizer.
    pub fn inner(&self) -> &Q {
        &self.inner
    }
}

impl<Q: TensorQuantizer> TensorQuantizer for PerRowQuantizer<Q> {
    fn name(&self) -> &str {
        &self.name
    }

    fn quantize_dequantize(&self, t: &Tensor) -> Tensor {
        let rows = if t.shape().len() >= 2 {
            t.shape()[0]
        } else {
            1
        };
        if rows <= 1 {
            return self.inner.quantize_dequantize(t);
        }
        let cols = t.len() / rows;
        let mut out = Tensor::zeros(t.shape().to_vec());
        for r in 0..rows {
            let span = r * cols..(r + 1) * cols;
            self.inner
                .quantize_dequantize_into(&t.data()[span.clone()], &mut out.data_mut()[span]);
        }
        out
    }

    /// A flat slice is a single row, so it goes to the inner quantizer
    /// whole, as a rank-1 tensor does.
    fn quantize_dequantize_into(&self, input: &[f32], out: &mut [f32]) {
        self.inner.quantize_dequantize_into(input, out)
    }

    fn bits_per_element(&self) -> f64 {
        self.inner.bits_per_element()
    }

    fn compute_bits(&self) -> f64 {
        self.inner.compute_bits()
    }

    fn quantizes_activations(&self) -> bool {
        self.inner.quantizes_activations()
    }

    fn granularity(&self) -> Granularity {
        Granularity::PerRow
    }
}

/// An identity "quantizer" representing the FP32 baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fp32Baseline;

impl TensorQuantizer for Fp32Baseline {
    fn name(&self) -> &str {
        "FP32"
    }

    fn quantize_dequantize(&self, t: &Tensor) -> Tensor {
        t.clone()
    }

    fn bits_per_element(&self) -> f64 {
        32.0
    }
}

impl TensorQuantizer for OliveQuantizer {
    fn name(&self) -> &str {
        match self.normal_type() {
            NormalDataType::Int4 => "OliVe-4bit",
            NormalDataType::Flint4 => "OliVe-4bit-flint",
            NormalDataType::Int8 => "OliVe-8bit",
        }
    }

    fn quantize_dequantize(&self, t: &Tensor) -> Tensor {
        OliveQuantizer::quantize_dequantize(self, t)
    }

    fn quantize_dequantize_into(&self, input: &[f32], out: &mut [f32]) {
        OliveQuantizer::quantize_dequantize_into(self, input, out)
    }

    fn bits_per_element(&self) -> f64 {
        self.normal_type().bits() as f64
    }
}

/// Configuration of the OliVe PTQ framework.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtqConfig {
    /// Try both `int4` and `flint4` per tensor and keep the better one
    /// (paper Sec. 3.2: adaptive data types for normal values).
    pub adaptive_normal_type: bool,
    /// Escalate a tensor to 8-bit OliVe when its 4-bit relative MSE exceeds
    /// this bound (`None` disables escalation; the paper's headline results
    /// are pure 4-bit).
    pub escalate_rel_mse: Option<f64>,
}

impl Default for PtqConfig {
    fn default() -> Self {
        PtqConfig {
            adaptive_normal_type: true,
            escalate_rel_mse: None,
        }
    }
}

impl PtqConfig {
    /// Pure 4-bit `int4` configuration (no adaptivity, no escalation).
    pub fn int4_only() -> Self {
        PtqConfig {
            adaptive_normal_type: false,
            escalate_rel_mse: None,
        }
    }

    /// Mixed-precision configuration: adaptive types plus 8-bit escalation.
    pub fn mixed(escalate_rel_mse: f64) -> Self {
        PtqConfig {
            adaptive_normal_type: true,
            escalate_rel_mse: Some(escalate_rel_mse),
        }
    }
}

/// Per-tensor record of a PTQ run.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorReport {
    /// Name supplied by the caller (layer / tensor name).
    pub name: String,
    /// Chosen data type.
    pub chosen_type: NormalDataType,
    /// Relative MSE (MSE divided by the tensor's mean square value).
    pub rel_mse: f64,
    /// Storage bits per element.
    pub bits: f64,
}

/// Aggregated result of quantizing a collection of tensors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PtqReport {
    /// One record per tensor.
    pub tensors: Vec<TensorReport>,
}

impl PtqReport {
    /// Average storage bits per element across all tensors (element-weighted
    /// uniformly per tensor).
    pub fn average_bits(&self) -> f64 {
        if self.tensors.is_empty() {
            return 0.0;
        }
        self.tensors.iter().map(|t| t.bits).sum::<f64>() / self.tensors.len() as f64
    }

    /// Fraction of tensors escalated to 8-bit.
    pub fn escalation_fraction(&self) -> f64 {
        if self.tensors.is_empty() {
            return 0.0;
        }
        self.tensors
            .iter()
            .filter(|t| t.chosen_type == NormalDataType::Int8)
            .count() as f64
            / self.tensors.len() as f64
    }

    /// Mean relative MSE across tensors.
    pub fn mean_rel_mse(&self) -> f64 {
        if self.tensors.is_empty() {
            return 0.0;
        }
        self.tensors.iter().map(|t| t.rel_mse).sum::<f64>() / self.tensors.len() as f64
    }
}

/// The OliVe PTQ framework: quantizes named tensors according to a
/// [`PtqConfig`] and reports what it did.
#[derive(Debug, Clone, Copy, Default)]
pub struct OlivePtq {
    config: PtqConfig,
}

impl OlivePtq {
    /// Creates a framework with the given configuration.
    pub fn new(config: PtqConfig) -> Self {
        OlivePtq { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PtqConfig {
        &self.config
    }

    /// Quantizes and dequantizes one tensor, returning the result and the
    /// per-tensor report entry.
    pub fn quantize_tensor(&self, name: &str, t: &Tensor) -> (Tensor, TensorReport) {
        let mean_sq = if t.is_empty() {
            0.0
        } else {
            t.data()
                .iter()
                .map(|&x| (x as f64) * (x as f64))
                .sum::<f64>()
                / t.len() as f64
        };
        let rel = |deq: &Tensor| -> f64 {
            if mean_sq == 0.0 {
                0.0
            } else {
                t.mse(deq) / mean_sq
            }
        };

        let mut candidates: Vec<(NormalDataType, Tensor)> = Vec::new();
        let q_int4 = OliveQuantizer::int4().quantize_dequantize(t);
        candidates.push((NormalDataType::Int4, q_int4));
        if self.config.adaptive_normal_type {
            let q_flint = OliveQuantizer::flint4().quantize_dequantize(t);
            candidates.push((NormalDataType::Flint4, q_flint));
        }
        let (mut best_type, mut best_deq) = candidates
            .into_iter()
            .min_by(|a, b| rel(&a.1).partial_cmp(&rel(&b.1)).unwrap())
            .expect("at least one candidate");
        let mut best_rel = rel(&best_deq);

        if let Some(bound) = self.config.escalate_rel_mse {
            if best_rel > bound {
                let q8 = OliveQuantizer::int8().quantize_dequantize(t);
                best_rel = rel(&q8);
                best_deq = q8;
                best_type = NormalDataType::Int8;
            }
        }

        let report = TensorReport {
            name: name.to_string(),
            chosen_type: best_type,
            rel_mse: best_rel,
            bits: best_type.bits() as f64,
        };
        (best_deq, report)
    }

    /// Quantizes a list of named tensors and aggregates the report.
    pub fn quantize_all<'a, I>(&self, tensors: I) -> (Vec<Tensor>, PtqReport)
    where
        I: IntoIterator<Item = (&'a str, &'a Tensor)>,
    {
        let mut out = Vec::new();
        let mut report = PtqReport::default();
        for (name, t) in tensors {
            let (deq, rec) = self.quantize_tensor(name, t);
            out.push(deq);
            report.tensors.push(rec);
        }
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_tensor::rng::Rng;

    fn tensor_with_outliers(seed: u64) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        let mut data = vec![0.0f32; 2048];
        rng.fill_normal(&mut data, 0.0, 1.0);
        for _ in 0..10 {
            let i = rng.below(2048);
            data[i] = rng.uniform_range(20.0, 60.0) as f32;
        }
        Tensor::from_vec(vec![32, 64], data)
    }

    #[test]
    fn fp32_baseline_is_identity() {
        let t = tensor_with_outliers(1);
        let q = Fp32Baseline.quantize_dequantize(&t);
        assert_eq!(q, t);
        assert_eq!(Fp32Baseline.bits_per_element(), 32.0);
    }

    #[test]
    fn olive_implements_tensor_quantizer() {
        let t = tensor_with_outliers(2);
        let q: &dyn TensorQuantizer = &OliveQuantizer::int4();
        assert_eq!(q.name(), "OliVe-4bit");
        assert_eq!(q.bits_per_element(), 4.0);
        let deq = q.quantize_dequantize(&t);
        assert!(t.mse(&deq) < 0.5);
    }

    #[test]
    fn adaptive_type_never_hurts() {
        let t = tensor_with_outliers(3);
        let fixed = OlivePtq::new(PtqConfig::int4_only());
        let adaptive = OlivePtq::new(PtqConfig::default());
        let (_, rf) = fixed.quantize_tensor("t", &t);
        let (_, ra) = adaptive.quantize_tensor("t", &t);
        assert!(ra.rel_mse <= rf.rel_mse + 1e-12);
    }

    #[test]
    fn escalation_triggers_on_tight_bound() {
        let t = tensor_with_outliers(4);
        let ptq = OlivePtq::new(PtqConfig::mixed(1e-12));
        let (_, report) = ptq.quantize_tensor("t", &t);
        assert_eq!(report.chosen_type, NormalDataType::Int8);
        assert_eq!(report.bits, 8.0);
    }

    #[test]
    fn no_escalation_with_loose_bound() {
        let t = tensor_with_outliers(5);
        let ptq = OlivePtq::new(PtqConfig::mixed(0.5));
        let (_, report) = ptq.quantize_tensor("t", &t);
        assert_ne!(report.chosen_type, NormalDataType::Int8);
    }

    #[test]
    fn report_aggregation() {
        let t1 = tensor_with_outliers(6);
        let t2 = tensor_with_outliers(7);
        let ptq = OlivePtq::new(PtqConfig::default());
        let (outs, report) = ptq.quantize_all(vec![("a", &t1), ("b", &t2)]);
        assert_eq!(outs.len(), 2);
        assert_eq!(report.tensors.len(), 2);
        assert!(report.average_bits() >= 4.0);
        assert!(report.mean_rel_mse() < 0.05);
        assert_eq!(report.escalation_fraction(), 0.0);
    }

    #[test]
    fn empty_report_statistics_are_zero() {
        let r = PtqReport::default();
        assert_eq!(r.average_bits(), 0.0);
        assert_eq!(r.escalation_fraction(), 0.0);
        assert_eq!(r.mean_rel_mse(), 0.0);
    }

    #[test]
    fn per_row_matches_per_tensor_on_single_row_tensors() {
        let mut rng = Rng::seed_from(8);
        let mut data = vec![0.0f32; 256];
        rng.fill_normal(&mut data, 0.0, 1.0);
        data[7] = 40.0;
        for shape in [vec![256], vec![1, 256]] {
            let t = Tensor::from_vec(shape, data.clone());
            let per_tensor = OliveQuantizer::int4().quantize_dequantize(&t);
            let per_row = PerRowQuantizer::new(OliveQuantizer::int4()).quantize_dequantize(&t);
            assert_eq!(per_tensor, per_row);
        }
    }

    #[test]
    fn per_row_calibrates_rows_independently() {
        // Two rows with wildly different magnitudes: one shared per-tensor
        // scale must lose against independent per-row scales.
        let mut rng = Rng::seed_from(9);
        let mut data = vec![0.0f32; 512];
        rng.fill_normal(&mut data[..256], 0.0, 1.0);
        rng.fill_normal(&mut data[256..], 0.0, 1000.0);
        let t = Tensor::from_vec(vec![2, 256], data);
        let q = OliveQuantizer::int4();
        let per_tensor = q.quantize_dequantize(&t);
        let per_row = PerRowQuantizer::new(q).quantize_dequantize(&t);
        // The shared per-tensor scale is set by the huge second row and
        // crushes the unit-scale first row; per-row calibration must
        // reconstruct that row far better.
        let first_row_mse = |approx: &Tensor| -> f64 {
            (0..256)
                .map(|i| ((approx[i] - t[i]) as f64).powi(2))
                .sum::<f64>()
                / 256.0
        };
        let pt = first_row_mse(&per_tensor);
        let pr = first_row_mse(&per_row);
        assert!(pr < pt * 0.5, "per-row {} vs per-tensor {}", pr, pt);
    }

    #[test]
    fn per_row_adapter_reports_name_and_granularity() {
        let q = PerRowQuantizer::new(OliveQuantizer::int4());
        assert_eq!(q.name(), "OliVe-4bit@per-row");
        assert_eq!(q.granularity(), Granularity::PerRow);
        assert_eq!(q.bits_per_element(), 4.0);
        assert_eq!(OliveQuantizer::int4().granularity(), Granularity::PerTensor);
        assert_eq!(Granularity::PerRow.to_string(), "per-row");
    }

    #[test]
    fn boxed_quantizers_delegate() {
        let boxed: Box<dyn TensorQuantizer> = Box::new(OliveQuantizer::int4());
        assert_eq!(boxed.name(), "OliVe-4bit");
        let wrapped = PerRowQuantizer::new(boxed);
        assert_eq!(wrapped.name(), "OliVe-4bit@per-row");
        let t = tensor_with_outliers(10);
        assert_eq!(wrapped.quantize_dequantize(&t).shape(), t.shape());
    }

    #[test]
    fn per_row_preserves_shape_and_handles_empty() {
        let q = PerRowQuantizer::new(OliveQuantizer::int4());
        let t = Tensor::zeros(vec![4, 8]);
        assert_eq!(q.quantize_dequantize(&t), t);
        let empty = Tensor::zeros(vec![0, 8]);
        assert_eq!(q.quantize_dequantize(&empty).shape(), &[0, 8]);
    }
}
