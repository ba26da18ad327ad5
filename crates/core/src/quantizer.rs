//! Tensor-level OliVe quantization (paper Sec. 3.4).
//!
//! [`OliveQuantizer`] performs post-training quantization of one tensor:
//!
//! 1. compute the tensor statistics and seed the outlier threshold at 3σ,
//! 2. grid-search the scale factor (equivalently the threshold) around that
//!    seed, minimizing the mean squared error of the full OVP round trip,
//! 3. emit a packed [`OvpTensor`]: one byte per value pair for 4-bit types,
//!    two bytes per pair for `int8`, plus the per-tensor [`QuantSpec`].
//!
//! The packed representation is memory aligned — there is no index structure
//! of any kind, which is the paper's core architectural argument.
//!
//! ## The fast scale search
//!
//! For the 4-bit types, [`OliveQuantizer::select_scale`] scores the
//! candidate scales eight at a time, vectorised across candidates (one
//! 8-lane AVX2 vector, or a scalar loop; see [`crate::simd`]), in candidate
//! order. The first eight score the whole sample; each later eight score
//! it eight pairs at a time and stop once none of them can still beat the
//! best mse so far, which cannot change the winner. The search never
//! builds a code: a `FourBitGrid` maps a scale-normalised pair straight to
//! the grid values `encode_pair` → `decode_pair_values` would produce, with
//! the outlier and flint4 rounding boundaries derived once from the dtype
//! encoders themselves. Each candidate's f64 error is still summed pair by
//! pair in element order, so the chosen scale is bit-identical to
//! [`OliveQuantizer::reference_select_scale`], the pre-existing loop kept as
//! its oracle. For the same types,
//! [`OliveQuantizer::quantize_dequantize_into`] fuses the search with the
//! encode → dequantize round trip without allocating; AVX2 encodes eight
//! pairs per step.

use crate::encode::{decode_pair_expint, decode_pair_values, encode_pair};
use crate::simd::{Candidates, OvpKernel, SCALE_LANES};
use olive_dtypes::flint4::FLINT4_MAGNITUDES;
use olive_dtypes::{AbfloatCode, AbfloatFormat, ExpInt, Flint4, Int4, NormalDataType};
use olive_tensor::stats::{Moments, TensorStats};
use olive_tensor::Tensor;
use std::sync::OnceLock;

/// Per-tensor quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantSpec {
    /// Data type used for normal values.
    pub normal_type: NormalDataType,
    /// Abfloat format used for outliers (derived from `normal_type`).
    pub outlier_format: AbfloatFormat,
    /// Adaptive abfloat exponent bias.
    pub abfloat_bias: i32,
    /// Scale factor: `real_value ≈ grid_value * scale`.
    pub scale: f32,
}

impl QuantSpec {
    /// The outlier threshold in real units: grid values above the largest
    /// normal magnitude are outliers.
    pub fn outlier_threshold(&self) -> f32 {
        self.normal_type.max_magnitude() as f32 * self.scale
    }

    /// Largest real value representable by the outlier format.
    pub fn max_representable(&self) -> f32 {
        self.outlier_format.max_value(self.abfloat_bias) as f32 * self.scale
    }

    /// Storage bits per element (4 or 8), identical for normal values,
    /// victims and outliers thanks to the aligned encoding.
    pub fn bits_per_element(&self) -> u32 {
        self.normal_type.bits()
    }
}

/// A tensor quantized with the OVP encoding: packed codes plus the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct OvpTensor {
    spec: QuantSpec,
    shape: Vec<usize>,
    n_elems: usize,
    /// Packed code stream. 4-bit: one byte per pair. 8-bit: two bytes per pair.
    bytes: Vec<u8>,
}

impl OvpTensor {
    /// The quantization parameters.
    pub fn spec(&self) -> &QuantSpec {
        &self.spec
    }

    /// The original tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of (unpadded) elements.
    pub fn len(&self) -> usize {
        self.n_elems
    }

    /// `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.n_elems == 0
    }

    /// The packed byte stream (what would live in DRAM / on-chip buffers).
    pub fn packed_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Memory footprint in bytes of the packed representation.
    pub fn storage_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Compression ratio versus FP32 storage.
    pub fn compression_ratio(&self) -> f64 {
        (self.n_elems * 4) as f64 / self.bytes.len().max(1) as f64
    }

    /// Returns the two raw code words of pair `p`.
    fn pair_codes(&self, p: usize) -> (u8, u8) {
        match self.spec.normal_type {
            NormalDataType::Int8 => (self.bytes[2 * p], self.bytes[2 * p + 1]),
            _ => {
                let byte = self.bytes[p];
                (byte & 0x0F, byte >> 4)
            }
        }
    }

    /// Number of stored pairs (including the possible padding pair).
    pub fn n_pairs(&self) -> usize {
        self.n_elems.div_ceil(2)
    }

    /// Decodes the tensor back to real values.
    pub fn dequantize(&self) -> Tensor {
        let spec = &self.spec;
        let mut out = Vec::with_capacity(self.n_elems);
        for p in 0..self.n_pairs() {
            let (c0, c1) = self.pair_codes(p);
            let (a, b) = decode_pair_values(c0, c1, spec.normal_type, spec.abfloat_bias);
            out.push(a as f32 * spec.scale);
            if out.len() < self.n_elems {
                out.push(b as f32 * spec.scale);
            }
        }
        Tensor::from_vec(self.shape.clone(), out)
    }

    /// Decodes the tensor into the exponent-integer pairs that the hardware
    /// MAC array consumes (grid domain, scale not applied).
    pub fn decode_expints(&self) -> Vec<ExpInt> {
        let spec = &self.spec;
        let mut out = Vec::with_capacity(self.n_elems);
        for p in 0..self.n_pairs() {
            let (c0, c1) = self.pair_codes(p);
            let (a, b) = decode_pair_expint(c0, c1, spec.normal_type, spec.abfloat_bias);
            out.push(a);
            if out.len() < self.n_elems {
                out.push(b);
            }
        }
        out
    }

    /// Fraction of pairs holding an outlier (either side).
    pub fn outlier_pair_fraction(&self) -> f64 {
        use olive_dtypes::identifier::{is_identifier_4bit, is_identifier_8bit};
        if self.n_pairs() == 0 {
            return 0.0;
        }
        let mut n = 0usize;
        for p in 0..self.n_pairs() {
            let (c0, c1) = self.pair_codes(p);
            let hit = match self.spec.normal_type {
                NormalDataType::Int8 => is_identifier_8bit(c0) || is_identifier_8bit(c1),
                _ => is_identifier_4bit(c0) || is_identifier_4bit(c1),
            };
            if hit {
                n += 1;
            }
        }
        n as f64 / self.n_pairs() as f64
    }
}

/// Configuration of the per-tensor OliVe quantizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OliveQuantizer {
    normal_type: NormalDataType,
    /// Number of scale candidates evaluated by the MSE search.
    search_steps: usize,
    /// Multiplicative search window around the 3σ seed threshold.
    search_low: f32,
    search_high: f32,
    /// Maximum number of elements sampled for the MSE search (the full tensor
    /// is always used for the final encoding).
    search_sample: usize,
}

impl OliveQuantizer {
    /// 4-bit OliVe with `int4` normal values (the paper's headline setting).
    pub fn int4() -> Self {
        Self::new(NormalDataType::Int4)
    }

    /// 4-bit OliVe with `flint4` normal values.
    pub fn flint4() -> Self {
        Self::new(NormalDataType::Flint4)
    }

    /// 8-bit OliVe with `int8` normal values and E4M3 outliers.
    pub fn int8() -> Self {
        Self::new(NormalDataType::Int8)
    }

    /// Creates a quantizer for an arbitrary normal data type with the default
    /// search parameters (Sec. 3.4: seed at 3σ, search around it).
    pub fn new(normal_type: NormalDataType) -> Self {
        OliveQuantizer {
            normal_type,
            search_steps: 24,
            search_low: 0.4,
            search_high: 3.0,
            search_sample: 16_384,
        }
    }

    /// Overrides the number of scale-search candidates.
    pub fn with_search_steps(mut self, steps: usize) -> Self {
        self.search_steps = steps.max(1);
        self
    }

    /// The normal data type this quantizer uses.
    pub fn normal_type(&self) -> NormalDataType {
        self.normal_type
    }

    /// Quantizes a tensor, searching for the MSE-minimizing scale.
    pub fn quantize(&self, t: &Tensor) -> OvpTensor {
        let scale = self.select_scale(t);
        self.quantize_with_scale(t, scale)
    }

    /// Quantizes with an explicit scale factor (no search).
    pub fn quantize_with_scale(&self, t: &Tensor, scale: f32) -> OvpTensor {
        let spec = self.spec_for_scale(scale);
        let data = t.data();
        let n = data.len();
        let n_pairs = n.div_ceil(2);
        let threshold = self.normal_type.max_magnitude() as f32;
        let mut bytes = Vec::with_capacity(match self.normal_type {
            NormalDataType::Int8 => 2 * n_pairs,
            _ => n_pairs,
        });
        let inv = 1.0 / spec.scale;
        for p in 0..n_pairs {
            let v1 = data[2 * p] * inv;
            let v2 = if 2 * p + 1 < n {
                data[2 * p + 1] * inv
            } else {
                0.0
            };
            let pair = encode_pair(v1, v2, threshold, self.normal_type, spec.abfloat_bias);
            match self.normal_type {
                NormalDataType::Int8 => {
                    bytes.push(pair.code0);
                    bytes.push(pair.code1);
                }
                _ => bytes.push(pair.pack_byte()),
            }
        }
        OvpTensor {
            spec,
            shape: t.shape().to_vec(),
            n_elems: n,
            bytes,
        }
    }

    /// Convenience: quantize and immediately dequantize ("fake quantization").
    /// Runs the fused [`OliveQuantizer::quantize_dequantize_into`]; the
    /// result is bit-identical to `self.quantize(t).dequantize()`.
    pub fn quantize_dequantize(&self, t: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(t.shape().to_vec());
        self.quantize_dequantize_into(t.data(), out.data_mut());
        out
    }

    /// Fake quantization of a raw slice: writes to `out` exactly the bits
    /// `quantize(t).dequantize()` yields for a tensor `t` holding `input`.
    ///
    /// The 4-bit types run the fast scale search and map each pair straight
    /// to its decoded grid values, allocating nothing. `int8`, and any input
    /// holding a non-finite value, run `quantize(t).dequantize()` itself.
    ///
    /// # Panics
    ///
    /// Panics if `input` and `out` differ in length.
    pub fn quantize_dequantize_into(&self, input: &[f32], out: &mut [f32]) {
        assert_eq!(
            input.len(),
            out.len(),
            "quantize_dequantize_into: input and output lengths differ"
        );
        match self.fast_select_scale(input) {
            Some((kernel, scale)) => {
                kernel.fake_quant_into(input, self.spec_for_scale(scale).scale, out)
            }
            None => out.copy_from_slice(
                self.quantize(&Tensor::from_slice(input))
                    .dequantize()
                    .data(),
            ),
        }
    }

    fn spec_for_scale(&self, scale: f32) -> QuantSpec {
        QuantSpec {
            normal_type: self.normal_type,
            outlier_format: self.normal_type.outlier_format(),
            abfloat_bias: self.normal_type.complementary_abfloat_bias(),
            scale: scale.max(f32::MIN_POSITIVE),
        }
    }

    /// Scale-factor selection (Sec. 3.4): seed the outlier threshold at 3σ and
    /// grid-search a multiplicative window around it for the smallest MSE.
    ///
    /// Returns the same bits as [`OliveQuantizer::reference_select_scale`];
    /// the 4-bit types get there by the candidate-parallel search described
    /// in the module docs.
    pub fn select_scale(&self, t: &Tensor) -> f32 {
        match self.fast_select_scale(t.data()) {
            Some((_, scale)) => scale,
            None => self.reference_scale(t.data()),
        }
    }

    /// The scale search as one loop per candidate over the full OVP round
    /// trip: the oracle [`OliveQuantizer::select_scale`] must match bit for
    /// bit.
    pub fn reference_select_scale(&self, t: &Tensor) -> f32 {
        self.reference_scale(t.data())
    }

    fn reference_scale(&self, data: &[f32]) -> f32 {
        let stats = TensorStats::from_slice(data);
        let max_mag = self.normal_type.max_magnitude() as f32;
        if stats.std == 0.0 {
            return constant_scale(stats.max_abs, max_mag);
        }
        let seed_threshold = seed_threshold(stats.std);
        let cap = self.max_finite_scale();
        let sample = self.search_slice(data);
        let mut best_scale = cap_scale(seed_threshold / max_mag, cap);
        let mut best_mse = f64::INFINITY;
        for i in 0..self.search_steps {
            let scale = self.candidate_scale(seed_threshold, i, cap);
            let mse = self.round_trip_mse(sample, scale);
            if mse < best_mse {
                best_mse = mse;
                best_scale = scale;
            }
        }
        best_scale
    }

    /// The candidate-parallel search: `None` for `int8` and for inputs the
    /// fast path does not cover (a non-finite value, or a candidate scale so
    /// small its inverse overflows), which then take the reference search.
    ///
    /// Candidates are scored eight at a time, in candidate order. The first
    /// vector scores the whole sample; each later one scores it
    /// [`SEARCH_CHUNK`] values at a time and stops once none of its usable
    /// lanes has `partial / count < best_mse`, the best mse of the vectors
    /// before it. That cannot change the winner: every error term is ≥ 0,
    /// f64 addition and the division by `count` are monotone, so a stopped
    /// lane's full mse is ≥ `best_mse`, and the strict `<` that keeps the
    /// first minimum passes over it, partial sum or full.
    fn fast_select_scale(&self, data: &[f32]) -> Option<(OvpKernel, f32)> {
        let grid = FourBitGrid::of(self.normal_type)?;
        let (std, max_abs) = finite_std_and_max_abs(data)?;
        let kernel = OvpKernel::new(grid);
        let max_mag = self.normal_type.max_magnitude() as f32;
        if std == 0.0 {
            return Some((kernel, constant_scale(max_abs, max_mag)));
        }
        let seed_threshold = seed_threshold(std);
        let cap = self.max_finite_scale();
        let sample = self.search_slice(data);
        let count = sample.len() as f64;
        let mut best_scale = cap_scale(seed_threshold / max_mag, cap);
        let mut best_mse = f64::INFINITY;
        for first in (0..self.search_steps).step_by(SCALE_LANES) {
            let lanes = (self.search_steps - first).min(SCALE_LANES);
            // Lanes holding no valid candidate score a harmless unit scale
            // and are never read back.
            let mut cands = Candidates {
                scales: [1.0; SCALE_LANES],
                invs: [1.0; SCALE_LANES],
                lanes,
            };
            let mut valid = [false; SCALE_LANES];
            for (k, usable) in valid.iter_mut().enumerate().take(lanes) {
                let scale = self.candidate_scale(seed_threshold, first + k, cap);
                if scale > 0.0 && scale.is_finite() {
                    let inv = 1.0 / scale;
                    if !inv.is_finite() {
                        return None;
                    }
                    (cands.scales[k], cands.invs[k], *usable) = (scale, inv, true);
                }
            }
            let chunk = if first == 0 { usize::MAX } else { SEARCH_CHUNK };
            let can_win = |errs: &[f64; SCALE_LANES]| {
                (0..lanes).any(|k| valid[k] && errs[k] / count < best_mse)
            };
            let mut errs = [0.0f64; SCALE_LANES];
            kernel.score(sample, chunk, &cands, &mut errs, can_win);
            for k in 0..lanes {
                // `round_trip_mse` scores an unusable scale as +inf, which
                // never wins.
                let mse = errs[k] / count;
                if valid[k] && mse < best_mse {
                    best_mse = mse;
                    best_scale = cands.scales[k];
                }
            }
        }
        Some((kernel, best_scale))
    }

    /// Candidate `i` of the search window around `seed_threshold`, capped
    /// at `cap` (see [`OliveQuantizer::max_finite_scale`]).
    fn candidate_scale(&self, seed_threshold: f32, i: usize, cap: f32) -> f32 {
        let f = if self.search_steps == 1 {
            1.0
        } else {
            self.search_low
                + (self.search_high - self.search_low) * i as f32 / (self.search_steps - 1) as f32
        };
        let threshold = seed_threshold * f;
        cap_scale(threshold / self.normal_type.max_magnitude() as f32, cap)
    }

    /// The largest scale at which [`QuantSpec::max_representable`] and
    /// every dequantized value stay finite. Searched scales are capped
    /// here: an uncapped 3σ seed overflows for rows spanning ±`f32::MAX`.
    fn max_finite_scale(&self) -> f32 {
        let fmt = self.normal_type.outlier_format();
        let top = fmt.max_value(self.normal_type.complementary_abfloat_bias()) as f32;
        let mut cap = f32::MAX / top;
        while (cap * top).is_infinite() {
            cap = f32::from_bits(cap.to_bits() - 1);
        }
        cap
    }

    fn search_slice<'a>(&self, data: &'a [f32]) -> &'a [f32] {
        if data.len() <= self.search_sample {
            data
        } else {
            // A contiguous prefix keeps the search cheap; the adjacency
            // structure (pairing) is preserved, unlike random sampling.
            &data[..self.search_sample]
        }
    }

    /// Mean squared error of the full OVP round trip at a given scale.
    pub fn round_trip_mse(&self, data: &[f32], scale: f32) -> f64 {
        if scale <= 0.0 || !scale.is_finite() {
            return f64::INFINITY;
        }
        let threshold = self.normal_type.max_magnitude() as f32;
        let bias = self.normal_type.complementary_abfloat_bias();
        let inv = 1.0 / scale;
        let mut err = 0.0f64;
        let mut count = 0usize;
        let mut i = 0;
        while i < data.len() {
            let v1 = data[i] * inv;
            let v2 = if i + 1 < data.len() {
                data[i + 1] * inv
            } else {
                0.0
            };
            let pair = encode_pair(v1, v2, threshold, self.normal_type, bias);
            let (a, b) = decode_pair_values(pair.code0, pair.code1, self.normal_type, bias);
            let d0 = (a as f32 * scale - data[i]) as f64;
            err += d0 * d0;
            count += 1;
            if i + 1 < data.len() {
                let d1 = (b as f32 * scale - data[i + 1]) as f64;
                err += d1 * d1;
                count += 1;
            }
            i += 2;
        }
        if count == 0 {
            0.0
        } else {
            err / count as f64
        }
    }
}

impl Default for OliveQuantizer {
    fn default() -> Self {
        Self::int4()
    }
}

/// Sample values a later candidate vector of the 4-bit scale search scores
/// between two checks of whether it can still win: eight pairs.
const SEARCH_CHUNK: usize = 16;

/// The scale of a zero-variance tensor: its constant maps onto the grid
/// exactly (an all-zero tensor gets scale 1).
fn constant_scale(max_abs: f64, max_mag: f32) -> f32 {
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs as f32 / max_mag
    }
}

/// The 3σ seed threshold, kept finite (a NaN σ stays NaN).
fn seed_threshold(std: f64) -> f32 {
    cap_scale((3.0 * std) as f32, f32::MAX)
}

/// `scale.min(cap)`, except that a NaN scale stays NaN.
fn cap_scale(scale: f32, cap: f32) -> f32 {
    if scale > cap {
        cap
    } else {
        scale
    }
}

/// σ and `max |x|` exactly as `TensorStats::from_slice` computes them, or
/// `None` if any value is non-finite.
fn finite_std_and_max_abs(data: &[f32]) -> Option<(f64, f64)> {
    if !data.iter().all(|x| x.is_finite()) {
        return None;
    }
    let Moments { std, max_abs, .. } = Moments::of(data);
    Some((std, max_abs))
}

/// The round trip of a 4-bit OVP type (`int4` or `flint4`) as magnitude
/// tables: it maps a pair of scale-normalised values to the grid values
/// `encode_pair` → `decode_pair_values` yields, without forming a code.
///
/// A magnitude `a` rounds to `mags[k]`, where `k` counts the `cuts` at or
/// below `a`. The cuts are derived from the dtype encoders themselves
/// (`Int4::quantize`, `Flint4::quantize`, `AbfloatCode::encode`) by bisection
/// over f32 bit patterns, so they are exact by construction. For `int4`
/// (E2M1 outliers at bias 2) the outlier cuts are 14, 20, 28, 40, 56 and 80,
/// mapping to 12, 16, …, 96.
#[derive(Debug)]
pub(crate) struct FourBitGrid {
    /// Largest normal magnitude; a larger `|v|` is an outlier (7 or 16).
    pub(crate) normal_max: f32,
    /// The normals are the integers `0..=7` with their cuts at the
    /// half-way points (`int4`), so they round by truncating and adding one
    /// when the fraction is at least one half.
    pub(crate) integer_normals: bool,
    pub(crate) normal_cuts: [f32; 7],
    pub(crate) normal_mags: [f32; 8],
    pub(crate) outlier_cuts: [f32; 6],
    /// The seven E2M1 magnitudes, the last repeated into an eighth lane so
    /// the table fills one 8-lane vector.
    pub(crate) outlier_mags: [f32; 8],
}

impl FourBitGrid {
    /// The grid of a 4-bit type, derived once per process; `None` for
    /// `int8`.
    pub(crate) fn of(normal_type: NormalDataType) -> Option<&'static FourBitGrid> {
        static INT4: OnceLock<FourBitGrid> = OnceLock::new();
        static FLINT4: OnceLock<FourBitGrid> = OnceLock::new();
        let cell = match normal_type {
            NormalDataType::Int4 => &INT4,
            NormalDataType::Flint4 => &FLINT4,
            NormalDataType::Int8 => return None,
        };
        Some(cell.get_or_init(|| FourBitGrid::derive(normal_type)))
    }

    fn derive(normal_type: NormalDataType) -> FourBitGrid {
        let (normal_values, normal): ([i64; 8], fn(f32) -> i64) = match normal_type {
            NormalDataType::Int4 => (std::array::from_fn(|k| k as i64), |x| {
                i64::from(Int4::quantize(x).value())
            }),
            _ => (FLINT4_MAGNITUDES.map(i64::from), |x| {
                i64::from(Flint4::quantize(x).value())
            }),
        };
        let fmt = normal_type.outlier_format();
        let bias = normal_type.complementary_abfloat_bias();
        let outlier_values = fmt.positive_values(bias);
        assert_eq!(outlier_values.len(), 7, "4-bit outliers are E2M1");
        let outlier = |x: f32| AbfloatCode::encode(x, bias, fmt).value(bias);
        let normal_cuts: [f32; 7] =
            std::array::from_fn(|k| first_reaching(normal, normal_values[k + 1]));
        FourBitGrid {
            normal_max: normal_type.max_magnitude() as f32,
            integer_normals: normal_values == std::array::from_fn(|k| k as i64)
                && normal_cuts == std::array::from_fn(|k| k as f32 + 0.5),
            normal_cuts,
            normal_mags: normal_values.map(|v| v as f32),
            outlier_cuts: std::array::from_fn(|k| first_reaching(outlier, outlier_values[k + 1])),
            outlier_mags: std::array::from_fn(|k| outlier_values[k.min(6)] as f32),
        }
    }

    fn normal_mag(&self, a: f32) -> f32 {
        if self.integer_normals {
            let t = a as i32 as f32;
            if a - t >= 0.5 {
                t + 1.0
            } else {
                t
            }
        } else {
            self.normal_mags[self.normal_cuts.iter().filter(|&&c| a >= c).count()]
        }
    }

    fn outlier_mag(&self, a: f32) -> f32 {
        self.outlier_mags[self.outlier_cuts.iter().filter(|&&c| a >= c).count()]
    }

    /// The grid values the scale-normalised pair `(v1, v2)` decodes to
    /// after Algorithm 1, as f32 (a zero is always +0.0). Neither value may
    /// be NaN.
    #[inline]
    pub(crate) fn pair(&self, v1: f32, v2: f32) -> (f32, f32) {
        let (a1, a2) = (v1.abs(), v2.abs());
        let (m1, m2) = if a1 > self.normal_max && a1 >= a2 {
            (self.outlier_mag(a1), 0.0)
        } else if a2 > self.normal_max {
            (0.0, self.outlier_mag(a2))
        } else {
            (self.normal_mag(a1), self.normal_mag(a2))
        };
        // Adding +0.0 turns the -0.0 of a small negative value into the
        // +0.0 the codec decodes.
        (m1.copysign(v1) + 0.0, m2.copysign(v2) + 0.0)
    }

    /// `quantize_with_scale` at `scale` (a spec's floored scale), then
    /// `dequantize`, into `out`, one pair at a time: the scalar path of
    /// `OvpKernel::fake_quant_into`, and its AVX2 path's tail.
    pub(crate) fn dequantize_into(&self, input: &[f32], scale: f32, out: &mut [f32]) {
        let inv = 1.0 / scale;
        for (x, o) in input.chunks(2).zip(out.chunks_mut(2)) {
            let v2 = x.get(1).map_or(0.0, |&x1| x1 * inv);
            let (g1, g2) = self.pair(x[0] * inv, v2);
            o[0] = g1 * scale;
            if let Some(o1) = o.get_mut(1) {
                *o1 = g2 * scale;
            }
        }
    }
}

/// The smallest non-negative f32 at which the non-decreasing `f` reaches
/// `target`, by bisection over bit patterns (which order non-negative
/// floats as numbers). `f(+inf)` must reach `target`.
fn first_reaching(f: impl Fn(f32) -> i64, target: i64) -> f32 {
    if f(0.0) >= target {
        return 0.0;
    }
    let (mut below, mut at) = (0u32, f32::INFINITY.to_bits());
    assert!(f(f32::INFINITY) >= target, "{target} is never reached");
    while at - below > 1 {
        let mid = below + (at - below) / 2;
        if f(f32::from_bits(mid)) >= target {
            at = mid;
        } else {
            below = mid;
        }
    }
    f32::from_bits(at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_tensor::rng::Rng;

    fn outlier_tensor(n: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        let mut data = vec![0.0f32; n];
        rng.fill_normal(&mut data, 0.0, 1.0);
        // ~0.5% outliers with magnitudes 10–80σ.
        for _ in 0..(n / 200).max(1) {
            let i = rng.below(n);
            let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
            data[i] = sign * rng.uniform_range(10.0, 80.0) as f32;
        }
        Tensor::from_vec(vec![n / 8, 8], data)
    }

    #[test]
    fn int4_round_trip_preserves_outliers() {
        let t = outlier_tensor(4096, 1);
        let q = OliveQuantizer::int4().quantize(&t);
        let back = q.dequantize();
        for i in 0..t.len() {
            let x = t[i];
            if x.abs() > 10.0 {
                let rel = (back[i] - x).abs() / x.abs();
                assert!(rel < 0.35, "outlier {} decoded as {}", x, back[i]);
            }
        }
    }

    #[test]
    fn int4_mse_is_small_relative_to_variance() {
        let t = outlier_tensor(4096, 2);
        let q = OliveQuantizer::int4().quantize(&t);
        let back = q.dequantize();
        let mse = t.mse(&back);
        assert!(mse < 0.5, "mse = {}", mse);
    }

    #[test]
    fn storage_is_half_a_byte_per_element_for_4bit() {
        let t = outlier_tensor(4096, 3);
        let q = OliveQuantizer::int4().quantize(&t);
        assert_eq!(q.storage_bytes(), 2048);
        assert!((q.compression_ratio() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn storage_is_one_byte_per_element_for_8bit() {
        let t = outlier_tensor(4096, 4);
        let q = OliveQuantizer::int8().quantize(&t);
        assert_eq!(q.storage_bytes(), 4096);
    }

    #[test]
    fn int8_is_more_accurate_than_int4() {
        let t = outlier_tensor(8192, 5);
        let q4 = OliveQuantizer::int4().quantize(&t).dequantize();
        let q8 = OliveQuantizer::int8().quantize(&t).dequantize();
        assert!(t.mse(&q8) < t.mse(&q4));
    }

    #[test]
    fn flint4_works_end_to_end() {
        let t = outlier_tensor(4096, 6);
        let q = OliveQuantizer::flint4().quantize(&t);
        let back = q.dequantize();
        assert!(t.mse(&back) < 0.6);
        assert_eq!(q.spec().abfloat_bias, 3);
    }

    #[test]
    fn odd_length_tensor_round_trips() {
        let t = Tensor::from_vec(vec![1, 5], vec![0.5, -0.25, 30.0, 0.125, 1.0]);
        let q = OliveQuantizer::int4().quantize(&t);
        let back = q.dequantize();
        assert_eq!(back.len(), 5);
        assert!((back[2] - 30.0).abs() / 30.0 < 0.35);
    }

    #[test]
    fn constant_tensor_is_exact() {
        let t = Tensor::full(vec![16], 2.0);
        let q = OliveQuantizer::int4().quantize(&t);
        let back = q.dequantize();
        for i in 0..t.len() {
            assert!((back[i] - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn all_zero_tensor_is_exact() {
        let t = Tensor::zeros(vec![8, 8]);
        let q = OliveQuantizer::int4().quantize(&t);
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn outlier_pair_fraction_matches_planting_rate() {
        let t = outlier_tensor(16_384, 7);
        let q = OliveQuantizer::int4().quantize(&t);
        let frac = q.outlier_pair_fraction();
        // ~0.5% of elements are planted outliers => ~1% of pairs contain one,
        // plus whatever the MSE search promotes. It must stay small.
        assert!(frac > 0.001 && frac < 0.2, "fraction = {}", frac);
    }

    #[test]
    fn expint_decode_matches_dequantize() {
        let t = outlier_tensor(2048, 8);
        let q = OliveQuantizer::int4().quantize(&t);
        let back = q.dequantize();
        let pairs = q.decode_expints();
        assert_eq!(pairs.len(), t.len());
        for (i, p) in pairs.iter().enumerate() {
            let real = p.value() as f32 * q.spec().scale;
            assert!((real - back[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn scale_search_beats_naive_max_scaling() {
        // With heavy outliers, scaling by the max (so nothing clips) is far
        // worse than the OVP search that keeps normal-value resolution.
        let t = outlier_tensor(8192, 9);
        let quant = OliveQuantizer::int4();
        let searched = quant.quantize(&t);
        let naive_scale = t.max_abs() / 7.0;
        let naive = quant.quantize_with_scale(&t, naive_scale);
        assert!(t.mse(&searched.dequantize()) < t.mse(&naive.dequantize()));
    }

    /// `f` stepped `steps` ulps up (or down, for negative `steps`); `f`
    /// must be positive and finite.
    fn ulps(f: f32, steps: i32) -> f32 {
        f32::from_bits(f.to_bits().wrapping_add_signed(steps))
    }

    #[test]
    fn four_bit_grid_cuts_are_the_encoders_rounding_boundaries() {
        let int4 = FourBitGrid::of(NormalDataType::Int4).unwrap();
        assert_eq!(int4.outlier_cuts, [14.0, 20.0, 28.0, 40.0, 56.0, 80.0]);
        assert_eq!(
            &int4.outlier_mags[..7],
            &[12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0]
        );
        assert_eq!(int4.normal_cuts, [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5]);
        assert!(int4.integer_normals);
        let flint4 = FourBitGrid::of(NormalDataType::Flint4).unwrap();
        assert_eq!(flint4.outlier_cuts, [28.0, 40.0, 56.0, 80.0, 112.0, 160.0]);
        assert_eq!(flint4.outlier_mags[6], 192.0);
        assert!(!flint4.integer_normals);
        // flint4 resolves ties toward the smaller magnitude, so each of its
        // cuts is the float just above the midpoint.
        let midpoints = [0.5f32, 1.5, 2.5, 3.5, 5.0, 7.0, 12.0];
        assert_eq!(flint4.normal_cuts, midpoints.map(|m| ulps(m, 1)));
        assert!(FourBitGrid::of(NormalDataType::Int8).is_none());
    }

    #[test]
    fn four_bit_grid_matches_the_pair_codec() {
        for ty in [NormalDataType::Int4, NormalDataType::Flint4] {
            let grid = FourBitGrid::of(ty).unwrap();
            let bias = ty.complementary_abfloat_bias();
            let threshold = ty.max_magnitude() as f32;
            // Every cut and the normal/outlier boundary ±4 ulps, a dense
            // sweep, and the extremes.
            let mut magnitudes: Vec<f32> = Vec::new();
            for &cut in grid.normal_cuts.iter().chain(&grid.outlier_cuts) {
                magnitudes.extend((-4..=4).map(|s| ulps(cut, s)));
            }
            magnitudes.extend((-4..=4).map(|s| ulps(grid.normal_max, s)));
            magnitudes.extend((0..=2000).map(|i| i as f32 * 0.125));
            magnitudes.extend([0.0, f32::MIN_POSITIVE, 1e30, f32::MAX, f32::INFINITY]);
            let values: Vec<f32> = magnitudes.iter().flat_map(|&m| [m, -m]).collect();
            let partners = [0.0f32, -0.3, 3.5, -6.9, 7.0, 15.0, 30.0, -95.0, 1e9];
            for &v in &values {
                for &w in values.iter().step_by(97).chain(&partners) {
                    for (v1, v2) in [(v, w), (w, v)] {
                        let pair = encode_pair(v1, v2, threshold, ty, bias);
                        let (a, b) = decode_pair_values(pair.code0, pair.code1, ty, bias);
                        let (g1, g2) = grid.pair(v1, v2);
                        assert_eq!(
                            (g1.to_bits(), g2.to_bits()),
                            ((a as f32).to_bits(), (b as f32).to_bits()),
                            "{ty} pair ({v1}, {v2})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn finite_inputs_spanning_f32_max_dequantize_finite() {
        // 3σ of this row overflows f32: the search must keep its scales
        // finite instead of dequantizing everything to NaN.
        let t = Tensor::from_vec(vec![1, 4], vec![3e38, -3e38, 1.0, 2.0]);
        for quant in [
            OliveQuantizer::int4(),
            OliveQuantizer::flint4(),
            OliveQuantizer::int8(),
        ] {
            let scale = quant.select_scale(&t);
            assert_eq!(scale.to_bits(), quant.reference_select_scale(&t).to_bits());
            let q = quant.quantize(&t);
            assert!(q.spec().max_representable().is_finite(), "{scale}");
            let back = q.dequantize();
            assert!(back.data().iter().all(|x| x.is_finite()), "{back:?}");
            let fused = quant.quantize_dequantize(&t);
            assert_eq!(fused, back);
        }
    }

    #[test]
    fn fused_round_trip_matches_quantize_then_dequantize() {
        for (i, quant) in [
            OliveQuantizer::int4(),
            OliveQuantizer::flint4(),
            OliveQuantizer::int8(),
        ]
        .into_iter()
        .enumerate()
        {
            for n in [1, 2, 3, 64, 257] {
                let mut t = outlier_tensor(8 * n, 40 + i as u64 + n as u64);
                t.data_mut()[0] = f32::NAN; // a non-finite row takes the reference path
                for t in [outlier_tensor(8 * n, 30 + n as u64), t] {
                    let want = quant.quantize(&t).dequantize();
                    let got = quant.quantize_dequantize(&t);
                    let bits =
                        |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{} n={n}", quant.normal_type());
                }
            }
        }
    }

    #[test]
    fn shape_is_preserved() {
        let t = outlier_tensor(4096, 10);
        let q = OliveQuantizer::int4().quantize(&t);
        assert_eq!(q.shape(), t.shape());
        assert_eq!(q.dequantize().shape(), t.shape());
    }
}
