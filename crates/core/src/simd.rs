//! SIMD dispatch for the OVP and uniform scale searches and fake
//! quantizations, GELU and the dense f32 GEMMs.
//!
//! This module is the **only** place in the workspace where `unsafe` code is
//! permitted (enforced by the `no-unsafe-outside-simd` olive-lint rule; the
//! runtime pool's lifetime-erasure internals carry the one grandfathered
//! exemption in `lint.toml`). It holds six kernels, all floating point and
//! bit-identical across paths:
//!
//! * the OVP scale search's candidate scoring (`OvpKernel::score`): lanes
//!   hold eight candidates, never pairs, so every candidate's f64 error sum
//!   is formed by the same IEEE operations in the same order on every path.
//!   It scores a sample in chunks and stops at the caller's stop rule, which
//!   both paths run through one chunk loop;
//! * the OVP fake quantization that follows it (`OvpKernel::fake_quant_into`):
//!   lanes hold eight pairs, split into first and second members, mapped by
//!   the lane form of `FourBitGrid::pair` the scoring runs (which skips the
//!   outlier lookup when no lane needs it), and interleaved back;
//! * the uniform quantizer's ([`score_uniform_candidates`], the same
//!   layout over single elements) and its fake quantization
//!   ([`uniform_fake_quant_into`], lanes hold elements). Both divide by the
//!   scale, which SIMD `div` does exactly as scalar `/`, and round half away
//!   from zero by truncating and testing the dropped fraction;
//! * [`gelu_in_place`]: lanes hold elements, and each lane runs
//!   [`gelu_scalar`]'s operations, computing every branch of its `tanhf`
//!   and blending the lanes by masks;
//! * the dense GEMMs under every served forward, [`matmul`] and
//!   [`matmul_transpose_b`]: lanes hold output elements, each accumulated
//!   in a register from +0.0 with `k` ascending, a multiply then an add,
//!   exactly as `olive_tensor::matmul`'s kernels (their scalar path) do.
//!
//! Dispatch order is `AVX2 > scalar`, resolved at runtime with
//! [`std::arch::is_x86_feature_detected!`] and overridable per process with
//! the `OLIVE_SIMD` environment variable (`0`/`scalar`, `avx2`, or `auto`).
//! Invalid or unsupported values are reported loudly once and fall back to
//! the scalar kernel, mirroring the `OLIVE_THREADS` contract in
//! olive-runtime: a typo must never silently change behaviour — and since
//! every path is bit-identical, falling back can only cost speed, never
//! correctness.

use crate::quantizer::FourBitGrid;
use olive_tensor::matmul::gelu_scalar;
use olive_tensor::Tensor;
use std::cell::Cell;
use std::sync::Once;

/// Environment variable selecting the SIMD kernel: `auto` (default),
/// `0`/`scalar`, or `avx2`.
pub const SIMD_ENV: &str = "OLIVE_SIMD";

/// The instruction-set path the scale search dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// Plain Rust loops; always available, the oracle all others must match.
    Scalar,
    /// 256-bit AVX2, the widest path this workspace targets.
    Avx2,
}

impl SimdPath {
    /// Stable lowercase name (`scalar` / `avx2`) for logs and docs.
    pub fn name(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Avx2 => "avx2",
        }
    }

    /// Whether the current CPU can execute this path.
    pub fn supported(self) -> bool {
        match self {
            SimdPath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdPath::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

impl std::fmt::Display for SimdPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Widest path the current CPU supports (`AVX2 > scalar`).
fn detect() -> SimdPath {
    if SimdPath::Avx2.supported() {
        SimdPath::Avx2
    } else {
        SimdPath::Scalar
    }
}

/// Parses an `OLIVE_SIMD` value. `Ok(None)` means auto-detect.
pub fn parse_simd_env(raw: &str) -> Result<Option<SimdPath>, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => Ok(None),
        "0" | "scalar" => Ok(Some(SimdPath::Scalar)),
        "avx2" => Ok(Some(SimdPath::Avx2)),
        _ => Err(format!(
            "invalid {SIMD_ENV}={raw:?} (expected auto, 0, scalar, or avx2)"
        )),
    }
}

/// Validates `OLIVE_SIMD` for long-running daemons: `Err` on an unparseable
/// value or a path the CPU cannot execute, `Ok` when unset/usable. Library
/// paths never fail on a bad value (they warn once and run scalar); a daemon
/// should refuse to start instead, mirroring `validate_thread_env`.
pub fn validate_simd_env() -> Result<(), String> {
    match std::env::var(SIMD_ENV) {
        Err(_) => Ok(()),
        Ok(raw) => match parse_simd_env(&raw)? {
            None => Ok(()),
            Some(path) if path.supported() => Ok(()),
            Some(path) => Err(format!(
                "{SIMD_ENV}={} requested but this CPU does not support it",
                path.name()
            )),
        },
    }
}

/// Reports an invalid/unsupported `OLIVE_SIMD` exactly once per process.
fn warn_simd_env_once(message: &str) {
    static WARN_ONCE: Once = Once::new();
    WARN_ONCE.call_once(|| {
        eprintln!("olive-core: {message}; falling back to the scalar kernel (bit-identical)");
    });
}

thread_local! {
    /// Scoped override installed by [`with_simd`]; like olive-runtime's
    /// `with_threads`, it is read once per kernel entry on the calling
    /// thread and then passed down by value, so pool workers inherit it.
    static SIMD_OVERRIDE: Cell<Option<SimdPath>> = const { Cell::new(None) };
}

/// Runs `f` with the kernel dispatch pinned to `path` on this thread
/// (restored on exit, even on panic). `None` restores auto/env resolution.
/// Unsupported pins degrade to scalar at resolve time, keeping results
/// bit-identical. Tests pin a path with it, and a model forward pins
/// [`resolve_path`]'s answer so that its many kernel calls skip the
/// environment; processes choose a path with `OLIVE_SIMD`.
pub fn with_simd<R>(path: Option<SimdPath>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SimdPath>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SIMD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = SIMD_OVERRIDE.with(|c| Restore(c.replace(path)));
    f()
}

/// Resolves the dispatch path for one kernel invocation: thread-local
/// [`with_simd`] override, then `OLIVE_SIMD`, then CPU auto-detection.
/// Invalid or unsupported requests warn once and resolve to scalar.
pub fn resolve_path() -> SimdPath {
    let requested = match SIMD_OVERRIDE.with(|c| c.get()) {
        Some(path) => Some(path),
        None => match std::env::var(SIMD_ENV) {
            Err(_) => None,
            Ok(raw) => match parse_simd_env(&raw) {
                Ok(choice) => choice,
                Err(message) => {
                    warn_simd_env_once(&message);
                    return SimdPath::Scalar;
                }
            },
        },
    };
    match requested {
        None => detect(),
        Some(path) if path.supported() => path,
        Some(path) => {
            warn_simd_env_once(&format!(
                "{SIMD_ENV}={} requested but this CPU does not support it",
                path.name()
            ));
            SimdPath::Scalar
        }
    }
}

/// Candidate scales one pass of the uniform scale search scores: three
/// 8-lane AVX2 f32 vectors. It is also the OVP search's default width.
pub const CANDIDATE_BLOCK: usize = 24;

/// Candidate scales one call of [`OvpKernel::score`] scores: one 8-lane
/// AVX2 f32 vector.
pub(crate) const SCALE_LANES: usize = 8;

/// One vector of the OVP scale search's candidates, as [`OvpKernel::score`]
/// scores them.
pub(crate) struct Candidates {
    /// The scales; a lane at or past `lanes` holds a finite placeholder,
    /// whose errors are unspecified.
    pub(crate) scales: [f32; SCALE_LANES],
    /// The inverse of each scale.
    pub(crate) invs: [f32; SCALE_LANES],
    /// The number of leading lanes that hold candidates.
    pub(crate) lanes: usize,
}

/// The 4-bit OVP kernels of one quantization: a [`FourBitGrid`] on the
/// path [`resolve_path`] chose, with the grid broadcast across eight lanes
/// once, when that path is AVX2.
pub(crate) struct OvpKernel {
    grid: &'static FourBitGrid,
    /// Set only when the CPU supports AVX2.
    #[cfg(target_arch = "x86_64")]
    avx2: Option<x86::Grid8>,
}

impl OvpKernel {
    pub(crate) fn new(grid: &'static FourBitGrid) -> Self {
        match resolve_path() {
            #[cfg(target_arch = "x86_64")]
            SimdPath::Avx2 => OvpKernel {
                grid,
                // SAFETY: `resolve_path` returns AVX2 only when the CPU supports it.
                avx2: Some(unsafe { x86::Grid8::new(grid) }),
            },
            _ => OvpKernel {
                grid,
                #[cfg(target_arch = "x86_64")]
                avx2: None,
            },
        }
    }

    /// Scores `cands` over `sample`, `chunk` values (an even count) at a
    /// time, and stops after the first chunk that leaves `live(errs)` false.
    /// `errs[k]` accumulates the squared round-trip errors at
    /// `cands.scales[k]` in f64, pair by pair in element order with a
    /// separate multiply and add: scored to the end, it holds the sum
    /// `OliveQuantizer::round_trip_mse` forms (a last odd element pairs
    /// with `+0.0` and scores alone).
    pub(crate) fn score(
        &self,
        sample: &[f32],
        chunk: usize,
        cands: &Candidates,
        errs: &mut [f64; SCALE_LANES],
        live: impl Fn(&[f64; SCALE_LANES]) -> bool,
    ) {
        #[cfg(target_arch = "x86_64")]
        if let Some(g) = &self.avx2 {
            // SAFETY: `avx2` is only built on a CPU that supports AVX2.
            unsafe {
                if self.grid.integer_normals {
                    x86::score_avx2::<true>(sample, chunk, cands, g, errs, live)
                } else {
                    x86::score_avx2::<false>(sample, chunk, cands, g, errs, live)
                }
            }
            return;
        }
        let lanes = cands.lanes;
        let (scales, invs) = (&cands.scales[..lanes], &cands.invs[..lanes]);
        chunked(sample, chunk, errs, live, |part, errs| {
            let errs = &mut errs[..lanes];
            let mut pairs = part.chunks_exact(2);
            for pair in &mut pairs {
                let (x0, x1) = (pair[0], pair[1]);
                for ((err, &scale), &inv) in errs.iter_mut().zip(scales).zip(invs) {
                    let (g0, g1) = self.grid.pair(x0 * inv, x1 * inv);
                    let d0 = (g0 * scale - x0) as f64;
                    *err += d0 * d0;
                    let d1 = (g1 * scale - x1) as f64;
                    *err += d1 * d1;
                }
            }
            if let [x0] = *pairs.remainder() {
                for ((err, &scale), &inv) in errs.iter_mut().zip(scales).zip(invs) {
                    let (g0, _) = self.grid.pair(x0 * inv, 0.0);
                    let d0 = (g0 * scale - x0) as f64;
                    *err += d0 * d0;
                }
            }
        });
    }

    /// `FourBitGrid::dequantize_into` on the dispatched path: writes to
    /// `out` each pair of `input` scaled by `1 / scale`, mapped to its grid
    /// values and multiplied by `scale`. AVX2 maps eight pairs per step and
    /// sends the last `input.len() % 16` values through the scalar loop.
    pub(crate) fn fake_quant_into(&self, input: &[f32], scale: f32, out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(g) = &self.avx2 {
            // SAFETY: `avx2` is only built on a CPU that supports AVX2.
            unsafe {
                if self.grid.integer_normals {
                    x86::fake_quant_avx2::<true>(self.grid, g, input, scale, out)
                } else {
                    x86::fake_quant_avx2::<false>(self.grid, g, input, scale, out)
                }
            }
            return;
        }
        self.grid.dequantize_into(input, scale, out);
    }
}

/// Runs `score_part` over `sample`, `chunk` values at a time, until a
/// chunk leaves `live(errs)` false: the one chunk loop of every path, so
/// the scalar path runs the stop rule the AVX2 path runs.
#[inline(always)]
fn chunked(
    sample: &[f32],
    chunk: usize,
    errs: &mut [f64; SCALE_LANES],
    live: impl Fn(&[f64; SCALE_LANES]) -> bool,
    mut score_part: impl FnMut(&[f32], &mut [f64; SCALE_LANES]),
) {
    for part in sample.chunks(chunk) {
        score_part(part, errs);
        if !live(errs) {
            break;
        }
    }
}

/// `x / scale` rounded half away from zero onto the integer grid
/// `[−qmax, qmax]`: the bits of `(x / scale).round().clamp(-qmax, qmax)` for
/// a finite `x`, a positive finite `scale` and an integer `qmax` below 2³¹.
///
/// Clamping before rounding changes no result, since `qmax` is an integer,
/// and keeps the truncation in `i32` range. The stepped value is selected
/// rather than a zero step added, so a small negative value keeps the −0.0
/// that `round` gives it.
#[inline]
fn uniform_level(x: f32, scale: f32, qmax: f32) -> f32 {
    let v = (x / scale).clamp(-qmax, qmax);
    let t = (v as i32 as f32).copysign(v);
    if (v - t).abs() >= 0.5 {
        t + 1f32.copysign(v)
    } else {
        t
    }
}

/// Scores every candidate of a symmetric uniform scale search in one pass
/// over `data` on the dispatched path: `errs[k]` becomes the sum of
/// squared errors `x − level·scales[k]` over `data`, where `level` is `x`
/// divided by `scales[k]`, rounded half away from zero and clamped to
/// ±`qmax` (an integer below 2³¹). Each error is formed in f32, widened to
/// f64 and squared, and added in element order with a separate multiply
/// and add, so `errs[k] / data.len()` has the bits `Tensor::mse` gives the
/// tensor fake-quantized at `scales[k]`. Exact for finite `data` and
/// positive finite scales.
///
/// Every path vectorises across candidates, never across elements, so the
/// paths agree bit for bit.
pub fn score_uniform_candidates(
    data: &[f32],
    scales: &[f32; CANDIDATE_BLOCK],
    qmax: f32,
    errs: &mut [f64; CANDIDATE_BLOCK],
) {
    match resolve_path() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve_path` returns AVX2 only when the CPU supports it.
        SimdPath::Avx2 => unsafe { x86::score_uniform_candidates_avx2(data, scales, qmax, errs) },
        _ => {
            for &x in data {
                for (err, &scale) in errs.iter_mut().zip(scales) {
                    let d = (x - uniform_level(x, scale, qmax) * scale) as f64;
                    *err += d * d;
                }
            }
        }
    }
}

/// Writes the uniform fake quantization of `input` at `scale` to `out` on
/// the dispatched path: `level·scale` per value, with `level` as in
/// [`score_uniform_candidates`]. Bit for bit
/// `(x / scale).round().clamp(-qmax, qmax) * scale` for finite `input`
/// and a positive finite `scale`, −0.0 included.
///
/// # Panics
///
/// Panics if `input` and `out` differ in length.
pub fn uniform_fake_quant_into(input: &[f32], scale: f32, qmax: f32, out: &mut [f32]) {
    assert_eq!(
        input.len(),
        out.len(),
        "uniform_fake_quant_into: input and output lengths differ"
    );
    match resolve_path() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve_path` returns AVX2 only when the CPU supports it.
        SimdPath::Avx2 => unsafe { x86::uniform_fake_quant_avx2(input, scale, qmax, out) },
        _ => {
            for (o, &x) in out.iter_mut().zip(input) {
                *o = uniform_level(x, scale, qmax) * scale;
            }
        }
    }
}

/// GELU (tanh approximation) of every value of `xs`, in place, on the
/// dispatched path: bit for bit [`gelu_scalar`] of each value, which is
/// what [`olive_tensor::matmul::gelu`] computes.
pub fn gelu_in_place(xs: &mut [f32]) {
    match resolve_path() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve_path` returns AVX2 only when the CPU supports it.
        SimdPath::Avx2 => unsafe { x86::gelu_avx2(xs) },
        _ => xs.iter_mut().for_each(|v| *v = gelu_scalar(*v)),
    }
}

/// `C = A × B` on the dispatched path: bit for bit
/// [`olive_tensor::matmul::matmul`], which is the scalar path. `a` is
/// `[m, k]`, `b` is `[k, n]` and zero-sized operands are valid.
///
/// Every output element starts at +0.0 and adds `a·b` for `k` ascending,
/// skipping a zero activation, as the reference does; AVX2 keeps a 4 × 16
/// block of outputs in registers across all of `k`. The rows are sharded
/// over the pool by the reference's [`olive_tensor::matmul::gemm_rows`],
/// so the bits do not depend on the thread count either.
///
/// # Panics
///
/// Panics if the inner dimensions do not match or an input is not rank-2.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    match resolve_path() {
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 => {
            let (m, k) = (a.rows(), a.cols());
            let (kb, n) = (b.rows(), b.cols());
            assert_eq!(k, kb, "matmul inner dimensions mismatch: {} vs {}", k, kb);
            let (ad, bd) = (a.data(), b.data());
            // SAFETY: `resolve_path` returns AVX2 only when the CPU supports it.
            olive_tensor::matmul::gemm_rows(m, k, n, |rows, out| unsafe {
                x86::matmul_avx2(ad, bd, k, n, rows, out)
            })
        }
        _ => olive_tensor::matmul::matmul(a, b),
    }
}

/// `C = A × Bᵀ` on the dispatched path: bit for bit
/// [`olive_tensor::matmul::matmul_transpose_b`], which is the scalar path.
/// `a` is `[m, k]`, `b` is `[n, k]` and zero-sized operands are valid.
///
/// Every output element is one dot product from +0.0 in ascending `k`
/// order; AVX2 holds eight of them in the lanes of one register and
/// transposes `b` in 8 × 8 tiles in registers, with no copy of `b`.
///
/// # Panics
///
/// Panics if the inner dimensions do not match or an input is not rank-2.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Tensor {
    match resolve_path() {
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 => {
            let (m, k) = (a.rows(), a.cols());
            let (n, kb) = (b.rows(), b.cols());
            assert_eq!(k, kb, "matmul_transpose_b inner dimensions mismatch");
            let (ad, bd) = (a.data(), b.data());
            // SAFETY: `resolve_path` returns AVX2 only when the CPU supports it.
            olive_tensor::matmul::gemm_rows(m, k, n, |rows, out| unsafe {
                x86::matmul_transpose_b_avx2(ad, bd, k, n, rows, out)
            })
        }
        _ => olive_tensor::matmul::matmul_transpose_b(a, b),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The intrinsic kernels. `#[target_feature]` makes each function compile
    //! for its ISA regardless of build flags; callers must (and do) prove the
    //! feature is present at runtime before invoking them.
    use super::{chunked, uniform_level, Candidates, CANDIDATE_BLOCK, SCALE_LANES};
    use crate::quantizer::FourBitGrid;
    use olive_tensor::libm::{
        EXPM1_HALF_LN2, EXPM1_Q, EXPM1_THREE_HALVES_LN2, EXPM1_TINY, INV_LN2, LN2_HI, LN2_LO,
        TANH_HUGE, TANH_ONE, TANH_TINY,
    };
    use olive_tensor::matmul::{gelu_scalar, GELU_CUBIC, GELU_SQRT_2_OVER_PI};
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// A [`FourBitGrid`] broadcast across eight lanes.
    #[derive(Clone, Copy)]
    pub struct Grid8 {
        sign: __m256,
        normal_max: __m256,
        half: __m256,
        one: __m256,
        normal_cuts: [__m256; 7],
        normal_mags: __m256,
        outlier_cuts: [__m256; 6],
        outlier_mags: __m256,
    }

    impl Grid8 {
        /// # Safety
        /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
        #[target_feature(enable = "avx2")]
        pub unsafe fn new(grid: &FourBitGrid) -> Grid8 {
            Grid8 {
                sign: _mm256_set1_ps(-0.0),
                normal_max: _mm256_set1_ps(grid.normal_max),
                half: _mm256_set1_ps(0.5),
                one: _mm256_set1_ps(1.0),
                normal_cuts: grid.normal_cuts.map(|c| _mm256_set1_ps(c)),
                normal_mags: _mm256_loadu_ps(grid.normal_mags.as_ptr()),
                outlier_cuts: grid.outlier_cuts.map(|c| _mm256_set1_ps(c)),
                outlier_mags: _mm256_loadu_ps(grid.outlier_mags.as_ptr()),
            }
        }
    }

    /// `mags[k]` per lane, where `k` counts the `cuts` at or below `a`.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lookup<const N: usize>(a: __m256, cuts: &[__m256; N], mags: __m256) -> __m256 {
        let mut k = _mm256_setzero_si256();
        for &cut in cuts {
            // A true compare is all ones, i.e. -1.
            k = _mm256_sub_epi32(k, _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(a, cut)));
        }
        _mm256_permutevar8x32_ps(mags, k)
    }

    /// Normal magnitudes of `a`; `INTEGER` rounds half away from zero by
    /// truncating and adding one when the fraction is at least one half.
    /// Lanes above the normal range yield garbage the caller discards.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn normal<const INTEGER: bool>(a: __m256, g: &Grid8) -> __m256 {
        if INTEGER {
            let t = _mm256_cvtepi32_ps(_mm256_cvttps_epi32(a));
            let up = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_sub_ps(a, t), g.half);
            _mm256_add_ps(t, _mm256_and_ps(up, g.one))
        } else {
            lookup(a, &g.normal_cuts, g.normal_mags)
        }
    }

    /// `acc_lo:acc_hi += (d as f64)²` lane by lane, as a multiply then an
    /// add (never fused).
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add_square(acc: &mut [__m256d; 2], d: __m256) {
        let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(d));
        let hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(d));
        acc[0] = _mm256_add_pd(acc[0], _mm256_mul_pd(lo, lo));
        acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(hi, hi));
    }

    /// The lane form of `FourBitGrid::pair`: the grid values of the
    /// scale-normalised pairs `(v1, v2)`, lane by lane, signed but before
    /// its `+ 0.0` (a small negative value yields −0.0).
    ///
    /// When no lane holds an outlier (`max(|v1|, |v2|) > normal_max`), the
    /// outlier masks, the E2M1 lookup and both blends are skipped: they
    /// would select the normal magnitudes in every lane.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn grid_pair<const INTEGER: bool>(
        v1: __m256,
        v2: __m256,
        g: &Grid8,
    ) -> (__m256, __m256) {
        let a1 = _mm256_andnot_ps(g.sign, v1);
        let a2 = _mm256_andnot_ps(g.sign, v2);
        let n1 = normal::<INTEGER>(a1, g);
        let n2 = normal::<INTEGER>(a2, g);
        let larger = _mm256_max_ps(a1, a2);
        let (m1, m2) = if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(larger, g.normal_max)) == 0
        {
            (n1, n2)
        } else {
            // Algorithm 1: the larger outlier keeps its slot (the left one
            // on a tie) and its partner becomes the victim.
            let left = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GT_OQ>(a1, g.normal_max),
                _mm256_cmp_ps::<_CMP_GE_OQ>(a1, a2),
            );
            let right = _mm256_andnot_ps(left, _mm256_cmp_ps::<_CMP_GT_OQ>(a2, g.normal_max));
            let outlier = lookup(larger, &g.outlier_cuts, g.outlier_mags);
            (
                _mm256_blendv_ps(_mm256_andnot_ps(right, n1), outlier, left),
                _mm256_blendv_ps(_mm256_andnot_ps(left, n2), outlier, right),
            )
        };
        (
            _mm256_or_ps(m1, _mm256_and_ps(v1, g.sign)),
            _mm256_or_ps(m2, _mm256_and_ps(v2, g.sign)),
        )
    }

    /// One pair `(x0, x1)` scored at eight candidates: [`grid_pair`]
    /// followed by the error update. `SECOND` is false for the unpaired
    /// last element of an odd-length sample, whose partner is `+0.0` and
    /// scores nothing.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn score_pair<const INTEGER: bool, const SECOND: bool>(
        x0: __m256,
        x1: __m256,
        scale: __m256,
        inv: __m256,
        g: &Grid8,
        acc: &mut [__m256d; 2],
    ) {
        let (g1, g2) = grid_pair::<INTEGER>(_mm256_mul_ps(x0, inv), _mm256_mul_ps(x1, inv), g);
        add_square(acc, _mm256_sub_ps(_mm256_mul_ps(g1, scale), x0));
        if SECOND {
            add_square(acc, _mm256_sub_ps(_mm256_mul_ps(g2, scale), x1));
        }
    }

    /// The AVX2 form of `OvpKernel::score` over all eight lanes: one f32
    /// vector of candidates and two f64 vectors of error sums, which stay
    /// in registers across chunks and are stored to `errs` after each.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn score_avx2<const INTEGER: bool>(
        sample: &[f32],
        chunk: usize,
        cands: &Candidates,
        g: &Grid8,
        errs: &mut [f64; SCALE_LANES],
        live: impl Fn(&[f64; SCALE_LANES]) -> bool,
    ) {
        let scale = _mm256_loadu_ps(cands.scales.as_ptr());
        let inv = _mm256_loadu_ps(cands.invs.as_ptr());
        let mut acc = [
            _mm256_loadu_pd(errs.as_ptr()),
            _mm256_loadu_pd(errs[4..].as_ptr()),
        ];
        chunked(sample, chunk, errs, live, |part, errs| {
            let mut pairs = part.chunks_exact(2);
            for pair in &mut pairs {
                let x0 = _mm256_set1_ps(pair[0]);
                let x1 = _mm256_set1_ps(pair[1]);
                score_pair::<INTEGER, true>(x0, x1, scale, inv, g, &mut acc);
            }
            if let [last] = *pairs.remainder() {
                let x0 = _mm256_set1_ps(last);
                score_pair::<INTEGER, false>(x0, _mm256_setzero_ps(), scale, inv, g, &mut acc);
            }
            _mm256_storeu_pd(errs.as_mut_ptr(), acc[0]);
            _mm256_storeu_pd(errs[4..].as_mut_ptr(), acc[1]);
        });
    }

    /// The AVX2 form of `OvpKernel::fake_quant_into`, eight pairs per step:
    /// sixteen values are split into their pairs' first and second members
    /// (in the same lane order per 128-bit half), scaled by `1 / scale`,
    /// mapped by [`grid_pair`], made `+ 0.0` as `FourBitGrid::pair` does,
    /// multiplied by `scale` and interleaved back. The last
    /// `input.len() % 16` values go through `FourBitGrid::dequantize_into`.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fake_quant_avx2<const INTEGER: bool>(
        grid: &FourBitGrid,
        g: &Grid8,
        input: &[f32],
        scale: f32,
        out: &mut [f32],
    ) {
        let s = _mm256_set1_ps(scale);
        let inv = _mm256_set1_ps(1.0 / scale);
        let zero = _mm256_setzero_ps();
        let mut xs = input.chunks_exact(16);
        let mut os = out.chunks_exact_mut(16);
        for (x, o) in (&mut xs).zip(&mut os) {
            let lo = _mm256_loadu_ps(x.as_ptr());
            let hi = _mm256_loadu_ps(x[8..].as_ptr());
            let v1 = _mm256_mul_ps(_mm256_shuffle_ps::<0x88>(lo, hi), inv);
            let v2 = _mm256_mul_ps(_mm256_shuffle_ps::<0xDD>(lo, hi), inv);
            let (g1, g2) = grid_pair::<INTEGER>(v1, v2, g);
            let g1 = _mm256_mul_ps(_mm256_add_ps(g1, zero), s);
            let g2 = _mm256_mul_ps(_mm256_add_ps(g2, zero), s);
            _mm256_storeu_ps(o.as_mut_ptr(), _mm256_unpacklo_ps(g1, g2));
            _mm256_storeu_ps(o[8..].as_mut_ptr(), _mm256_unpackhi_ps(g1, g2));
        }
        grid.dequantize_into(xs.remainder(), scale, os.into_remainder());
    }

    /// `uniform_level` lane by lane: divide, clamp to `[lo, hi]`
    /// (±`qmax`), truncate, and select the value stepped away from zero
    /// where the dropped fraction is at least one half. Selecting, not
    /// adding a masked step, keeps a truncated −0.0 negative.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn uniform_level8(x: __m256, scale: __m256, lo: __m256, hi: __m256) -> __m256 {
        let sign = _mm256_set1_ps(-0.0);
        let v = _mm256_max_ps(_mm256_min_ps(_mm256_div_ps(x, scale), hi), lo);
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(v);
        let up = _mm256_cmp_ps::<_CMP_GE_OQ>(
            _mm256_andnot_ps(sign, _mm256_sub_ps(v, t)),
            _mm256_set1_ps(0.5),
        );
        let step = _mm256_or_ps(_mm256_set1_ps(1.0), _mm256_and_ps(v, sign));
        _mm256_blendv_ps(t, _mm256_add_ps(t, step), up)
    }

    /// The AVX2 form of `score_uniform_candidates`: three f32 vectors of
    /// candidates, six f64 vectors of error sums, one pass over `data`.
    ///
    /// Negating `x` negates its level and its error exactly, so the lanes
    /// score `|x|`: the clamp needs only its upper bound, and the step away
    /// from zero is a masked +1, which cannot meet a −0.0.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn score_uniform_candidates_avx2(
        data: &[f32],
        scales: &[f32; CANDIDATE_BLOCK],
        qmax: f32,
        errs: &mut [f64; CANDIDATE_BLOCK],
    ) {
        let top = _mm256_set1_ps(qmax);
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let mut scale = [_mm256_setzero_ps(); 3];
        for (j, s) in scale.iter_mut().enumerate() {
            *s = _mm256_loadu_ps(scales[8 * j..].as_ptr());
        }
        let mut acc = [[_mm256_setzero_pd(); 2]; 3];
        for &x in data {
            let a = _mm256_set1_ps(x.abs());
            for (acc, &s) in acc.iter_mut().zip(&scale) {
                let v = _mm256_min_ps(_mm256_div_ps(a, s), top);
                let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(v);
                let up = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_sub_ps(v, t), half);
                let level = _mm256_add_ps(t, _mm256_and_ps(up, one));
                add_square(acc, _mm256_sub_ps(a, _mm256_mul_ps(level, s)));
            }
        }
        for (j, halves) in acc.iter().enumerate() {
            _mm256_storeu_pd(errs[8 * j..].as_mut_ptr(), halves[0]);
            _mm256_storeu_pd(errs[8 * j + 4..].as_mut_ptr(), halves[1]);
        }
    }

    /// The AVX2 form of `uniform_fake_quant_into`, eight values at a time;
    /// the last `input.len() % 8` go through `uniform_level`.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn uniform_fake_quant_avx2(input: &[f32], scale: f32, qmax: f32, out: &mut [f32]) {
        let (lo, hi) = (_mm256_set1_ps(-qmax), _mm256_set1_ps(qmax));
        let s = _mm256_set1_ps(scale);
        let mut xs = input.chunks_exact(8);
        let mut os = out.chunks_exact_mut(8);
        for (x, o) in (&mut xs).zip(&mut os) {
            let level = uniform_level8(_mm256_loadu_ps(x.as_ptr()), s, lo, hi);
            _mm256_storeu_ps(o.as_mut_ptr(), _mm256_mul_ps(level, s));
        }
        for (o, &x) in os.into_remainder().iter_mut().zip(xs.remainder()) {
            *o = uniform_level(x, scale, qmax) * scale;
        }
    }

    /// `if mask { a } else { b }`, lane by lane.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pick(mask: __m256, a: __m256, b: __m256) -> __m256 {
        _mm256_blendv_ps(b, a, mask)
    }

    /// `y·2ᵏ` lane by lane, by adding `k` to the exponent bits.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn scale(y: __m256, k: __m256i) -> __m256 {
        _mm256_castsi256_ps(_mm256_add_epi32(
            _mm256_castps_si256(y),
            _mm256_slli_epi32::<23>(k),
        ))
    }

    /// `olive_tensor::libm`'s `expm1f` lane by lane, over the arguments
    /// `tanh8` passes it. Every branch is computed and the lanes pick
    /// theirs; the reduction's `k = ±1` and `k = 0` cases are the general
    /// `x − k·LN2_HI`, `k·LN2_LO` at that `k`, which is exact.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn expm1_8(x: __m256) -> __m256 {
        let set = |v: f32| _mm256_set1_ps(v);
        let seti = |v: i32| _mm256_set1_epi32(v);
        let one = set(1.0);
        let half = set(0.5);
        let sign = _mm256_and_ps(x, set(-0.0));
        let ax = _mm256_andnot_ps(set(-0.0), x);

        // k: 0 up to ½·ln2, ±1 below 1.5·ln2, else trunc(x/ln2 ± ½).
        let reduce = _mm256_cmp_ps::<_CMP_GT_OQ>(ax, set(EXPM1_HALF_LN2));
        let near = _mm256_cmp_ps::<_CMP_LT_OQ>(ax, set(EXPM1_THREE_HALVES_LN2));
        let signed_half = _mm256_or_ps(half, sign);
        let far_k = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(set(INV_LN2), x), signed_half));
        let near_k = _mm256_cvtps_epi32(_mm256_or_ps(one, sign));
        let k = _mm256_castps_si256(pick(
            near,
            _mm256_castsi256_ps(near_k),
            _mm256_castsi256_ps(far_k),
        ));
        let k = _mm256_and_si256(k, _mm256_castps_si256(reduce));
        let kf = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(x, _mm256_mul_ps(kf, set(LN2_HI)));
        let lo = _mm256_mul_ps(kf, set(LN2_LO));
        let r = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

        let [q1, q2, q3, q4, q5] = EXPM1_Q;
        let hfx = _mm256_mul_ps(half, r);
        let hxs = _mm256_mul_ps(r, hfx);
        let mut p = _mm256_add_ps(set(q4), _mm256_mul_ps(hxs, set(q5)));
        for q in [q3, q2, q1] {
            p = _mm256_add_ps(set(q), _mm256_mul_ps(hxs, p));
        }
        let r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, p));
        let t = _mm256_sub_ps(set(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, t),
                _mm256_sub_ps(set(6.0), _mm256_mul_ps(r, t)),
            ),
        );
        let at_k0 = _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));

        let e = _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c), hxs);
        let at_km1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(r, e)), half);
        // k ≤ −2 or k > 56: 2ᵏ·(1 − (e − r)) − 1.
        let wide = _mm256_castsi256_ps(_mm256_or_si256(
            _mm256_cmpgt_epi32(seti(-1), k),
            _mm256_cmpgt_epi32(k, seti(56)),
        ));
        // k < 23: 2ᵏ·((1 − 2⁻ᵏ) − (e − r)).
        let one_less = _mm256_castsi256_ps(_mm256_sub_epi32(
            seti(0x3f80_0000),
            _mm256_srlv_epi32(seti(0x0100_0000), k),
        ));
        let y = _mm256_sub_ps(pick(wide, one, one_less), _mm256_sub_ps(e, r));
        // 23 ≤ k ≤ 56: 2ᵏ·((r − (e + 2⁻ᵏ)) + 1).
        let two_to_minus_k =
            _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(seti(0x7f), k)));
        let y_mid = _mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(e, two_to_minus_k)), one);
        let mid = _mm256_andnot_ps(wide, _mm256_castsi256_ps(_mm256_cmpgt_epi32(k, seti(22))));
        let y = scale(pick(mid, y_mid, y), k);
        let y = pick(wide, _mm256_sub_ps(y, one), y);

        let k_is = |v: i32| _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, seti(v)));
        let y = pick(k_is(-1), at_km1, y);
        let y = pick(k_is(0), at_k0, y);
        pick(_mm256_cmp_ps::<_CMP_LT_OQ>(ax, set(EXPM1_TINY)), x, y)
    }

    /// `olive_tensor::libm::tanhf` lane by lane, for finite `u`.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tanh8(u: __m256) -> __m256 {
        let set = |v: f32| _mm256_set1_ps(v);
        let one = set(1.0);
        let two = set(2.0);
        let sign = set(-0.0);
        let au = _mm256_andnot_ps(sign, u);
        // From 1: z = 1 − 2/(t + 2) with t = expm1(2|u|); below it,
        // z = −t/(t + 2) with t = expm1(−2|u|).
        let big = _mm256_cmp_ps::<_CMP_GE_OQ>(au, set(TANH_ONE));
        let twice = _mm256_mul_ps(two, au);
        let t = expm1_8(pick(big, twice, _mm256_xor_ps(twice, sign)));
        let q = _mm256_div_ps(
            pick(big, two, _mm256_xor_ps(t, sign)),
            _mm256_add_ps(t, two),
        );
        let z = pick(big, _mm256_sub_ps(one, q), q);
        let z = pick(_mm256_cmp_ps::<_CMP_GE_OQ>(au, set(TANH_HUGE)), one, z);
        // `z` is positive, so or-ing in `u`'s sign is fdlibm's `u < 0 ? -z : z`.
        let z = _mm256_or_ps(z, _mm256_and_ps(u, sign));
        let tiny = _mm256_mul_ps(u, _mm256_add_ps(one, u));
        pick(_mm256_cmp_ps::<_CMP_LT_OQ>(au, set(TANH_TINY)), tiny, z)
    }

    /// The AVX2 form of `gelu_scalar` over `xs`, eight values at a time. A
    /// chunk in which any `u = √(2/π)·(v + 0.044715·v³)` is not finite, and
    /// the last `xs.len() % 8` values, go through `gelu_scalar` itself.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gelu_avx2(xs: &mut [f32]) {
        let set = |v: f32| _mm256_set1_ps(v);
        let mut chunks = xs.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let v = _mm256_loadu_ps(chunk.as_ptr());
            let v3 = _mm256_mul_ps(_mm256_mul_ps(v, v), v);
            let u = _mm256_mul_ps(
                set(GELU_SQRT_2_OVER_PI),
                _mm256_add_ps(v, _mm256_mul_ps(set(GELU_CUBIC), v3)),
            );
            // Not less than ∞ means ±∞ or NaN.
            let au = _mm256_andnot_ps(set(-0.0), u);
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NLT_UQ>(au, set(f32::INFINITY))) != 0 {
                chunk.iter_mut().for_each(|v| *v = gelu_scalar(*v));
                continue;
            }
            let g = _mm256_mul_ps(
                _mm256_mul_ps(set(0.5), v),
                _mm256_add_ps(set(1.0), tanh8(u)),
            );
            _mm256_storeu_ps(chunk.as_mut_ptr(), g);
        }
        for v in chunks.into_remainder() {
            *v = gelu_scalar(*v);
        }
    }

    /// Rows `rows` of `C = A × B` into `out`, which holds exactly those
    /// rows; `ad` is `[m, k]` and `bd` `[k, n]`, row-major. Columns go in
    /// tiles of 16, then one of 8, then the scalar loop for the last
    /// `n % 8`; rows in blocks of 4, then one block of the 1–3 left.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`; the
    /// operand lengths are checked here.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matmul_avx2(
        ad: &[f32],
        bd: &[f32],
        k: usize,
        n: usize,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        let m = rows.len();
        let a_rows = &ad[rows.start * k..rows.end * k];
        assert!(bd.len() == k * n && out.len() == m * n);
        let (a, c) = (a_rows.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while n - j >= 16 {
            row_blocks::<2>(a, m, k, bd.as_ptr().add(j), n, c.add(j));
            j += 16;
        }
        if n - j >= 8 {
            row_blocks::<1>(a, m, k, bd.as_ptr().add(j), n, c.add(j));
            j += 8;
        }
        for (ri, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
            let arow = &a_rows[ri * k..][..k];
            for (jj, o) in orow.iter_mut().enumerate().skip(j) {
                let mut acc = 0.0f32;
                for (kk, &av) in arow.iter().enumerate() {
                    if av != 0.0 {
                        acc += av * bd[kk * n + jj];
                    }
                }
                *o = acc;
            }
        }
    }

    /// Columns `0..8·V` of `C` (at `c`, row stride `n`) for all `m` rows
    /// of `A` (at `a`, row stride `k`), from `B`'s columns at `b`:
    /// [`row_block`]s of 4 rows, then one of the 1–3 left.
    ///
    /// # Safety
    /// Caller must have verified AVX2 and that every row and column read
    /// or written is in bounds.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn row_blocks<const V: usize>(
        a: *const f32,
        m: usize,
        k: usize,
        b: *const f32,
        n: usize,
        c: *mut f32,
    ) {
        let mut i = 0;
        while m - i >= 4 {
            row_block::<4, V>(a.add(i * k), k, b, n, c.add(i * n));
            i += 4;
        }
        match m - i {
            3 => row_block::<3, V>(a.add(i * k), k, b, n, c.add(i * n)),
            2 => row_block::<2, V>(a.add(i * k), k, b, n, c.add(i * n)),
            1 => row_block::<1, V>(a.add(i * k), k, b, n, c.add(i * n)),
            _ => {}
        }
    }

    /// An `R × 8V` block of `C`, held in `R·V` registers across all of
    /// `k`. Each lane adds `a·b` for `k` ascending, a multiply then an add
    /// (never fused), and drops the product where `a` is ±0.0, which the
    /// reference skips: and-not with the `a == 0` mask leaves +0.0, and
    /// adding +0.0 to an accumulator that starts at +0.0 changes nothing
    /// (it never becomes −0.0). Multiplying by the mask instead would not
    /// do, since `0·∞` is NaN.
    ///
    /// # Safety
    /// As [`row_blocks`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn row_block<const R: usize, const V: usize>(
        a: *const f32,
        k: usize,
        b: *const f32,
        n: usize,
        c: *mut f32,
    ) {
        let zero = _mm256_setzero_ps();
        let mut acc = [[zero; V]; R];
        for kk in 0..k {
            let mut bv = [zero; V];
            for (v, bv) in bv.iter_mut().enumerate() {
                *bv = _mm256_loadu_ps(b.add(kk * n + 8 * v));
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.add(r * k + kk));
                let skip = _mm256_cmp_ps::<_CMP_EQ_OQ>(av, zero);
                for (acc, &bv) in acc.iter_mut().zip(&bv) {
                    let product = _mm256_andnot_ps(skip, _mm256_mul_ps(av, bv));
                    *acc = _mm256_add_ps(*acc, product);
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (v, &acc) in acc.iter().enumerate() {
                _mm256_storeu_ps(c.add(r * n + 8 * v), acc);
            }
        }
    }

    /// Rows `rows` of `C = A × Bᵀ` into `out`, which holds exactly those
    /// rows; `ad` is `[m, k]` and `bd` `[n, k]`, row-major. Outputs go
    /// eight to a register, in blocks of up to 4 rows; the last `n % 8`
    /// of each row run the scalar loop.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`; the
    /// operand lengths are checked here.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matmul_transpose_b_avx2(
        ad: &[f32],
        bd: &[f32],
        k: usize,
        n: usize,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        let m = rows.len();
        let a_rows = &ad[rows.start * k..rows.end * k];
        assert!(bd.len() == n * k && out.len() == m * n);
        let (a, c) = (a_rows.as_ptr(), out.as_mut_ptr());
        let n8 = n - n % 8;
        for j in (0..n8).step_by(8) {
            let b = bd.as_ptr().add(j * k);
            let mut i = 0;
            while m - i >= 4 {
                dot_block::<4>(a.add(i * k), k, b, c.add(i * n + j), n);
                i += 4;
            }
            match m - i {
                3 => dot_block::<3>(a.add(i * k), k, b, c.add(i * n + j), n),
                2 => dot_block::<2>(a.add(i * k), k, b, c.add(i * n + j), n),
                1 => dot_block::<1>(a.add(i * k), k, b, c.add(i * n + j), n),
                _ => {}
            }
        }
        for (ri, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
            let arow = &a_rows[ri * k..][..k];
            for (j, o) in orow.iter_mut().enumerate().skip(n8) {
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(&bd[j * k..(j + 1) * k]) {
                    acc += av * bv;
                }
                *o = acc;
            }
        }
    }

    /// `rows[l]` becomes column `l` of the 8 × 8 tile `rows`.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        // Per 128-bit half: [r0[0], r1[0], r0[1], r1[1]], and so on.
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        // Per half: column q of rows 0–3 (s0–s3) and of rows 4–7 (s4–s7).
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }

    /// Eight outputs `C[r][j..j + 8]` (at `c`, row stride `n`) for `R`
    /// rows of `A` (at `a`, row stride `k`), from the eight rows of `B` at
    /// `b`: lane `l` of row `r`'s register is the dot product of `A` row
    /// `r` with `B` row `l`, from +0.0 with `k` ascending, a multiply then
    /// an add. `B` is transposed eight `k` at a time in registers; the
    /// last `k % 8` continue each lane's sum in scalar.
    ///
    /// # Safety
    /// Caller must have verified AVX2 and that every row read or written
    /// is in bounds.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_block<const R: usize>(
        a: *const f32,
        k: usize,
        b: *const f32,
        c: *mut f32,
        n: usize,
    ) {
        let mut acc = [_mm256_setzero_ps(); R];
        let k8 = k - k % 8;
        for k0 in (0..k8).step_by(8) {
            let mut tile = [_mm256_setzero_ps(); 8];
            for (l, row) in tile.iter_mut().enumerate() {
                *row = _mm256_loadu_ps(b.add(l * k + k0));
            }
            for (kk, &bk) in transpose8(tile).iter().enumerate() {
                for (r, acc) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*a.add(r * k + k0 + kk));
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(av, bk));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), *acc);
            for (l, lane) in lanes.iter_mut().enumerate() {
                for kk in k8..k {
                    *lane += *a.add(r * k + kk) * *b.add(l * k + kk);
                }
            }
            std::ptr::copy_nonoverlapping(lanes.as_ptr(), c.add(r * n), 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_paths() -> Vec<SimdPath> {
        [SimdPath::Scalar, SimdPath::Avx2]
            .into_iter()
            .filter(|p| p.supported())
            .collect()
    }

    /// Deterministic pseudo-random i32 in [-bound, bound].
    fn splitmix_vals(seed: u64, len: usize, bound: i32) -> Vec<i32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let span = 2 * i64::from(bound) + 1;
                ((z >> 33) as i64).rem_euclid(span) as i32 - bound
            })
            .collect()
    }

    #[test]
    fn parse_accepts_the_documented_values() {
        assert_eq!(parse_simd_env("auto"), Ok(None));
        assert_eq!(parse_simd_env(""), Ok(None));
        assert_eq!(parse_simd_env("0"), Ok(Some(SimdPath::Scalar)));
        assert_eq!(parse_simd_env("scalar"), Ok(Some(SimdPath::Scalar)));
        assert_eq!(parse_simd_env(" Avx2 "), Ok(Some(SimdPath::Avx2)));
        // No kernel has an SSE2 body, so `sse2` is rejected like any typo.
        assert!(parse_simd_env("sse2").is_err());
        assert!(parse_simd_env("fast").is_err());
        assert!(parse_simd_env("avx512").is_err());
    }

    #[test]
    fn with_simd_pins_and_restores() {
        let ambient = resolve_path();
        with_simd(Some(SimdPath::Scalar), || {
            assert_eq!(resolve_path(), SimdPath::Scalar);
            with_simd(None, || assert_eq!(resolve_path(), ambient));
            assert_eq!(resolve_path(), SimdPath::Scalar);
        });
        assert_eq!(resolve_path(), ambient);
    }

    #[test]
    fn scalar_is_always_supported() {
        assert!(SimdPath::Scalar.supported());
        // detect() must never resolve to something the CPU cannot run.
        assert!(detect().supported());
    }

    fn step(x: f32, ulps: i32) -> f32 {
        f32::from_bits(x.to_bits().wrapping_add_signed(ulps))
    }

    /// The smallest `v ≥ 0` whose GELU argument `u(v) = √(2/π)·(v + 0.044715·v³)`
    /// reaches `p(u)`, by bisection over the bits (`u` rises with `v`).
    fn preimage(p: impl Fn(f32) -> bool) -> f32 {
        use olive_tensor::matmul::{GELU_CUBIC, GELU_SQRT_2_OVER_PI};
        let u = |v: f32| GELU_SQRT_2_OVER_PI * (v + GELU_CUBIC * (v * v * v));
        let (mut lo, mut hi) = (0u32, 100f32.to_bits());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if p(u(f32::from_bits(mid))) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        f32::from_bits(lo)
    }

    /// GELU inputs: for every branch cut of `tanhf` and of the
    /// `expm1f(±2|u|)` it calls, the `v` whose `u` first reaches it, ±4
    /// ulps and of both signs; every 251st f32 between the cuts at 2⁻⁵⁵
    /// and 22, of both signs; then 2¹⁴ seeded bit patterns and 2¹⁴ seeded
    /// values in [−24, 24].
    fn gelu_inputs() -> Vec<f32> {
        use olive_tensor::libm::*;
        let k_of = |u: f32| (INV_LN2 * (2.0 * u) + 0.5) as i32;
        let cuts = [
            TANH_TINY,
            TANH_ONE,
            TANH_HUGE,
            EXPM1_TINY / 2.0,
            EXPM1_HALF_LN2 / 2.0,
            EXPM1_THREE_HALVES_LN2 / 2.0,
            f32::from_bits(0x4195_b844) / 2.0,
        ];
        let mut at: Vec<f32> = cuts.iter().map(|&cut| preimage(|u| u >= cut)).collect();
        at.extend([23, 57].map(|k| preimage(|u| k_of(u) >= k)));
        let mut xs = Vec::new();
        for &v in &at {
            for ulps in -4..=4 {
                xs.extend([step(v, ulps), -step(v, ulps)]);
            }
        }
        for bits in (at[0].to_bits()..at[2].to_bits()).step_by(251) {
            xs.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
        }
        let mut state = 0x6E1u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB) >> 32
        };
        xs.extend((0..1 << 14).map(|_| f32::from_bits(next() as u32)));
        xs.extend((0..1 << 14).map(|_| next() as f32 / 2f32.powi(32) * 48.0 - 24.0));
        xs
    }

    /// `gelu_in_place` on `path` against `gelu_scalar`, bit for bit.
    fn assert_gelu_matches(xs: &[f32], path: SimdPath) {
        let mut got = xs.to_vec();
        with_simd(Some(path), || gelu_in_place(&mut got));
        for (i, (&v, g)) in xs.iter().zip(got).enumerate() {
            let want = gelu_scalar(v);
            assert_eq!(
                g.to_bits(),
                want.to_bits(),
                "path={path} index {i}: gelu({v:e}) = {g:e}, want {want:e}"
            );
        }
    }

    #[test]
    fn gelu_in_place_matches_gelu_scalar_on_every_path() {
        let xs = gelu_inputs();
        // Chunks mixing finite values with ones whose `u` is ±∞ or NaN
        // (from v = ±∞, NaN, or v³ overflowing), in every lane.
        let mut mixed = Vec::new();
        for bad in [f32::INFINITY, -f32::INFINITY, f32::NAN, 1e13, -1e13] {
            for lane in 0..8 {
                let mut chunk: [f32; 8] = std::array::from_fn(|i| xs[i * 37]);
                chunk[lane] = bad;
                mixed.extend(chunk);
            }
        }
        for path in all_paths() {
            assert_gelu_matches(&xs, path);
            assert_gelu_matches(&mixed, path);
            // Every tail length, at every offset from a chunk boundary.
            for start in 0..8 {
                for len in 0..=17 {
                    assert_gelu_matches(&xs[start..start + len], path);
                }
            }
        }
    }

    #[test]
    #[ignore = "every f32: about two minutes in release (cargo test --release -p olive-core --lib -- --ignored)"]
    fn avx2_gelu_matches_gelu_scalar_on_every_input() {
        if !SimdPath::Avx2.supported() {
            return;
        }
        let mut differ = 0u64;
        let mut block = vec![0.0f32; 1 << 16];
        for base in (0..=u32::MAX).step_by(block.len()) {
            for (i, v) in block.iter_mut().enumerate() {
                *v = f32::from_bits(base + i as u32);
            }
            with_simd(Some(SimdPath::Avx2), || gelu_in_place(&mut block));
            for (i, g) in block.iter().enumerate() {
                let want = gelu_scalar(f32::from_bits(base + i as u32));
                differ += u64::from(g.to_bits() != want.to_bits());
            }
        }
        assert_eq!(differ, 0, "inputs where the AVX2 and scalar GELU differ");
    }

    #[test]
    fn ovp_kernels_match_round_trip_mse_and_the_codec_on_every_path_at_the_boundaries() {
        use crate::OliveQuantizer;
        use olive_dtypes::NormalDataType;
        let scales: [f32; CANDIDATE_BLOCK] = std::array::from_fn(|k| 0.3 + 0.137 * k as f32);
        let invs = scales.map(|s| 1.0 / s);
        // The x near `v / inv` whose product with `inv` lies closest to `v`
        // (`v` itself when some float reaches it).
        let preimage = |v: f32, inv: f32| {
            (-4..=4)
                .map(|s| f32::from_bits((v / inv).to_bits().wrapping_add_signed(s)))
                .min_by(|a, b| (a * inv - v).abs().total_cmp(&(b * inv - v).abs()))
                .expect("nine candidates")
        };
        for ty in [NormalDataType::Int4, NormalDataType::Flint4] {
            let grid = FourBitGrid::of(ty).expect("4-bit");
            // Every lane meets values landing on, and a few ulps around,
            // each cut and the normal/outlier boundary once scaled.
            let cuts = grid.normal_cuts.iter().chain(&grid.outlier_cuts);
            let mut values = Vec::new();
            for (i, &cut) in cuts.chain([&grid.normal_max]).enumerate() {
                for steps in -4..=4 {
                    let v = f32::from_bits(cut.to_bits().wrapping_add_signed(steps));
                    for (k, &inv) in invs.iter().enumerate() {
                        let sign = if (i + k) % 3 == 0 { -1.0 } else { 1.0 };
                        values.push(sign * preimage(v, inv));
                    }
                }
            }
            // Shuffle so normals meet outliers and outliers meet each other,
            // then add equal-magnitude outlier pairs (Algorithm 1 keeps the
            // left one) and an unpaired tail value.
            let seeds = splitmix_vals(0x5CA1E, values.len(), i32::MAX);
            let mut order: Vec<usize> = (0..values.len()).collect();
            order.sort_by_key(|&i| seeds[i]);
            let mut sample: Vec<f32> = order.iter().map(|&i| values[i]).collect();
            sample.truncate(sample.len() & !1);
            let outliers: Vec<f32> = values
                .iter()
                .zip(invs.iter().cycle())
                .filter(|&(&x, &inv)| (x * inv).abs() > 2.0 * grid.normal_max)
                .map(|(&x, _)| x)
                .collect();
            for &x in outliers.iter().step_by(5) {
                sample.extend([x, x, x, -x]);
            }
            sample.push(values[1]);
            let quant = OliveQuantizer::new(ty);
            for path in all_paths() {
                let kernel = with_simd(Some(path), || OvpKernel::new(grid));
                for (j, (scales, invs)) in scales.chunks(8).zip(invs.chunks(8)).enumerate() {
                    let cands = Candidates {
                        scales: scales.try_into().expect("eight lanes"),
                        invs: invs.try_into().expect("eight lanes"),
                        lanes: SCALE_LANES,
                    };
                    // The whole sample at once, and in chunks of 16 values,
                    // each adding to the sums the previous one left.
                    let mut whole = [0.0f64; SCALE_LANES];
                    kernel.score(&sample, usize::MAX, &cands, &mut whole, |_| true);
                    let mut parts = [0.0f64; SCALE_LANES];
                    kernel.score(&sample, 16, &cands, &mut parts, |_| true);
                    // Stopped after its first chunk, a vector holds that
                    // chunk's sums (16 values: dividing by 16 is exact).
                    let mut first = [0.0f64; SCALE_LANES];
                    kernel.score(&sample, 16, &cands, &mut first, |_| false);
                    for (k, &scale) in scales.iter().enumerate() {
                        let want = quant.round_trip_mse(&sample[..16], scale) * 16.0;
                        assert_eq!(
                            first[k].to_bits(),
                            want.to_bits(),
                            "{ty} path={path} lane={k}"
                        );
                    }
                    for (k, &scale) in scales.iter().enumerate() {
                        let want = quant.round_trip_mse(&sample, scale);
                        for errs in [whole, parts] {
                            let got = errs[k] / sample.len() as f64;
                            let lane = 8 * j + k;
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{ty} path={path} lane={lane}"
                            );
                        }
                    }
                }
                // The fake quantization at each candidate, whose cuts the
                // sample's values sit on, over the whole sample and every
                // length up to 33.
                for &scale in &scales {
                    for len in (0..=33).chain([sample.len()]) {
                        let input = &sample[..len];
                        let want = quant
                            .quantize_with_scale(&Tensor::from_slice(input), scale)
                            .dequantize();
                        let mut got = vec![f32::NAN; len];
                        kernel.fake_quant_into(input, scale, &mut got);
                        for (i, (g, w)) in got.iter().zip(want.data()).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{ty} path={path} len={len} [{i}]"
                            );
                        }
                    }
                }
            }
        }
    }
}
