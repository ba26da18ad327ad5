//! SIMD dispatch for the packed quantized GEMM kernel and the OVP scale
//! search.
//!
//! This module is the **only** place in the workspace where `unsafe` code is
//! permitted (enforced by the `no-unsafe-outside-simd` olive-lint rule; the
//! runtime pool's lifetime-erasure internals carry the one grandfathered
//! exemption in `lint.toml`). It holds two kernel families:
//!
//! * the GEMM's *axpy* step `acc[j] += a * x[j]` over `i32` accumulators.
//!   The caller (`gemm.rs`) only enters these kernels for rows whose
//!   magnitude pre-bound proves the `i32` accumulation cannot overflow, so
//!   every path — scalar, SSE2, AVX2 — produces bit-identical accumulators
//!   regardless of lane count or add order (integer addition is associative
//!   when it cannot wrap);
//! * the scale search's candidate scoring (`score_candidates`), which is
//!   floating point and stays bit-identical the other way: lanes hold
//!   candidates, never pairs, so every candidate's f64 error sum is formed
//!   by the same IEEE operations in the same order on every path.
//!
//! Dispatch order is `AVX2 > SSE2 > scalar`, resolved at runtime with
//! [`std::arch::is_x86_feature_detected!`] and overridable per process with
//! the `OLIVE_SIMD` environment variable (`0`/`scalar`, `sse2`, `avx2`, or
//! `auto`). Invalid or unsupported values are reported loudly once and fall
//! back to the scalar kernel, mirroring the `OLIVE_THREADS` contract in
//! olive-runtime: a typo must never silently change behaviour — and since
//! every path is bit-identical, falling back can only cost speed, never
//! correctness.

use crate::quantizer::FourBitGrid;
use std::cell::Cell;
use std::sync::Once;

/// Environment variable selecting the SIMD kernel: `auto` (default),
/// `0`/`scalar`, `sse2`, or `avx2`.
pub const SIMD_ENV: &str = "OLIVE_SIMD";

/// The instruction-set path the packed GEMM kernel and the scale search
/// dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// Plain Rust loops; always available, the oracle all others must match.
    Scalar,
    /// 128-bit SSE2 (baseline on `x86_64`); `i16` grids only — `i32` grids
    /// and broadcasts wider than `i16` drop to scalar element-wise code, and
    /// the scale search runs its scalar loop.
    Sse2,
    /// 256-bit AVX2, the widest path this workspace targets.
    Avx2,
}

impl SimdPath {
    /// Stable lowercase name (`scalar` / `sse2` / `avx2`) for logs and docs.
    pub fn name(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Sse2 => "sse2",
            SimdPath::Avx2 => "avx2",
        }
    }

    /// Numeric dispatch-provenance code recorded in bench `--json` output
    /// (`quantized_gemm/simd_dispatch`). Codes grow as capability *shrinks*
    /// (avx2=1, sse2=2, scalar=4) so a regression gate comparing
    /// `result > baseline * tolerance` flags a downgrade to a slower path
    /// while allowing upgrades.
    pub fn provenance_code(self) -> u64 {
        match self {
            SimdPath::Avx2 => 1,
            SimdPath::Sse2 => 2,
            SimdPath::Scalar => 4,
        }
    }

    /// Whether the current CPU can execute this path.
    pub fn supported(self) -> bool {
        match self {
            SimdPath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdPath::Sse2 => is_x86_feature_detected!("sse2"),
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

/// Widest path the current CPU supports (`AVX2 > SSE2 > scalar`).
fn detect() -> SimdPath {
    if SimdPath::Avx2.supported() {
        SimdPath::Avx2
    } else if SimdPath::Sse2.supported() {
        SimdPath::Sse2
    } else {
        SimdPath::Scalar
    }
}

/// Parses an `OLIVE_SIMD` value. `Ok(None)` means auto-detect.
pub fn parse_simd_env(raw: &str) -> Result<Option<SimdPath>, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => Ok(None),
        "0" | "scalar" => Ok(Some(SimdPath::Scalar)),
        "sse2" => Ok(Some(SimdPath::Sse2)),
        "avx2" => Ok(Some(SimdPath::Avx2)),
        _ => Err(format!(
            "invalid {SIMD_ENV}={raw:?} (expected auto, 0, scalar, sse2, or avx2)"
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
/// bit-identical. Intended for tests; processes should use `OLIVE_SIMD`.
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

/// `acc[j] += a * x[j]` over an `i16` grid row, on the given path.
///
/// The caller guarantees (via the GEMM magnitude pre-bound) that no
/// intermediate or final accumulator can leave the `i32` range, which is
/// what makes every path exact and bit-identical.
///
/// # Panics
///
/// Panics if `acc.len() != x.len()`.
pub fn axpy_i16(acc: &mut [i32], a: i32, x: &[i16], path: SimdPath) {
    assert_eq!(acc.len(), x.len(), "axpy_i16: length mismatch");
    match path {
        SimdPath::Scalar => axpy_i16_scalar(acc, a, x),
        #[cfg(target_arch = "x86_64")]
        // SSE2 has no 32-bit multiply; the 16×16→32 widening trick needs the
        // broadcast itself to fit i16 (mixed int8×int4 operands may not).
        SimdPath::Sse2 => {
            if let Ok(a16) = i16::try_from(a) {
                // SAFETY: `supported()`/`resolve_path` guaranteed SSE2 is
                // available before this path was selected.
                unsafe { x86::axpy_i16_sse2(acc, a16, x) }
            } else {
                axpy_i16_scalar(acc, a, x)
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability was established at dispatch time.
        SimdPath::Avx2 => unsafe { x86::axpy_i16_avx2(acc, a, x) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => axpy_i16_scalar(acc, a, x),
    }
}

/// `acc[j] += a * x[j]` over an `i32` grid row, on the given path.
///
/// SSE2 lacks a packed 32-bit multiply (`_mm_mullo_epi32` is SSE4.1), so the
/// `Sse2` path runs the scalar loop — still exact, still bit-identical.
///
/// # Panics
///
/// Panics if `acc.len() != x.len()`.
pub fn axpy_i32(acc: &mut [i32], a: i32, x: &[i32], path: SimdPath) {
    assert_eq!(acc.len(), x.len(), "axpy_i32: length mismatch");
    match path {
        SimdPath::Scalar | SimdPath::Sse2 => axpy_i32_scalar(acc, a, x),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 availability was established at dispatch time.
        SimdPath::Avx2 => unsafe { x86::axpy_i32_avx2(acc, a, x) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdPath::Avx2 => axpy_i32_scalar(acc, a, x),
    }
}

/// Candidate scales one pass of the OVP scale search scores: three 8-lane
/// AVX2 f32 vectors, the default search width.
pub(crate) const CANDIDATE_BLOCK: usize = 24;

/// Scores the first `lanes` candidate scales of a 4-bit OVP scale search in
/// one pass over `sample`: `errs[k]` becomes the sum of squared round-trip
/// errors at `scales[k]` (`invs[k]` is its inverse), accumulated in f64 pair
/// by pair in element order with a separate multiply and add — exactly the
/// sum `OliveQuantizer::round_trip_mse` forms. Lanes at or past `lanes` must
/// hold a finite placeholder scale; their errors are unspecified.
///
/// Every path vectorises across candidates, never across pairs, so each
/// candidate's sum is formed in the same order and the paths agree bit for
/// bit. `Sse2` runs the scalar loop.
pub(crate) fn score_candidates(
    sample: &[f32],
    scales: &[f32; CANDIDATE_BLOCK],
    invs: &[f32; CANDIDATE_BLOCK],
    lanes: usize,
    grid: &FourBitGrid,
    errs: &mut [f64; CANDIDATE_BLOCK],
    path: SimdPath,
) {
    match path {
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 => {
            // SAFETY: AVX2 availability was established at dispatch time.
            unsafe {
                if grid.integer_normals {
                    x86::score_candidates_avx2::<true>(sample, scales, invs, grid, errs)
                } else {
                    x86::score_candidates_avx2::<false>(sample, scales, invs, grid, errs)
                }
            }
        }
        _ => score_candidates_scalar(
            sample,
            &scales[..lanes],
            &invs[..lanes],
            grid,
            &mut errs[..lanes],
        ),
    }
}

fn score_candidates_scalar(
    sample: &[f32],
    scales: &[f32],
    invs: &[f32],
    grid: &FourBitGrid,
    errs: &mut [f64],
) {
    let mut pairs = sample.chunks_exact(2);
    for pair in &mut pairs {
        let (x0, x1) = (pair[0], pair[1]);
        for ((err, &scale), &inv) in errs.iter_mut().zip(scales).zip(invs) {
            let (g0, g1) = grid.pair(x0 * inv, x1 * inv);
            let d0 = (g0 * scale - x0) as f64;
            *err += d0 * d0;
            let d1 = (g1 * scale - x1) as f64;
            *err += d1 * d1;
        }
    }
    if let [x0] = *pairs.remainder() {
        for ((err, &scale), &inv) in errs.iter_mut().zip(scales).zip(invs) {
            let (g0, _) = grid.pair(x0 * inv, 0.0);
            let d0 = (g0 * scale - x0) as f64;
            *err += d0 * d0;
        }
    }
}

fn axpy_i16_scalar(acc: &mut [i32], a: i32, x: &[i16]) {
    for (o, &v) in acc.iter_mut().zip(x) {
        *o += a * i32::from(v);
    }
}

fn axpy_i32_scalar(acc: &mut [i32], a: i32, x: &[i32]) {
    for (o, &v) in acc.iter_mut().zip(x) {
        *o += a * v;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The intrinsic kernels. `#[target_feature]` makes each function compile
    //! for its ISA regardless of build flags; callers must (and do) prove the
    //! feature is present at runtime before invoking them.
    use super::CANDIDATE_BLOCK;
    use crate::quantizer::FourBitGrid;
    use std::arch::x86_64::*;

    /// A [`FourBitGrid`] broadcast across eight lanes.
    #[derive(Clone, Copy)]
    struct Grid8 {
        sign: __m256,
        normal_max: __m256,
        half: __m256,
        one: __m256,
        normal_cuts: [__m256; 7],
        normal_mags: __m256,
        outlier_cuts: [__m256; 6],
        outlier_mags: __m256,
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

    /// One pair `(x0, x1)` scored at eight candidates: the lane-wise form
    /// of `FourBitGrid::pair` followed by the error update. `SECOND` is
    /// false for the unpaired last element of an odd-length sample, whose
    /// partner is `+0.0` and scores nothing.
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
        let v1 = _mm256_mul_ps(x0, inv);
        let v2 = _mm256_mul_ps(x1, inv);
        let a1 = _mm256_andnot_ps(g.sign, v1);
        let a2 = _mm256_andnot_ps(g.sign, v2);
        // Algorithm 1: the larger outlier keeps its slot (the left one on a
        // tie) and its partner becomes the victim.
        let left = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_GT_OQ>(a1, g.normal_max),
            _mm256_cmp_ps::<_CMP_GE_OQ>(a1, a2),
        );
        let right = _mm256_andnot_ps(left, _mm256_cmp_ps::<_CMP_GT_OQ>(a2, g.normal_max));
        let outlier = lookup(_mm256_max_ps(a1, a2), &g.outlier_cuts, g.outlier_mags);
        let m1 = _mm256_blendv_ps(
            _mm256_andnot_ps(right, normal::<INTEGER>(a1, g)),
            outlier,
            left,
        );
        let g1 = _mm256_or_ps(m1, _mm256_and_ps(v1, g.sign));
        add_square(acc, _mm256_sub_ps(_mm256_mul_ps(g1, scale), x0));
        if SECOND {
            let m2 = _mm256_blendv_ps(
                _mm256_andnot_ps(left, normal::<INTEGER>(a2, g)),
                outlier,
                right,
            );
            let g2 = _mm256_or_ps(m2, _mm256_and_ps(v2, g.sign));
            add_square(acc, _mm256_sub_ps(_mm256_mul_ps(g2, scale), x1));
        }
    }

    /// The AVX2 form of `score_candidates_scalar` over all
    /// [`CANDIDATE_BLOCK`] lanes: three f32 vectors of candidates, six f64
    /// vectors of error sums, one pass over the sample.
    ///
    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn score_candidates_avx2<const INTEGER: bool>(
        sample: &[f32],
        scales: &[f32; CANDIDATE_BLOCK],
        invs: &[f32; CANDIDATE_BLOCK],
        grid: &FourBitGrid,
        errs: &mut [f64; CANDIDATE_BLOCK],
    ) {
        let mut g = Grid8 {
            sign: _mm256_set1_ps(-0.0),
            normal_max: _mm256_set1_ps(grid.normal_max),
            half: _mm256_set1_ps(0.5),
            one: _mm256_set1_ps(1.0),
            normal_cuts: [_mm256_setzero_ps(); 7],
            normal_mags: _mm256_loadu_ps(grid.normal_mags.as_ptr()),
            outlier_cuts: [_mm256_setzero_ps(); 6],
            outlier_mags: _mm256_loadu_ps(grid.outlier_mags.as_ptr()),
        };
        for (v, &c) in g.normal_cuts.iter_mut().zip(&grid.normal_cuts) {
            *v = _mm256_set1_ps(c);
        }
        for (v, &c) in g.outlier_cuts.iter_mut().zip(&grid.outlier_cuts) {
            *v = _mm256_set1_ps(c);
        }
        let mut scale = [_mm256_setzero_ps(); 3];
        let mut inv = [_mm256_setzero_ps(); 3];
        for j in 0..3 {
            scale[j] = _mm256_loadu_ps(scales[8 * j..].as_ptr());
            inv[j] = _mm256_loadu_ps(invs[8 * j..].as_ptr());
        }
        let mut acc = [[_mm256_setzero_pd(); 2]; 3];
        let mut pairs = sample.chunks_exact(2);
        for pair in &mut pairs {
            let x0 = _mm256_set1_ps(pair[0]);
            let x1 = _mm256_set1_ps(pair[1]);
            for j in 0..3 {
                score_pair::<INTEGER, true>(x0, x1, scale[j], inv[j], &g, &mut acc[j]);
            }
        }
        if let [last] = *pairs.remainder() {
            let x0 = _mm256_set1_ps(last);
            let x1 = _mm256_setzero_ps();
            for j in 0..3 {
                score_pair::<INTEGER, false>(x0, x1, scale[j], inv[j], &g, &mut acc[j]);
            }
        }
        for (j, halves) in acc.iter().enumerate() {
            _mm256_storeu_pd(errs[8 * j..].as_mut_ptr(), halves[0]);
            _mm256_storeu_pd(errs[8 * j + 4..].as_mut_ptr(), halves[1]);
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_i16_avx2(acc: &mut [i32], a: i32, x: &[i16]) {
        let n = acc.len();
        let va = _mm256_set1_epi32(a);
        let mut j = 0;
        while j + 8 <= n {
            let xv = _mm_loadu_si128(x.as_ptr().add(j) as *const __m128i);
            let prod = _mm256_mullo_epi32(_mm256_cvtepi16_epi32(xv), va);
            let cur = _mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i);
            _mm256_storeu_si256(
                acc.as_mut_ptr().add(j) as *mut __m256i,
                _mm256_add_epi32(cur, prod),
            );
            j += 8;
        }
        for jj in j..n {
            acc[jj] += a * i32::from(x[jj]);
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_i32_avx2(acc: &mut [i32], a: i32, x: &[i32]) {
        let n = acc.len();
        let va = _mm256_set1_epi32(a);
        let mut j = 0;
        while j + 8 <= n {
            let xv = _mm256_loadu_si256(x.as_ptr().add(j) as *const __m256i);
            let prod = _mm256_mullo_epi32(xv, va);
            let cur = _mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i);
            _mm256_storeu_si256(
                acc.as_mut_ptr().add(j) as *mut __m256i,
                _mm256_add_epi32(cur, prod),
            );
            j += 8;
        }
        for jj in j..n {
            acc[jj] += a * x[jj];
        }
    }

    /// 16×16→32 widening multiply-accumulate: `mullo`/`mulhi` give the low
    /// and high halves of each 32-bit product, and the unpack interleave
    /// reassembles them in lane order.
    ///
    /// # Safety
    /// Caller must have verified SSE2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "sse2")]
    pub unsafe fn axpy_i16_sse2(acc: &mut [i32], a: i16, x: &[i16]) {
        let n = acc.len();
        let va = _mm_set1_epi16(a);
        let mut j = 0;
        while j + 8 <= n {
            let xv = _mm_loadu_si128(x.as_ptr().add(j) as *const __m128i);
            let lo = _mm_mullo_epi16(xv, va);
            let hi = _mm_mulhi_epi16(xv, va);
            let p0 = _mm_unpacklo_epi16(lo, hi);
            let p1 = _mm_unpackhi_epi16(lo, hi);
            let c0 = _mm_loadu_si128(acc.as_ptr().add(j) as *const __m128i);
            let c1 = _mm_loadu_si128(acc.as_ptr().add(j + 4) as *const __m128i);
            _mm_storeu_si128(
                acc.as_mut_ptr().add(j) as *mut __m128i,
                _mm_add_epi32(c0, p0),
            );
            _mm_storeu_si128(
                acc.as_mut_ptr().add(j + 4) as *mut __m128i,
                _mm_add_epi32(c1, p1),
            );
            j += 8;
        }
        for jj in j..n {
            acc[jj] += i32::from(a) * i32::from(x[jj]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_paths() -> Vec<SimdPath> {
        [SimdPath::Scalar, SimdPath::Sse2, SimdPath::Avx2]
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
    fn axpy_i16_matches_scalar_on_every_path() {
        for len in [0, 1, 5, 7, 8, 9, 16, 31, 64, 100] {
            let x: Vec<i16> = splitmix_vals(0xA11CE ^ len as u64, len, 7_864)
                .into_iter()
                .map(|v| v as i16)
                .collect();
            for a in [-32_768i32, -96, -1, 0, 1, 3, 192, 32_768] {
                let mut want = splitmix_vals(7 * len as u64, len, 1_000_000);
                let seed = want.clone();
                axpy_i16_scalar(&mut want, a, &x);
                for path in all_paths() {
                    let mut acc = seed.clone();
                    axpy_i16(&mut acc, a, &x, path);
                    assert_eq!(acc, want, "path={path} a={a} len={len}");
                }
            }
        }
    }

    #[test]
    fn axpy_i32_matches_scalar_on_every_path() {
        for len in [0, 1, 7, 8, 9, 33, 64] {
            let x = splitmix_vals(0xB0B ^ len as u64, len, 7_864_320);
            for a in [-96i32, -1, 0, 2, 15] {
                let mut want = splitmix_vals(11 * len as u64, len, 1_000_000);
                let seed = want.clone();
                axpy_i32_scalar(&mut want, a, &x);
                for path in all_paths() {
                    let mut acc = seed.clone();
                    axpy_i32(&mut acc, a, &x, path);
                    assert_eq!(acc, want, "path={path} a={a} len={len}");
                }
            }
        }
    }

    #[test]
    fn parse_accepts_the_documented_values() {
        assert_eq!(parse_simd_env("auto"), Ok(None));
        assert_eq!(parse_simd_env(""), Ok(None));
        assert_eq!(parse_simd_env("0"), Ok(Some(SimdPath::Scalar)));
        assert_eq!(parse_simd_env("scalar"), Ok(Some(SimdPath::Scalar)));
        assert_eq!(parse_simd_env(" SSE2 "), Ok(Some(SimdPath::Sse2)));
        assert_eq!(parse_simd_env("Avx2"), Ok(Some(SimdPath::Avx2)));
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
    fn provenance_codes_order_by_capability() {
        // Slower paths get *larger* codes so the bench gate's
        // `result > baseline * tolerance` check fires on a downgrade.
        assert!(SimdPath::Avx2.provenance_code() < SimdPath::Sse2.provenance_code());
        assert!(SimdPath::Sse2.provenance_code() < SimdPath::Scalar.provenance_code());
    }

    #[test]
    fn scalar_is_always_supported() {
        assert!(SimdPath::Scalar.supported());
        // detect() must never resolve to something the CPU cannot run.
        assert!(detect().supported());
    }

    #[test]
    fn score_candidates_matches_round_trip_mse_on_every_path_at_the_boundaries() {
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
                let mut errs = [0.0f64; CANDIDATE_BLOCK];
                score_candidates(
                    &sample,
                    &scales,
                    &invs,
                    CANDIDATE_BLOCK,
                    grid,
                    &mut errs,
                    path,
                );
                for (k, &scale) in scales.iter().enumerate() {
                    let want = quant.round_trip_mse(&sample, scale);
                    let got = errs[k] / sample.len() as f64;
                    assert_eq!(got.to_bits(), want.to_bits(), "{ty} path={path} lane={k}");
                }
            }
        }
    }
}
