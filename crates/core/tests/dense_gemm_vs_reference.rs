//! Oracle suite for the dispatched dense GEMMs: [`simd::matmul`] and
//! [`simd::matmul_transpose_b`] must return the bits of
//! `olive_tensor::matmul`'s kernels, their scalar path and reference, on
//! every dispatch path at 1 and 8 threads.
//!
//! The shapes put row counts around the 4-row blocks, inner dimensions
//! around the 8-wide transposed tiles and column counts past the 16- and
//! 8-wide tiles. The values test the zero-activation skip and the
//! accumulation order: planted ±0.0 activations (whole columns of them
//! too), subnormals, products that overflow, and ±∞ and NaN in either
//! operand. ±0.0 count as distinct; any NaN equals any NaN, since Rust
//! does not pin NaN payloads.

use olive_core::simd;
use olive_core::{with_simd, SimdPath};
use olive_tensor::matmul as reference;
use olive_tensor::rng::Rng;
use olive_tensor::Tensor;

/// Scalar, then the widest path this CPU supports.
const PATHS: [Option<SimdPath>; 2] = [Some(SimdPath::Scalar), None];

const MS: [usize; 9] = [1, 2, 3, 4, 5, 16, 64, 128, 129];
const KS: [usize; 7] = [1, 7, 8, 9, 32, 64, 256];
/// Column counts: below, on and past the 8- and 16-wide tiles.
const NS: [usize; 10] = [1, 7, 8, 9, 15, 16, 17, 24, 33, 71];

/// Values that are not a plain Gaussian draw.
const SPECIALS: [f32; 8] = [
    1e-40,
    -3e-42,
    1e20,
    -1e20,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    -0.0,
];

/// A `[rows, cols]` operand of Gaussian values. An activation (`zeros`)
/// has about 30% of its values at ±0.0 and one whole column of them.
/// With `specials`, about one value in `4·k` is one of [`SPECIALS`], so
/// most outputs stay finite while every kind of value meets the kernels.
fn operand(
    rng: &mut Rng,
    rows: usize,
    cols: usize,
    k: usize,
    zeros: bool,
    specials: bool,
) -> Tensor {
    let mut data = vec![0.0f32; rows * cols];
    rng.fill_normal(&mut data, 0.0, 1.0);
    if zeros {
        for v in data.iter_mut() {
            if rng.chance(0.3) {
                *v = if rng.chance(0.5) { 0.0 } else { -0.0 };
            }
        }
        let column = rng.below(cols.max(1));
        for row in data.chunks_exact_mut(cols.max(1)) {
            row[column] = if rng.chance(0.5) { 0.0 } else { -0.0 };
        }
    }
    if specials {
        for v in data.iter_mut() {
            if rng.chance(1.0 / (4 * k) as f64) {
                *v = SPECIALS[rng.below(SPECIALS.len())];
            }
        }
    }
    Tensor::from_vec(vec![rows, cols], data)
}

/// Equal bits, or both NaN.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            same(g, w),
            "{what}: element {i} (row {}, col {}) is {g:e} ({:#010x}), want {w:e} ({:#010x})",
            i / want.cols().max(1),
            i % want.cols().max(1),
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Both kernels against the reference on every path at 1 and 8 threads.
fn check(m: usize, k: usize, n: usize, zeros: bool, specials: bool, rng: &mut Rng) {
    let a = operand(rng, m, k, k, zeros, specials);
    let b = operand(rng, k, n, k, false, specials);
    let bt = operand(rng, n, k, k, false, specials);
    let want = reference::matmul(&a, &b);
    let want_t = reference::matmul_transpose_b(&a, &bt);
    for threads in [1, 8] {
        for path in PATHS {
            let (got, got_t) = olive_runtime::with_threads(threads, || {
                with_simd(path, || {
                    (simd::matmul(&a, &b), simd::matmul_transpose_b(&a, &bt))
                })
            });
            let label = path.map_or("auto", SimdPath::name);
            let what = format!(
                "{m}x{k}x{n} zeros={zeros} specials={specials} threads={threads} path={label}"
            );
            assert_same(&got, &want, &format!("matmul {what}"));
            assert_same(&got_t, &want_t, &format!("matmul_transpose_b {what}"));
        }
    }
}

#[test]
fn dense_gemms_match_the_reference_bit_for_bit_on_every_path() {
    let mut rng = Rng::seed_from(0xDE45E);
    for (mi, &m) in MS.iter().enumerate() {
        for (ki, &k) in KS.iter().enumerate() {
            // Two column counts per (m, k), rotating so every count meets
            // small and large shapes.
            for n in [NS[(mi + ki) % NS.len()], NS[(mi + 3 * ki + 5) % NS.len()]] {
                for (zeros, specials) in
                    [(true, false), (true, true), (false, true), (false, false)]
                {
                    check(m, k, n, zeros, specials, &mut rng);
                }
            }
        }
    }
}

/// A zero activation meeting ±∞ or NaN in `B` is skipped by the
/// reference, so its output stays finite; multiplying it out would give
/// NaN. Every activation row here holds zeros exactly where `B` is not
/// finite, in every lane position of the 16- and 8-wide tiles and tails.
#[test]
fn zero_activations_drop_non_finite_weights() {
    for (m, k, n) in [(1, 8, 16), (4, 9, 24), (5, 16, 33), (16, 32, 71)] {
        let mut rng = Rng::seed_from((m * 1000 + k * 10 + n) as u64);
        let mut a = operand(&mut rng, m, k, k, false, false);
        let mut b = operand(&mut rng, k, n, k, false, false);
        let mut bt = operand(&mut rng, n, k, k, false, false);
        for j in 0..n {
            let kk = j % k;
            let bad = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3];
            b[[kk, j]] = bad;
            bt[[j, kk]] = bad;
        }
        for i in 0..m {
            for kk in 0..k {
                a[[i, kk]] = if (i + kk) % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let want = reference::matmul(&a, &b);
        assert!(
            want.data().iter().all(|v| *v == 0.0),
            "the reference skips them"
        );
        for path in PATHS {
            let got = with_simd(path, || simd::matmul(&a, &b));
            assert_same(&got, &want, &format!("matmul {m}x{k}x{n} path={path:?}"));
            // The transposed kernel never skips: 0·∞ is NaN there as in
            // its reference.
            let got_t = with_simd(path, || simd::matmul_transpose_b(&a, &bt));
            let want_t = reference::matmul_transpose_b(&a, &bt);
            assert_same(
                &got_t,
                &want_t,
                &format!("matmul_transpose_b {m}x{k}x{n} path={path:?}"),
            );
        }
    }
}

#[test]
fn zero_sized_products_match_the_reference() {
    for (m, k, n) in [(0, 3, 4), (2, 3, 0), (2, 0, 4), (0, 0, 0), (3, 0, 17)] {
        let a = Tensor::zeros(vec![m, k]);
        let b = Tensor::zeros(vec![k, n]);
        let bt = Tensor::zeros(vec![n, k]);
        for path in PATHS {
            let got = with_simd(path, || simd::matmul(&a, &b));
            assert_same(&got, &reference::matmul(&a, &b), &format!("{m}x{k}x{n}"));
            let got_t = with_simd(path, || simd::matmul_transpose_b(&a, &bt));
            let want_t = reference::matmul_transpose_b(&a, &bt);
            assert_same(&got_t, &want_t, &format!("transposed {m}x{k}x{n}"));
        }
    }
}

#[test]
#[should_panic(expected = "mismatch")]
fn mismatched_inner_dimensions_panic() {
    let a = Tensor::zeros(vec![2, 3]);
    let b = Tensor::zeros(vec![2, 3]);
    let _ = simd::matmul(&a, &b);
}
