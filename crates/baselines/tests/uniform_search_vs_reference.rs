//! Seeded, replayable oracle suite for the one-pass uniform scale search:
//! [`UniformQuantizer::select_scale`] must return the scale bits of the
//! per-candidate loop kept as [`UniformQuantizer::reference_select_scale`],
//! and `quantize_dequantize` / `quantize_dequantize_into` must return the
//! bits (the sign of zero included) of
//! [`UniformQuantizer::fake_quant_with_scale`] at that scale. The kernels
//! are also checked one candidate at a time against `Tensor::mse` and
//! `fake_quant_with_scale`, on values placed at every candidate's rounding
//! cuts. Everything runs on the scalar and the auto-detected SIMD path, at
//! 2, 4, 8 and 16 bits.

use olive_baselines::UniformQuantizer;
use olive_core::simd::{score_uniform_candidates, uniform_fake_quant_into, CANDIDATE_BLOCK};
use olive_core::{with_simd, SimdPath, TensorQuantizer};
use olive_harness::check::{check_with, CheckConfig};
use olive_harness::prop_assert_eq;
use olive_tensor::rng::Rng;
use olive_tensor::Tensor;

/// Scalar, then the widest path this CPU supports.
const PATHS: [Option<SimdPath>; 2] = [Some(SimdPath::Scalar), None];

const BITS: [u32; 4] = [2, 4, 8, 16];

/// The served shapes: the eval's per-tensor activations (`[16, 32]`,
/// `[16, 64]`), weights (`[64, 32]`, `wqkv`'s `[32, 96]`) and decode's
/// per-row activations (`[1, 64]`, `[1, 256]`).
const SHAPES: [[usize; 2]; 6] = [[16, 32], [16, 64], [64, 32], [32, 96], [1, 64], [1, 256]];

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn label(path: Option<SimdPath>) -> &'static str {
    path.map_or("auto", SimdPath::name)
}

fn step_ulps(f: f32, steps: i32) -> f32 {
    f32::from_bits(f.to_bits().wrapping_add_signed(steps))
}

/// Asserts the fast search and both fused entry points against the
/// reference on every dispatch path.
fn assert_matches_oracle(q: &UniformQuantizer, t: &Tensor) -> Result<(), String> {
    let want_scale = q.reference_select_scale(t);
    let want = q.fake_quant_with_scale(t, want_scale);
    for path in PATHS {
        let (scale, whole, fused) = with_simd(path, || {
            let mut fused = vec![0.0f32; t.len()];
            q.quantize_dequantize_into(t.data(), &mut fused);
            (q.select_scale(t), q.quantize_dequantize(t), fused)
        });
        prop_assert_eq!(
            scale.to_bits(),
            want_scale.to_bits(),
            "{} scale diverges at simd={}: {} vs {}",
            q.name(),
            label(path),
            scale,
            want_scale
        );
        prop_assert_eq!(whole.shape(), t.shape(), "shape, simd={}", label(path));
        prop_assert_eq!(
            bits(whole.data()),
            bits(want.data()),
            "{} quantize_dequantize, simd={}",
            q.name(),
            label(path)
        );
        prop_assert_eq!(
            bits(&fused),
            bits(want.data()),
            "{} quantize_dequantize_into, simd={}",
            q.name(),
            label(path)
        );
    }
    Ok(())
}

/// A served-shape tensor: Gaussian at a random magnitude and offset, with
/// planted outliers of either sign (OliVe's motivating case), or sparse.
fn served_tensor(rng: &mut Rng) -> Tensor {
    let shape = SHAPES[rng.below(SHAPES.len())];
    let n = shape[0] * shape[1];
    let mut data = vec![0.0f32; n];
    let sigma = 10f64.powf(rng.uniform_range(-4.0, 4.0));
    if rng.below(5) == 0 {
        for _ in 0..(n / 16).max(1) {
            data[rng.below(n)] = (sigma * rng.uniform_range(-3.0, 3.0)) as f32;
        }
    } else {
        let mean = rng.uniform_range(-0.5, 0.5) * sigma;
        rng.fill_normal(&mut data, mean, sigma);
        for _ in 0..rng.below(n / 32 + 2) {
            let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
            data[rng.below(n)] = (sign * sigma * rng.uniform_range(5.0, 200.0)) as f32;
        }
    }
    Tensor::from_vec(shape.to_vec(), data)
}

#[test]
fn served_shapes_with_outliers_are_bit_identical() {
    check_with(
        CheckConfig {
            cases: 96,
            ..CheckConfig::default()
        },
        "uniform_search_vs_reference",
        |rng| (BITS[rng.below(BITS.len())], served_tensor(rng)),
        |(b, t)| assert_matches_oracle(&UniformQuantizer::new(*b), t),
    );
}

/// ±0.0, subnormals, and magnitudes whose quotient by a small scale
/// overflows to infinity.
const EXTREMES: [f32; 8] = [0.0, -0.0, 1e-45, -1e-45, 1e-39, -3e-39, 3e38, -3e38];

fn shuffle(xs: &mut [f32], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

/// For each scale, the values whose quotient lands on each rounding cut
/// `k + ½` (k = 0, 1, 2, qmax/2, qmax − 1), on ±qmax itself and beyond it,
/// each ±4 ulps and of both signs.
fn cut_values(scales: &[f32], qmax: f32) -> Vec<f32> {
    let levels = [
        0.5,
        1.5,
        2.5,
        (qmax / 2.0).floor() + 0.5,
        qmax - 0.5,
        qmax,
        qmax + 0.5,
        qmax + 3.0,
    ];
    let mut xs = Vec::new();
    for &s in scales {
        for &level in &levels {
            let x = level * s;
            for steps in -4..=4 {
                let v = step_ulps(x, steps);
                xs.extend([v, -v]);
            }
        }
    }
    xs
}

/// Candidate scales for the kernel tests: powers of two (so some quotients
/// land exactly on the half cuts), 1 (so 0.49999997 rounds to zero), and
/// seeded magnitudes from 1e-3 to 1e3.
fn kernel_scales(rng: &mut Rng) -> [f32; CANDIDATE_BLOCK] {
    std::array::from_fn(|k| match k {
        0 => 1.0,
        1 => 0.25,
        2 => 8.0,
        3 => 2f32.powi(-20),
        _ => 10f64.powf(rng.uniform_range(-3.0, 3.0)) as f32,
    })
}

#[test]
fn every_candidate_scores_and_rounds_like_the_reference_at_the_cuts() {
    let mut rng = Rng::seed_from(0x0C07);
    for b in BITS {
        let q = UniformQuantizer::new(b);
        let qmax = q.qmax() as f32;
        let scales = kernel_scales(&mut rng);
        // One row per candidate holding its own cuts, so that its error
        // sum is made of comparable terms and a one-ulp change in any term
        // shows; then one row holding every candidate's cuts and the
        // extremes.
        let mut rows: Vec<Vec<f32>> = scales.iter().map(|&s| cut_values(&[s], qmax)).collect();
        let mut all = rows.concat();
        all.extend(EXTREMES);
        rows.push(all);
        for xs in &mut rows {
            shuffle(xs, &mut rng);
        }
        // Odd lengths leave an AVX2 tail for the scalar fallback.
        let cases = rows
            .iter()
            .flat_map(|xs| [xs.len(), xs.len() - 3, 17, 9, 1].map(|len| &xs[..len]));
        for xs in cases {
            let (t, len) = (Tensor::from_slice(xs), xs.len());
            for path in PATHS {
                let mut errs = [0.0f64; CANDIDATE_BLOCK];
                with_simd(path, || {
                    score_uniform_candidates(t.data(), &scales, qmax, &mut errs)
                });
                for (k, &s) in scales.iter().enumerate() {
                    let want_q = q.fake_quant_with_scale(&t, s);
                    let want = t.mse(&want_q);
                    let got = errs[k] / len as f64;
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "int{b} simd={} candidate {k} (scale {s:e}) len {len}: {got:e} vs {want:e}",
                        label(path)
                    );
                    let mut out = vec![0.0f32; len];
                    with_simd(path, || {
                        uniform_fake_quant_into(t.data(), s, qmax, &mut out)
                    });
                    for (i, (&o, &w)) in out.iter().zip(want_q.data()).enumerate() {
                        assert_eq!(
                            o.to_bits(),
                            w.to_bits(),
                            "int{b} simd={} scale {s:e}: x = {:e} gives {o:e}, want {w:e}",
                            label(path),
                            t[i]
                        );
                    }
                }
            }
        }
    }
}

/// The 24 scales the reference searches for a tensor whose σ and
/// `max |x|` put `3σ` above `max |x|`: the window is then `[hi/4, hi]` with
/// `hi = max |x| / qmax`, whatever else the tensor holds below `max |x|`.
fn wide_window(max_abs: f32, qmax: f32) -> [f32; 24] {
    let hi = max_abs / qmax;
    let lo = hi * 0.25;
    std::array::from_fn(|i| lo + (hi - lo) * (i as f32 / 23.0))
}

/// Values at every candidate's cuts, in tensors whose candidates are known
/// in advance: half the elements are ±M, which holds `3σ` above `max |x| =
/// M` and so fixes the window, and the planted values stay below M.
#[test]
fn values_on_every_candidates_cuts_are_bit_identical() {
    let mut rng = Rng::seed_from(0xC075);
    for b in BITS {
        let q = UniformQuantizer::new(b);
        let qmax = q.qmax() as f32;
        for max_abs in [1.0f32, 37.5, 6.1e-5] {
            let scales = wide_window(max_abs, qmax);
            let planted: Vec<f32> = cut_values(&scales, qmax)
                .into_iter()
                .filter(|x| x.abs() < max_abs)
                .collect();
            for chunk in planted.chunks(509) {
                let mut data: Vec<f32> = (0..chunk.len())
                    .map(|i| if i % 2 == 0 { max_abs } else { -max_abs })
                    .collect();
                data.extend_from_slice(chunk);
                shuffle(&mut data, &mut rng);
                let t = Tensor::from_slice(&data);
                assert_matches_oracle(&q, &t)
                    .unwrap_or_else(|e| panic!("int{b} max {max_abs}: {e}"));
            }
        }
    }
}

#[test]
fn degenerate_and_odd_rows_are_bit_identical() {
    let mut rng = Rng::seed_from(0x0DD);
    let mut rows: Vec<Vec<f32>> = vec![
        vec![],
        vec![0.0],
        vec![-0.0],
        vec![-0.0, 0.0, -0.0],
        vec![0.0; 33],
        vec![5.0; 9],
        vec![-2.5; 17],
        vec![-1e-30; 4],
        vec![1e-45, -1e-45, 3e-39, -1e-40, 0.0],
        vec![0.3, -0.3, 0.49999997, -0.49999997, 0.5, -0.5, -1e-8, 7.0],
        vec![3e38, -3e38, 1.0, 2.0],
        vec![f32::MAX, f32::MIN, f32::MAX, -0.0],
        vec![1.0, f32::NAN, -2.0],
        vec![f32::INFINITY, 1.0, -2.0, 0.5],
        vec![f32::NEG_INFINITY, -0.0, 0.25],
    ];
    // Every odd length from 1 to 17, Gaussian with an outlier.
    for n in (1..=17).step_by(2) {
        let mut row = vec![0.0f32; n];
        rng.fill_normal(&mut row, 0.0, 1.0);
        row[rng.below(n)] = -40.0;
        rows.push(row);
    }
    for b in BITS {
        let q = UniformQuantizer::new(b);
        for row in &rows {
            assert_matches_oracle(&q, &Tensor::from_slice(row))
                .unwrap_or_else(|e| panic!("int{b} {row:?}: {e}"));
        }
    }
}
