//! Seeded, replayable oracle suite for the candidate-parallel scale search:
//! [`OliveQuantizer::select_scale`] must return the same scale bits as the
//! per-candidate loop kept in-tree as
//! [`OliveQuantizer::reference_select_scale`], and the fused
//! [`OliveQuantizer::quantize_dequantize_into`] must return the same bits as
//! the packed round trip `quantize(t).dequantize()` — for all three normal
//! types, several search widths, odd and sampled lengths, planted outliers,
//! constant and zero rows, and values placed exactly on the rounding
//! boundaries, on both the scalar and the auto-detected SIMD path.

use olive_core::{with_simd, NormalType, OliveQuantizer, SimdPath};
use olive_harness::check::{check_with, CheckConfig};
use olive_harness::prop_assert_eq;
use olive_tensor::rng::Rng;
use olive_tensor::Tensor;

/// Scalar, then the widest path this CPU supports.
const PATHS: [Option<SimdPath>; 2] = [Some(SimdPath::Scalar), None];

/// Lengths around pair and vector edges, plus one longer than the search's
/// 16384-element sampled prefix.
const LENGTHS: [usize; 8] = [1, 2, 3, 63, 64, 65, 257, 16_390];

const STEPS: [usize; 4] = [1, 2, 24, 40];

fn quantizer(rng: &mut Rng) -> OliveQuantizer {
    let base = match rng.below(3) {
        0 => OliveQuantizer::int4(),
        1 => OliveQuantizer::flint4(),
        _ => OliveQuantizer::int8(),
    };
    base.with_search_steps(STEPS[rng.below(STEPS.len())])
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A row of `n` values of one of several kinds: Gaussian at a random
/// magnitude with planted outliers, constant, all zero, or sparse.
fn row(rng: &mut Rng, n: usize) -> Vec<f32> {
    let mut data = vec![0.0f32; n];
    match rng.below(6) {
        0 => data.fill(rng.uniform_range(-50.0, 50.0) as f32),
        1 => {}
        2 => {
            for _ in 0..(n / 16).max(1) {
                data[rng.below(n)] = rng.uniform_range(-3.0, 3.0) as f32;
            }
        }
        _ => {
            let sigma = 10f64.powf(rng.uniform_range(-4.0, 4.0));
            let mean = rng.uniform_range(-0.5, 0.5) * sigma;
            rng.fill_normal(&mut data, mean, sigma);
            for _ in 0..rng.below(n / 32 + 2) {
                let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
                data[rng.below(n)] = (sign * sigma * rng.uniform_range(5.0, 200.0)) as f32;
            }
        }
    }
    data
}

/// Asserts the fast search and the fused round trip against their oracles
/// on every dispatch path.
fn assert_matches_oracle(quant: &OliveQuantizer, data: &[f32]) -> Result<(), String> {
    let t = Tensor::from_vec(vec![data.len()], data.to_vec());
    let want_scale = quant.reference_select_scale(&t);
    let want = quant.quantize_with_scale(&t, want_scale).dequantize();
    for path in PATHS {
        let label = path.map_or("auto", SimdPath::name);
        let (scale, packed, fused) = with_simd(path, || {
            let mut fused = vec![0.0f32; data.len()];
            quant.quantize_dequantize_into(data, &mut fused);
            (
                quant.select_scale(&t),
                quant.quantize(&t).dequantize(),
                fused,
            )
        });
        prop_assert_eq!(
            scale.to_bits(),
            want_scale.to_bits(),
            "{} scale diverges at simd={}: {} vs {}",
            quant.normal_type(),
            label,
            scale,
            want_scale
        );
        prop_assert_eq!(
            bits(packed.data()),
            bits(want.data()),
            "packed, simd={}",
            label
        );
        prop_assert_eq!(bits(&fused), bits(want.data()), "fused, simd={}", label);
    }
    Ok(())
}

#[test]
fn fast_search_is_bit_identical_to_reference() {
    check_with(
        CheckConfig {
            cases: 160,
            ..CheckConfig::default()
        },
        "fast_search_vs_reference",
        |rng| {
            let quant = quantizer(rng);
            let n = LENGTHS[rng.below(LENGTHS.len())];
            (quant, row(rng, n))
        },
        |(quant, data)| assert_matches_oracle(quant, data),
    );
}

/// The rounding boundaries of each normal type's round trip on the
/// scale-normalised grid: the normal-range ones (rounding half-way points
/// and the normal/outlier boundary) and the outlier-range ones (the abfloat
/// cuts between adjacent outlier magnitudes).
fn boundaries(quant: &OliveQuantizer) -> (Vec<f32>, Vec<f32>) {
    match quant.normal_type() {
        NormalType::Int4 => (
            vec![0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.0],
            vec![14.0, 20.0, 28.0, 40.0, 56.0, 80.0],
        ),
        NormalType::Flint4 => (
            vec![0.5, 1.5, 2.5, 3.5, 5.0, 7.0, 12.0, 16.0],
            vec![28.0, 40.0, 56.0, 80.0, 112.0, 160.0],
        ),
        NormalType::Int8 => (vec![0.5, 63.5, 126.5, 127.0], vec![152.0, 2_000.0]),
    }
}

fn step_ulps(f: f32, steps: i32) -> f32 {
    f32::from_bits(f.to_bits().wrapping_add_signed(steps))
}

/// The `x` near `target / inv` whose `x * inv` lies closest to `target`:
/// `target` itself when reachable (with `inv > 1` only about every other
/// float is a product).
fn preimage(target: f32, inv: f32) -> f32 {
    let x = target / inv;
    (-4..=4)
        .map(|s| step_ulps(x, s))
        .min_by(|a, b| {
            (a * inv - target)
                .abs()
                .total_cmp(&(b * inv - target).abs())
        })
        .expect("nine candidates")
}

/// A Gaussian row of `len` holding `targets` (alternating in sign) at
/// distinct slots, placed so each lands on its target, or on a float
/// adjacent to it, once scaled by the row's own final scale. Planting moves
/// σ and so the scale; the row is re-planted until the scale is a fixed
/// point, which `None` reports was not reached.
fn plant(quant: &OliveQuantizer, len: usize, targets: &[f32], rng: &mut Rng) -> Option<Vec<f32>> {
    let mut data = vec![0.0f32; len];
    rng.fill_normal(&mut data, 0.0, 1.0);
    let first = rng.below(len);
    for _ in 0..40 {
        let t = Tensor::from_vec(vec![len], data.clone());
        // The scale the encode uses (`quantize_with_scale` floors it).
        let inv = 1.0 / quant.reference_select_scale(&t).max(f32::MIN_POSITIVE);
        let mut settled = true;
        for (i, &target) in targets.iter().enumerate() {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            // 7 is coprime to every length used here, so slots are distinct.
            let slot = (first + 7 * i) % len;
            let x = sign * preimage(target, inv);
            settled &= data[slot] == x;
            data[slot] = x;
        }
        if settled {
            return Some(data);
        }
    }
    None
}

/// Values at each rounding boundary ±4 ulps after scaling by the row's own
/// chosen scale. The search is one step wide: with more candidates the
/// planted boundary values move the argmin from candidate to candidate and
/// the re-planting cycles. The normal-range boundaries share a row; each
/// outlier cut gets a long row of its own, since a planted outlier moves σ
/// far more than a normal value and the long row keeps the re-planting
/// converging.
#[test]
fn boundary_values_are_bit_identical() {
    let mut rng = Rng::seed_from(0xB0DA);
    for quant in [
        OliveQuantizer::int4(),
        OliveQuantizer::flint4(),
        OliveQuantizer::int8(),
    ] {
        let quant = quant.with_search_steps(1);
        let (normal, outlier) = boundaries(&quant);
        for steps in -4..=4 {
            let targets: Vec<f32> = normal.iter().map(|&b| step_ulps(b, steps)).collect();
            let mut rows = vec![(1024, targets)];
            for &cut in &outlier {
                rows.push((4096, vec![step_ulps(cut, steps)]));
            }
            for (len, targets) in rows {
                let ty = quant.normal_type();
                let data = plant(&quant, len, &targets, &mut rng)
                    .unwrap_or_else(|| panic!("{ty} {targets:?}: no fixed point"));
                assert_matches_oracle(&quant, &data)
                    .unwrap_or_else(|e| panic!("{ty} {targets:?}: {e}"));
            }
        }
    }
}

#[test]
fn degenerate_rows_are_bit_identical() {
    let specials = [
        vec![],
        vec![0.0],
        vec![-0.0, 0.0],
        vec![5.0; 9],
        vec![-1e-30; 4],
        vec![1e-40, -1e-40, 3e-39],
        vec![3e38, -3e38, 1.0, 2.0],
        vec![f32::MAX, f32::MIN, f32::MAX],
        vec![1.0, f32::NAN, 2.0],
        vec![f32::INFINITY, 1.0, -2.0, 0.5],
    ];
    for quant in [
        OliveQuantizer::int4(),
        OliveQuantizer::flint4(),
        OliveQuantizer::int8(),
    ] {
        for steps in STEPS {
            let quant = quant.with_search_steps(steps);
            for data in &specials {
                assert_matches_oracle(&quant, data)
                    .unwrap_or_else(|e| panic!("{} {data:?}: {e}", quant.normal_type()));
            }
        }
    }
}

#[test]
fn olive_simd_env_variable_controls_dispatch() {
    // The env-var path (as opposed to the with_simd override used above):
    // OLIVE_SIMD is re-read per kernel entry, so one process can compare
    // settings, an invalid value included (it warns once and runs scalar).
    // Set and restored inside this one test to avoid env races.
    let mut rng = Rng::seed_from(0x51D);
    let quant = OliveQuantizer::int4();
    let mut data = vec![0.0f32; 257];
    rng.fill_normal(&mut data, 0.0, 1.0);
    for i in [3, 100, 256] {
        data[i] = 40.0;
    }
    let t = Tensor::from_vec(vec![257], data);
    let want_scale = quant.reference_select_scale(&t);
    let want = quant.quantize_with_scale(&t, want_scale).dequantize();

    let ambient = std::env::var_os("OLIVE_SIMD");
    for value in ["scalar", "0", "auto", "sse2"] {
        std::env::set_var("OLIVE_SIMD", value);
        let scale = quant.select_scale(&t);
        let fused = quant.quantize_dequantize(&t);
        match &ambient {
            Some(v) => std::env::set_var("OLIVE_SIMD", v),
            None => std::env::remove_var("OLIVE_SIMD"),
        }
        assert_eq!(scale.to_bits(), want_scale.to_bits(), "OLIVE_SIMD={value}");
        assert_eq!(bits(fused.data()), bits(want.data()), "OLIVE_SIMD={value}");
    }
}
