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
use olive_tensor::stats::TensorStats;
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
    // 7 is coprime to every length used here, so slots are distinct.
    let placed: Vec<(usize, f32)> = (targets.iter().enumerate())
        .map(|(i, &t)| ((first + 7 * i) % len, if i % 2 == 0 { t } else { -t }))
        .collect();
    settle(quant, data, &placed)
}

/// `plant` for signed pairs: each `(v1, v2)` fills both slots of one pair
/// of an even `len`, so both members land on their targets.
fn plant_pairs(
    quant: &OliveQuantizer,
    len: usize,
    pairs: &[(f32, f32)],
    rng: &mut Rng,
) -> Option<Vec<f32>> {
    let mut data = vec![0.0f32; len];
    rng.fill_normal(&mut data, 0.0, 1.0);
    let first = rng.below(len / 2);
    let placed: Vec<(usize, f32)> = (pairs.iter().enumerate())
        .flat_map(|(i, &(v1, v2))| {
            let pair = (first + 7 * i) % (len / 2);
            [(2 * pair, v1), (2 * pair + 1, v2)]
        })
        .collect();
    settle(quant, data, &placed)
}

/// Re-plants each `(slot, signed target)` of `data` at the row's own scale
/// until that scale stops moving.
fn settle(quant: &OliveQuantizer, mut data: Vec<f32>, placed: &[(usize, f32)]) -> Option<Vec<f32>> {
    for _ in 0..40 {
        let t = Tensor::from_vec(vec![data.len()], data.clone());
        // The scale the encode uses (`quantize_with_scale` floors it).
        let inv = 1.0 / quant.reference_select_scale(&t).max(f32::MIN_POSITIVE);
        let mut settled = true;
        for &(slot, target) in placed {
            let x = preimage(target.abs(), inv).copysign(target);
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

/// The four sign combinations of a pair, cycled by `i`.
fn signed(i: usize, (v1, v2): (f32, f32)) -> (f32, f32) {
    match i % 4 {
        0 => (v1, v2),
        1 => (v1, -v2),
        2 => (-v1, v2),
        _ => (-v1, -v2),
    }
}

/// Both members of a pair on the rounding boundaries ±4 ulps at the row's
/// own scale, the pairs cycling through the four sign combinations: every
/// normal-range boundary against every other in one row, then each outlier
/// cut in a long row of its own against itself (`a1 == a2` above the normal
/// maximum, of equal and of opposite signs), a normal boundary on either
/// side, and the next lower cut on either side. The search is one step wide, as in
/// `boundary_values_are_bit_identical`; the rows are long enough for the
/// encode's eight-pair steps and for the re-planting to converge.
#[test]
fn boundary_pairs_are_bit_identical() {
    let mut rng = Rng::seed_from(0xB0DB);
    for quant in [OliveQuantizer::int4(), OliveQuantizer::flint4()] {
        let quant = quant.with_search_steps(1);
        let ty = quant.normal_type();
        let (normal, outlier) = boundaries(&quant);
        for steps in -4..=4 {
            let at = |b: f32| step_ulps(b, steps);
            let normal_pairs = normal
                .iter()
                .flat_map(|&a| normal.iter().map(move |&b| (at(a), at(b))));
            let mut rows = vec![(4096, normal_pairs.collect::<Vec<_>>())];
            for (k, &cut) in outlier.iter().enumerate() {
                let o = at(cut);
                let n = at(normal[k % normal.len()]);
                let lower = at(if k == 0 {
                    *normal.last().expect("boundaries")
                } else {
                    outlier[k - 1]
                });
                rows.push((
                    16_384,
                    vec![(o, o), (o, o), (o, n), (n, o), (o, lower), (lower, o)],
                ));
            }
            for (len, pairs) in rows {
                let pairs: Vec<(f32, f32)> = (pairs.into_iter().enumerate())
                    .map(|(i, p)| signed(i, p))
                    .collect();
                let data = plant_pairs(&quant, len, &pairs, &mut rng)
                    .unwrap_or_else(|| panic!("{ty} {pairs:?}: no fixed point"));
                assert_matches_oracle(&quant, &data)
                    .unwrap_or_else(|e| panic!("{ty} {pairs:?}: {e}"));
            }
        }
    }
}

/// Every length from 1 to 17 and from 31 to 33 (the encode's eight-pair
/// step, its tail, and a second step), with ±0.0 and values small enough to
/// round to a signed zero in every slot of a pair.
#[test]
fn short_rows_and_signed_zeros_are_bit_identical() {
    let mut rng = Rng::seed_from(0x2E40);
    for quant in [OliveQuantizer::int4(), OliveQuantizer::flint4()] {
        for steps in [1, 24] {
            let quant = quant.with_search_steps(steps);
            for len in (1..=17).chain(31..=33) {
                for kind in 0..4 {
                    let mut data = vec![0.0f32; len];
                    rng.fill_normal(&mut data, 0.0, 1.0);
                    match kind {
                        0 => {}
                        1 => data.iter_mut().step_by(2).for_each(|x| *x = -0.0),
                        2 => data.iter_mut().skip(1).step_by(3).for_each(|x| *x = 0.0),
                        _ => {
                            data.iter_mut().for_each(|x| *x *= 1e-3);
                            data[len / 2] = 40.0;
                        }
                    }
                    assert_matches_oracle(&quant, &data).unwrap_or_else(|e| {
                        panic!("{} len={len} kind={kind}: {e}", quant.normal_type())
                    });
                }
            }
        }
    }
}

/// The candidate scales of a `steps`-wide search on `data`, derived as the
/// quantizer derives them (3σ seed, window 0.4–3.0 of it), for rows whose
/// scales are far from the overflow cap. `search` checks that the scale
/// the reference picks is the first least-mse one of these.
fn candidate_scales(quant: &OliveQuantizer, steps: usize, data: &[f32]) -> Vec<f32> {
    let seed = (3.0 * TensorStats::from_slice(data).std) as f32;
    let max_mag = quant.normal_type().max_magnitude() as f32;
    (0..steps)
        .map(|i| {
            let f = if steps == 1 {
                1.0
            } else {
                0.4 + (3.0f32 - 0.4) * i as f32 / (steps - 1) as f32
            };
            seed * f / max_mag
        })
        .collect()
}

/// What the early-stopped search meets on a row, from `round_trip_mse`.
struct Search {
    scales: Vec<f32>,
    mses: Vec<f64>,
    /// The first least-mse candidate.
    winner: usize,
    /// Per vector of eight candidates after the first: whether none of its
    /// lanes can still win after the first check, eight pairs in.
    stops_at_first_check: Vec<bool>,
}

fn search(quant: &OliveQuantizer, steps: usize, data: &[f32]) -> Search {
    let quant = quant.with_search_steps(steps);
    let scales = candidate_scales(&quant, steps, data);
    let mses: Vec<f64> = scales
        .iter()
        .map(|&s| quant.round_trip_mse(data, s))
        .collect();
    let winner = (0..steps).fold(0, |w, k| if mses[k] < mses[w] { k } else { w });
    let t = Tensor::from_vec(vec![data.len()], data.to_vec());
    assert_eq!(
        quant.reference_select_scale(&t).to_bits(),
        scales[winner].to_bits(),
        "the candidate replica disagrees with the reference"
    );
    let head = &data[..16.min(data.len())];
    let count = data.len() as f64;
    let stops_at_first_check = (8..steps)
        .step_by(8)
        .map(|first| {
            let best = mses[..first].iter().copied().fold(f64::INFINITY, f64::min);
            let lanes = first..(first + 8).min(steps);
            // `round_trip_mse` divides by 16, a power of two: exact.
            lanes
                .into_iter()
                .all(|k| quant.round_trip_mse(head, scales[k]) * head.len() as f64 / count >= best)
        })
        .collect();
    Search {
        scales,
        mses,
        winner,
        stops_at_first_check,
    }
}

/// `n` values `±level·(1 + N(0, 0.002))`, the level drawn from `levels`,
/// and about a fraction `1 − p` of them zero.
fn level_row(rng: &mut Rng, n: usize, levels: &[f32], p: f64) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let level = levels[rng.below(levels.len())] as f64;
            let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
            let x = (sign * level * (1.0 + rng.normal(0.0, 0.002))) as f32;
            if rng.chance(p) {
                x
            } else {
                0.0
            }
        })
        .collect()
}

/// A row that shows `what`, labelled: the first of 64 seeded rows of
/// `make` for which `shows` holds.
fn find_row(
    what: &str,
    quant: &OliveQuantizer,
    steps: usize,
    make: impl Fn(&mut Rng) -> Vec<f32>,
    shows: impl Fn(&Search, &[f32]) -> bool,
) -> (String, Vec<f32>) {
    let ty = quant.normal_type();
    let data = (0..64)
        .map(|seed| make(&mut Rng::seed_from(0x5EA2C4 + seed)))
        .find(|data| shows(&search(quant, steps, data), data))
        .unwrap_or_else(|| panic!("{ty} steps={steps}: no row shows {what}"));
    (format!("{ty} steps={steps}, {what}"), data)
}

/// Rows that put the early-stopped search through each of its cases, on
/// both paths: a winner in each of the three vectors (and in the fourth
/// and fifth of a 40-wide search); an exact tie between candidates in
/// different vectors, where the first must win; vectors 1 and 2 stopping
/// at their first check; rows with no outlier at any candidate, and rows
/// whose every pair holds one at every candidate.
#[test]
fn search_rows_cover_every_vector_stop_and_tie() {
    // `±1` levels with a seeded share of zeros, or a Gaussian row with
    // planted outliers.
    let mixed = |rng: &mut Rng| {
        let n = [64, 256][rng.below(2)];
        match rng.below(5) {
            0 => {
                let mut data = vec![0.0f32; n];
                rng.fill_normal(&mut data, 0.0, 1.0);
                for _ in 0..rng.below(4) {
                    data[rng.below(n)] = 40.0;
                }
                data
            }
            k => level_row(rng, n, &[1.0], [0.3, 0.5, 0.8, 1.0][k - 1]),
        }
    };
    for quant in [OliveQuantizer::int4(), OliveQuantizer::flint4()] {
        let normal_max = quant.normal_type().max_magnitude() as f32;
        for steps in [24, 40] {
            let mut rows = Vec::new();
            for v in 0..steps / 8 {
                let what = format!("a winner in vector {v}");
                rows.push(find_row(&what, &quant, steps, mixed, |s, _| {
                    s.winner / 8 == v
                }));
            }
            // Two candidates tie when `g·scale` lands on the same floats at
            // both, which takes scales in a small-integer ratio: the 24-wide
            // window has none (candidate k sits at (46 + 13k)/23 of 0.4),
            // the 40-wide one has several.
            if steps == 40 {
                rows.push(find_row(
                    "an exact tie at the minimum between two vectors",
                    &quant,
                    steps,
                    mixed,
                    |s, _| {
                        let tied = |k: usize| s.mses[k] == s.mses[s.winner];
                        (s.winner + 1..steps).any(|k| k / 8 != s.winner / 8 && tied(k))
                    },
                ));
            }
            // About a third of Gaussian 64-value rows with two planted
            // outliers stop both vectors at once at 24 steps.
            if steps == 24 {
                rows.push(find_row(
                    "vectors 1 and 2 stopping at the first check",
                    &quant,
                    steps,
                    |rng| {
                        let mut data = vec![0.0f32; 64];
                        rng.fill_normal(&mut data, 0.0, 1.0);
                        for _ in 0..2 {
                            data[rng.below(64)] = 40.0;
                        }
                        data
                    },
                    |s, _| s.stops_at_first_check == [true, true],
                ));
            }
            rows.push(find_row(
                "no outlier at any candidate",
                &quant,
                steps,
                |rng| level_row(rng, 256, &[1.0], 1.0),
                |s, data| data.iter().all(|x| x.abs() / s.scales[0] <= normal_max),
            ));
            rows.push(find_row(
                "an outlier in every pair at every candidate",
                &quant,
                steps,
                |rng| {
                    let mut data = vec![0.0f32; 256];
                    rng.fill_normal(&mut data, 1000.0, 1.0);
                    data
                },
                |s, data| {
                    data.iter()
                        .all(|x| x.abs() / s.scales[steps - 1] > normal_max)
                },
            ));
            let quant = quant.with_search_steps(steps);
            for (what, data) in rows {
                assert_matches_oracle(&quant, &data)
                    .unwrap_or_else(|e| panic!("{what}: {e}\n{data:?}"));
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
