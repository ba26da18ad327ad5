//! A port of the host math library's single-precision `tanh`, so that
//! GELU's bytes do not depend on the libm a process happens to link.
//!
//! [`tanhf`] and the `expm1f` it calls are fdlibm's algorithms, as glibc
//! ships them for `float`. They are written in plain f32 arithmetic: every
//! multiply and every add is its own IEEE operation (Rust never fuses them
//! into an FMA), and every constant is written as its bit pattern. On x86-64
//! with glibc 2.36, [`tanhf`] returns the host `f32::tanh`'s bits for all
//! 2³² inputs; the ignored test `tanhf_matches_the_host_on_every_input`
//! repeats that check on the host at hand.
//!
//! The constants are public so that the AVX2 GELU in `olive-core` can run
//! the same operations eight lanes at a time.

/// `|x|` below which `tanhf(x)` is `x·(1 + x)`: 2⁻⁵⁵.
pub const TANH_TINY: f32 = f32::from_bits(0x2400_0000);
/// `|x|` from which `tanhf` takes `expm1f(2|x|)` instead of
/// `expm1f(−2|x|)`: 1.
pub const TANH_ONE: f32 = f32::from_bits(0x3f80_0000);
/// `|x|` from which `tanhf(x)` is ±1: 22.
pub const TANH_HUGE: f32 = f32::from_bits(0x41b0_0000);

/// `|x|` below which `expm1f(x)` is `x`: 2⁻²⁵.
pub const EXPM1_TINY: f32 = f32::from_bits(0x3300_0000);
/// `|x|` above which `expm1f` reduces `x` by `k·ln2`: ½·ln2.
pub const EXPM1_HALF_LN2: f32 = f32::from_bits(0x3eb1_7218);
/// `|x|` below which the reduction takes `k = ±1`: 1.5·ln2.
pub const EXPM1_THREE_HALVES_LN2: f32 = f32::from_bits(0x3f85_1592);
/// The high part of ln2; `k·LN2_HI` is exact for the `k` used here.
pub const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// `ln2 − LN2_HI`.
pub const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// 1/ln2.
pub const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// The scaled coefficients of `expm1f`'s rational approximation, `Q1..Q5`.
pub const EXPM1_Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// fdlibm's `tanhf`: the host `f32::tanh`'s bits without calling the host.
///
/// # Examples
///
/// ```
/// use olive_tensor::libm::tanhf;
///
/// assert_eq!(tanhf(0.5).to_bits(), 0.5f32.tanh().to_bits());
/// assert_eq!(tanhf(f32::NEG_INFINITY), -1.0);
/// ```
pub fn tanhf(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let ax = x.abs();
    if ax < TANH_TINY {
        // ±0 comes back unchanged.
        return x * (1.0 + x);
    }
    let z = if ax >= TANH_HUGE {
        1.0
    } else if ax >= TANH_ONE {
        1.0 - 2.0 / (expm1f(2.0 * ax) + 2.0)
    } else {
        let t = expm1f(-2.0 * ax);
        -t / (t + 2.0)
    };
    // `z` is positive on every branch, so this is fdlibm's `x < 0 ? -z : z`.
    z.copysign(x)
}

/// fdlibm's `expm1f` on the arguments [`tanhf`] passes it: `2 ≤ x < 44`,
/// or `−2 < x ≤ −2⁻⁵⁴`. Overflow, the saturation to −1 below −27·ln2 and
/// the `k = 1` reconstruction cannot occur there, so they are left out.
fn expm1f(x: f32) -> f32 {
    let ax = x.abs();
    // Reduce x to r = x − k·ln2 in [−½ln2, ½ln2], held as r + c.
    let (k, r, c) = if ax > EXPM1_HALF_LN2 {
        let (k, hi, lo) = if ax < EXPM1_THREE_HALVES_LN2 {
            if x > 0.0 {
                (1, x - LN2_HI, LN2_LO)
            } else {
                (-1, x + LN2_HI, -LN2_LO)
            }
        } else {
            let k = (INV_LN2 * x + if x > 0.0 { 0.5 } else { -0.5 }) as i32;
            let t = k as f32;
            (k, x - t * LN2_HI, t * LN2_LO)
        };
        let r = hi - lo;
        (k, r, (hi - r) - lo)
    } else if ax < EXPM1_TINY {
        return x;
    } else {
        (0, x, 0.0)
    };
    let [q1, q2, q3, q4, q5] = EXPM1_Q;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    if k == 0 {
        return r - (r * e - hxs);
    }
    let e = (r * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (r - e) - 0.5;
    }
    if k <= -2 || k > 56 {
        return scale(1.0 - (e - r), k) - 1.0;
    }
    if k < 23 {
        // 1 − 2⁻ᵏ
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
        scale(t - (e - r), k)
    } else {
        // 2⁻ᵏ
        let t = f32::from_bits(((0x7f - k) << 23) as u32);
        scale((r - (e + t)) + 1.0, k)
    }
}

/// `y·2ᵏ` by adding `k` to the exponent bits, as fdlibm does: `y` is
/// normal and the result stays normal.
fn scale(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// [`checksum`] of the host `f32::tanh` (glibc 2.36, x86-64), captured
    /// before the port replaced it in GELU.
    const CHECKSUM: u64 = 0x4316_a2d3_2c22_6135;

    fn step(x: f32, ulps: i32) -> f32 {
        f32::from_bits(x.to_bits().wrapping_add_signed(ulps))
    }

    /// The smallest `x > 0` at which `expm1f(2x)` reduces with `k` or more.
    fn k_cut(k: i32) -> f32 {
        let k_of = |x: f32| (INV_LN2 * (2.0 * x) + 0.5) as i32;
        let mut x = (k as f32 - 0.5) / INV_LN2 / 2.0;
        while k_of(x) >= k {
            x = step(x, -1);
        }
        while k_of(x) < k {
            x = step(x, 1);
        }
        x
    }

    /// Every branch cut of `tanhf`, and of the `expm1f(±2|x|)` it calls,
    /// ±4 ulps and of both signs; signed zeros, subnormals, extremes,
    /// infinities and NaN; every 251st f32 from 2⁻⁵⁵ to 22, of both signs
    /// (fusing one of `expm1f`'s multiply-adds moves some of these, where
    /// the cuts and the seeded values alone miss it); 2¹⁴ seeded bit
    /// patterns and 2¹⁴ seeded values in [−24, 24].
    fn pinned_inputs() -> Vec<f32> {
        let cuts = [
            TANH_TINY,
            TANH_ONE,
            TANH_HUGE,
            EXPM1_TINY / 2.0,
            EXPM1_HALF_LN2 / 2.0,
            EXPM1_THREE_HALVES_LN2 / 2.0,
            // 27·ln2, where fdlibm saturates negative arguments to −1.
            f32::from_bits(0x4195_b844) / 2.0,
            k_cut(23),
            k_cut(57),
        ];
        let mut xs = Vec::new();
        for cut in cuts {
            for ulps in -4..=4 {
                xs.extend([step(cut, ulps), -step(cut, ulps)]);
            }
        }
        for x in [
            0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
        ] {
            xs.extend([x, -x]);
        }
        xs.push(f32::NAN);
        for bits in (TANH_TINY.to_bits()..TANH_HUGE.to_bits()).step_by(251) {
            xs.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
        }
        let mut rng = Rng::seed_from(0x7A4F);
        xs.extend((0..1 << 14).map(|_| f32::from_bits(rng.next_u64() as u32)));
        xs.extend((0..1 << 14).map(|_| rng.uniform_range(-24.0, 24.0) as f32));
        xs
    }

    /// FNV-1a over the output bits, NaN counted as one canonical NaN.
    fn checksum(f: impl Fn(f32) -> f32) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for x in pinned_inputs() {
            let y = f(x);
            let bits = if y.is_nan() { 0x7fc0_0000 } else { y.to_bits() };
            for byte in bits.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn tanhf_bits_match_the_checksum_of_the_host_tanh() {
        assert_eq!(checksum(tanhf), CHECKSUM);
    }

    #[test]
    #[ignore = "every f32: about a minute in release (cargo test --release -p olive-tensor -- --ignored)"]
    fn tanhf_matches_the_host_on_every_input() {
        let differ = (0..=u32::MAX)
            .map(f32::from_bits)
            .filter(|&x| {
                let (port, host) = (tanhf(x), x.tanh());
                !(port.to_bits() == host.to_bits() || port.is_nan() && host.is_nan())
            })
            .count();
        assert_eq!(differ, 0, "inputs where tanhf and the host tanh differ");
    }
}
