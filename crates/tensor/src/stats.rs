//! Tensor statistics used by the outlier analysis.
//!
//! OliVe's motivation sections (Fig. 2 and Tbl. 2 of the paper) rest entirely
//! on a few per-tensor statistics: the standard deviation σ, the maximum value
//! normalised by σ ("max σ"), and the fractions of values above 3σ and 6σ.
//! [`TensorStats`] computes all of them in a single pass.

use crate::Tensor;

/// Summary statistics of a tensor, used by the outlier analysis.
///
/// # Examples
///
/// ```
/// use olive_tensor::Tensor;
/// use olive_tensor::stats::TensorStats;
///
/// let t = Tensor::from_slice(&[0.0, 1.0, -1.0, 2.0, -2.0, 30.0]);
/// let s = TensorStats::compute(&t);
/// assert!(s.max_sigma > 2.0);
/// assert_eq!(s.frac_gt_6sigma, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorStats {
    /// Arithmetic mean of all elements.
    pub mean: f64,
    /// Standard deviation (population) of all elements.
    pub std: f64,
    /// Maximum absolute element value.
    pub max_abs: f64,
    /// Maximum absolute deviation from the mean, normalised by σ ("Max σ").
    pub max_sigma: f64,
    /// Fraction of elements whose |x - mean| exceeds 3σ.
    pub frac_gt_3sigma: f64,
    /// Fraction of elements whose |x - mean| exceeds 6σ.
    pub frac_gt_6sigma: f64,
    /// Number of elements.
    pub count: usize,
}

impl TensorStats {
    /// Computes the statistics of `t` in a single pass (plus one pass for the
    /// σ-normalised counts).
    pub fn compute(t: &Tensor) -> Self {
        Self::from_slice(t.data())
    }

    /// Computes the statistics of a raw slice.
    pub fn from_slice(data: &[f32]) -> Self {
        let n = data.len();
        if n == 0 {
            return TensorStats {
                mean: 0.0,
                std: 0.0,
                max_abs: 0.0,
                max_sigma: 0.0,
                frac_gt_3sigma: 0.0,
                frac_gt_6sigma: 0.0,
                count: 0,
            };
        }
        let Moments { mean, std, max_abs } = Moments::of(data);

        let (mut c3, mut c6, mut max_dev) = (0usize, 0usize, 0.0f64);
        if std > 0.0 {
            for &x in data {
                let dev = ((x as f64) - mean).abs();
                max_dev = max_dev.max(dev);
                if dev > 3.0 * std {
                    c3 += 1;
                }
                if dev > 6.0 * std {
                    c6 += 1;
                }
            }
        }
        TensorStats {
            mean,
            std,
            max_abs,
            max_sigma: if std > 0.0 { max_dev / std } else { 0.0 },
            frac_gt_3sigma: c3 as f64 / n as f64,
            frac_gt_6sigma: c6 as f64 / n as f64,
            count: n,
        }
    }

    /// Fraction of values more than `k`·σ away from the mean.
    ///
    /// Recomputed on demand for arbitrary `k`; the common 3σ/6σ fractions are
    /// cached fields.
    pub fn frac_above(&self, k: f64) -> f64 {
        if (k - 3.0).abs() < f64::EPSILON {
            self.frac_gt_3sigma
        } else if (k - 6.0).abs() < f64::EPSILON {
            self.frac_gt_6sigma
        } else {
            // Callers that need a non-standard k should use `outlier_fraction`.
            f64::NAN
        }
    }
}

/// The mean, σ and maximum absolute value of a slice: the single f64 pass,
/// in element order, that opens [`TensorStats::from_slice`]. Scale searches
/// that read only these skip its σ-normalised second pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Arithmetic mean of all elements.
    pub mean: f64,
    /// Standard deviation (population) of all elements.
    pub std: f64,
    /// Maximum absolute element value.
    pub max_abs: f64,
}

impl Moments {
    /// The moments of `data`; all zero for an empty slice.
    pub fn of(data: &[f32]) -> Self {
        if data.is_empty() {
            return Moments {
                mean: 0.0,
                std: 0.0,
                max_abs: 0.0,
            };
        }
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut max_abs = 0.0f64;
        for &x in data {
            let x = x as f64;
            sum += x;
            sum_sq += x * x;
            max_abs = max_abs.max(x.abs());
        }
        let n = data.len() as f64;
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        Moments {
            mean,
            std: var.sqrt(),
            max_abs,
        }
    }
}

/// The 3σ-rule outlier threshold of a slice: `mean + k * σ` on the absolute
/// deviation scale (returned as an absolute-value threshold).
pub fn sigma_threshold(data: &[f32], k: f64) -> f32 {
    let s = TensorStats::from_slice(data);
    (s.mean.abs() + k * s.std) as f32
}

/// Fraction of elements whose absolute deviation from the mean exceeds `k`·σ.
pub fn outlier_fraction(data: &[f32], k: f64) -> f64 {
    let s = TensorStats::from_slice(data);
    if s.std == 0.0 || data.is_empty() {
        return 0.0;
    }
    let thr = k * s.std;
    data.iter()
        .filter(|&&x| ((x as f64) - s.mean).abs() > thr)
        .count() as f64
        / data.len() as f64
}

/// Classifies each element as an outlier (`true`) or normal value (`false`)
/// according to the `k`-σ rule.
pub fn outlier_mask(data: &[f32], k: f64) -> Vec<bool> {
    let s = TensorStats::from_slice(data);
    let thr = k * s.std;
    data.iter()
        .map(|&x| ((x as f64) - s.mean).abs() > thr)
        .collect()
}

/// Mean squared error between two slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mse(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64
}

/// Mean absolute error between two slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mae(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "mae length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| ((x - y) as f64).abs())
        .sum::<f64>()
        / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn stats_of_constant_tensor() {
        let t = Tensor::full(vec![10], 5.0);
        let s = TensorStats::compute(&t);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.max_sigma, 0.0);
        assert_eq!(s.frac_gt_3sigma, 0.0);
    }

    #[test]
    fn stats_of_gaussian_follow_three_sigma_rule() {
        let mut rng = Rng::seed_from(42);
        let mut data = vec![0.0f32; 50_000];
        rng.fill_normal(&mut data, 0.0, 1.0);
        let s = TensorStats::from_slice(&data);
        assert!((s.mean).abs() < 0.02);
        assert!((s.std - 1.0).abs() < 0.02);
        // ~0.27% of a Gaussian lies beyond 3σ.
        assert!(s.frac_gt_3sigma < 0.006, "{}", s.frac_gt_3sigma);
        assert!(s.frac_gt_3sigma > 0.0005, "{}", s.frac_gt_3sigma);
        assert!(s.max_sigma < 6.0);
    }

    #[test]
    fn outlier_mask_flags_planted_outlier() {
        let mut data = vec![0.0f32; 1000];
        let mut rng = Rng::seed_from(1);
        rng.fill_normal(&mut data, 0.0, 1.0);
        data[500] = 100.0;
        let mask = outlier_mask(&data, 3.0);
        assert!(mask[500]);
        let count = mask.iter().filter(|&&m| m).count();
        assert!(count < 20);
    }

    #[test]
    fn sigma_threshold_scales_with_k() {
        let mut data = vec![0.0f32; 10_000];
        let mut rng = Rng::seed_from(2);
        rng.fill_normal(&mut data, 0.0, 2.0);
        let t3 = sigma_threshold(&data, 3.0);
        let t6 = sigma_threshold(&data, 6.0);
        assert!(t6 > t3);
        assert!((t3 - 6.0).abs() < 0.5, "t3 = {}", t3);
    }

    #[test]
    fn mse_and_mae_basic() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.0f32, 4.0, 3.0];
        assert!((mse(&a, &b) - 4.0 / 3.0).abs() < 1e-9);
        assert!((mae(&a, &b) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_slice_stats_are_zero() {
        let s = TensorStats::from_slice(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn frac_above_matches_cached_fields() {
        let mut data = vec![0.0f32; 10_000];
        let mut rng = Rng::seed_from(3);
        rng.fill_normal(&mut data, 0.0, 1.0);
        let s = TensorStats::from_slice(&data);
        assert_eq!(s.frac_above(3.0), s.frac_gt_3sigma);
        assert_eq!(s.frac_above(6.0), s.frac_gt_6sigma);
    }
}
