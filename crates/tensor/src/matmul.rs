//! Dense matrix multiplication and common neural-network primitives.
//!
//! The GEMM kernels are cache-blocked (tiled over `i`/`k`/`j`) and
//! parallelised over row blocks on the [`olive_runtime`] worker pool. The
//! decomposition follows the runtime's determinism contract: every row of the
//! output is computed by the same kernel code with the same `k`-ascending
//! accumulation order no matter how many threads run (`OLIVE_THREADS=1` and
//! `OLIVE_THREADS=8` produce bit-identical tensors).

use crate::Tensor;
use std::ops::Range;

/// `k`-tile: rows of `B` (or columns of `Bᵀ`) kept hot in cache per pass.
const KC: usize = 128;
/// `j`-tile: output columns processed per pass, keeping the `B` panel
/// (`KC × NC` floats) within L2.
const NC: usize = 512;

/// Total fused multiply-adds of an `[m,k] × [k,n]` GEMM, the cost measure fed
/// to [`olive_runtime::should_parallelize`].
fn gemm_work(m: usize, k: usize, n: usize) -> u64 {
    m as u64 * k as u64 * n as u64
}

/// Computes rows `rows` of `C = A × B` into `out` (which holds exactly those
/// rows, zero-initialised). Tiled `j0 → k0 → i → k → j`; for any fixed output
/// element the `k` accumulation order is ascending, independent of `rows`
/// splits — the bit-determinism anchor for the parallel path.
fn gemm_block(ad: &[f32], bd: &[f32], k: usize, n: usize, rows: Range<usize>, out: &mut [f32]) {
    for j0 in (0..n).step_by(NC) {
        let j1 = (j0 + NC).min(n);
        for k0 in (0..k).step_by(KC) {
            let k1 = (k0 + KC).min(k);
            for (ri, i) in rows.clone().enumerate() {
                let arow = &ad[i * k..(i + 1) * k];
                let orow = &mut out[ri * n + j0..ri * n + j1];
                for kk in k0..k1 {
                    let av = arow[kk];
                    // Zero activations (pruned victims) contribute nothing.
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &bd[kk * n + j0..kk * n + j1];
                    for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                        *o += av * bv;
                    }
                }
            }
        }
    }
}

/// Computes rows `rows` of `C = A × Bᵀ` into `out` (holding those rows).
/// Each output element is one dot product accumulated in ascending `k` order.
fn gemm_tb_block(ad: &[f32], bd: &[f32], k: usize, n: usize, rows: Range<usize>, out: &mut [f32]) {
    for (ri, i) in rows.enumerate() {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut out[ri * n..(ri + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
}

/// Dense row-major GEMM: `C = A × B`.
///
/// `a` must be `[m, k]` and `b` must be `[k, n]`; the result is `[m, n]`.
/// Zero-sized operands (`m`, `k` or `n` equal to 0) are valid and produce an
/// empty (or all-zero, for `k = 0`) result.
///
/// The kernel is cache-blocked and, when the matrices are large enough, runs
/// row blocks in parallel on the [`olive_runtime`] pool (thread count from
/// `OLIVE_THREADS`, default [`std::thread::available_parallelism`]). The
/// result is bit-identical for every thread count.
///
/// # Panics
///
/// Panics if the inner dimensions do not match or the inputs are not rank-2.
///
/// # Examples
///
/// ```
/// use olive_tensor::Tensor;
/// use olive_tensor::matmul::matmul;
///
/// let a = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]);
/// let b = Tensor::from_vec(vec![2, 1], vec![3.0, 4.0]);
/// assert_eq!(matmul(&a, &b)[[0, 0]], 11.0);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul inner dimensions mismatch: {} vs {}", k, kb);

    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    if olive_runtime::should_parallelize(m, gemm_work(m, k, n)) {
        olive_runtime::par_rows_mut(m, n, &mut out, |rows, block| {
            gemm_block(ad, bd, k, n, rows, block);
        });
    } else {
        gemm_block(ad, bd, k, n, 0..m, &mut out);
    }
    Tensor::from_vec(vec![m, n], out)
}

/// `C = A × Bᵀ` without materialising the transpose.
///
/// `a` is `[m, k]`, `b` is `[n, k]`; the result is `[m, n]`. Zero-sized
/// operands are valid. Parallelised over row blocks like [`matmul`], with the
/// same bit-determinism guarantee across thread counts.
///
/// # Panics
///
/// Panics if the inner dimensions do not match.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (n, kb) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul_transpose_b inner dimensions mismatch");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    if olive_runtime::should_parallelize(m, gemm_work(m, k, n)) {
        olive_runtime::par_rows_mut(m, n, &mut out, |rows, block| {
            gemm_tb_block(ad, bd, k, n, rows, block);
        });
    } else {
        gemm_tb_block(ad, bd, k, n, 0..m, &mut out);
    }
    Tensor::from_vec(vec![m, n], out)
}

/// Adds a rank-1 bias (length `n`) to every row of a `[m, n]` tensor.
///
/// # Panics
///
/// Panics if the bias length does not match the number of columns.
pub fn add_bias(x: &Tensor, bias: &[f32]) -> Tensor {
    let (m, n) = (x.rows(), x.cols());
    assert_eq!(n, bias.len(), "bias length mismatch");
    let mut out = x.clone();
    for i in 0..m {
        let row = out.row_mut(i);
        for j in 0..n {
            row[j] += bias[j];
        }
    }
    out
}

/// Row-wise softmax of a `[m, n]` tensor.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    for i in 0..x.rows() {
        softmax_row(out.row_mut(i));
    }
    out
}

/// Softmax of one row in place: max, `exp(v - max)` summed in ascending
/// order, then divide by the sum, or the uniform distribution when the sum
/// is 0. [`softmax_rows`] applies it to every row, so a slice and a tensor
/// row with equal values get equal bits.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    } else {
        let u = 1.0 / row.len() as f32;
        for v in row.iter_mut() {
            *v = u;
        }
    }
}

/// Row-wise layer normalisation with learned scale (`gamma`) and shift (`beta`).
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths do not match the number of columns.
pub fn layer_norm(x: &Tensor, gamma: &[f32], beta: &[f32], eps: f32) -> Tensor {
    let (m, n) = (x.rows(), x.cols());
    assert_eq!(n, gamma.len(), "gamma length mismatch");
    assert_eq!(n, beta.len(), "beta length mismatch");
    let mut out = x.clone();
    for i in 0..m {
        let row = out.row_mut(i);
        let mean: f32 = row.iter().sum::<f32>() / n as f32;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for j in 0..n {
            row[j] = (row[j] - mean) * inv * gamma[j] + beta[j];
        }
    }
    out
}

/// The GELU activation (tanh approximation), applied element-wise.
pub fn gelu(x: &Tensor) -> Tensor {
    x.map(gelu_scalar)
}

/// [`gelu`] in place, for a caller that owns its input and has no further
/// use for it.
pub fn gelu_in_place(x: &mut Tensor) {
    x.map_inplace(gelu_scalar);
}

fn gelu_scalar(v: f32) -> f32 {
    let v3 = v * v * v;
    0.5 * v * (1.0 + ((0.797_884_6_f32) * (v + 0.044715 * v3)).tanh())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let id = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &id), a);
        assert_eq!(matmul(&id, &a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = Tensor::from_vec(vec![4, 3], (0..12).map(|i| i as f32 * 0.3 - 1.0).collect());
        let direct = matmul_transpose_b(&a, &b);
        let explicit = matmul(&a, &b.transpose());
        for i in 0..direct.len() {
            assert!(close(direct[i], explicit[i]));
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn zero_sized_gemm_cases() {
        for threads in [1usize, 8] {
            olive_runtime::with_threads(threads, || {
                // m = 0: no output rows.
                let c = matmul(&Tensor::zeros(vec![0, 3]), &Tensor::zeros(vec![3, 4]));
                assert_eq!(c.shape(), &[0, 4]);
                assert!(c.is_empty());
                // n = 0: rows exist but are empty.
                let c = matmul(&Tensor::zeros(vec![2, 3]), &Tensor::zeros(vec![3, 0]));
                assert_eq!(c.shape(), &[2, 0]);
                // k = 0: an [m,0] x [0,n] product is the m x n zero matrix.
                let c = matmul(&Tensor::zeros(vec![2, 0]), &Tensor::zeros(vec![0, 4]));
                assert_eq!(c.shape(), &[2, 4]);
                assert!(c.data().iter().all(|&v| v == 0.0));
                // Same edges through the transposed-B path.
                let c = matmul_transpose_b(&Tensor::zeros(vec![0, 3]), &Tensor::zeros(vec![5, 3]));
                assert_eq!(c.shape(), &[0, 5]);
                let c = matmul_transpose_b(&Tensor::zeros(vec![2, 0]), &Tensor::zeros(vec![5, 0]));
                assert_eq!(c.shape(), &[2, 5]);
                assert!(c.data().iter().all(|&v| v == 0.0));
            });
        }
    }

    #[test]
    fn parallel_matmul_is_bit_identical_to_sequential() {
        // Big enough to clear the parallel work threshold, with shapes that
        // are not multiples of the kernel tiles.
        let mut next = 0x243F_6A88u32;
        let mut gen = |shape: Vec<usize>| {
            let n: usize = shape.iter().product();
            let data = (0..n)
                .map(|_| {
                    next = next.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (next >> 8) as f32 / (1u32 << 24) as f32 - 0.5
                })
                .collect();
            Tensor::from_vec(shape, data)
        };
        let a = gen(vec![67, 131]);
        let b = gen(vec![131, 53]);
        let bt = gen(vec![53, 131]);
        let seq = olive_runtime::with_threads(1, || matmul(&a, &b));
        let par = olive_runtime::with_threads(8, || matmul(&a, &b));
        assert_eq!(seq, par, "matmul must be bit-identical across threads");
        let seq = olive_runtime::with_threads(1, || matmul_transpose_b(&a, &bt));
        let par = olive_runtime::with_threads(8, || matmul_transpose_b(&a, &bt));
        assert_eq!(seq, par, "matmul_transpose_b must be bit-identical");
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = softmax_rows(&x);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!(close(sum, 1.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]);
        let y = Tensor::from_vec(vec![1, 3], vec![101.0, 102.0, 103.0]);
        let sx = softmax_rows(&x);
        let sy = softmax_rows(&y);
        for i in 0..3 {
            assert!(close(sx[i], sy[i]));
        }
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = Tensor::from_vec(vec![1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let g = vec![1.0; 4];
        let b = vec![0.0; 4];
        let y = layer_norm(&x, &g, &b, 1e-5);
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        let var: f32 = y
            .data()
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn add_bias_adds_per_column() {
        let x = Tensor::zeros(vec![2, 3]);
        let y = add_bias(&x, &[1.0, 2.0, 3.0]);
        assert_eq!(y.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(y.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn gelu_behaviour_at_extremes() {
        let x = Tensor::from_slice(&[-10.0, 0.0, 10.0]);
        let y = gelu(&x);
        assert!(y[0].abs() < 1e-3);
        assert_eq!(y[1], 0.0);
        assert!((y[2] - 10.0).abs() < 1e-3);
    }
}
