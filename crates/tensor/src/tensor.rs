//! The dense row-major [`Tensor`] type.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major tensor of `f32` values.
///
/// Shapes are arbitrary-rank, but the workspace mostly uses rank-1 and rank-2
/// tensors. Data is stored contiguously in row-major order.
///
/// # Examples
///
/// ```
/// use olive_tensor::Tensor;
///
/// let t = Tensor::zeros(vec![2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape(), &[2, 3]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, len={})", self.shape, self.data.len())
    }
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    ///
    /// Zero-sized dimensions are allowed (`[0, 4]` is a valid, empty matrix);
    /// GEMM edge cases rely on this.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty (rank 0).
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = checked_numel(&shape);
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let n = checked_numel(&shape);
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor from a flat, row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let n = checked_numel(&shape);
        assert_eq!(
            n,
            data.len(),
            "shape {:?} implies {} elements but data has {}",
            shape,
            n,
            data.len()
        );
        Tensor { shape, data }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// Returns the tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements (some dimension is zero).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the number of rows of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a rank-2 tensor");
        self.shape[0]
    }

    /// Returns the number of columns of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a rank-2 tensor");
        self.shape[1]
    }

    /// Returns a view of the underlying data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns a mutable view of the underlying data in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at a flat (row-major) index.
    pub fn get_flat(&self, idx: usize) -> f32 {
        self.data[idx]
    }

    /// Sets the element at a flat (row-major) index.
    pub fn set_flat(&mut self, idx: usize, value: f32) {
        self.data[idx] = value;
    }

    /// Returns a row of a rank-2 tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.cols();
        &self.data[r * c..(r + 1) * c]
    }

    /// Returns a mutable row of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Reshapes the tensor in place (the number of elements must not change).
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different number of elements.
    pub fn reshape(mut self, shape: Vec<usize>) -> Self {
        let n = checked_numel(&shape);
        assert_eq!(n, self.data.len(), "reshape must preserve element count");
        self.shape = shape;
        self
    }

    /// Returns the transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor {
            shape: vec![c, r],
            data: out,
        }
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in add");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in sub");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Element-wise multiplication (Hadamard product).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in mul");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Multiplies every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Mean squared error between two tensors of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mse(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch in mse");
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| {
                let d = (*a - *b) as f64;
                d * d
            })
            .sum();
        sum / self.data.len() as f64
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }
}

fn checked_numel(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "tensor shape must not be empty");
    let mut n: usize = 1;
    for &d in shape {
        n = n
            .checked_mul(d)
            .expect("tensor element count overflows usize");
    }
    n
}

impl Index<usize> for Tensor {
    type Output = f32;

    fn index(&self, idx: usize) -> &f32 {
        &self.data[idx]
    }
}

impl IndexMut<usize> for Tensor {
    fn index_mut(&mut self, idx: usize) -> &mut f32 {
        &mut self.data[idx]
    }
}

impl Index<[usize; 2]> for Tensor {
    type Output = f32;

    fn index(&self, idx: [usize; 2]) -> &f32 {
        let c = self.cols();
        &self.data[idx[0] * c + idx[1]]
    }
}

impl IndexMut<[usize; 2]> for Tensor {
    fn index_mut(&mut self, idx: [usize; 2]) -> &mut f32 {
        let c = self.cols();
        &mut self.data[idx[0] * c + idx[1]]
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor {
            shape: vec![1],
            data: vec![0.0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let t = Tensor::zeros(vec![3, 4]);
        assert_eq!(t.shape(), &[3, 4]);
        assert_eq!(t.len(), 12);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_round_trips() {
        let data = vec![1.0, 2.0, 3.0, 4.0];
        let t = Tensor::from_vec(vec![2, 2], data.clone());
        assert_eq!(t.into_vec(), data);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_rejects_mismatched_length() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn two_d_indexing() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t[[1, 2]] = 7.0;
        assert_eq!(t[[1, 2]], 7.0);
        assert_eq!(t[5], 7.0);
    }

    #[test]
    fn transpose_is_involution() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tt = t.transpose().transpose();
        assert_eq!(t, tt);
    }

    #[test]
    fn transpose_swaps_indices() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tr = t.transpose();
        assert_eq!(tr.shape(), &[3, 2]);
        assert_eq!(tr[[2, 1]], t[[1, 2]]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn mse_of_identical_tensors_is_zero() {
        let a = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(a.mse(&a), 0.0);
    }

    #[test]
    fn mse_matches_hand_computation() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[2.0, 4.0]);
        assert!((a.mse(&b) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn max_abs_finds_negative_extreme() {
        let a = Tensor::from_slice(&[1.0, -9.0, 3.0]);
        assert_eq!(a.max_abs(), 9.0);
    }

    #[test]
    fn row_access() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.clone().reshape(vec![3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn zero_dimension_yields_empty_tensor() {
        let t = Tensor::zeros(vec![2, 0]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 0);
        let tr = t.transpose();
        assert_eq!(tr.shape(), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn rank_zero_shape_rejected() {
        let _ = Tensor::zeros(vec![]);
    }

    #[test]
    fn debug_representation_is_nonempty() {
        let t = Tensor::zeros(vec![2]);
        assert!(!format!("{:?}", t).is_empty());
    }
}
