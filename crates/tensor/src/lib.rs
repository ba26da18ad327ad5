//! # olive-tensor
//!
//! A minimal, dependency-free dense tensor library used throughout the OliVe
//! reproduction.
//!
//! It deliberately implements only what the rest of the workspace needs:
//!
//! * a row-major [`Tensor`] of `f32` values with 1-D/2-D convenience accessors,
//! * dense [`matmul`](crate::matmul::matmul) plus a handful of neural-network
//!   helpers (softmax, layer norm, GELU),
//! * [`libm::tanhf`], a port of the host libm's `tanhf`, so GELU's bytes
//!   do not depend on the libm a process links. The other transcendentals
//!   still come from the host: softmax's `expf`, the sinusoidal position
//!   embedding's `sin` and `powf` (in `olive-models`), and the f64 `ln`,
//!   `sin`, `cos`, `exp` and `powf` of [`rng::Rng`]'s samplers,
//! * tensor [`stats`] (mean, standard deviation, max-σ, outlier fractions) which
//!   drive the paper's outlier analysis (Fig. 2, Tbl. 2),
//! * a small deterministic [`rng`] (SplitMix64-based) with Gaussian and
//!   heavy-tailed samplers so every experiment is reproducible without
//!   external crates.
//!
//! ## Example
//!
//! ```
//! use olive_tensor::Tensor;
//! use olive_tensor::matmul::matmul;
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
//! let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
//! let c = matmul(&a, &b);
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c[[0, 0]], 58.0);
//! ```

pub mod libm;
pub mod matmul;
pub mod rng;
pub mod stats;
pub mod tensor;

pub use tensor::Tensor;
