//! # olive-core
//!
//! The paper's primary contribution: **outlier-victim pair (OVP) quantization**.
//!
//! * [`pair`] — pair-wise tensor analysis (normal-normal / outlier-normal /
//!   outlier-outlier statistics of Tbl. 2) and the pruning transformations used
//!   by the motivation study of Fig. 3 (clip outliers, prune victims, prune
//!   random normal values).
//! * [`encode`] — Algorithm 1: the 4-bit/8-bit OVP pair encoder and the packed
//!   byte layout.
//! * [`quantizer`] — [`OliveQuantizer`]: per-tensor post-training quantization
//!   with the MSE-minimizing scale/threshold search seeded at 3σ (Sec. 3.4),
//!   producing packed [`OvpTensor`]s. For the 4-bit types the search scores
//!   eight candidates per pass, stops passes that cannot win, and fuses
//!   with the fake-quantization round trip; the per-candidate loop stays
//!   in-tree as its oracle
//!   ([`OliveQuantizer::reference_select_scale`]).
//! * [`mac`] — the OliVe MAC unit operating on exponent-integer pairs with an
//!   int32 accumulator (Sec. 4.4–4.5), including the four-PE decomposition of
//!   8-bit values.
//! * [`gemm`] — bit-accurate quantized GEMM built on the MAC model; this is
//!   what the accuracy experiments execute. [`quantized_matmul`] decodes both
//!   operands once per call, accumulates in `i64` with the int32 overflow
//!   check, and shards rows over the runtime pool with statistics merged in
//!   row order.
//! * [`simd`] — runtime AVX2 dispatch for the OVP scale search and fake
//!   quantization, the uniform baseline's scale search and fake
//!   quantization, GELU and the dense GEMMs
//!   (the only module in the workspace allowed to contain `unsafe`), with
//!   the `OLIVE_SIMD` override mirroring `OLIVE_THREADS`. Every path is
//!   bit-identical to its scalar kernel.
//! * [`framework`] — the model-level PTQ framework: per-tensor type selection,
//!   optional 8-bit escalation, and a [`TensorQuantizer`] trait shared with the
//!   baselines crate.

pub mod calibration;
pub mod encode;
pub mod framework;
pub mod gemm;
pub mod mac;
pub mod pair;
pub mod quantizer;
pub mod simd;

pub use calibration::{ablate_scale_policies, CalibrationReport, ScalePolicy};
pub use encode::{encode_pair, EncodedPair, PairClass};
pub use framework::{
    Fp32Baseline, Granularity, OlivePtq, PerRowQuantizer, PtqConfig, PtqReport, TensorQuantizer,
};
pub use gemm::{quantized_matmul, QuantGemmStats};
pub use mac::{MacUnit, OVERFLOW_CLIP};
pub use olive_dtypes::NormalDataType as NormalType;
pub use pair::{PairKind, PairStats};
pub use quantizer::{OliveQuantizer, OvpTensor, QuantSpec};
pub use simd::{validate_simd_env, with_simd, SimdPath, SIMD_ENV};
