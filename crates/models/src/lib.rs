//! # olive-models
//!
//! Workload and model substrate for the OliVe reproduction:
//!
//! * [`config`] — architecture descriptions (layer counts, hidden sizes,
//!   batch sizes) of the models the paper evaluates: BERT-base/large,
//!   BART-base, GPT2-XL, BLOOM-7B1, OPT-6.7B and a ResNet-18 stand-in.
//! * [`workload`] — the GEMM list of one forward pass of each model, which the
//!   accelerator and GPU performance models consume.
//! * [`resnet`] — ResNet-18 layer shapes (the CNN contrast of Fig. 2).
//! * [`synth`] — synthetic tensors reproducing the outlier statistics of
//!   Fig. 2 / Tbl. 2 (Gaussian bulk + sparse extreme outliers).
//! * [`engine`] — a small runnable Transformer with planted outliers used as a
//!   teacher–student accuracy proxy for the GLUE/SQuAD/perplexity tables.
//! * [`decode`] — causal (autoregressive) forward pass plus the KV-cached
//!   incremental [`DecodeSession`], bit-identical to the batch path — the
//!   generative workload class behind `olive-serve`'s `/v1/generate` — and
//!   the step-schedulable [`FeedSlot`]/`feed_batch` API that lets a
//!   scheduler merge many streams' current steps, and whole prompts, into
//!   one batched forward ([`StepSlot`]/`advance_batch` is its one-token
//!   case).
//! * [`kv`] — externally-owned KV-cache storage: the [`KvStore`] trait,
//!   plain [`VecKv`], and the paged [`KvPool`]/[`PagedKv`] pair the serving
//!   layer uses for continuous batching.
//! * [`artifact`] — the versioned, checksummed, zero-dependency binary
//!   container ([`ArtifactWriter`]/[`ArtifactReader`]) that snapshots models
//!   and calibration tasks to disk bit-exactly, so serving processes can
//!   cold-start from a file instead of re-preparing.

pub mod artifact;
pub mod config;
pub mod decode;
pub mod engine;
pub mod kv;
pub mod resnet;
pub mod synth;
pub mod workload;

pub use artifact::{ArtifactError, ArtifactReader, ArtifactWriter};
pub use config::{ModelConfig, ModelFamily};
pub use decode::{generate_greedy, generate_greedy_recompute, DecodeSession, FeedSlot, StepSlot};
pub use engine::{
    agreement, argmax, eval_scores, logit_fidelity, position_agreement, pseudo_perplexity,
    EngineConfig, EvalScores, EvalTask, OutlierSeverity, TinyTransformer,
};
pub use kv::{pages_needed, KvPool, KvStore, PagedKv, VecKv};
pub use synth::{model_tensor_suite, NamedTensor, SynthProfile};
pub use workload::{Gemm, GemmKind, Workload};
