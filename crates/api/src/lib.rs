//! # olive-api
//!
//! The unified public surface of the OliVe reproduction, re-exported by the
//! facade crate as `olive::api`. Three layers:
//!
//! * [`scheme`] — the **scheme registry**: every quantizer in `olive-core`
//!   and `olive-baselines` addressable by spec string ([`Scheme::parse`],
//!   [`Scheme::all`], [`Scheme::build`]), including a per-row granularity
//!   dimension (`"olive-4bit@per-row"`) and the mapping to the `olive-accel`
//!   hardware designs ([`Scheme::to_accel`]).
//! * [`pipeline`] — the **evaluation pipeline**: a builder
//!   ([`Pipeline::new`]`(`[`ModelFamily::Bert`]`.small()).schemes([...])
//!   .seed(7).run()`) producing a unified [`EvalReport`] with
//!   accuracy/agreement proxies, pseudo-perplexity, bits per element, GEMM
//!   statistics and wall-times, renderable as a text table or JSON.
//! * [`gen`] — the **generation arm** of the same builder:
//!   [`Pipeline::generation`] takes a [`GenOptions`] run description,
//!   decodes each scheme autoregressively (KV-cached) and scores every
//!   greedy step against the FP32 teacher, producing a [`GenReport`]
//!   (tokens, per-step agreement, tokens/sec) whose JSON is the
//!   concatenation of fragments a server can stream as they are decoded.
//! * [`json`] — the zero-dependency JSON values the reports render through.
//! * [`artifact`] — prepared-model snapshots ([`ModelArtifact`]): the
//!   versioned, checksummed on-disk form of a prepared teacher + calibration
//!   (+ quantized students) that lets serving workers cold-start
//!   bit-identically from a file written offline by `olive-prepare`.
//!
//! The paper-table binaries in `olive-bench`, the runnable examples and the
//! integration tests are all thin drivers over this API.
//!
//! ```
//! use olive_api::{ModelFamily, Pipeline, Scheme};
//!
//! // Schemes are addressable by name…
//! let scheme = Scheme::parse("olive-4bit").unwrap();
//! assert_eq!(scheme.build().name(), "OliVe-4bit");
//!
//! // …and a whole comparison is one builder chain.
//! let report = Pipeline::new(ModelFamily::Bert.tiny())
//!     .schemes(["olive-4bit", "uniform:4"])
//!     .seed(7)
//!     .batches(3)
//!     .run();
//! let olive = report.result("olive-4bit").unwrap().fidelity;
//! let int4 = report.result("uniform:4").unwrap().fidelity;
//! assert!(olive > int4, "OliVe must beat plain int4: {olive} vs {int4}");
//! ```

pub mod artifact;
pub mod gen;
pub mod json;
pub mod pipeline;
pub mod scheme;

pub use artifact::{ArtifactPayload, ModelArtifact};
pub use gen::{
    GenOptions, GenReport, GenSchemeResult, GenStep, PreparedGen, DEFAULT_MAX_NEW_TOKENS,
    DEFAULT_PROMPT_TOKENS,
};
pub use json::{JsonParseError, JsonValue};
pub use olive_core::Granularity;
pub use olive_models::artifact::ArtifactError;
pub use pipeline::{
    Calibration, EvalReport, GemmProfile, ModelFamily, ModelSpec, Pipeline, PreparedEval,
    SchemeResult, DEFAULT_BATCHES, DEFAULT_OVERSAMPLE,
};
pub use scheme::{accel_designs, Scheme, SchemeError, SchemeKind};
