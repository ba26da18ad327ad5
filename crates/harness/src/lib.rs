//! # olive-harness
//!
//! The in-repo test/bench harness of the OliVe reproduction. This workspace is
//! built and tested **offline** (no crates.io access), so the usual `proptest`
//! and `criterion` dependencies are replaced by this crate:
//!
//! * [`check`](mod@check) — a deterministic property-testing runner: properties are
//!   checked over seeded pseudo-random cases drawn with [`gen`] strategies on
//!   top of [`olive_tensor::rng::Rng`]; a failing case is reported with its
//!   property name, case index, seed and `Debug`-rendered input so it can be
//!   replayed exactly.
//! * [`gen`] — composable case generators (numeric ranges, vectors, seeds).
//! * [`bench`](mod@bench) — a `std::time`-based micro-benchmark runner with warmup,
//!   per-iteration samples, median/p95/min/mean statistics and optional
//!   element throughput, reported as a plain-text [`report::Table`].
//! * [`report`] — the fixed-width text/CSV table renderer shared with the
//!   figure/table binaries (re-exported as `olive_bench::report`).
//!
//! ## Property example
//!
//! ```
//! use olive_harness::{check, gen, prop_assert};
//!
//! check::check("abs_is_nonnegative", gen::f32_in(-100.0, 100.0), |&x| {
//!     prop_assert!(x.abs() >= 0.0, "abs({x}) was negative");
//!     Ok(())
//! });
//! ```
//!
//! ## Bench example
//!
//! ```
//! use olive_harness::bench::{black_box, BenchSuite};
//!
//! let mut suite = BenchSuite::new("doc_example");
//! suite.bench("sum_1k", || black_box((0..1000u64).sum::<u64>()));
//! let report = suite.render();
//! assert!(report.contains("sum_1k"));
//! ```

pub mod bench;
pub mod check;
pub mod gen;
pub mod report;

pub use bench::{black_box, BenchConfig, BenchSuite, Measurement};
pub use check::{check, check_with, try_check, CheckConfig, Failure};
pub use olive_tensor::rng::Rng;
