//! # olive-serve
//!
//! A zero-dependency HTTP/1.1 inference-and-evaluation server over the OliVe
//! scheme registry — the layer that turns the reproduction's batch
//! experiments into a long-lived service. Everything is `std`: the socket
//! loop is `std::net::TcpListener`, the wire format is the workspace's own
//! `olive_api::json`, and request execution rides the `olive-runtime` worker
//! pool from PR 2.
//!
//! ## Endpoints
//!
//! | Endpoint            | Method | Body                                   |
//! |---------------------|--------|----------------------------------------|
//! | `/healthz`          | GET    | — (liveness + serving counters)        |
//! | `/v1/schemes`       | GET    | — (the scheme registry)                |
//! | `/v1/eval`          | POST   | `{"scheme"\|"schemes", "family", "size", "seed", "batches", …}` |
//! | `/v1/generate`      | POST   | `{"scheme", "prompt_tokens", "max_new_tokens", …}` — **streamed** |
//! | `/v1/quantize`      | POST   | `{"scheme", "rows", "cols", "data"}`   |
//! | `/metrics`          | GET    | — (Prometheus text exposition)         |
//! | `/debug/trace`      | GET    | — (`?n=K` recent request traces)       |
//! | `/shutdown`         | POST   | — (403 unless `allow_shutdown` is set) |
//!
//! ## Streaming generation & continuous batching
//!
//! `/v1/generate` decodes one scheme autoregressively (greedy, KV-cached)
//! and streams the report as **chunked transfer-encoding** over the same
//! keep-alive HTTP/1.1 layer: one chunk for the JSON head, one chunk per
//! decode step the moment its token is produced, then the per-scheme
//! summary and the terminating chunk.
//!
//! Generation requests do **not** take the unary path. They are admitted
//! onto the continuous-batching decode scheduler ([`decode_sched`]): each
//! in-flight stream holds externally-owned KV state paged out of a shared
//! [`olive_models::KvPool`], and every scheduler tick merges the *current
//! step* of all live streams — a new stream's whole prompt, then one token
//! per tick — into one batched causal forward per model group
//! ([`olive_models::TinyTransformer::feed_batch`]), then fans the produced
//! fragments back out to their connections. New streams join the
//! batch at the next tick instead of waiting for running ones to finish —
//! no head-of-line blocking — and the door keeps the unary path's 503 +
//! `Retry-After` back-pressure contract. The prepared teacher + prompt are
//! cached per `(family, size, seed, prompt_tokens)` and the quantized
//! student per scheme on top of that, so scheme comparisons share one
//! preparation.
//!
//! ## The determinism contract
//!
//! An `/v1/eval` response body is **byte-identical** to rendering the same
//! evaluation directly:
//!
//! ```text
//! Pipeline (same family/size/schemes/seed/batches/calibration)
//!     .run().without_wall_times().to_json()
//! ```
//!
//! and a streamed `/v1/generate` response — chunks concatenated — is
//! byte-identical to the direct
//!
//! ```text
//! Pipeline (same family/size/scheme/seed)
//!     .generation(GenOptions::new()
//!         .prompt_tokens(p).max_new_tokens(m))
//!     .without_wall_times().to_json()
//! ```
//!
//! at *any* admission state, concurrency level, session interleaving and
//! `OLIVE_THREADS` setting. This holds by construction, not by testing
//! alone:
//!
//! * each request is computed by a pure function of its decoded parameters —
//!   admission only decides *whether* it runs now, and the pool only
//!   chooses *which thread* computes each row range, never how (the
//!   `olive-runtime` contract);
//! * the model cache is keyed by everything that feeds the computation, so a
//!   hit returns bytes a miss would have produced;
//! * the incremental decode path obeys the **decode-cache determinism
//!   contract** (see [`olive_models::decode`]): the logits
//!   [`feed_batch`](olive_models::TinyTransformer::feed_batch) produces
//!   for a stream's run are bit-identical to pushing its tokens alone —
//!   per-row normalisation, softmax and quantization, element-wise
//!   activations and fixed ascending-`k` GEMM accumulation — and the paged
//!   KV layout is byte-equivalent to a contiguous cache, so merging steps
//!   across sessions can never change a streamed token;
//! * the streamed JSON is assembled from the same fragments
//!   `GenReport::to_json` concatenates (`olive_api::gen`), so chunking can
//!   never change the bytes, only their framing;
//! * wall-clock times — the one measurement in an [`EvalReport`] or
//!   `GenReport` — are stripped (`without_wall_times`) before rendering.
//!
//! `crates/serve/tests/determinism.rs` enforces both contracts end to end
//! with concurrent clients at `OLIVE_THREADS` ∈ {1, 8}, with streamed and
//! unary requests interleaved over the same kept-alive connections;
//! `crates/serve/tests/continuous.rs` runs the concurrent-session matrix
//! (staggered starts, mixed prompt lengths, a mid-stream disconnect)
//! against the decode scheduler.
//!
//! ## Unary admission & back-pressure
//!
//! `/v1/eval` and `/v1/quantize` jobs never share compute, so they are not
//! batched: each is answered on the connection thread that read it. An
//! `/v1/eval` response-cache hit is answered before admission and is never
//! shed. Every other unary request takes a slot from a bounded in-flight
//! counter (`--queue-capacity`, default 64); when every slot is taken the
//! server answers **503 + `Retry-After: 1`** immediately: overload is shed
//! at the door, visible to clients, instead of growing an unbounded
//! backlog. Admitted misses share the CPUs — up to `--queue-capacity` at
//! once, their row-parallel kernels taking turns on the global pool —
//! rather than waiting in FIFO order. Quantize-once-serve-many lives in
//! [`cache`]: teachers are prepared once per configuration and shared
//! across requests and schemes.
//!
//! ## Observability
//!
//! `GET /metrics` serves the full serving state — per-endpoint request
//! counts and latency histograms, unary admission-wait/execute splits, decode
//! tick durations, time to first chunk and to first token, cache occupancy
//! and KV-page gauges — as Prometheus text exposition via `olive_telemetry`;
//! see `crates/telemetry/METRICS.md` for the reference. Every request
//! carries an `x-olive-trace` id (honoured from the router, generated
//! otherwise, echoed on the response) and its span timeline (accepted →
//! queued → batched → first-byte → first-token → done) lands in a bounded
//! flight recorder behind `GET /debug/trace?n=K` (and, with `--trace-log`,
//! as JSON lines on disk).
//! Telemetry is strictly **out of band**: response bodies are byte-identical
//! with it on or off (`crates/serve/tests/telemetry.rs` proves both), and
//! telemetry commits before a response's final byte is written, so a client
//! that saw an answer always finds it counted.
//!
//! ## Quickstart (in-process)
//!
//! ```
//! use olive_serve::{client, Server, ServeConfig};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let health = client::get(server.local_addr(), "/healthz").unwrap();
//! assert_eq!(health.status, 200);
//! let eval = client::post_json(
//!     server.local_addr(),
//!     "/v1/eval",
//!     r#"{"scheme": "olive-4bit", "batches": 2, "oversample": 2}"#,
//! )
//! .unwrap();
//! assert_eq!(eval.status, 200);
//! assert!(eval.body.contains("\"spec\": \"olive-4bit\""));
//! server.shutdown();
//! ```
//!
//! The `olive-serve` binary wraps [`Server`] as a daemon (`--port`,
//! `--queue-capacity`, `--allow-shutdown`, …), and `serve_client` is a
//! std-only CLI client for smoke scripts; see the README's "Serving"
//! section for the curl quickstart.
//!
//! [`EvalReport`]: olive_api::EvalReport

mod admission;
pub mod cache;
pub mod client;
pub mod decode_sched;
pub mod http;
pub mod protocol;
pub mod server;

pub use cache::ModelCache;
pub use decode_sched::{DecodeScheduler, SchedConfig, SchedStats, StreamEvent};
pub use http::{Request, Response};
pub use olive_telemetry::TelemetryOptions;
pub use protocol::{EvalRequest, GenerateRequest, ModelSize, QuantizeRequest};
pub use server::{ServeConfig, Server, TRACE_HEADER};
