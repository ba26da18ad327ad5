//! # olive-router
//!
//! A zero-dependency HTTP front door that scales `olive-serve` horizontally:
//! N worker processes behind one address, with each request consistent-hashed
//! to the worker whose cache already holds its model. Everything is `std` —
//! the router is one more `olive_serve::daemon::Service` behind the
//! connection loop every worker runs, over the serving crate's HTTP/1.1
//! layer and client — so the whole scale-out story adds no dependency.
//!
//! ## Topology
//!
//! ```text
//!                         ┌──────────────┐   consistent hash of the
//!   clients ──────────────▶ olive-router │   request's model cache key
//!                         └──┬────┬────┬─┘
//!                            │    │    │
//!                   ┌────────┘    │    └────────┐
//!              ┌────▼─────┐ ┌─────▼────┐ ┌──────▼───┐
//!              │ worker 0 │ │ worker 1 │ │ worker 2 │   olive-serve,
//!              └──────────┘ └──────────┘ └──────────┘   optionally
//!                                                       --artifact-dir
//! ```
//!
//! The routing key is the request's **model cache key** (see
//! `olive_serve::protocol` — family/size/seed/batches/calibration for eval,
//! family/size/seed/prompt for generation), so every scheme variant of one
//! prepared model lands on the same worker and quantize-once-serve-many
//! keeps holding across the fleet. The [`ring`] gives minimal remapping:
//! resizing the fleet only moves the keys whose arcs changed hands.
//!
//! ## The routed-byte-identity contract
//!
//! A response proxied through the router is **byte-identical** to the same
//! request answered by a single worker directly:
//!
//! * unary bodies (`/v1/eval`, `/v1/quantize`, `/v1/schemes`) are relayed
//!   without modification;
//! * a streamed `/v1/generate` reply is relayed **chunk-by-chunk** as each
//!   chunk is decoded — chunks concatenated equal the direct response's
//!   chunks concatenated, and chunk boundaries themselves are preserved;
//! * because every worker computes identical bytes for the same request
//!   (the serving determinism contract of `olive_serve`), retry and
//!   fail-over can never change an answer — only whether one arrives.
//!
//! `crates/router/tests/routed.rs` enforces this end to end against live
//! workers, including a kill-one-worker fail-over; `scripts/router_smoke.sh`
//! drives the same topology as real processes.
//!
//! ## Failure policy
//!
//! * A worker 503 (back-pressure) is retried once on the **same** worker
//!   after honouring its `Retry-After` (capped by
//!   [`RouterConfig::retry_after_cap`]), then failed over.
//! * A connect/read failure fails over immediately; nothing has reached the
//!   client. After [`RouterConfig::unhealthy_after`] consecutive failures a
//!   worker is demoted to last-resort until a background `/healthz` probe
//!   (every [`RouterConfig::probe_interval`]) sees it answer again.
//! * Once a stream's chunked head has been written, a mid-stream failure
//!   truncates the relay without the terminating chunk — exactly the framing
//!   error a direct connection to a dying worker produces — rather than
//!   risking duplicated bytes through a mid-stream fail-over.
//! * With no worker answering at all, the router sheds the request with its
//!   own `503` + `Retry-After: 1`.
//!
//! The router's `GET /healthz` doubles as an active probe: it reports
//! `workers`/`workers_healthy`, the router's own counters (served, retried,
//! failed-over, rejected), and the workers' numeric gauges summed under
//! `"upstream"`.
//!
//! ## Observability
//!
//! `GET /metrics` serves the same counters — plus a per-worker breakdown
//! (requests, retries, fail-overs, sheds, health transitions and a live
//! health gauge per worker) and per-endpoint latency histograms — as
//! Prometheus text exposition; see `crates/telemetry/METRICS.md` for the
//! full reference. Every proxied request is stamped with an `x-olive-trace`
//! header (generated here unless the client supplied one), which the worker
//! echoes and both daemons record span timelines under: `GET
//! /debug/trace?n=K` returns the most recent K. Telemetry is strictly out
//! of band — proxied bodies stay byte-identical with it on or off.
//!
//! ## Quickstart
//!
//! Spawn-and-route in one process (the `olive-router` binary wraps this as
//! `olive-router --spawn 3`; see the README's "Scale-out" section):
//!
//! ```no_run
//! use olive_router::{Router, RouterConfig};
//!
//! let router = Router::start(RouterConfig {
//!     workers: vec!["127.0.0.1:8001".into(), "127.0.0.1:8002".into()],
//!     ..RouterConfig::default()
//! })
//! .unwrap();
//! println!("routing on {}", router.url());
//! router.wait();
//! ```

pub mod ring;
pub mod server;
pub mod spawn;

pub use ring::{Ring, VNODES};
pub use server::{Router, RouterConfig};
pub use spawn::SpawnedWorker;
