//! `olive-serve`'s [`Service`]: admission, the decode scheduler, the model
//! cache and the `/v1/*` endpoints, behind the shared [`Daemon`].

use crate::admission::Admission;
use crate::cache::ModelCache;
use crate::daemon::{Daemon, Exchange, Service};
use crate::decode_sched::{DecodeScheduler, SchedConfig, StreamEvent};
use crate::http::{Request, Response};
use crate::protocol::{
    render_schemes_body, DecodeError, EvalRequest, GenerateRequest, QuantizeRequest,
};
use olive_api::JsonValue;
use olive_telemetry::{Gauge, Telemetry};
use std::net::{SocketAddr, TcpListener};
use std::sync::{mpsc, Arc};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Most unary jobs (`/v1/eval` misses, `/v1/quantize`) computing at
    /// once; one more is answered 503 + `Retry-After: 1`. Response-cache
    /// hits never count against it. `--queue-capacity` sets it together
    /// with the decode queue bound.
    pub unary_capacity: usize,
    /// Continuous-batching policy for `/v1/generate` (see [`SchedConfig`]).
    pub sched: SchedConfig,
    /// Whether `POST /shutdown` is honoured (the smoke harness uses it; off
    /// by default so a stray request cannot stop a real deployment).
    pub allow_shutdown: bool,
    /// Directory of `olive-prepare` model snapshots. When set, preparation
    /// misses cold-start from disk (bit-identically) instead of quantizing
    /// in-process; see [`crate::cache::ModelCache::with_artifact_dir`].
    pub artifact_dir: Option<std::path::PathBuf>,
    /// Observability switches (latency timing, tracing, `--trace-log`).
    /// Counters and gauges stay live even when `enabled` is off — `/healthz`
    /// and `/metrics` depend on them.
    pub telemetry: olive_telemetry::TelemetryOptions,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            unary_capacity: 64,
            sched: SchedConfig::default(),
            allow_shutdown: false,
            artifact_dir: None,
            telemetry: olive_telemetry::TelemetryOptions::default(),
        }
    }
}

/// Gauges that are meaningless between scrapes (they mirror live sizes, not
/// monotone counts): refreshed under [`Service::refresh_gauges`] right
/// before `/healthz` and `/metrics` render.
struct ScrapeGauges {
    queue_depth: Gauge,
    cached_models: Gauge,
    cached_generators: Gauge,
    cached_responses: Gauge,
    cached_artifacts: Gauge,
}

struct ServerState {
    unary: Admission,
    scheduler: DecodeScheduler,
    cache: Arc<ModelCache>,
    /// Pre-rendered `/v1/schemes` body (the registry is static).
    schemes_body: String,
    scrape: ScrapeGauges,
}

/// A running server. Dropping it without calling [`Server::shutdown`] leaves
/// the accept thread running for the life of the process; tests and
/// embedders should shut down explicitly.
pub struct Server {
    daemon: Daemon<ServerState>,
}

impl Server {
    /// Binds and starts serving in background threads; returns once the
    /// listener is accepting.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, …) and
    /// trace-log open failures.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let telemetry = Telemetry::new(&config.telemetry)?;
        let listener = TcpListener::bind(&config.addr)?;
        let cache = Arc::new(ModelCache::with_artifact_dir(config.artifact_dir.clone()));
        let registry = telemetry.registry();
        let scrape = ScrapeGauges {
            queue_depth: registry.gauge(
                "olive_queue_depth",
                "Unary jobs in flight plus requests queued for the decode scheduler.",
            ),
            cached_models: registry.gauge(
                "olive_cached_models",
                "Prepared evaluation models resident in the cache.",
            ),
            cached_generators: registry.gauge(
                "olive_cached_generators",
                "Prepared generation pipelines resident in the cache.",
            ),
            cached_responses: registry.gauge(
                "olive_cached_responses",
                "Memoized unary response bodies resident in the cache.",
            ),
            cached_artifacts: registry.gauge(
                "olive_cached_artifacts",
                "Model snapshots cold-started from the artifact directory.",
            ),
        };
        let state = ServerState {
            unary: Admission::new(config.unary_capacity, telemetry.clone()),
            scheduler: DecodeScheduler::start(config.sched, Arc::clone(&cache), telemetry.clone()),
            cache,
            schemes_body: render_schemes_body(),
            scrape,
        };
        let daemon = Daemon::start(
            listener,
            Arc::new(state),
            telemetry,
            config.allow_shutdown,
            "olive-serve",
            "olive",
        )?;
        Ok(Server { daemon })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// `http://host:port` of the bound address.
    pub fn url(&self) -> String {
        format!("http://{}", self.local_addr())
    }

    /// True once shutdown has been requested (via [`Server::shutdown`] or
    /// `POST /shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.daemon.shutdown_requested()
    }

    /// Blocks until shutdown is requested, then tears the server down:
    /// stops accepting, waits for admitted unary jobs, drains queued
    /// streams, joins the worker threads. The daemon binary's main loop.
    pub fn wait(&self) {
        self.daemon.wait();
        self.daemon.service().unary.close_and_wait();
        self.daemon.service().scheduler.shutdown();
    }

    /// Requests shutdown and waits for it to complete. Idempotent.
    pub fn shutdown(&self) {
        self.daemon.request_shutdown();
        self.wait();
    }
}

impl Service for ServerState {
    fn healthz(&self, connections: u64) -> String {
        let unary = &self.unary;
        let sched = self.scheduler.stats();
        // Sessions fed per tick, keyed by the batch size as a decimal string
        // (BTreeMap keeps the keys in ascending numeric-by-construction
        // order — sizes only grow by one digit past 9 with max_sessions > 9,
        // where the histogram is still deterministic per run).
        let batch_sizes = JsonValue::object(
            sched
                .batch_size_histogram()
                .iter()
                .map(|(size, count)| (size.to_string(), JsonValue::UInt(*count)))
                .collect::<Vec<_>>(),
        );
        JsonValue::object(vec![
            ("status", JsonValue::Str("ok".into())),
            (
                "requests_served",
                JsonValue::UInt(unary.served.get() + sched.served.get()),
            ),
            (
                "requests_rejected",
                JsonValue::UInt(unary.rejected.get() + sched.rejected.get()),
            ),
            ("batches_executed", JsonValue::UInt(unary.batches.get())),
            (
                "queue_depth",
                JsonValue::Int(self.scrape.queue_depth.get() as i64),
            ),
            ("connections_accepted", JsonValue::UInt(connections)),
            (
                "cached_models",
                JsonValue::Int(self.scrape.cached_models.get() as i64),
            ),
            (
                "cached_generators",
                JsonValue::Int(self.scrape.cached_generators.get() as i64),
            ),
            (
                "cached_responses",
                JsonValue::Int(self.scrape.cached_responses.get() as i64),
            ),
            (
                "cached_artifacts",
                JsonValue::UInt(self.scrape.cached_artifacts.get()),
            ),
            ("decode_sessions", JsonValue::UInt(sched.sessions.get())),
            ("decode_ticks", JsonValue::UInt(sched.ticks.get())),
            ("kv_pages_used", JsonValue::UInt(sched.kv_pages_used.get())),
            ("kv_pages_free", JsonValue::UInt(sched.kv_pages_free.get())),
            ("decode_batch_sizes", batch_sizes),
        ])
        .render()
    }

    /// Mirrors live sizes (unary jobs in flight plus the decode queue, cache
    /// occupancy) onto their gauges.
    fn refresh_gauges(&self) {
        let (prepared, gen_prepared, responses) = self.cache.sizes();
        self.scrape
            .queue_depth
            .set((self.unary.in_flight() + self.scheduler.queue_depth()) as u64);
        self.scrape.cached_models.set(prepared as u64);
        self.scrape.cached_generators.set(gen_prepared as u64);
        self.scrape.cached_responses.set(responses as u64);
        self.scrape
            .cached_artifacts
            .set(self.cache.artifacts_loaded());
    }

    fn handle(&self, request: &Request, exchange: Exchange<'_>) -> bool {
        let span = exchange.span().map(Arc::as_ref);
        let response = match request.path.as_str() {
            "/v1/schemes" => Response::json(200, self.schemes_body.clone()),
            "/v1/eval" => match decode_body(request, EvalRequest::decode) {
                // A response-cache hit skips admission, so it is never shed.
                Ok(req) => match self.cache.cached_eval_body(&req) {
                    Some(hit) => self
                        .unary
                        .serve(span, false, move || Response::json(200, hit.as_str())),
                    None => {
                        let cache = Arc::clone(&self.cache);
                        self.unary.serve(span, true, move || {
                            Response::json(200, cache.eval_body(&req).as_str())
                        })
                    }
                },
                Err(response) => response,
            },
            "/v1/generate" => match decode_body(request, GenerateRequest::decode)
                .and_then(|req| self.scheduler.submit(req, exchange.span().cloned()))
            {
                Ok(events) => return stream(&events, exchange),
                Err(response) => response,
            },
            // The daemon hands over only the API routes; this is /v1/quantize.
            _ => match decode_body(request, QuantizeRequest::decode) {
                Ok(req) => self
                    .unary
                    .serve(span, true, move || Response::json(200, req.execute())),
                Err(response) => response,
            },
        };
        exchange.reply(response)
    }
}

/// Relays a `/v1/generate` stream's events into `exchange`: each fragment
/// is written as its own chunk the moment it arrives. A client that hangs
/// up, a failed tick, or a scheduler that drops the stream truncates it.
fn stream(events: &mpsc::Receiver<StreamEvent>, mut exchange: Exchange<'_>) -> bool {
    for event in events {
        match event {
            StreamEvent::Chunk(data) => {
                if exchange.chunk(&data).is_err() {
                    break;
                }
            }
            StreamEvent::Done => return exchange.end(),
            StreamEvent::Failed => break,
        }
    }
    exchange.truncate()
}

/// Parses a request body as JSON and decodes it, mapping failures to 400
/// responses.
fn decode_body<T>(
    request: &Request,
    decode: fn(&JsonValue) -> Result<T, DecodeError>,
) -> Result<T, Response> {
    let text = request
        .body_utf8()
        .map_err(|e| Response::error(e.status, &e.message))?;
    if text.trim().is_empty() {
        return Err(Response::error(400, "expected a JSON request body"));
    }
    let json = JsonValue::parse(text).map_err(|e| Response::error(400, &e.to_string()))?;
    decode(&json).map_err(|e| Response::error(400, &e.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{get, post_json};

    #[test]
    fn cache_hits_are_never_shed_when_every_slot_is_taken() {
        let server = Server::start(ServeConfig {
            unary_capacity: 1,
            ..ServeConfig::default()
        })
        .expect("server start");
        let addr = server.local_addr();
        let warm = r#"{"scheme": "fp32", "batches": 2, "oversample": 2}"#;
        let first = post_json(addr, "/v1/eval", warm).expect("eval");
        assert_eq!(first.status, 200, "{}", first.body);

        let slot = server
            .daemon
            .service()
            .unary
            .admit()
            .expect("the only slot is free");
        let fresh = r#"{"scheme": "fp32", "seed": 5, "batches": 2, "oversample": 2}"#;
        let shed = post_json(addr, "/v1/eval", fresh).expect("eval");
        assert_eq!(shed.status, 503, "{}", shed.body);
        assert_eq!(shed.header("Retry-After"), Some("1"));
        let hit = post_json(addr, "/v1/eval", warm).expect("eval");
        assert_eq!(hit.status, 200, "{}", hit.body);
        assert_eq!(hit.body, first.body, "a hit must serve the same bytes");
        let metrics = get(addr, "/metrics").expect("metrics");
        assert!(
            metrics.body.contains("olive_batch_jobs_rejected_total 1\n"),
            "{}",
            metrics.body
        );
        drop(slot);
        server.shutdown();
    }
}
