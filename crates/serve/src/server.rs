//! The TCP accept loop, connection handling and endpoint routing.

use crate::admission::Admission;
use crate::cache::ModelCache;
use crate::decode_sched::{DecodeScheduler, SchedConfig, StreamEvent};
use crate::http::{
    read_request, write_chunk, write_chunked_head_with, write_last_chunk, ReadOutcome, Request,
    Response, IDLE_TIMEOUT,
};
use crate::protocol::{render_schemes_body, EvalRequest, GenerateRequest, QuantizeRequest};
use olive_api::JsonValue;
use olive_runtime::lock_or_recover;
use olive_telemetry::{latency_buckets_us, Counter, Gauge, Span, Stopwatch, Telemetry};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// How long a kept-alive connection may sit idle before the server closes
/// it, in units of [`IDLE_TIMEOUT`] polling ticks (20 × 500 ms = 10 s).
const MAX_IDLE_TICKS: u32 = 20;

/// The trace-correlation header: stamped by the router, generated by the
/// worker when absent, echoed on every response. Headers are the only place
/// a trace id appears — response *bodies* are byte-identical with tracing
/// on or off.
pub const TRACE_HEADER: &str = "x-olive-trace";

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
/// monotone counts): refreshed under [`ServerState::refresh_gauges`] right
/// before `/healthz` and `/metrics` render.
struct ScrapeGauges {
    queue_depth: Gauge,
    cached_models: Gauge,
    cached_generators: Gauge,
    cached_responses: Gauge,
    cached_artifacts: Gauge,
}

struct ServerState {
    config: ServeConfig,
    unary: Admission,
    scheduler: DecodeScheduler,
    cache: Arc<ModelCache>,
    telemetry: Telemetry,
    /// Pre-rendered `/v1/schemes` body (the registry is static).
    schemes_body: String,
    shutdown: AtomicBool,
    connections: Counter,
    scrape: ScrapeGauges,
    local_addr: SocketAddr,
}

impl ServerState {
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

    fn healthz_body(&self) -> String {
        self.refresh_gauges();
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
            (
                "connections_accepted",
                JsonValue::UInt(self.connections.get()),
            ),
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

    /// One per-request observation: a labelled count by endpoint and status
    /// class, and (timing on) the wall-clock service latency. Registration
    /// is idempotent, so the hot path is a registry lookup + atomic bump.
    fn record_request(&self, endpoint: &str, status: u16, served: &Stopwatch) {
        let class = match status {
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            _ => "5xx",
        };
        let registry = self.telemetry.registry();
        registry
            .counter_with(
                "olive_http_requests_total",
                "Requests served, by endpoint and status class.",
                &[("endpoint", endpoint), ("status", class)],
            )
            .inc();
        registry
            .histogram_with(
                "olive_http_request_duration_us",
                "Wall-clock request service time (read to last byte written), in microseconds.",
                &latency_buckets_us(),
                &[("endpoint", endpoint)],
            )
            .observe_elapsed(served);
    }
}

/// The label value for the `endpoint` dimension: known paths verbatim,
/// everything else collapsed to `other` so scans cannot explode metric
/// cardinality.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/debug/trace" => "/debug/trace",
        "/v1/schemes" => "/v1/schemes",
        "/v1/eval" => "/v1/eval",
        "/v1/generate" => "/v1/generate",
        "/v1/quantize" => "/v1/quantize",
        "/shutdown" => "/shutdown",
        _ => "other",
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`] leaves
/// the accept thread running for the life of the process; tests and
/// embedders should shut down explicitly.
pub struct Server {
    state: Arc<ServerState>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
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
        let local_addr = listener.local_addr()?;
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
        let connections = registry.counter(
            "olive_connections_accepted_total",
            "TCP connections accepted since startup.",
        );
        let state = Arc::new(ServerState {
            unary: Admission::new(config.unary_capacity, telemetry.clone()),
            scheduler: DecodeScheduler::start(
                config.sched.clone(),
                Arc::clone(&cache),
                telemetry.clone(),
            ),
            cache,
            telemetry,
            schemes_body: render_schemes_body(),
            shutdown: AtomicBool::new(false),
            connections,
            scrape,
            local_addr,
            config,
        });
        let accept_state = Arc::clone(&state);
        let accept_handle = std::thread::Builder::new()
            .name("olive-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_state))?;
        Ok(Server {
            state,
            accept_handle: Mutex::new(Some(accept_handle)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// `http://host:port` of the bound address.
    pub fn url(&self) -> String {
        format!("http://{}", self.state.local_addr)
    }

    /// True once shutdown has been requested (via [`Server::shutdown`] or
    /// `POST /shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is requested, then tears the server down:
    /// stops accepting, waits for admitted unary jobs, drains queued
    /// streams, joins the worker threads. The daemon binary's main loop.
    pub fn wait(&self) {
        if let Some(handle) = lock_or_recover(&self.accept_handle).take() {
            let _ = handle.join();
        }
        self.state.unary.close_and_wait();
        self.state.scheduler.shutdown();
    }

    /// Requests shutdown and waits for it to complete. Idempotent.
    pub fn shutdown(&self) {
        request_shutdown(&self.state);
        self.wait();
    }
}

/// Flags shutdown and pokes the listener so the accept loop observes it.
fn request_shutdown(state: &ServerState) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Wake the blocking accept with a throwaway connection.
    let _ = TcpStream::connect(state.local_addr);
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        state.connections.inc();
        let state = Arc::clone(state);
        // Connection threads are detached: they exit on their own via
        // keep-alive idle polling once shutdown is flagged.
        let _ = std::thread::Builder::new()
            .name("olive-serve-conn".into())
            .spawn(move || handle_connection(stream, &state));
    }
}

fn handle_connection(stream: TcpStream, state: &ServerState) {
    // The read timeout doubles as the shutdown-polling tick; NODELAY because
    // request/response exchanges are small and latency-bound.
    if stream.set_read_timeout(Some(IDLE_TIMEOUT)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut idle_ticks = 0u32;
    loop {
        match read_request(&mut reader) {
            ReadOutcome::Disconnected => return,
            ReadOutcome::Idle => {
                idle_ticks += 1;
                if idle_ticks >= MAX_IDLE_TICKS || state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            ReadOutcome::Bad(error) => {
                // Protocol violations close the connection: framing is gone.
                let _ = Response::error(error.status, &error.message).write_to(&mut writer, false);
                return;
            }
            ReadOutcome::Request(request) => {
                idle_ticks = 0;
                let endpoint = endpoint_label(&request.path);
                let served = state.telemetry.stopwatch();
                // The router stamps the trace header; a worker reached
                // directly generates its own id. Either way the id is echoed
                // back so the client can correlate with /debug/trace.
                let tracer = state.telemetry.tracer();
                let trace_id = match request.header(TRACE_HEADER) {
                    Some(id) => Some(id.to_string()),
                    None => tracer.enabled().then(|| tracer.new_trace_id()),
                };
                let span = trace_id.as_deref().and_then(|id| tracer.span(id, endpoint));
                if let Some(span) = &span {
                    span.event("accepted");
                }
                let trace_headers: Vec<(String, String)> = trace_id
                    .iter()
                    .map(|id| (TRACE_HEADER.to_string(), id.clone()))
                    .collect();
                match route(&request, state, &span) {
                    Routed::Unary {
                        mut response,
                        shutdown,
                    } => {
                        let keep_alive = request.keep_alive()
                            && !shutdown
                            && !state.shutdown.load(Ordering::SeqCst);
                        for (name, value) in &trace_headers {
                            response = response.with_header(name, value);
                        }
                        // Telemetry commits before the reply is on the wire:
                        // a client that saw a complete response must also see
                        // it counted in /metrics and traced in /debug/trace.
                        state.record_request(endpoint, response.status, &served);
                        if let Some(span) = &span {
                            span.finish();
                        }
                        // The response must be on the wire before shutdown is
                        // triggered: once the accept loop unblocks, the
                        // process may exit while this (detached) thread is
                        // still writing.
                        let write_result = response.write_to(&mut writer, keep_alive);
                        if shutdown {
                            request_shutdown(state);
                        }
                        if write_result.is_err() || !keep_alive {
                            return;
                        }
                    }
                    Routed::Stream(events) => {
                        let keep_alive =
                            request.keep_alive() && !state.shutdown.load(Ordering::SeqCst);
                        let outcome = stream_response(
                            &mut writer,
                            &events,
                            keep_alive,
                            &trace_headers,
                            state,
                            endpoint,
                            &served,
                            span.as_deref(),
                        );
                        // Backstop for the early-write-error paths, where
                        // stream_response never reached a terminal event;
                        // a no-op when the span was already finished there.
                        if let Some(span) = &span {
                            span.finish();
                        }
                        match outcome {
                            Ok(true) if keep_alive => {}
                            // Framing gone (truncated stream) or client asked
                            // to close: the connection cannot be reused.
                            _ => return,
                        }
                    }
                }
            }
        }
    }
}

/// Streams a `/v1/generate` reply: the first event decides between a plain
/// error response and a chunked 200; afterwards every fragment is written as
/// its own chunk the moment it arrives. Returns `clean`, true only when the
/// stream terminated cleanly — the connection's framing is intact and
/// keep-alive reuse is safe.
///
/// Telemetry (the request counter/latency observation and the span) commits
/// **before** the terminal write of each arm: a client that saw a complete
/// response must also see it counted in /metrics and traced in /debug/trace.
#[allow(clippy::too_many_arguments)]
fn stream_response(
    writer: &mut TcpStream,
    events: &mpsc::Receiver<StreamEvent>,
    keep_alive: bool,
    extra_headers: &[(String, String)],
    state: &ServerState,
    endpoint: &str,
    served: &Stopwatch,
    span: Option<&Span>,
) -> std::io::Result<bool> {
    let finalize = |status: u16| {
        state.record_request(endpoint, status, served);
        if let Some(span) = span {
            span.finish();
        }
    };
    match events.recv() {
        Ok(StreamEvent::Failed(mut response)) => {
            for (name, value) in extra_headers {
                response = response.with_header(name, value);
            }
            finalize(response.status);
            response.write_to(writer, keep_alive)?;
            Ok(true)
        }
        Ok(StreamEvent::Chunk(first)) => {
            write_chunked_head_with(writer, 200, keep_alive, extra_headers)?;
            if let Some(span) = span {
                span.event("first-byte");
            }
            write_chunk(writer, &first)?;
            loop {
                match events.recv() {
                    Ok(StreamEvent::Chunk(data)) => write_chunk(writer, &data)?,
                    Ok(StreamEvent::Done) => {
                        finalize(200);
                        write_last_chunk(writer)?;
                        return Ok(true);
                    }
                    // A mid-stream failure (worker panic) truncates the body
                    // without the terminating chunk: the client sees a hard
                    // framing error, never a complete-looking answer.
                    Ok(StreamEvent::Failed(_)) | Err(_) => {
                        finalize(200);
                        return Ok(false);
                    }
                }
            }
        }
        // An empty stream (nothing produced) is still a well-formed chunked
        // body; and a worker that died before any event is a plain 500.
        Ok(StreamEvent::Done) => {
            finalize(200);
            write_chunked_head_with(writer, 200, keep_alive, extra_headers)?;
            write_last_chunk(writer)?;
            Ok(true)
        }
        Err(_) => {
            finalize(500);
            Response::error(500, "decode worker terminated unexpectedly")
                .write_to(writer, false)?;
            Ok(false)
        }
    }
}

/// A routed outcome: either a complete response (plus whether server
/// shutdown must be triggered after it has been written out), or a stream of
/// events to relay as chunked transfer-encoding.
enum Routed {
    Unary { response: Response, shutdown: bool },
    Stream(mpsc::Receiver<StreamEvent>),
}

impl From<Response> for Routed {
    fn from(response: Response) -> Self {
        Routed::Unary {
            response,
            shutdown: false,
        }
    }
}

fn route(request: &Request, state: &ServerState, span: &Option<Arc<Span>>) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, state.healthz_body()).into(),
        ("GET", "/metrics") => {
            state.refresh_gauges();
            Response::text(200, state.telemetry.registry().render()).into()
        }
        ("GET", "/debug/trace") => {
            let n = request
                .query_param("n")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(32);
            let traces: Vec<String> = state
                .telemetry
                .tracer()
                .recent(n)
                .iter()
                .map(olive_telemetry::TraceRecord::to_json)
                .collect();
            Response::json(200, format!("{{\"traces\": [{}]}}", traces.join(", "))).into()
        }
        ("GET", "/v1/schemes") => Response::json(200, state.schemes_body.clone()).into(),
        ("POST", "/v1/eval") => match decode_body(request)
            .and_then(|v| EvalRequest::decode(&v).map_err(|e| Response::error(400, &e.0)))
        {
            // A response-cache hit skips admission, so it is never shed.
            Ok(req) => match state.cache.cached_eval_body(&req) {
                Some(hit) => state
                    .unary
                    .serve(span.as_deref(), false, move || {
                        Response::json(200, hit.as_str())
                    })
                    .into(),
                None => {
                    let cache = Arc::clone(&state.cache);
                    state
                        .unary
                        .serve(span.as_deref(), true, move || {
                            Response::json(200, cache.eval_body(&req).as_str())
                        })
                        .into()
                }
            },
            Err(response) => response.into(),
        },
        ("POST", "/v1/generate") => match decode_body(request)
            .and_then(|v| GenerateRequest::decode(&v).map_err(|e| Response::error(400, &e.0)))
        {
            Ok(req) => match state.scheduler.submit(req, span.clone()) {
                Ok(events) => Routed::Stream(events),
                Err(response) => response.into(),
            },
            Err(response) => response.into(),
        },
        ("POST", "/v1/quantize") => match decode_body(request)
            .and_then(|v| QuantizeRequest::decode(&v).map_err(|e| Response::error(400, &e.0)))
        {
            Ok(req) => state
                .unary
                .serve(span.as_deref(), true, move || {
                    Response::json(200, req.execute())
                })
                .into(),
            Err(response) => response.into(),
        },
        ("POST", "/shutdown") => {
            if state.config.allow_shutdown {
                Routed::Unary {
                    response: Response::json(
                        200,
                        JsonValue::object(vec![("status", JsonValue::Str("shutting down".into()))])
                            .render(),
                    ),
                    shutdown: true,
                }
            } else {
                Response::error(
                    403,
                    "shutdown over HTTP is disabled (start with --allow-shutdown)",
                )
                .into()
            }
        }
        // Known path, wrong method.
        (_, "/healthz" | "/metrics" | "/debug/trace" | "/v1/schemes") => {
            Response::error(405, "use GET")
                .with_header("Allow", "GET")
                .into()
        }
        (_, "/v1/eval" | "/v1/generate" | "/v1/quantize" | "/shutdown") => {
            Response::error(405, "use POST")
                .with_header("Allow", "POST")
                .into()
        }
        (_, path) => Response::error(
            404,
            &format!(
                "no such endpoint '{path}' (have: GET /healthz, GET /metrics, \
                 GET /v1/schemes, POST /v1/eval, POST /v1/generate, POST /v1/quantize)"
            ),
        )
        .into(),
    }
}

/// Parses a request body as JSON, mapping failures to 400 responses.
fn decode_body(request: &Request) -> Result<JsonValue, Response> {
    let text = request
        .body_utf8()
        .map_err(|e| Response::error(e.status, &e.message))?;
    if text.trim().is_empty() {
        return Err(Response::error(400, "expected a JSON request body"));
    }
    JsonValue::parse(text).map_err(|e| Response::error(400, &e.to_string()))
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

        let slot = server.state.unary.admit().expect("the only slot is free");
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
