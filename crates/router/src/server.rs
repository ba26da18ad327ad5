//! The router daemon: accept loop, request proxying, retry and health state.
//!
//! One thread per client connection (mirroring `olive_serve::server`), plus
//! a background probe thread that re-checks unhealthy workers. All shared
//! state is atomics — the request path takes no locks, so a slow worker can
//! never stall an unrelated request through the router itself.

use crate::ring::Ring;
use olive_api::JsonValue;
use olive_runtime::lock_or_recover;
use olive_serve::client::{Connection, HttpResponse, Timeouts};
use olive_serve::http::{
    read_request, write_chunk, write_chunked_head_with, write_last_chunk, ReadOutcome, Request,
    Response, IDLE_TIMEOUT,
};
use olive_serve::{EvalRequest, GenerateRequest, QuantizeRequest, TRACE_HEADER};
use olive_telemetry::{latency_buckets_us, Counter, Gauge, Registry, Span, Stopwatch, Telemetry};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a kept-alive client connection may sit idle before the router
/// closes it, in units of [`IDLE_TIMEOUT`] polling ticks (20 × 500 ms = 10 s)
/// — the same policy the workers apply to their own connections.
const MAX_IDLE_TICKS: u32 = 20;

/// Timeout for health probes and `/healthz` aggregation fetches: these hit
/// an endpoint that never computes anything, so a worker that cannot answer
/// within this budget is treated as down.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// The numeric worker gauges summed into the router's `/healthz` under
/// `"upstream"`, in the workers' own key order. `decode_batch_sizes` (an
/// object histogram) is deliberately absent: summing per-size counts across
/// workers is still meaningful, but the router reports fleet totals, not
/// merged histograms.
const WORKER_GAUGES: [&str; 13] = [
    "requests_served",
    "requests_rejected",
    "batches_executed",
    "queue_depth",
    "connections_accepted",
    "cached_models",
    "cached_generators",
    "cached_responses",
    "cached_artifacts",
    "decode_sessions",
    "decode_ticks",
    "kv_pages_used",
    "kv_pages_free",
];

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Router::local_addr`]).
    pub addr: String,
    /// Worker addresses (`host:port`, with or without an `http://` prefix),
    /// in the order that defines their ring identity. Two routers configured
    /// with the same list route identically.
    pub workers: Vec<String>,
    /// Most *distinct* workers tried per request before answering 503.
    pub max_attempts: u32,
    /// Upper bound on honouring a worker's `Retry-After` before the
    /// same-worker retry — a worker advertising a long back-off should not
    /// pin a router connection for that long.
    pub retry_after_cap: Duration,
    /// Consecutive failures after which a worker is marked unhealthy and
    /// only reached again once a probe succeeds (or as a last resort when
    /// every candidate is unhealthy).
    pub unhealthy_after: u32,
    /// How often the probe thread re-checks unhealthy workers.
    pub probe_interval: Duration,
    /// Timeouts for proxied requests to workers. The read timeout bounds
    /// each streamed chunk gap, so a hung worker surfaces as a failure
    /// instead of a stalled client.
    pub timeouts: Timeouts,
    /// Whether `POST /shutdown` stops the *router* (workers are unaffected;
    /// the daemon binary separately stops workers it spawned itself).
    pub allow_shutdown: bool,
    /// Observability switches (latency timing, tracing, `--trace-log`).
    /// Counters and gauges stay live even when `enabled` is off — `/healthz`
    /// and `/metrics` depend on them.
    pub telemetry: olive_telemetry::TelemetryOptions,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: Vec::new(),
            max_attempts: 3,
            retry_after_cap: Duration::from_secs(1),
            unhealthy_after: 3,
            probe_interval: Duration::from_millis(500),
            timeouts: Timeouts::DEFAULT,
            allow_shutdown: false,
            telemetry: olive_telemetry::TelemetryOptions::default(),
        }
    }
}

/// Per-worker health state and routing counters, updated lock-free from
/// request and probe threads. The counters carry a `worker` label so
/// `/metrics` breaks the fleet down per worker.
struct WorkerSlot {
    addr: String,
    sock: SocketAddr,
    healthy: AtomicBool,
    consecutive_failures: AtomicU32,
    /// Responses served to clients from this worker.
    routed: Counter,
    /// Same-worker retries after this worker answered 503.
    retries: Counter,
    /// Fail-overs *away* from this worker (it failed or stayed backed up).
    failovers: Counter,
    /// Requests shed with 503 after this worker was the last one tried.
    sheds: Counter,
    /// Health flips, labelled by the state entered. Steady-state probe
    /// successes do not count — only actual transitions.
    became_healthy: Counter,
    became_unhealthy: Counter,
    /// 1 while the worker is considered healthy; refreshed at scrape time.
    healthy_gauge: Gauge,
}

impl WorkerSlot {
    fn new(addr: String, sock: SocketAddr, registry: &Registry) -> WorkerSlot {
        let label = [("worker", addr.as_str())];
        WorkerSlot {
            routed: registry.counter_with(
                "olive_router_worker_requests_total",
                "Responses served to clients from this worker.",
                &label,
            ),
            retries: registry.counter_with(
                "olive_router_worker_retries_total",
                "Same-worker retries after a 503 from this worker.",
                &label,
            ),
            failovers: registry.counter_with(
                "olive_router_worker_failovers_total",
                "Fail-overs away from this worker to the next candidate.",
                &label,
            ),
            sheds: registry.counter_with(
                "olive_router_worker_sheds_total",
                "Requests shed with 503 after this worker was the last one tried.",
                &label,
            ),
            became_healthy: registry.counter_with(
                "olive_router_worker_health_transitions_total",
                "Health-state flips, labelled by the state entered.",
                &[("to", "healthy"), ("worker", addr.as_str())],
            ),
            became_unhealthy: registry.counter_with(
                "olive_router_worker_health_transitions_total",
                "Health-state flips, labelled by the state entered.",
                &[("to", "unhealthy"), ("worker", addr.as_str())],
            ),
            healthy_gauge: registry.gauge_with(
                "olive_router_worker_healthy",
                "1 while the worker is considered healthy, 0 otherwise.",
                &label,
            ),
            addr,
            sock,
            healthy: AtomicBool::new(true),
            consecutive_failures: AtomicU32::new(0),
        }
    }
}

/// The router's own request counters (fleet-wide; per-worker breakdowns
/// live on the [`WorkerSlot`]s).
struct RouterCounters {
    served: Counter,
    retried: Counter,
    failed_over: Counter,
    rejected: Counter,
    connections: Counter,
}

impl RouterCounters {
    fn new(registry: &Registry) -> RouterCounters {
        RouterCounters {
            served: registry.counter(
                "olive_router_requests_served_total",
                "Requests answered from a worker (after any retries).",
            ),
            retried: registry.counter(
                "olive_router_requests_retried_total",
                "Same-worker retries after a worker answered 503.",
            ),
            failed_over: registry.counter(
                "olive_router_requests_failed_over_total",
                "Attempts moved to a different worker after a failure or persistent 503.",
            ),
            rejected: registry.counter(
                "olive_router_requests_rejected_total",
                "Requests shed with 503 after every candidate was exhausted.",
            ),
            connections: registry.counter(
                "olive_router_connections_accepted_total",
                "Client TCP connections accepted since startup.",
            ),
        }
    }
}

struct RouterState {
    config: RouterConfig,
    ring: Ring,
    workers: Vec<WorkerSlot>,
    counters: RouterCounters,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
}

impl RouterState {
    /// One per-request observation, mirroring the workers' scheme: a
    /// labelled count by endpoint and status class, and (timing on) the
    /// wall-clock service latency.
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
                "olive_router_http_requests_total",
                "Requests handled at the front door, by endpoint and status class.",
                &[("endpoint", endpoint), ("status", class)],
            )
            .inc();
        registry
            .histogram_with(
                "olive_router_http_request_duration_us",
                "Wall-clock request service time at the router, in microseconds.",
                &latency_buckets_us(),
                &[("endpoint", endpoint)],
            )
            .observe_elapsed(served);
    }

    /// Mirrors each worker's health bit onto its gauge.
    fn refresh_gauges(&self) {
        for worker in &self.workers {
            worker
                .healthy_gauge
                .set(u64::from(worker.healthy.load(Ordering::SeqCst)));
        }
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

/// Everything observed about one in-flight request: the trace id the
/// router stamps on worker requests and echoes to the client, the span it
/// feeds, and the service stopwatch. Purely observational — dropping all of
/// it changes no response byte.
struct RequestScope {
    endpoint: &'static str,
    trace_id: Option<String>,
    span: Option<Arc<Span>>,
    served: Stopwatch,
}

impl RequestScope {
    fn begin(state: &RouterState, request: &Request) -> RequestScope {
        let tracer = state.telemetry.tracer();
        let trace_id = match request.header(TRACE_HEADER) {
            Some(id) => Some(id.to_string()),
            None => tracer.enabled().then(|| tracer.new_trace_id()),
        };
        let endpoint = endpoint_label(&request.path);
        let span = trace_id.as_deref().and_then(|id| tracer.span(id, endpoint));
        if let Some(span) = &span {
            span.event("accepted");
        }
        RequestScope {
            endpoint,
            trace_id,
            span,
            served: state.telemetry.stopwatch(),
        }
    }

    /// The `x-olive-trace` header pair(s) to stamp on worker requests and
    /// client responses. Empty when tracing is off and the client sent none.
    fn headers(&self) -> Vec<(String, String)> {
        self.trace_id
            .iter()
            .map(|id| (TRACE_HEADER.to_string(), id.clone()))
            .collect()
    }

    /// Borrowed form for the worker-side client API.
    fn header_refs(&self) -> Vec<(&str, &str)> {
        self.trace_id
            .iter()
            .map(|id| (TRACE_HEADER, id.as_str()))
            .collect()
    }

    /// Records the final status and closes the span. Called exactly once
    /// per request, after the response bytes are on the wire.
    fn finish(&self, state: &RouterState, status: u16) {
        state.record_request(self.endpoint, status, &self.served);
        if let Some(span) = &self.span {
            span.finish();
        }
    }
}

/// A running router. Mirrors `olive_serve::Server`: drop without
/// [`Router::shutdown`] leaves the accept thread running for the life of the
/// process.
pub struct Router {
    state: Arc<RouterState>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
    probe_handle: Mutex<Option<JoinHandle<()>>>,
}

impl Router {
    /// Binds the front door and starts the accept and probe threads;
    /// returns once the listener is accepting. Workers are *not* contacted
    /// here — a router can start ahead of its fleet and pick workers up as
    /// probes and requests reach them.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, unresolvable worker addresses and
    /// trace-log open failures.
    pub fn start(config: RouterConfig) -> io::Result<Router> {
        let telemetry = Telemetry::new(&config.telemetry)?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let mut workers = Vec::with_capacity(config.workers.len());
        for addr in &config.workers {
            workers.push(WorkerSlot::new(
                addr.clone(),
                resolve_worker(addr)?,
                telemetry.registry(),
            ));
        }
        let state = Arc::new(RouterState {
            ring: Ring::new(&config.workers),
            workers,
            counters: RouterCounters::new(telemetry.registry()),
            telemetry,
            shutdown: AtomicBool::new(false),
            local_addr,
            config,
        });
        let accept_state = Arc::clone(&state);
        let accept_handle = std::thread::Builder::new()
            .name("olive-router-accept".into())
            .spawn(move || accept_loop(&listener, &accept_state))?;
        let probe_state = Arc::clone(&state);
        let probe_handle = std::thread::Builder::new()
            .name("olive-router-probe".into())
            .spawn(move || probe_loop(&probe_state))?;
        Ok(Router {
            state,
            accept_handle: Mutex::new(Some(accept_handle)),
            probe_handle: Mutex::new(Some(probe_handle)),
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

    /// True once shutdown has been requested (via [`Router::shutdown`] or
    /// `POST /shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is requested, then joins the background
    /// threads. The daemon binary's main loop.
    pub fn wait(&self) {
        if let Some(handle) = lock_or_recover(&self.accept_handle).take() {
            let _ = handle.join();
        }
        if let Some(handle) = lock_or_recover(&self.probe_handle).take() {
            let _ = handle.join();
        }
    }

    /// Requests shutdown and waits for it to complete. Idempotent. Workers
    /// keep running: the router owns only its own process.
    pub fn shutdown(&self) {
        request_shutdown(&self.state);
        self.wait();
    }
}

/// Resolves a `--worker` address, accepting the `http://host:port` form the
/// workers print at startup as well as a bare `host:port`.
fn resolve_worker(addr: &str) -> io::Result<SocketAddr> {
    let bare = addr.strip_prefix("http://").unwrap_or(addr);
    let bare = bare.trim_end_matches('/');
    bare.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("worker address '{addr}' did not resolve"),
        )
    })
}

/// Flags shutdown and pokes the listener so the accept loop observes it.
fn request_shutdown(state: &RouterState) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = TcpStream::connect(state.local_addr);
}

fn accept_loop(listener: &TcpListener, state: &Arc<RouterState>) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        state.counters.connections.inc();
        let state = Arc::clone(state);
        // Connection threads are detached: they exit on their own via
        // keep-alive idle polling once shutdown is flagged.
        let _ = std::thread::Builder::new()
            .name("olive-router-conn".into())
            .spawn(move || handle_connection(stream, &state));
    }
}

/// Re-checks unhealthy workers every `probe_interval`, marking them healthy
/// again as soon as their `/healthz` answers. Sleeps in short ticks so
/// shutdown is observed promptly.
fn probe_loop(state: &RouterState) {
    let tick =
        Duration::from_millis(50).min(state.config.probe_interval.max(Duration::from_millis(1)));
    let mut slept = Duration::ZERO;
    while !state.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        slept += tick;
        if slept < state.config.probe_interval {
            continue;
        }
        slept = Duration::ZERO;
        for worker in &state.workers {
            if worker.healthy.load(Ordering::SeqCst) {
                continue;
            }
            if fetch_worker_healthz(worker).is_ok() {
                record_success(worker);
            }
        }
    }
}

fn record_success(worker: &WorkerSlot) {
    worker.consecutive_failures.store(0, Ordering::SeqCst);
    if !worker.healthy.swap(true, Ordering::SeqCst) {
        worker.became_healthy.inc();
    }
}

fn record_failure(worker: &WorkerSlot, unhealthy_after: u32) {
    let failures = worker.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
    if failures >= unhealthy_after && worker.healthy.swap(false, Ordering::SeqCst) {
        worker.became_unhealthy.inc();
    }
}

fn handle_connection(stream: TcpStream, state: &RouterState) {
    if stream.set_read_timeout(Some(IDLE_TIMEOUT)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
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
                let _ = Response::error(error.status, &error.message).write_to(&mut writer, false);
                return;
            }
            ReadOutcome::Request(request) => {
                idle_ticks = 0;
                let scope = RequestScope::begin(state, &request);
                match handle_request(&request, state, &scope, &mut writer) {
                    AfterResponse::KeepAlive => {}
                    AfterResponse::Close => return,
                }
            }
        }
    }
}

/// Whether the connection survives the response just written.
enum AfterResponse {
    KeepAlive,
    Close,
}

fn handle_request(
    request: &Request,
    state: &RouterState,
    scope: &RequestScope,
    writer: &mut TcpStream,
) -> AfterResponse {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => write_unary(
            Response::json(200, healthz_body(state)),
            request,
            state,
            scope,
            writer,
            false,
        ),
        ("GET", "/metrics") => {
            state.refresh_gauges();
            write_unary(
                Response::text(200, state.telemetry.registry().render()),
                request,
                state,
                scope,
                writer,
                false,
            )
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
            write_unary(
                Response::json(200, format!("{{\"traces\": [{}]}}", traces.join(", "))),
                request,
                state,
                scope,
                writer,
                false,
            )
        }
        // The registry is static and identical on every worker; route it
        // like any other key so the load spreads deterministically.
        ("GET", "/v1/schemes") => proxy(request, "schemes", state, scope, writer),
        ("POST", "/v1/eval" | "/v1/generate" | "/v1/quantize") => match routing_key(request) {
            Ok(key) => proxy(request, &key, state, scope, writer),
            Err(response) => write_unary(response, request, state, scope, writer, false),
        },
        ("POST", "/shutdown") => {
            if state.config.allow_shutdown {
                write_unary(
                    Response::json(
                        200,
                        JsonValue::object(vec![("status", JsonValue::Str("shutting down".into()))])
                            .render(),
                    ),
                    request,
                    state,
                    scope,
                    writer,
                    true,
                )
            } else {
                write_unary(
                    Response::error(
                        403,
                        "shutdown over HTTP is disabled (start with --allow-shutdown)",
                    ),
                    request,
                    state,
                    scope,
                    writer,
                    false,
                )
            }
        }
        // Known path, wrong method — same parity answers as the workers.
        (_, "/healthz" | "/metrics" | "/debug/trace" | "/v1/schemes") => write_unary(
            Response::error(405, "use GET").with_header("Allow", "GET"),
            request,
            state,
            scope,
            writer,
            false,
        ),
        (_, "/v1/eval" | "/v1/generate" | "/v1/quantize" | "/shutdown") => write_unary(
            Response::error(405, "use POST").with_header("Allow", "POST"),
            request,
            state,
            scope,
            writer,
            false,
        ),
        (_, path) => write_unary(
            Response::error(
                404,
                &format!(
                    "no such endpoint '{path}' (have: GET /healthz, GET /metrics, \
                     GET /v1/schemes, POST /v1/eval, POST /v1/generate, POST /v1/quantize)"
                ),
            ),
            request,
            state,
            scope,
            writer,
            false,
        ),
    }
}

/// Writes a router-composed (non-streamed) response, honouring keep-alive
/// and triggering router shutdown after the bytes are on the wire. Stamps
/// the trace header (unless an upstream relay already carries it) and
/// closes out the request's observations.
fn write_unary(
    mut response: Response,
    request: &Request,
    state: &RouterState,
    scope: &RequestScope,
    writer: &mut TcpStream,
    shutdown: bool,
) -> AfterResponse {
    for (name, value) in scope.headers() {
        if !response
            .extra_headers
            .iter()
            .any(|(existing, _)| existing.eq_ignore_ascii_case(&name))
        {
            response = response.with_header(&name, &value);
        }
    }
    let status = response.status;
    let keep_alive = request.keep_alive() && !shutdown && !state.shutdown.load(Ordering::SeqCst);
    // Telemetry commits before the reply is on the wire: a client that saw
    // a complete response must also see it counted in /metrics and traced
    // in /debug/trace.
    scope.finish(state, status);
    let write_result = response.write_to(writer, keep_alive);
    if shutdown {
        request_shutdown(state);
    }
    if write_result.is_ok() && keep_alive {
        AfterResponse::KeepAlive
    } else {
        AfterResponse::Close
    }
}

/// The routing key for a request: its model cache key when the body decodes
/// (so a request lands on the worker whose cache already holds its model),
/// the raw body otherwise (an invalid body routes *somewhere* deterministic
/// and the worker answers the same 400 any worker would).
fn routing_key(request: &Request) -> Result<String, Response> {
    let text = match request.body_utf8() {
        Ok(text) => text,
        Err(e) => return Err(Response::error(e.status, &e.message)),
    };
    let decoded = JsonValue::parse(text)
        .ok()
        .and_then(|json| match request.path.as_str() {
            "/v1/eval" => EvalRequest::decode(&json).ok().map(|r| r.prepared_key()),
            "/v1/generate" => GenerateRequest::decode(&json)
                .ok()
                .map(|r| r.prepared_key()),
            "/v1/quantize" => QuantizeRequest::decode(&json)
                .ok()
                .map(|r| format!("quantize;scheme={}", r.scheme)),
            _ => None,
        });
    Ok(decoded.unwrap_or_else(|| text.to_string()))
}

/// The worker indices to try for `key`, in order: the ring's candidate walk
/// with healthy workers first (unhealthy ones stay as a last resort — with
/// the whole fleet marked down, trying is still better than rejecting),
/// truncated to `max_attempts`.
fn plan(state: &RouterState, key: &str) -> Vec<usize> {
    let order = state.ring.candidates(key);
    let mut planned = Vec::with_capacity(order.len());
    for &index in &order {
        if state
            .workers
            .get(index)
            .is_some_and(|w| w.healthy.load(Ordering::SeqCst))
        {
            planned.push(index);
        }
    }
    for &index in &order {
        if !planned.contains(&index) {
            planned.push(index);
        }
    }
    planned.truncate(state.config.max_attempts.max(1) as usize);
    planned
}

/// How long to sleep before the same-worker retry of a 503: the worker's
/// `Retry-After` (defaulting to 1 s when absent or unparseable), capped.
fn retry_delay(response: &HttpResponse, cap: Duration) -> Duration {
    let seconds = response
        .header("retry-after")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(1);
    Duration::from_secs(seconds).min(cap)
}

/// Records one same-worker 503 retry (fleet total + per-worker).
fn count_retry(state: &RouterState, worker: &WorkerSlot) {
    state.counters.retried.inc();
    worker.retries.inc();
}

/// Records one fail-over away from `worker` to the next candidate.
fn count_failover(state: &RouterState, worker: &WorkerSlot) {
    state.counters.failed_over.inc();
    worker.failovers.inc();
}

/// Records a request served to the client from `worker`.
fn count_served(state: &RouterState, worker: &WorkerSlot) {
    state.counters.served.inc();
    worker.routed.inc();
}

/// Records a shed request (every candidate exhausted), attributed to the
/// last worker tried.
fn count_shed(state: &RouterState, planned: &[usize]) {
    state.counters.rejected.inc();
    if let Some(worker) = planned.last().and_then(|&index| state.workers.get(index)) {
        worker.sheds.inc();
    }
}

/// Re-frames a worker response for the client, preserving the body bytes
/// exactly and relaying the headers that carry semantics (`Retry-After` on a
/// 503, `Allow` on a 405, the `x-olive-trace` echo).
fn relay(response: &HttpResponse) -> Response {
    let mut out = Response::json(response.status, response.body.clone());
    for name in ["Retry-After", "Allow", TRACE_HEADER] {
        if let Some(value) = response.header(name) {
            out = out.with_header(name, value);
        }
    }
    out
}

/// The outcome of one attempt against one worker.
enum Attempt {
    /// The full stream was relayed; `reusable` says whether the client
    /// connection's framing survived (the terminating chunk was written).
    Streamed { reusable: bool },
    /// The worker answered a plain (non-chunked) response — a unary
    /// endpoint's answer, or an error — before any byte reached the client.
    Unary(HttpResponse),
    /// The attempt failed before any byte reached the client: safe to fail
    /// over to the next candidate.
    NotStarted,
    /// The attempt failed after the chunked head was written. The relay is
    /// truncated without the terminating chunk — the client sees a hard
    /// framing error, never a complete-looking answer — and the connection
    /// closes. `worker_fault` distinguishes a worker dying mid-stream from
    /// the client going away.
    Broken { worker_fault: bool },
}

/// One worker attempt: a single proxied request, plus one same-worker retry
/// when the worker sheds load with a 503 (honouring its `Retry-After`,
/// capped) — transient back-pressure usually clears within the advertised
/// window, and nothing has been written to the client at that point. A
/// plain answer comes back as [`Attempt::Unary`]; a chunked one is relayed
/// to the client the moment each chunk is decoded (chunk boundaries
/// preserved), so a routed stream is byte- and framing-identical to hitting
/// the worker directly.
fn attempt(
    state: &RouterState,
    worker: &WorkerSlot,
    request: &Request,
    body: Option<&str>,
    scope: &RequestScope,
    writer: &mut TcpStream,
    keep_alive: bool,
) -> Attempt {
    let Ok(mut conn) = Connection::open_with(worker.sock, state.config.timeouts) else {
        return Attempt::NotStarted;
    };
    let trace_headers = scope.header_refs();
    let echo_headers = scope.headers();
    let mut retried_503 = false;
    loop {
        let mut started = false;
        let mut sink_error = false;
        let result = conn.request_with_sink_and_headers(
            &request.method,
            &request.path,
            body,
            &mut |chunk| {
                let relayed = if started {
                    write_chunk(writer, chunk)
                } else {
                    write_chunked_head_with(writer, 200, keep_alive, &echo_headers).and_then(|()| {
                        started = true;
                        if let Some(span) = &scope.span {
                            span.event("first-byte");
                        }
                        write_chunk(writer, chunk)
                    })
                };
                if relayed.is_err() {
                    sink_error = true;
                }
                relayed
            },
            &trace_headers,
        );
        return match result {
            Ok(response) if response.chunks.is_some() => {
                // Telemetry commits before the terminating chunk: a client
                // that saw a complete stream must also see it counted in
                // /metrics and traced in /debug/trace.
                record_success(worker);
                count_served(state, worker);
                scope.finish(state, 200);
                let finished = if started {
                    write_last_chunk(writer)
                } else {
                    // A complete but empty stream still frames as chunked.
                    write_chunked_head_with(writer, 200, keep_alive, &echo_headers)
                        .and_then(|()| write_last_chunk(writer))
                };
                Attempt::Streamed {
                    reusable: finished.is_ok(),
                }
            }
            Ok(response) => {
                if response.status == 503 && !retried_503 {
                    retried_503 = true;
                    count_retry(state, worker);
                    std::thread::sleep(retry_delay(&response, state.config.retry_after_cap));
                    continue;
                }
                Attempt::Unary(response)
            }
            Err(_) if sink_error => Attempt::Broken {
                worker_fault: false,
            },
            Err(_) if started => Attempt::Broken { worker_fault: true },
            Err(_) => Attempt::NotStarted,
        };
    }
}

/// Proxies a request along the candidate plan: plain answers whole,
/// `/v1/generate` chunk by chunk. Responses are relayed byte-for-byte —
/// because every worker computes identical bytes for the same request (the
/// serving determinism contract), failing over can never change the answer,
/// only whether one arrives. Fail-over happens only while nothing has
/// reached the client; once a chunked head is out, a failure truncates the
/// stream exactly as a worker death would on a direct connection.
fn proxy(
    request: &Request,
    key: &str,
    state: &RouterState,
    scope: &RequestScope,
    writer: &mut TcpStream,
) -> AfterResponse {
    let body = match request.body_utf8() {
        Ok(text) if !text.is_empty() => Some(text),
        Ok(_) => None,
        Err(e) => {
            return write_unary(
                Response::error(e.status, &e.message),
                request,
                state,
                scope,
                writer,
                false,
            )
        }
    };
    let keep_alive = request.keep_alive() && !state.shutdown.load(Ordering::SeqCst);
    let planned = plan(state, key);
    let total = planned.len();
    for (i, &index) in planned.iter().enumerate() {
        let Some(worker) = state.workers.get(index) else {
            continue;
        };
        match attempt(state, worker, request, body, scope, writer, keep_alive) {
            Attempt::Streamed { reusable } => {
                // Success bookkeeping and scope.finish already ran inside
                // attempt, before the terminating chunk went out.
                return if reusable && keep_alive {
                    AfterResponse::KeepAlive
                } else {
                    AfterResponse::Close
                };
            }
            Attempt::Unary(response) => {
                record_success(worker);
                if response.status == 503 && i + 1 < total {
                    // Still backed up after the same-worker retry: any other
                    // worker produces identical bytes, so fail over.
                    count_failover(state, worker);
                    continue;
                }
                count_served(state, worker);
                return write_unary(relay(&response), request, state, scope, writer, false);
            }
            Attempt::NotStarted => {
                record_failure(worker, state.config.unhealthy_after);
                if i + 1 < total {
                    count_failover(state, worker);
                }
            }
            Attempt::Broken { worker_fault } => {
                if worker_fault {
                    record_failure(worker, state.config.unhealthy_after);
                }
                scope.finish(state, 200);
                return AfterResponse::Close;
            }
        }
    }
    count_shed(state, &planned);
    write_unary(
        Response::error(503, "no worker available for this request")
            .with_header("Retry-After", "1"),
        request,
        state,
        scope,
        writer,
        false,
    )
}

/// Fetches one worker's `/healthz` within [`PROBE_TIMEOUT`].
fn fetch_worker_healthz(worker: &WorkerSlot) -> io::Result<JsonValue> {
    let mut conn = Connection::open_with(worker.sock, Timeouts::uniform(PROBE_TIMEOUT))?;
    let response = conn.request("GET", "/healthz", None)?;
    if response.status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "worker {} healthz answered {}",
                worker.addr, response.status
            ),
        ));
    }
    JsonValue::parse(&response.body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// The router's own `/healthz`: fleet status plus router counters plus the
/// workers' numeric gauges summed under `"upstream"`. Fetching every
/// worker's healthz doubles as an active probe — a worker that answers here
/// is immediately healthy again, one that does not records a failure.
fn healthz_body(state: &RouterState) -> String {
    let mut sums = [0u64; WORKER_GAUGES.len()];
    let mut healthy = 0u64;
    for worker in &state.workers {
        match fetch_worker_healthz(worker) {
            Ok(json) => {
                healthy += 1;
                record_success(worker);
                for (key, total) in WORKER_GAUGES.iter().zip(sums.iter_mut()) {
                    if let Some(value) = json.get(key).and_then(JsonValue::as_u64) {
                        *total += value;
                    }
                }
            }
            Err(_) => record_failure(worker, state.config.unhealthy_after),
        }
    }
    let status = if healthy > 0 && healthy == state.workers.len() as u64 {
        "ok"
    } else if healthy > 0 {
        "degraded"
    } else {
        "unavailable"
    };
    let upstream = JsonValue::object(
        WORKER_GAUGES
            .iter()
            .zip(sums.iter())
            .map(|(key, total)| (*key, JsonValue::UInt(*total)))
            .collect::<Vec<_>>(),
    );
    JsonValue::object(vec![
        ("status", JsonValue::Str(status.into())),
        ("workers", JsonValue::UInt(state.workers.len() as u64)),
        ("workers_healthy", JsonValue::UInt(healthy)),
        (
            "requests_served",
            JsonValue::UInt(state.counters.served.get()),
        ),
        (
            "requests_retried",
            JsonValue::UInt(state.counters.retried.get()),
        ),
        (
            "requests_failed_over",
            JsonValue::UInt(state.counters.failed_over.get()),
        ),
        (
            "requests_rejected",
            JsonValue::UInt(state.counters.rejected.get()),
        ),
        (
            "connections_accepted",
            JsonValue::UInt(state.counters.connections.get()),
        ),
        ("upstream", upstream),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_workers(n: usize, max_attempts: u32) -> RouterState {
        let telemetry = Telemetry::detached();
        let addrs: Vec<String> = (0..n).map(|i| format!("127.0.0.1:{}", 9100 + i)).collect();
        RouterState {
            ring: Ring::new(&addrs),
            workers: addrs
                .iter()
                .map(|addr| {
                    WorkerSlot::new(addr.clone(), addr.parse().unwrap(), telemetry.registry())
                })
                .collect(),
            counters: RouterCounters::new(telemetry.registry()),
            telemetry,
            shutdown: AtomicBool::new(false),
            local_addr: "127.0.0.1:1".parse().unwrap(),
            config: RouterConfig {
                workers: addrs,
                max_attempts,
                ..RouterConfig::default()
            },
        }
    }

    #[test]
    fn plan_prefers_healthy_workers_but_keeps_unhealthy_as_last_resort() {
        let state = state_with_workers(3, 3);
        let key = "family=gpt-tiny;seed=7";
        let ring_order = state.ring.candidates(key);
        assert_eq!(plan(&state, key), ring_order, "all healthy: ring order");

        let owner = ring_order[0];
        state.workers[owner].healthy.store(false, Ordering::SeqCst);
        let reordered = plan(&state, key);
        assert_eq!(reordered.last(), Some(&owner), "unhealthy owner tried last");
        assert_eq!(reordered.len(), 3, "nobody is dropped, only demoted");
        let mut sorted = reordered.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn plan_truncates_to_max_attempts() {
        let state = state_with_workers(5, 2);
        assert_eq!(plan(&state, "k").len(), 2);
        let zero = state_with_workers(3, 0);
        assert_eq!(plan(&zero, "k").len(), 1, "max_attempts is clamped to 1");
    }

    #[test]
    fn consecutive_failures_flip_health_and_success_resets() {
        let state = state_with_workers(1, 1);
        let worker = &state.workers[0];
        record_failure(worker, 3);
        record_failure(worker, 3);
        assert!(worker.healthy.load(Ordering::SeqCst), "below threshold");
        record_failure(worker, 3);
        assert!(!worker.healthy.load(Ordering::SeqCst), "threshold reached");
        record_success(worker);
        assert!(worker.healthy.load(Ordering::SeqCst));
        assert_eq!(worker.consecutive_failures.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn health_transitions_count_flips_not_steady_state() {
        let state = state_with_workers(1, 1);
        let worker = &state.workers[0];
        // Repeated successes while already healthy: no transition.
        record_success(worker);
        record_success(worker);
        assert_eq!(worker.became_healthy.get(), 0);
        // Flip down once (threshold 1), then repeated failures stay down.
        record_failure(worker, 1);
        record_failure(worker, 1);
        assert_eq!(worker.became_unhealthy.get(), 1, "one flip, not two");
        // Recovery is one transition back.
        record_success(worker);
        assert_eq!(worker.became_healthy.get(), 1);
    }

    #[test]
    fn retry_delay_honours_the_header_and_the_cap() {
        let response = |headers: Vec<(&str, &str)>| HttpResponse {
            status: 503,
            headers: headers
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: String::new(),
            chunks: None,
        };
        let cap = Duration::from_millis(250);
        assert_eq!(
            retry_delay(&response(vec![("Retry-After", "0")]), cap),
            Duration::ZERO
        );
        assert_eq!(retry_delay(&response(vec![("retry-after", "7")]), cap), cap);
        assert_eq!(
            retry_delay(&response(vec![]), cap),
            cap,
            "default 1 s, capped"
        );
        assert_eq!(
            retry_delay(&response(vec![("Retry-After", "soon")]), cap),
            cap,
            "unparseable value falls back to the 1 s default"
        );
    }

    #[test]
    fn relay_preserves_the_body_and_semantic_headers_only() {
        let worker_response = HttpResponse {
            status: 503,
            headers: vec![
                ("Content-Length".to_string(), "42".to_string()),
                ("Retry-After".to_string(), "1".to_string()),
                ("Connection".to_string(), "close".to_string()),
            ],
            body: "{\"error\": \"service_unavailable\"}\n".to_string(),
            chunks: None,
        };
        let relayed = relay(&worker_response);
        assert_eq!(relayed.status, 503);
        assert_eq!(relayed.body, worker_response.body, "body bytes unchanged");
        assert_eq!(
            relayed.extra_headers,
            vec![("Retry-After".to_string(), "1".to_string())],
            "framing headers are re-derived, not copied"
        );
    }

    #[test]
    fn relay_passes_the_trace_echo_through() {
        let worker_response = HttpResponse {
            status: 200,
            headers: vec![(TRACE_HEADER.to_string(), "00000000deadbeef".to_string())],
            body: "{}\n".to_string(),
            chunks: None,
        };
        let relayed = relay(&worker_response);
        assert_eq!(
            relayed.extra_headers,
            vec![(TRACE_HEADER.to_string(), "00000000deadbeef".to_string())]
        );
    }

    #[test]
    fn routing_keys_use_the_model_cache_key() {
        let request = |path: &str, body: &str| Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        let key = routing_key(&request(
            "/v1/eval",
            r#"{"scheme": "olive-4bit", "batches": 2}"#,
        ))
        .unwrap();
        assert!(key.starts_with("family="), "cache key, not raw body: {key}");
        // The key ignores fields that don't feed preparation (the scheme
        // list), so scheme variants of one model share a worker cache.
        let other = routing_key(&request(
            "/v1/eval",
            r#"{"scheme": "uniform:4", "batches": 2}"#,
        ))
        .unwrap();
        assert_eq!(key, other, "same prepared model, same worker");

        let raw = routing_key(&request("/v1/eval", "not json")).unwrap();
        assert_eq!(raw, "not json", "undecodable bodies route by raw bytes");
    }

    #[test]
    fn resolve_worker_accepts_url_and_bare_forms() {
        let bare = resolve_worker("127.0.0.1:8080").unwrap();
        let url = resolve_worker("http://127.0.0.1:8080/").unwrap();
        assert_eq!(bare, url);
        assert!(resolve_worker("not an address").is_err());
    }
}
