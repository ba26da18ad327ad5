//! The half of an HTTP daemon that does not depend on what it serves.
//!
//! `olive-serve` and `olive-router` answer the same API over the same
//! HTTP/1.1 layer, so this module is everything they share: the listener
//! and its accept thread; one detached thread per connection, with
//! keep-alive and idle/shutdown polling; each request's trace id, span and
//! stopwatch; the daemon's request counter, latency histogram and
//! connection counter; and the endpoints whose answer does not depend on
//! the daemon (`/metrics`, `/debug/trace`, `/shutdown`, 404 and 405, and
//! the framing of `/healthz`). The API requests themselves go to a
//! [`Service`], which answers through an [`Exchange`].
//!
//! The exchange owns the framing and the one counting rule: a request's
//! count, latency and span commit exactly once, before the last byte of its
//! answer is written, so a client that saw an answer always finds it in
//! `/metrics` and `/debug/trace`. A streamed answer whose client hangs up
//! mid-body is counted too, once, as a 2xx: its status line said 200.

use crate::http::{
    read_request, write_chunk, write_chunked_head_with, write_last_chunk, ReadOutcome, Request,
    Response, IDLE_TIMEOUT,
};
use olive_api::JsonValue;
use olive_runtime::lock_or_recover;
use olive_telemetry::{latency_buckets_us, Counter, Span, Stopwatch, Telemetry};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// How long a kept-alive connection may sit idle before the daemon closes
/// it, in units of [`IDLE_TIMEOUT`] polling ticks (20 × 500 ms = 10 s).
const MAX_IDLE_TICKS: u32 = 20;

/// The trace-correlation header: stamped by the router, generated by the
/// worker when absent, echoed on every response. Headers are the only place
/// a trace id appears — response *bodies* are byte-identical with tracing
/// on or off.
pub const TRACE_HEADER: &str = "x-olive-trace";

/// What a daemon does with the API requests (`GET /v1/schemes`, `POST
/// /v1/eval`, `/v1/generate` and `/v1/quantize`) and what its `/healthz`
/// reports. Everything else about a request is the [`Daemon`]'s.
pub trait Service: Send + Sync + 'static {
    /// The `/healthz` JSON body. `connections` is the number of connections
    /// the daemon has accepted. [`Service::refresh_gauges`] runs just before.
    fn healthz(&self, connections: u64) -> String;

    /// Mirrors live sizes onto the service's gauges, right before `/healthz`
    /// and `/metrics` render.
    fn refresh_gauges(&self);

    /// Answers one API request through `exchange`. Returns whether the
    /// connection stays open: what the exchange's last call returned.
    fn handle(&self, request: &Request, exchange: Exchange<'_>) -> bool;
}

/// The daemon's own state, shared by its accept and connection threads.
struct Front {
    telemetry: Telemetry,
    allow_shutdown: bool,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    /// Prefix of the daemon's thread names (`olive-serve`).
    threads: &'static str,
    connections: Counter,
    /// `{prefix}_http_requests_total` and `{prefix}_http_request_duration_us`,
    /// built once at start: every request records under both.
    requests_total: String,
    duration_us: String,
    buckets: Vec<u64>,
}

impl Front {
    /// Flags shutdown and pokes the listener so the accept loop observes it.
    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Opens the exchange for one request: its endpoint label, stopwatch,
    /// trace id and span.
    fn exchange<'a>(&'a self, request: &Request, writer: &'a mut TcpStream) -> Exchange<'a> {
        let endpoint = endpoint_label(&request.path);
        let served = self.telemetry.stopwatch();
        // The router stamps the trace header; a daemon reached directly
        // mints its own id. Either way the id is echoed back so the client
        // can correlate with /debug/trace.
        let tracer = self.telemetry.tracer();
        let trace_id = match request.header(TRACE_HEADER) {
            Some(id) => Some(id.to_string()),
            None => tracer.enabled().then(|| tracer.new_trace_id()),
        };
        let span = trace_id.as_deref().and_then(|id| tracer.span(id, endpoint));
        if let Some(span) = &span {
            span.event("accepted");
        }
        Exchange {
            front: self,
            writer,
            endpoint,
            trace_id,
            span,
            served,
            keep_alive: request.keep_alive(),
            streaming: false,
        }
    }
}

struct Shared<S> {
    front: Front,
    service: Arc<S>,
}

/// A listening daemon: the accept thread and the connection threads it
/// spawns, in front of a [`Service`]. Dropping it without
/// [`Daemon::request_shutdown`] leaves the accept thread running for the
/// life of the process.
pub struct Daemon<S> {
    shared: Arc<Shared<S>>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl<S: Service> Daemon<S> {
    /// Starts accepting on `listener` in a thread named `{threads}-accept`;
    /// connection threads are `{threads}-conn`. Requests are counted as
    /// `{metrics}_http_requests_total` and timed as
    /// `{metrics}_http_request_duration_us`, connections as
    /// `{metrics}_connections_accepted_total`. `POST /shutdown` stops the
    /// daemon when `allow_shutdown` is set and answers 403 otherwise.
    ///
    /// # Errors
    ///
    /// Propagates the listener's address lookup and the accept thread's
    /// spawn failure.
    pub fn start(
        listener: TcpListener,
        service: Arc<S>,
        telemetry: Telemetry,
        allow_shutdown: bool,
        threads: &'static str,
        metrics: &'static str,
    ) -> io::Result<Daemon<S>> {
        let connections = telemetry.registry().counter(
            &format!("{metrics}_connections_accepted_total"),
            "TCP connections accepted since startup.",
        );
        let shared = Arc::new(Shared {
            front: Front {
                allow_shutdown,
                shutdown: AtomicBool::new(false),
                local_addr: listener.local_addr()?,
                threads,
                connections,
                requests_total: format!("{metrics}_http_requests_total"),
                duration_us: format!("{metrics}_http_request_duration_us"),
                buckets: latency_buckets_us(),
                telemetry,
            },
            service,
        });
        let accepting = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name(format!("{threads}-accept"))
            .spawn(move || accept_loop(&listener, &accepting))?;
        Ok(Daemon {
            shared,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The service behind the daemon.
    pub fn service(&self) -> &S {
        &self.shared.service
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.front.local_addr
    }

    /// True once shutdown has been requested (via
    /// [`Daemon::request_shutdown`] or `POST /shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.front.shutdown.load(Ordering::SeqCst)
    }

    /// Stops accepting: the accept thread exits, and each connection
    /// thread closes its connection at its next idle tick. Idempotent.
    pub fn request_shutdown(&self) {
        self.shared.front.request_shutdown();
    }

    /// Blocks until shutdown is requested and the accept thread has exited.
    pub fn wait(&self) {
        if let Some(handle) = lock_or_recover(&self.accept).take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop<S: Service>(listener: &TcpListener, shared: &Arc<Shared<S>>) {
    let name = format!("{}-conn", shared.front.threads);
    for stream in listener.incoming() {
        if shared.front.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        shared.front.connections.inc();
        let shared = Arc::clone(shared);
        // Connection threads are detached: they exit on their own via
        // keep-alive idle polling once shutdown is flagged.
        let _ = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || serve_connection(stream, &shared));
    }
}

fn serve_connection<S: Service>(stream: TcpStream, shared: &Shared<S>) {
    // The read timeout doubles as the shutdown-polling tick; NODELAY because
    // request/response exchanges are small and latency-bound.
    if stream.set_read_timeout(Some(IDLE_TIMEOUT)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut idle_ticks = 0u32;
    loop {
        match read_request(&mut reader) {
            ReadOutcome::Disconnected => return,
            ReadOutcome::Idle => {
                idle_ticks += 1;
                if idle_ticks >= MAX_IDLE_TICKS || shared.front.shutdown.load(Ordering::SeqCst) {
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
                let exchange = shared.front.exchange(&request, &mut writer);
                if !route(shared, &request, exchange) {
                    return;
                }
            }
        }
    }
}

/// Answers one request: the shared endpoints here, the API in the service.
/// Returns whether the connection stays open.
fn route<S: Service>(shared: &Shared<S>, request: &Request, mut exchange: Exchange<'_>) -> bool {
    let (front, service) = (&shared.front, &shared.service);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            service.refresh_gauges();
            exchange.reply(Response::json(
                200,
                service.healthz(front.connections.get()),
            ))
        }
        ("GET", "/metrics") => {
            service.refresh_gauges();
            exchange.reply(Response::text(200, front.telemetry.registry().render()))
        }
        ("GET", "/debug/trace") => {
            let n = request
                .query_param("n")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(32);
            let traces: Vec<String> = front
                .telemetry
                .tracer()
                .recent(n)
                .iter()
                .map(olive_telemetry::TraceRecord::to_json)
                .collect();
            exchange.reply(Response::json(
                200,
                format!("{{\"traces\": [{}]}}", traces.join(", ")),
            ))
        }
        ("GET", "/v1/schemes") | ("POST", "/v1/eval" | "/v1/generate" | "/v1/quantize") => {
            service.handle(request, exchange)
        }
        ("POST", "/shutdown") if front.allow_shutdown => {
            exchange.keep_alive = false;
            let reply = JsonValue::object(vec![("status", JsonValue::Str("shutting down".into()))]);
            // The answer is on the wire before shutdown is triggered: once
            // the accept loop unblocks, the process may exit while this
            // (detached) thread is still writing.
            exchange.reply(Response::json(200, reply.render()));
            front.request_shutdown();
            false
        }
        ("POST", "/shutdown") => exchange.reply(Response::error(
            403,
            "shutdown over HTTP is disabled (start with --allow-shutdown)",
        )),
        // Known path, wrong method.
        (_, "/healthz" | "/metrics" | "/debug/trace" | "/v1/schemes") => {
            exchange.reply(Response::error(405, "use GET").with_header("Allow", "GET"))
        }
        (_, "/v1/eval" | "/v1/generate" | "/v1/quantize" | "/shutdown") => {
            exchange.reply(Response::error(405, "use POST").with_header("Allow", "POST"))
        }
        (_, path) => exchange.reply(Response::error(
            404,
            &format!(
                "no such endpoint '{path}' (have: GET /healthz, GET /metrics, \
                 GET /v1/schemes, POST /v1/eval, POST /v1/generate, POST /v1/quantize)"
            ),
        )),
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

/// One request's answer in the making. A service either [`reply`]s with a
/// whole response, or streams a chunked 200 with [`chunk`] calls and then
/// [`end`]s it, or [`truncate`]s it when the body cannot be completed. Each
/// of the three ends the exchange: it commits the request's count, latency
/// and span once, before the answer's last byte is written, and returns
/// whether the connection stays open.
///
/// [`reply`]: Exchange::reply
/// [`chunk`]: Exchange::chunk
/// [`end`]: Exchange::end
/// [`truncate`]: Exchange::truncate
pub struct Exchange<'a> {
    front: &'a Front,
    writer: &'a mut TcpStream,
    endpoint: &'static str,
    trace_id: Option<String>,
    span: Option<Arc<Span>>,
    served: Stopwatch,
    /// Whether the connection may carry another request. The client's wish
    /// until the head is written; then what the head said.
    keep_alive: bool,
    /// Whether a chunked head has been written (or attempted).
    streaming: bool,
}

impl Exchange<'_> {
    /// The request's trace id: the client's `x-olive-trace`, or one minted
    /// here when tracing is on. `None` otherwise.
    pub fn trace_id(&self) -> Option<&str> {
        self.trace_id.as_deref()
    }

    /// The request's span, `None` when tracing is off.
    pub fn span(&self) -> Option<&Arc<Span>> {
        self.span.as_ref()
    }

    /// Answers with a whole response, stamped with the trace header unless
    /// it already carries one (a relayed worker echo).
    pub fn reply(mut self, mut response: Response) -> bool {
        if let Some(id) = &self.trace_id {
            if !response
                .extra_headers
                .iter()
                .any(|(name, _)| name.eq_ignore_ascii_case(TRACE_HEADER))
            {
                response = response.with_header(TRACE_HEADER, id.as_str());
            }
        }
        self.keep_alive &= !self.front.shutdown.load(Ordering::SeqCst);
        self.commit(response.status);
        response.write_to(self.writer, self.keep_alive).is_ok() && self.keep_alive
    }

    /// Writes `data` as one chunk of a streamed 200, writing the chunked
    /// head first if this is the first call. Empty data writes no chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures: the client is gone, and the
    /// exchange should be [`truncate`](Exchange::truncate)d.
    pub fn chunk(&mut self, data: &str) -> io::Result<()> {
        if !self.streaming {
            self.head()?;
        }
        write_chunk(self.writer, data)
    }

    /// Completes a streamed answer with the terminating chunk. With no
    /// chunk before it, the answer is an empty chunked body.
    pub fn end(mut self) -> bool {
        self.commit(200);
        let head = if self.streaming { Ok(()) } else { self.head() };
        head.and_then(|()| write_last_chunk(self.writer)).is_ok() && self.keep_alive
    }

    /// Ends an answer that cannot be completed, and closes the connection.
    /// A streamed body is cut without its terminating chunk: the client sees
    /// a framing error, never a complete-looking answer. With nothing
    /// written yet, the answer is a 500.
    pub fn truncate(mut self) -> bool {
        if !self.streaming {
            self.keep_alive = false;
            return self.reply(Response::error(500, "internal error executing the request"));
        }
        self.commit(200);
        false
    }

    /// Writes the head of a chunked 200, deciding keep-alive for good.
    fn head(&mut self) -> io::Result<()> {
        self.streaming = true;
        self.keep_alive &= !self.front.shutdown.load(Ordering::SeqCst);
        let trace: Vec<(String, String)> = self
            .trace_id
            .iter()
            .map(|id| (TRACE_HEADER.to_string(), id.clone()))
            .collect();
        write_chunked_head_with(self.writer, 200, self.keep_alive, &trace)?;
        if let Some(span) = &self.span {
            span.event("first-byte");
        }
        Ok(())
    }

    /// Counts the request by endpoint and status class, observes its
    /// latency (timing on) and finishes its span.
    fn commit(&self, status: u16) {
        let class = match status {
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            _ => "5xx",
        };
        let front = self.front;
        let registry = front.telemetry.registry();
        registry
            .counter_with(
                &front.requests_total,
                "Requests answered, by endpoint and status class.",
                &[("endpoint", self.endpoint), ("status", class)],
            )
            .inc();
        registry
            .histogram_with(
                &front.duration_us,
                "Wall-clock request service time (read to last byte written), in microseconds.",
                &front.buckets,
                &[("endpoint", self.endpoint)],
            )
            .observe_elapsed(&self.served);
        if let Some(span) = &self.span {
            span.finish();
        }
    }
}
