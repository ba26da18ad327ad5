//! The telemetry out-of-band contract, enforced end to end (this PR's
//! acceptance criterion): response **bodies** from `/v1/eval` and
//! `/v1/generate` must be byte-identical with telemetry enabled and
//! disabled, at `OLIVE_THREADS` ∈ {1, 8} — observation must never leak into
//! the served bytes. Plus the observability surface itself: `/metrics`
//! serves Prometheus text with the request counters moving, each generation
//! stream observes its time to first token once and marks it on its span,
//! `/debug/trace` returns recent spans, the `x-olive-trace` header is
//! generated when absent and echoed verbatim when supplied, and
//! `--trace-log` appends one JSON line per finished span.
//!
//! One `#[test]` drives the on/off × thread-count matrix because it mutates
//! the process-global `OLIVE_THREADS` variable; splitting it would race the
//! test harness's thread pool.

use olive_serve::client::{get, post_json, Connection};
use olive_serve::{ServeConfig, Server, TelemetryOptions, TRACE_HEADER};

const EVAL_BODY: &str = r#"{"scheme": "olive-4bit", "batches": 2, "oversample": 2}"#;
const GEN_BODY: &str =
    r#"{"scheme": "olive-4bit", "prompt_tokens": 4, "max_new_tokens": 6, "seed": 3}"#;

fn server_with(enabled: bool) -> Server {
    Server::start(ServeConfig {
        telemetry: TelemetryOptions {
            enabled,
            ..TelemetryOptions::default()
        },
        ..ServeConfig::default()
    })
    .expect("server start")
}

/// (eval body, generate body, generate chunk count) served by `server`.
fn serve_pair(server: &Server) -> (String, String, usize) {
    let eval = post_json(server.local_addr(), "/v1/eval", EVAL_BODY).expect("eval");
    assert_eq!(eval.status, 200, "{}", eval.body);
    let gen = post_json(server.local_addr(), "/v1/generate", GEN_BODY).expect("generate");
    assert_eq!(gen.status, 200, "{}", gen.body);
    let chunks = gen.chunks.as_ref().expect("generate must stream").len();
    (eval.body, gen.body, chunks)
}

#[test]
fn bodies_are_byte_identical_with_telemetry_on_or_off() {
    let mut reference: Option<(String, String, usize)> = None;
    for threads in ["1", "8"] {
        std::env::set_var("OLIVE_THREADS", threads);
        for enabled in [true, false] {
            let server = server_with(enabled);
            let got = serve_pair(&server);
            server.shutdown();
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(
                    &got, want,
                    "served bytes diverged (telemetry enabled={enabled}, \
                     OLIVE_THREADS={threads})"
                ),
            }
        }
    }
    std::env::remove_var("OLIVE_THREADS");
}

#[test]
fn metrics_exposition_counts_requests_per_endpoint() {
    let server = server_with(true);
    let addr = server.local_addr();
    for _ in 0..3 {
        let response = post_json(addr, "/v1/eval", EVAL_BODY).expect("eval");
        assert_eq!(response.status, 200, "{}", response.body);
    }
    let response = get(addr, "/metrics").expect("metrics");
    server.shutdown();

    assert_eq!(response.status, 200, "{}", response.body);
    let content_type = response.header("Content-Type").expect("content type");
    assert!(
        content_type.starts_with("text/plain"),
        "Prometheus exposition must be text/plain, got {content_type}"
    );
    let body = &response.body;
    assert!(
        body.contains(r#"olive_http_requests_total{endpoint="/v1/eval",status="2xx"} 3"#),
        "per-endpoint counter missing or wrong:\n{body}"
    );
    assert!(
        body.contains("# TYPE olive_http_request_duration_us histogram"),
        "latency histogram family missing:\n{body}"
    );
    assert!(
        body.contains("olive_queue_depth 0"),
        "healthz gauges must be registry-backed:\n{body}"
    );
    // Exposition is deterministic: two scrapes over one kept-alive
    // connection with no traffic in between render the exact same bytes,
    // except the lines counting the scrapes themselves.
    let server = server_with(true);
    let mut scraper = Connection::open(server.local_addr()).expect("connect");
    let a = scraper
        .request("GET", "/metrics", None)
        .expect("scrape a")
        .body;
    let b = scraper
        .request("GET", "/metrics", None)
        .expect("scrape b")
        .body;
    server.shutdown();
    // The scrape itself is counted (lazily registering its own families on
    // the first scrape), so the per-endpoint HTTP families are the one
    // legitimate difference between the two expositions.
    let stable = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("olive_http_request"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(stable(&a), stable(&b), "exposition bytes must be stable");
}

#[test]
fn trace_header_is_generated_and_echoed() {
    let server = server_with(true);
    let addr = server.local_addr();

    // No header supplied: the worker mints a 16-hex-digit id and echoes it.
    let response = post_json(addr, "/v1/eval", EVAL_BODY).expect("eval");
    let minted = response
        .header(TRACE_HEADER)
        .expect("trace echo")
        .to_string();
    assert_eq!(minted.len(), 16, "trace id must be 16 hex digits: {minted}");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()), "{minted}");

    // Header supplied: echoed verbatim, on unary and streamed paths alike.
    let mut connection = Connection::open(addr).expect("connect");
    let supplied = "feedc0dedeadbeef";
    let response = connection
        .request_with_headers(
            "POST",
            "/v1/eval",
            Some(EVAL_BODY),
            &[(TRACE_HEADER, supplied)],
        )
        .expect("eval with trace");
    assert_eq!(response.header(TRACE_HEADER), Some(supplied));
    let response = connection
        .request_with_headers(
            "POST",
            "/v1/generate",
            Some(GEN_BODY),
            &[(TRACE_HEADER, supplied)],
        )
        .expect("generate with trace");
    assert_eq!(response.header(TRACE_HEADER), Some(supplied));
    assert!(response.chunks.is_some(), "generate must still stream");

    // Both traces are in the flight recorder with the full span lifecycle.
    let trace = get(addr, "/debug/trace?n=8").expect("debug trace");
    server.shutdown();
    assert_eq!(trace.status, 200, "{}", trace.body);
    assert!(
        trace.body.contains(&minted),
        "minted trace missing: {}",
        trace.body
    );
    assert!(
        trace.body.contains(supplied),
        "supplied trace missing: {}",
        trace.body
    );
    for stage in ["accepted", "queued", "first-byte", "first-token", "done"] {
        assert!(
            trace.body.contains(&format!(r#""stage":"{stage}""#)),
            "stage {stage} missing: {}",
            trace.body
        );
    }
}

#[test]
fn each_stream_observes_time_to_first_token_once() {
    let server = server_with(true);
    let addr = server.local_addr();
    for _ in 0..2 {
        let gen = post_json(addr, "/v1/generate", GEN_BODY).expect("generate");
        assert_eq!(gen.status, 200, "{}", gen.body);
    }
    let metrics = get(addr, "/metrics").expect("metrics");
    let trace = get(addr, "/debug/trace?n=8").expect("debug trace");
    server.shutdown();
    // One observation per stream, beside the head-chunk histogram.
    for family in [
        "olive_decode_time_to_first_token_us",
        "olive_decode_time_to_first_chunk_us",
    ] {
        assert!(
            metrics.body.contains(&format!("{family}_count 2")),
            "{family} must be observed once per stream:\n{}",
            metrics.body
        );
    }
    // And one `first-token` event on each generate span. (It may precede
    // `first-byte`: the scheduler can emit the first step before the
    // connection thread has written the head chunk.)
    let spans: Vec<&str> = trace
        .body
        .split(r#"{"trace_id""#)
        .filter(|span| span.contains(r#""endpoint":"/v1/generate""#))
        .collect();
    assert_eq!(spans.len(), 2, "{}", trace.body);
    for span in spans {
        assert_eq!(
            span.matches(r#""stage":"first-token""#).count(),
            1,
            "{span}"
        );
    }
}

#[test]
fn disabled_telemetry_keeps_counters_but_drops_traces() {
    let server = server_with(false);
    let addr = server.local_addr();
    let response = post_json(addr, "/v1/eval", EVAL_BODY).expect("eval");
    assert_eq!(response.status, 200, "{}", response.body);
    // No tracer → no minted id on the response.
    assert_eq!(response.header(TRACE_HEADER), None);

    // Counters still count (healthz and capacity planning depend on them) …
    let metrics = get(addr, "/metrics").expect("metrics");
    assert!(
        metrics
            .body
            .contains(r#"olive_http_requests_total{endpoint="/v1/eval",status="2xx"} 1"#),
        "counters must survive --no-telemetry:\n{}",
        metrics.body
    );
    // … but no latency samples are observed and no spans are recorded.
    assert!(
        !metrics
            .body
            .contains("olive_http_request_duration_us_count 1"),
        "latency must not be observed when disabled:\n{}",
        metrics.body
    );
    let trace = get(addr, "/debug/trace?n=8").expect("debug trace");
    server.shutdown();
    assert_eq!(trace.status, 200);
    assert_eq!(trace.body, r#"{"traces": []}"#);
}

#[test]
fn trace_log_appends_one_json_line_per_span() {
    let dir = std::env::temp_dir().join(format!("olive-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("trace.jsonl");
    let server = Server::start(ServeConfig {
        telemetry: TelemetryOptions {
            trace_log: Some(log.clone()),
            ..TelemetryOptions::default()
        },
        ..ServeConfig::default()
    })
    .expect("server start");
    for _ in 0..2 {
        let response = post_json(server.local_addr(), "/v1/eval", EVAL_BODY).expect("eval");
        assert_eq!(response.status, 200, "{}", response.body);
    }
    server.shutdown();

    let contents = std::fs::read_to_string(&log).expect("trace log written");
    let lines: Vec<_> = contents.lines().collect();
    assert_eq!(lines.len(), 2, "one line per span: {contents}");
    for line in lines {
        assert!(line.starts_with(r#"{"trace_id":""#), "{line}");
        assert!(line.contains(r#""endpoint":"/v1/eval""#), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
