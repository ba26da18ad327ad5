//! End-to-end routed topology over real sockets: a [`Router`] in front of
//! in-process `olive-serve` workers must be **invisible in the bytes** —
//! unary bodies and streamed chunk sequences identical to a single worker —
//! while surviving worker loss and honouring worker back-pressure.

use olive_api::JsonValue;
use olive_router::{Ring, Router, RouterConfig};
use olive_serve::client;
use olive_serve::{EvalRequest, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

const EVAL_BODY: &str =
    r#"{"schemes": ["fp32", "olive-4bit"], "batches": 2, "oversample": 2, "seed": 31}"#;
const GEN_BODY: &str =
    r#"{"scheme": "olive-4bit", "prompt_tokens": 5, "max_new_tokens": 4, "seed": 31}"#;

fn start_workers(n: usize) -> (Vec<Server>, Vec<String>) {
    let workers: Vec<Server> = (0..n)
        .map(|_| Server::start(ServeConfig::default()).expect("worker must start"))
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    (workers, addrs)
}

fn start_router(workers: Vec<String>) -> Router {
    Router::start(RouterConfig {
        workers,
        ..RouterConfig::default()
    })
    .expect("router must start")
}

#[test]
fn routed_bytes_match_a_single_worker_exactly() {
    // Reference: one worker asked directly.
    let reference = Server::start(ServeConfig::default()).expect("reference must start");
    let ref_eval = client::post_json(reference.local_addr(), "/v1/eval", EVAL_BODY).unwrap();
    let ref_gen = client::post_json(reference.local_addr(), "/v1/generate", GEN_BODY).unwrap();
    let ref_schemes = client::get(reference.local_addr(), "/v1/schemes").unwrap();
    assert_eq!(ref_eval.status, 200, "{}", ref_eval.body);
    assert_eq!(ref_gen.status, 200, "{}", ref_gen.body);
    reference.shutdown();

    let (workers, addrs) = start_workers(3);
    let router = start_router(addrs);

    // Unary proxying: status and body byte-identical.
    let routed_eval = client::post_json(router.local_addr(), "/v1/eval", EVAL_BODY).unwrap();
    assert_eq!(routed_eval.status, 200, "{}", routed_eval.body);
    assert_eq!(
        routed_eval.body, ref_eval.body,
        "routed /v1/eval bytes differ"
    );

    let routed_schemes = client::get(router.local_addr(), "/v1/schemes").unwrap();
    assert_eq!(routed_schemes.body, ref_schemes.body);

    // Streaming: the router must relay the worker's chunk sequence 1:1 —
    // same chunks in the same order, not just the same concatenation.
    let routed_gen = client::post_json(router.local_addr(), "/v1/generate", GEN_BODY).unwrap();
    assert_eq!(routed_gen.status, 200, "{}", routed_gen.body);
    assert_eq!(
        routed_gen.body, ref_gen.body,
        "routed /v1/generate bytes differ"
    );
    assert!(
        routed_gen.chunks.as_ref().is_some_and(|c| c.len() > 1),
        "routed generate must actually stream"
    );
    assert_eq!(routed_gen.chunks, ref_gen.chunks, "chunk boundaries differ");

    // Error parity: unknown paths, wrong methods, a refused shutdown and
    // bad bodies answer exactly like a worker would, status, body and
    // `Allow` header (the front door doesn't invent its own error shapes).
    let ask = |addr: SocketAddr, method: &str, path: &str, body: Option<&str>| {
        client::Connection::open(addr)
            .unwrap()
            .request(method, path, body)
            .unwrap()
    };
    for (method, path, body, status) in [
        ("GET", "/nope", None, 404),
        ("GET", "/v1/eval", None, 405),
        ("POST", "/metrics", None, 405),
        ("POST", "/shutdown", None, 403),
        ("POST", "/v1/eval", Some("{nope"), 400),
    ] {
        let direct = ask(workers[0].local_addr(), method, path, body);
        let routed = ask(router.local_addr(), method, path, body);
        assert_eq!(direct.status, status, "{method} {path}: {}", direct.body);
        assert_eq!(routed.status, direct.status, "{method} {path}");
        assert_eq!(routed.body, direct.body, "{method} {path}");
        assert_eq!(
            routed.header("Allow"),
            direct.header("Allow"),
            "{method} {path}"
        );
    }

    // Repeating the same request is stable through the ring (affinity).
    let again = client::post_json(router.local_addr(), "/v1/eval", EVAL_BODY).unwrap();
    assert_eq!(again.body, routed_eval.body);

    router.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn router_healthz_aggregates_and_pins_key_order() {
    let (workers, addrs) = start_workers(3);
    let router = start_router(addrs);
    let _ = client::post_json(router.local_addr(), "/v1/eval", EVAL_BODY).unwrap();

    let response = client::get(router.local_addr(), "/healthz").unwrap();
    assert_eq!(response.status, 200);
    let v = JsonValue::parse(&response.body).expect("router healthz must be JSON");
    assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(v.get("workers").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(
        v.get("workers_healthy").and_then(JsonValue::as_u64),
        Some(3)
    );
    assert_eq!(
        v.get("requests_served").and_then(JsonValue::as_u64),
        Some(1)
    );
    let upstream = v.get("upstream").expect("router healthz must aggregate");
    assert!(
        upstream
            .get("requests_served")
            .and_then(JsonValue::as_u64)
            .is_some_and(|served| served >= 1),
        "upstream gauge must sum worker counters"
    );

    // The rendered key order is part of the interface (mirrors the worker
    // healthz order pin in olive-serve): scrape positions in the raw body.
    let expected = [
        "status",
        "workers",
        "workers_healthy",
        "requests_served",
        "requests_retried",
        "requests_failed_over",
        "requests_rejected",
        "connections_accepted",
        "upstream",
    ];
    let mut last = 0usize;
    for key in expected {
        let needle = format!("\"{key}\"");
        let at = response.body[last..]
            .find(&needle)
            .unwrap_or_else(|| panic!("healthz key {key} missing or out of order"));
        last += at + needle.len();
    }

    router.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn killing_the_owning_worker_fails_over_byte_identically() {
    let (mut workers, addrs) = start_workers(3);
    let router = start_router(addrs.clone());

    let routed = client::post_json(router.local_addr(), "/v1/eval", EVAL_BODY).unwrap();
    assert_eq!(routed.status, 200, "{}", routed.body);

    // The router and this test build the same ring over the same strings,
    // so the victim is *provably* the worker that served the request above.
    let request = EvalRequest::decode(&JsonValue::parse(EVAL_BODY).unwrap()).unwrap();
    let ring = Ring::new(&addrs);
    let owner = ring.owner(&request.prepared_key()).expect("non-empty ring");
    workers.remove(owner).shutdown();

    // Failover: the request must still answer 200 with identical bytes from
    // a surviving worker (the determinism contract makes any worker
    // equivalent), without the client seeing the dead one.
    let after = client::post_json(router.local_addr(), "/v1/eval", EVAL_BODY).unwrap();
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(after.body, routed.body, "failover changed the served bytes");

    // Streaming fails over too (no bytes had been written when the dead
    // worker refused the connection).
    let gen = client::post_json(router.local_addr(), "/v1/generate", GEN_BODY).unwrap();
    assert_eq!(gen.status, 200, "{}", gen.body);

    // The loss is visible in the aggregated healthz.
    let health = client::get(router.local_addr(), "/healthz").unwrap();
    let v = JsonValue::parse(&health.body).unwrap();
    assert_eq!(v.get("workers").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(
        v.get("workers_healthy").and_then(JsonValue::as_u64),
        Some(2)
    );
    assert_eq!(
        v.get("status").and_then(JsonValue::as_str),
        Some("degraded")
    );
    assert!(
        v.get("requests_failed_over")
            .and_then(JsonValue::as_u64)
            .is_some_and(|failed_over| failed_over >= 1),
        "the fail-over must be visible in the router's own counters"
    );

    router.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn router_metrics_break_down_routing_per_worker() {
    let (workers, addrs) = start_workers(2);
    let router = start_router(addrs);

    let eval = client::post_json(router.local_addr(), "/v1/eval", EVAL_BODY).unwrap();
    assert_eq!(eval.status, 200, "{}", eval.body);
    // The router stamps a trace id and echoes it to the client.
    let trace_id = eval
        .header("x-olive-trace")
        .expect("routed responses must carry the trace header")
        .to_string();
    assert_eq!(trace_id.len(), 16, "16-hex-digit id: {trace_id}");

    let metrics = client::get(router.local_addr(), "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(
        metrics
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "Prometheus exposition is text/plain"
    );
    // The fleet total and the per-worker breakdown must agree.
    let value_of = |line: &str| {
        line.rsplit(' ')
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("unparseable sample line: {line}"))
    };
    let served: u64 = metrics
        .body
        .lines()
        .filter(|l| l.starts_with("olive_router_requests_served_total "))
        .map(value_of)
        .sum();
    let per_worker: u64 = metrics
        .body
        .lines()
        .filter(|l| l.starts_with("olive_router_worker_requests_total{"))
        .map(value_of)
        .sum();
    assert_eq!(served, 1, "one request served:\n{}", metrics.body);
    assert_eq!(
        per_worker, served,
        "per-worker counts must sum to the total"
    );

    // The finished request is visible in the trace ring, under the id the
    // client saw, with the canonical stage sequence.
    let traces = client::get(router.local_addr(), "/debug/trace?n=8").unwrap();
    assert_eq!(traces.status, 200);
    assert!(
        traces.body.contains(&trace_id),
        "trace {trace_id} missing from {}",
        traces.body
    );
    assert!(
        traces.body.contains("\"stage\":\"accepted\""),
        "{}",
        traces.body
    );
    assert!(
        traces.body.contains("\"stage\":\"done\""),
        "{}",
        traces.body
    );

    router.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}

/// A scripted one-worker stub: answers `/healthz` 200, and its first POST
/// with `503 + Retry-After` before serving the real body (chunked for
/// `/v1/generate`, as a worker streams it) — the shape of a worker shedding
/// load under back-pressure.
fn start_backpressure_stub(body: &'static str) -> (SocketAddr, Arc<AtomicU32>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("stub must bind");
    let addr = listener.local_addr().expect("stub addr");
    let posts = Arc::new(AtomicU32::new(0));
    let counter = Arc::clone(&posts);
    std::thread::spawn(move || {
        while let Ok((stream, _)) = listener.accept() {
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            loop {
                // Minimal request parse: request line, headers, CL body.
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                let is_post = line.starts_with("POST");
                let streamed = line.starts_with("POST /v1/generate ");
                let mut content_length = 0usize;
                loop {
                    let mut header = String::new();
                    if reader.read_line(&mut header).unwrap_or(0) == 0 {
                        return;
                    }
                    let header = header.trim();
                    if header.is_empty() {
                        break;
                    }
                    if let Some(v) = header
                        .to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(str::trim)
                        .and_then(|v| v.parse::<usize>().ok())
                    {
                        content_length = v;
                    }
                }
                let mut discard = vec![0u8; content_length];
                std::io::Read::read_exact(&mut reader, &mut discard).ok();
                let response = if !is_post {
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\r\n{\"status\":\"ok\"}"
                        .to_string()
                } else if counter.fetch_add(1, Ordering::SeqCst) == 0 {
                    "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n"
                        .to_string()
                } else if streamed {
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{body}\r\n0\r\n\r\n",
                        body.len()
                    )
                } else {
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                };
                if writer.write_all(response.as_bytes()).is_err() {
                    break;
                }
            }
        }
    });
    (addr, posts)
}

/// One proxy loop serves plain and streamed endpoints alike, so the
/// same-worker retry is pinned on both: `/v1/eval` answers plainly,
/// `/v1/generate` streams. Each input gets a fresh stub and router.
#[test]
fn a_503_is_retried_on_the_same_worker_honouring_retry_after() {
    for (path, body) in [("/v1/eval", EVAL_BODY), ("/v1/generate", GEN_BODY)] {
        let (addr, posts) = start_backpressure_stub("{\"ok\": true}");
        let router = Router::start(RouterConfig {
            workers: vec![addr.to_string()],
            // Cap the advertised 1-second Retry-After so the test stays
            // fast; the cap path is exactly what production uses against a
            // hostile or clock-skewed worker.
            retry_after_cap: Duration::from_millis(50),
            ..RouterConfig::default()
        })
        .expect("router must start");

        let response = client::post_json(router.local_addr(), path, body).unwrap();
        assert_eq!(response.status, 200, "{path}: {}", response.body);
        assert_eq!(response.body, "{\"ok\": true}", "{path}");
        assert_eq!(
            response.chunks.is_some(),
            path == "/v1/generate",
            "{path}: relayed in the worker's framing"
        );
        assert_eq!(
            posts.load(Ordering::SeqCst),
            2,
            "{path}: the 503 must be retried on the same worker exactly once"
        );

        let health = client::get(router.local_addr(), "/healthz").unwrap();
        let v = JsonValue::parse(&health.body).unwrap();
        assert_eq!(
            v.get("requests_retried").and_then(JsonValue::as_u64),
            Some(1),
            "{path}: the retry must be visible in the router's own counters"
        );

        router.shutdown();
    }
}
