//! End-to-end endpoint behaviour over real sockets: routing, status codes,
//! JSON error bodies, keep-alive reuse, chunked streaming and the registry
//! listing — plus raw-socket regression tests for the request-smuggling
//! guards (duplicate/non-canonical `Content-Length`).

use olive_api::{JsonValue, Scheme};
use olive_serve::client::{self, Connection};
use olive_serve::{ServeConfig, Server};
use std::io::{Read, Write};

fn start() -> Server {
    Server::start(ServeConfig::default()).expect("server must bind an ephemeral port")
}

/// Writes raw bytes to the server and returns everything it answers until it
/// closes the connection — for requests the well-behaved client library
/// cannot (and should not) produce.
fn raw_exchange(server: &Server, raw: &str) -> String {
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("write");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

#[test]
fn healthz_reports_ok_and_counters() {
    let server = start();
    let response = client::get(server.local_addr(), "/healthz").unwrap();
    assert_eq!(response.status, 200);
    let v = JsonValue::parse(&response.body).expect("healthz must be valid JSON");
    assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert!(v
        .get("requests_served")
        .and_then(JsonValue::as_u64)
        .is_some());
    assert!(v.get("queue_depth").is_some());
    server.shutdown();
}

#[test]
fn schemes_endpoint_lists_the_registry() {
    let server = start();
    let response = client::get(server.local_addr(), "/v1/schemes").unwrap();
    assert_eq!(response.status, 200);
    let v = JsonValue::parse(&response.body).unwrap();
    let listed = v.get("schemes").and_then(JsonValue::as_array).unwrap();
    assert_eq!(listed.len(), Scheme::all().len());
    server.shutdown();
}

#[test]
fn eval_runs_a_scheme_comparison() {
    let server = start();
    let response = client::post_json(
        server.local_addr(),
        "/v1/eval",
        r#"{"schemes": ["fp32", "olive-4bit"], "batches": 2, "oversample": 2, "seed": 9}"#,
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let v = JsonValue::parse(&response.body).unwrap();
    assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(9));
    let results = v.get("results").and_then(JsonValue::as_array).unwrap();
    assert_eq!(results.len(), 2);
    // fp32 is lossless through the whole serving stack.
    assert_eq!(
        results[0].get("fidelity").and_then(JsonValue::as_f64),
        Some(1.0)
    );
    server.shutdown();
}

#[test]
fn quantize_round_trips_a_matrix() {
    let server = start();
    let response = client::post_json(
        server.local_addr(),
        "/v1/quantize",
        r#"{"scheme": "olive-8bit", "rows": 2, "cols": 8,
            "data": [0.1, -0.2, 0.3, 12.5, 0.0, 0.5, -0.1, 0.2,
                     0.4, -0.3, 0.2, 0.1, -12.0, 0.3, 0.1, -0.4]}"#,
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let v = JsonValue::parse(&response.body).unwrap();
    assert_eq!(v.get("rows").and_then(JsonValue::as_u64), Some(2));
    assert!(v.get("mse").and_then(JsonValue::as_f64).unwrap() < 0.1);
    assert_eq!(
        v.get("values")
            .and_then(JsonValue::as_array)
            .map(<[_]>::len),
        Some(16)
    );
    server.shutdown();
}

#[test]
fn quantize_answers_finite_values_for_inputs_spanning_f32_max() {
    // Every value is finite, so the body is accepted; 3σ of it overflows
    // f32, which once turned every answered value and the mse into null.
    let server = start();
    for (scheme, per_row) in [
        ("olive-4bit", ""),
        ("olive-4bit-flint", ""),
        ("olive-8bit", ""),
        ("olive-4bit", "@per-row"),
    ] {
        let body = format!(
            r#"{{"scheme": "{scheme}{per_row}", "rows": 1, "cols": 4,
                "data": [3e38, -3e38, 1.0, 2.0]}}"#
        );
        let response = client::post_json(server.local_addr(), "/v1/quantize", &body).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let v = JsonValue::parse(&response.body).unwrap();
        let values = v.get("values").and_then(JsonValue::as_array).unwrap();
        assert_eq!(values.len(), 4);
        for value in values {
            assert!(
                value.as_f64().is_some_and(f64::is_finite),
                "{scheme}: {}",
                response.body
            );
        }
        assert!(
            v.get("mse").and_then(JsonValue::as_f64).is_some(),
            "{}",
            response.body
        );
    }
    server.shutdown();
}

#[test]
fn protocol_errors_map_to_specific_statuses() {
    let server = start();
    let addr = server.local_addr();
    // 404 with a helpful listing.
    let response = client::get(addr, "/nope").unwrap();
    assert_eq!(response.status, 404);
    assert!(response.body.contains("/v1/eval"), "{}", response.body);
    // 405 with Allow.
    let response = client::post_json(addr, "/healthz", "{}").unwrap();
    assert_eq!(response.status, 405);
    assert_eq!(response.header("allow"), Some("GET"));
    let response = client::get(addr, "/v1/eval").unwrap();
    assert_eq!(response.status, 405);
    assert_eq!(response.header("allow"), Some("POST"));
    // 400s: no body, non-JSON body, schema violations.
    let response = client::post_json(addr, "/v1/eval", "").unwrap();
    assert_eq!(response.status, 400);
    let response = client::post_json(addr, "/v1/eval", "not json").unwrap();
    assert_eq!(response.status, 400);
    assert!(response.body.contains("invalid JSON"), "{}", response.body);
    let response = client::post_json(addr, "/v1/eval", r#"{"scheme": "olive-5bit"}"#).unwrap();
    assert_eq!(response.status, 400);
    assert!(response.body.contains("olive-5bit"), "{}", response.body);
    let response = client::post_json(addr, "/v1/eval", r#"{"schemes": ["fp32", "fp32"]}"#).unwrap();
    assert_eq!(response.status, 400);
    assert!(response.body.contains("duplicate"), "{}", response.body);
    // 403 when shutdown is not allowed (the default).
    let response = client::post_json(addr, "/shutdown", "").unwrap();
    assert_eq!(response.status, 403);
    // Every error body is valid JSON in the uniform slug + detail shape,
    // across every endpoint (the wire contract of Response::error).
    let v = JsonValue::parse(&response.body).unwrap();
    assert_eq!(
        v.get("error").and_then(JsonValue::as_str),
        Some("forbidden")
    );
    assert!(v
        .get("detail")
        .and_then(JsonValue::as_str)
        .unwrap()
        .contains("--allow-shutdown"));
    // Pin the exact rendered bytes of a decode failure once: the slug and
    // detail keys, their order, and the message are all load-bearing.
    let bad = client::post_json(addr, "/v1/eval", r#"{"scheme": "fp32", "batchs": 1}"#).unwrap();
    assert_eq!(bad.status, 400);
    assert_eq!(
        bad.body,
        "{\n  \"error\": \"bad_request\",\n  \"detail\": \"unknown field 'batchs' \
         (expected one of: family, size, scheme, schemes, seed, batches, calibration, \
         oversample, weights_only, task)\"\n}\n"
    );
    server.shutdown();
}

#[test]
fn generate_streams_a_chunked_decode_trace() {
    let server = start();
    let mut connection = Connection::open(server.local_addr()).unwrap();
    let response = connection
        .request(
            "POST",
            "/v1/generate",
            Some(r#"{"scheme": "olive-4bit", "prompt_tokens": 4, "max_new_tokens": 5, "seed": 2}"#),
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    // The response really streamed: chunked framing, one chunk per fragment.
    let chunks = response.chunks.as_ref().expect("must be chunked");
    assert_eq!(chunks.len(), 1 + 1 + 5 + 1 + 1, "head/steps/tails");
    let v = JsonValue::parse(&response.body).expect("concatenated chunks must be valid JSON");
    assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(2));
    let results = v.get("results").and_then(JsonValue::as_array).unwrap();
    let steps = results[0]
        .get("steps")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(steps.len(), 5);
    // The connection survives the chunked response (keep-alive reuse).
    let health = connection.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    let v = JsonValue::parse(&health.body).unwrap();
    assert_eq!(
        v.get("cached_generators").and_then(JsonValue::as_u64),
        Some(1)
    );
    // Scheduler gauges: the finished stream released its session and pages,
    // and each of its 1 + max_new_tokens - 1 = 5 feeds (the whole prompt,
    // then one token at a time) was one tick.
    assert_eq!(
        v.get("decode_sessions").and_then(JsonValue::as_u64),
        Some(0)
    );
    assert_eq!(v.get("kv_pages_used").and_then(JsonValue::as_u64), Some(0));
    assert!(v.get("decode_ticks").and_then(JsonValue::as_u64).unwrap() >= 5);
    assert_eq!(
        v.get("decode_batch_sizes")
            .and_then(|h| h.get("1"))
            .and_then(JsonValue::as_u64),
        Some(5)
    );
    // Bad generation requests still answer as plain 400s.
    let bad = connection
        .request("POST", "/v1/generate", Some(r#"{"schemes": ["fp32"]}"#))
        .unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.chunks.is_none(), "errors are not chunked");
    assert!(bad.body.contains("unknown field"), "{}", bad.body);
    // fp32 generation agrees with the teacher at every step.
    let fp32 = connection
        .request(
            "POST",
            "/v1/generate",
            Some(r#"{"scheme": "fp32", "prompt_tokens": 4, "max_new_tokens": 4}"#),
        )
        .unwrap();
    let v = JsonValue::parse(&fp32.body).unwrap();
    let results = v.get("results").and_then(JsonValue::as_array).unwrap();
    assert_eq!(
        results[0].get("agreement").and_then(JsonValue::as_f64),
        Some(1.0)
    );
    server.shutdown();
}

#[test]
fn duplicate_or_malformed_content_length_is_rejected_on_the_wire() {
    let server = start();
    // Duplicate Content-Length headers (request-smuggling guard) — identical
    // values, differing values, and differing header-name case.
    for raw in [
        "POST /v1/eval HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
        "POST /v1/eval HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}",
        "POST /v1/eval HTTP/1.1\r\ncontent-length: 2\r\nCONTENT-Length: 5\r\n\r\n{}",
    ] {
        let response = raw_exchange(&server, raw);
        assert!(
            response.starts_with("HTTP/1.1 400 "),
            "{raw:?} => {response}"
        );
        assert!(response.contains("duplicate Content-Length"), "{response}");
        assert!(
            response.contains("Connection: close"),
            "smuggling attempts must not keep the connection alive: {response}"
        );
    }
    // Sign/whitespace-bearing values must not reach a lenient integer parse.
    for value in ["+2", "2 2", "2,2", "0x2"] {
        let raw = format!("POST /v1/eval HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{}}");
        let response = raw_exchange(&server, &raw);
        assert!(
            response.starts_with("HTTP/1.1 400 "),
            "CL {value:?} => {response}"
        );
    }
    // Mixed-case single Content-Length still routes normally (read-path
    // lookups are case-insensitive).
    let response = raw_exchange(
        &server,
        "GET /healthz HTTP/1.1\r\ncOnTent-LengTh: 0\r\nConnection: close\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = start();
    let mut connection = Connection::open(server.local_addr()).unwrap();
    for i in 0..5 {
        let response = connection.request("GET", "/healthz", None).unwrap();
        assert_eq!(response.status, 200, "request {i}");
    }
    let response = connection
        .request(
            "POST",
            "/v1/eval",
            Some(r#"{"scheme": "uniform:8", "batches": 1, "oversample": 2}"#),
        )
        .unwrap();
    assert_eq!(response.status, 200);
    // The healthz counters moved.
    let health = connection.request("GET", "/healthz", None).unwrap();
    let v = JsonValue::parse(&health.body).unwrap();
    assert!(
        v.get("requests_served")
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1
    );
    assert_eq!(
        v.get("connections_accepted").and_then(JsonValue::as_u64),
        Some(1)
    );
    server.shutdown();
}

#[test]
fn repeated_evals_hit_the_model_cache() {
    let server = start();
    let body = r#"{"scheme": "olive-4bit", "batches": 2, "oversample": 2}"#;
    let first = client::post_json(server.local_addr(), "/v1/eval", body).unwrap();
    let second = client::post_json(server.local_addr(), "/v1/eval", body).unwrap();
    assert_eq!(first.body, second.body, "cached answer must be identical");
    let health = client::get(server.local_addr(), "/healthz").unwrap();
    let v = JsonValue::parse(&health.body).unwrap();
    assert_eq!(v.get("cached_models").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(
        v.get("cached_responses").and_then(JsonValue::as_u64),
        Some(1)
    );
    server.shutdown();
}

/// The keys of a JSON object, in wire order — [`JsonValue::Object`] keeps
/// insertion order, so parsing preserves exactly what the server rendered.
fn object_keys(v: &JsonValue) -> Vec<String> {
    match v {
        JsonValue::Object(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

#[test]
fn response_json_key_order_is_stable() {
    // Byte-identical responses require deterministic key order; a HashMap
    // sneaking into a rendering path (what olive-lint's
    // no-unordered-map-in-output rule guards against) would scramble these.
    let server = start();

    let health = client::get(server.local_addr(), "/healthz").unwrap();
    let v = JsonValue::parse(&health.body).expect("healthz must be valid JSON");
    assert_eq!(
        object_keys(&v),
        [
            "status",
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
            "decode_batch_sizes",
        ],
        "/healthz key order must never change"
    );
    // The batch-size histogram is itself an object with ascending
    // numeric-string keys (BTreeMap iteration order) — empty on a fresh
    // server, and always a JSON object, never null.
    assert!(
        matches!(v.get("decode_batch_sizes"), Some(JsonValue::Object(_))),
        "{}",
        health.body
    );

    let body = r#"{"scheme": "olive-4bit", "batches": 1, "oversample": 2}"#;
    let eval = client::post_json(server.local_addr(), "/v1/eval", body).unwrap();
    assert_eq!(eval.status, 200);
    let report = JsonValue::parse(&eval.body).expect("eval report must be valid JSON");
    assert_eq!(
        object_keys(&report),
        [
            "model",
            "task",
            "seed",
            "batches",
            "quantize_activations",
            "gemm",
            "results",
        ],
        "eval report key order must never change"
    );
    let results = match report.get("results") {
        Some(JsonValue::Array(items)) => items,
        other => panic!("expected a results array, got {other:?}"),
    };
    assert_eq!(
        object_keys(&results[0]),
        [
            "spec",
            "name",
            "bits_per_element",
            "compute_bits",
            "activations_quantized",
            "fidelity",
            "agreement",
            "position_agreement",
            "perplexity",
            "wall_time_s",
        ],
        "per-scheme result key order must never change"
    );
    server.shutdown();

    // A second server process answering the same request must produce the
    // same bytes — cache state and key order cannot depend on process
    // history.
    let fresh = start();
    let again = client::post_json(fresh.local_addr(), "/v1/eval", body).unwrap();
    assert_eq!(again.body, eval.body, "responses must be byte-stable");
    fresh.shutdown();
}
