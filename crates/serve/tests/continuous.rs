//! The continuous-batching determinism matrix (the PR's acceptance
//! criterion for concurrent sessions): N interleaved `/v1/generate` streams
//! — staggered starts, mixed prompt lengths/schemes/families, one client
//! disconnecting mid-stream — must each produce bytes identical to the
//! direct `Pipeline::generation(..).without_wall_times().to_json()` for
//! their request, at `OLIVE_THREADS` ∈ {1, 8} and across decode-scheduler
//! shapes (session caps, and a KV pool small enough to force deferred
//! admission).
//!
//! One `#[test]` drives the whole matrix because it mutates the
//! process-global `OLIVE_THREADS` variable; splitting it would race the
//! test harness's thread pool.

use olive_api::{GenOptions, JsonValue};
use olive_serve::client::Connection;
use olive_serve::{SchedConfig, ServeConfig, Server};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The stream mix: mixed prompt lengths, step counts, schemes, families and
/// seeds, so merged ticks combine differently-shaped flights and several
/// model groups.
fn stream_mix() -> Vec<String> {
    vec![
        r#"{"scheme": "olive-4bit", "prompt_tokens": 4, "max_new_tokens": 6, "seed": 3}"#.into(),
        r#"{"scheme": "olive-4bit", "prompt_tokens": 9, "max_new_tokens": 3, "seed": 3}"#.into(),
        r#"{"scheme": "uniform:4", "prompt_tokens": 2, "max_new_tokens": 8}"#.into(),
        r#"{"scheme": "fp32", "prompt_tokens": 6, "max_new_tokens": 5, "seed": 11}"#.into(),
        r#"{"scheme": "olive-8bit", "family": "gpt2", "prompt_tokens": 3, "max_new_tokens": 7}"#
            .into(),
        r#"{"scheme": "ant:4bit", "prompt_tokens": 5, "max_new_tokens": 4, "seed": 7}"#.into(),
    ]
}

/// What a direct (no server, no scheduler) pipeline run renders for `body`.
fn direct_answer(body: &str) -> String {
    let parsed = JsonValue::parse(body).expect("test request must be valid JSON");
    let request = olive_serve::GenerateRequest::decode(&parsed).expect("test request must decode");
    request
        .pipeline()
        .generation(
            GenOptions::new()
                .prompt_tokens(request.prompt_tokens)
                .max_new_tokens(request.max_new_tokens),
        )
        .without_wall_times()
        .to_json()
}

/// Opens a raw socket, starts a long generation, reads a handful of bytes
/// and hangs up — the mid-stream disconnect. The scheduler must release the
/// session and its KV pages without disturbing any surviving stream.
fn disconnect_mid_stream(server: &Server) {
    let body = r#"{"scheme": "olive-4bit", "prompt_tokens": 8, "max_new_tokens": 64, "seed": 5}"#;
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!(
        "POST /v1/generate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    // Read just past the status line so the stream has really started, then
    // drop the socket while chunks are (or soon will be) in flight.
    let mut first = [0u8; 32];
    let _ = stream.read(&mut first);
    drop(stream);
}

/// Runs the stream mix concurrently against `server` — staggered starts,
/// one disconnecting client in the middle — and asserts every surviving
/// stream's chunks concatenate to its direct answer.
fn assert_streams_bit_identical(server: &Server, expected: &Arc<Vec<(String, String)>>) {
    let mut workers = Vec::new();
    for (i, _) in expected.iter().enumerate() {
        let addr = server.local_addr();
        let expected = Arc::clone(expected);
        workers.push(std::thread::spawn(move || {
            // Staggered starts: later streams join the merged batch while
            // earlier ones are mid-decode (continuous batching's raison
            // d'être), instead of all admitting on one tick.
            std::thread::sleep(Duration::from_millis(3 * i as u64));
            let (body, want) = &expected[i];
            let mut connection = Connection::open(addr).expect("client connect");
            let response = connection
                .request("POST", "/v1/generate", Some(body))
                .expect("request");
            assert_eq!(response.status, 200, "{body}: {}", response.body);
            let chunks = response.chunks.as_ref().expect("must stream chunked");
            assert!(chunks.len() > 2, "only {} chunks", chunks.len());
            assert_eq!(
                &response.body, want,
                "served bytes diverged from the direct pipeline run ({body})"
            );
        }));
    }
    // The disconnecting client lands mid-pack, while staggered survivors
    // are still starting and finishing around it.
    std::thread::sleep(Duration::from_millis(7));
    disconnect_mid_stream(server);
    for worker in workers {
        worker.join().expect("client thread");
    }
}

/// Polls `/healthz` until no decode session and no KV page is in use. The
/// scheduler ends a hung-up flight only once a chunk write to it fails,
/// which can come after every surviving stream has finished, so the
/// disconnecting stream may still be live when the clients join. A leak
/// fails at the 10 s deadline with the last body.
fn assert_sessions_drain(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = olive_serve::client::get(server.local_addr(), "/healthz").unwrap();
        let v = JsonValue::parse(&health.body).unwrap();
        let gauge = |key| v.get(key).and_then(JsonValue::as_u64);
        if gauge("decode_sessions") == Some(0) && gauge("kv_pages_used") == Some(0) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "sessions still live after 10 s: {}",
            health.body
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn concurrent_sessions_stream_bit_identical_bytes() {
    // Expected bodies computed once, directly, before any server exists:
    // the runtime's determinism contract says thread count, scheduler shape
    // and session interleaving never change results.
    let expected: Arc<Vec<(String, String)>> = Arc::new(
        stream_mix()
            .into_iter()
            .map(|body| {
                let want = direct_answer(&body);
                (body, want)
            })
            .collect(),
    );

    // Scheduler shapes: wide-open (everything admits at once), two sessions
    // at most (the rest wait in the queue), and a tight KV pool. Each survivor needs 8 pages at the default geometry
    // (2 layers x K&V x 1 page x 2 lanes) and the disconnecting 64-step
    // stream needs 16, so 24 pages admit at most three flights at a time
    // and the rest wait for pages to free up. The bytes must never notice.
    let sched_shapes = [
        SchedConfig::default(),
        SchedConfig {
            max_sessions: 2,
            ..SchedConfig::default()
        },
        SchedConfig {
            kv_pool_pages: 24,
            ..SchedConfig::default()
        },
    ];
    for threads in ["1", "8"] {
        std::env::set_var("OLIVE_THREADS", threads);
        for sched in &sched_shapes {
            let server = Server::start(ServeConfig {
                sched: sched.clone(),
                ..ServeConfig::default()
            })
            .expect("server start");
            assert_streams_bit_identical(&server, &expected);

            // The disconnected session fully released its slot and pages.
            assert_sessions_drain(&server);
            server.shutdown();
        }
    }
    std::env::remove_var("OLIVE_THREADS");
}
