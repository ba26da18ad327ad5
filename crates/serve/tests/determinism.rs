//! The serving determinism contract, enforced end to end (the PR's
//! acceptance criterion): an `/v1/eval` response body must be byte-identical
//! to a direct `Pipeline::run()` + `without_wall_times().to_json()` for the
//! same (family, size, schemes, seed, batches, calibration), and a streamed
//! `/v1/generate` response — chunks concatenated — must be byte-identical to
//! the direct `Pipeline::generation(GenOptions)` rendering via
//! `without_wall_times().to_json()` —
//! under 4 concurrent clients, at `OLIVE_THREADS` ∈ {1, 8}, with both kinds
//! of request interleaved over the same kept-alive connections (mid-stream
//! keep-alive reuse).
//!
//! One `#[test]` drives the whole matrix because it mutates the
//! process-global `OLIVE_THREADS` variable; splitting it would race the
//! test harness's thread pool.

use olive_serve::client::Connection;
use olive_serve::{ServeConfig, Server};
use std::sync::Arc;

/// The request mix: eval and streamed-generate requests over distinct
/// schemes, seeds, batch counts, sizes and calibrations, so concurrent
/// requests interleave unrelated (and differently-shaped) work.
fn request_mix() -> Vec<(&'static str, String)> {
    vec![
        (
            "/v1/eval",
            r#"{"scheme": "olive-4bit", "batches": 2, "oversample": 2}"#.to_string(),
        ),
        (
            "/v1/generate",
            r#"{"scheme": "olive-4bit", "prompt_tokens": 4, "max_new_tokens": 6, "seed": 3}"#
                .to_string(),
        ),
        (
            "/v1/eval",
            r#"{"schemes": ["fp32", "uniform:4"], "seed": 7, "batches": 3, "oversample": 2}"#
                .to_string(),
        ),
        (
            "/v1/generate",
            r#"{"scheme": "uniform:4", "family": "gpt2", "prompt_tokens": 3,
                "max_new_tokens": 5, "seed": 3}"#
                .to_string(),
        ),
        (
            "/v1/eval",
            r#"{"scheme": "olive-4bit@per-row", "family": "gpt2", "seed": 11, "batches": 2,
            "oversample": 2}"#
                .to_string(),
        ),
        (
            "/v1/eval",
            r#"{"scheme": "ant:4bit", "calibration": "random", "batches": 2}"#.to_string(),
        ),
        (
            "/v1/eval",
            r#"{"scheme": "olive-8bit", "weights_only": true, "batches": 2, "oversample": 3}"#
                .to_string(),
        ),
        (
            "/v1/generate",
            r#"{"scheme": "olive-8bit", "weights_only": true, "prompt_tokens": 5,
                "max_new_tokens": 4}"#
                .to_string(),
        ),
        (
            "/v1/eval",
            r#"{"scheme": "gobo", "family": "bloom", "seed": 5, "batches": 1, "oversample": 2}"#
                .to_string(),
        ),
    ]
}

/// What a direct (no server, no batching, no streaming) pipeline run renders
/// for `body` at `path`.
fn direct_answer(path: &str, body: &str) -> String {
    let parsed = olive_api::JsonValue::parse(body).expect("test request must be valid JSON");
    match path {
        "/v1/eval" => {
            let request =
                olive_serve::EvalRequest::decode(&parsed).expect("test request must decode");
            request.pipeline().run().without_wall_times().to_json()
        }
        "/v1/generate" => {
            let request =
                olive_serve::GenerateRequest::decode(&parsed).expect("test request must decode");
            request
                .pipeline()
                .generation(
                    olive_api::GenOptions::new()
                        .prompt_tokens(request.prompt_tokens)
                        .max_new_tokens(request.max_new_tokens),
                )
                .without_wall_times()
                .to_json()
        }
        other => panic!("unexpected path {other}"),
    }
}

/// Hammers `server` with `clients` concurrent connections, each issuing the
/// whole request mix `rounds` times over one kept-alive connection, and
/// asserts every response is byte-identical to its direct answer.
fn assert_bit_identical_under_load(
    server: &Server,
    expected: &Arc<Vec<(&'static str, String, String)>>,
    clients: usize,
    rounds: usize,
) {
    let workers: Vec<_> = (0..clients)
        .map(|client_id| {
            let addr = server.local_addr();
            let expected = Arc::clone(expected);
            std::thread::spawn(move || {
                let mut connection = Connection::open(addr).expect("client connect");
                for round in 0..rounds {
                    // Stagger request order per client so concurrent work
                    // mixes — and so streamed and unary responses alternate
                    // over the same kept-alive connection.
                    for k in 0..expected.len() {
                        let (path, body, want) =
                            &expected[(k + client_id + round) % expected.len()];
                        let response = connection
                            .request("POST", path, Some(body))
                            .expect("request");
                        assert_eq!(response.status, 200, "{path}: {}", response.body);
                        if *path == "/v1/generate" {
                            // Streamed for real: more than one chunk, one
                            // per decode step among them.
                            let chunks = response.chunks.as_ref().expect("chunked");
                            assert!(chunks.len() > 2, "only {} chunks", chunks.len());
                        } else {
                            assert!(response.chunks.is_none(), "{path} must not chunk");
                        }
                        assert_eq!(
                            &response.body, want,
                            "served bytes diverged from the direct pipeline run \
                             (client {client_id}, round {round}, {path} {body})"
                        );
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }
}

#[test]
fn eval_responses_are_byte_identical_to_direct_runs() {
    // Expected bodies computed once, directly, before any server exists.
    // The runtime's determinism contract says thread count never changes
    // results, so one set of expectations serves every configuration.
    let expected: Arc<Vec<(&'static str, String, String)>> = Arc::new(
        request_mix()
            .into_iter()
            .map(|(path, body)| {
                let want = direct_answer(path, &body);
                (path, body, want)
            })
            .collect(),
    );

    for threads in ["1", "8"] {
        std::env::set_var("OLIVE_THREADS", threads);
        let server = Server::start(ServeConfig::default()).expect("server start");
        assert_bit_identical_under_load(&server, &expected, 4, 2);
        server.shutdown();
    }
    std::env::remove_var("OLIVE_THREADS");
}
