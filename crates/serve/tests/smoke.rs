//! Process-level smoke test: spawns the real `olive-serve` binary on an
//! ephemeral port, drives it with the std-only client (`/healthz`, one
//! `/v1/eval`, one streamed `/v1/generate` on a kept-alive connection),
//! asserts 200s with valid JSON, and verifies a clean `POST /shutdown` exit
//! issued on that same still-open connection. This is exactly what
//! `scripts/serve_smoke.sh` (and the CI smoke job) runs.

use olive_api::JsonValue;
use olive_serve::client::{self, Connection};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

impl ServerProcess {
    fn spawn() -> ServerProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_olive-serve"))
            .args(["--port", "0", "--allow-shutdown"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawning olive-serve");
        // Scrape "olive-serve listening on http://127.0.0.1:PORT".
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("olive-serve must print its URL")
            .expect("readable stdout");
        let url = line
            .rsplit(' ')
            .next()
            .and_then(|u| u.strip_prefix("http://"))
            .unwrap_or_else(|| panic!("unexpected startup line: {line}"));
        let addr: SocketAddr = url.parse().expect("parseable server address");
        ServerProcess { child, addr }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Only reached on test failure (the happy path waits on /shutdown).
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn spawned_server_answers_and_shuts_down_cleanly() {
    let mut server = ServerProcess::spawn();

    let health = client::get(server.addr, "/healthz").expect("/healthz request");
    assert_eq!(health.status, 200);
    let v = JsonValue::parse(&health.body).expect("healthz must return valid JSON");
    assert_eq!(v.get("status").and_then(JsonValue::as_str), Some("ok"));

    let eval = client::post_json(
        server.addr,
        "/v1/eval",
        r#"{"scheme": "olive-4bit", "batches": 2, "oversample": 2}"#,
    )
    .expect("/v1/eval request");
    assert_eq!(eval.status, 200, "{}", eval.body);
    let v = JsonValue::parse(&eval.body).expect("eval must return valid JSON");
    let results = v
        .get("results")
        .and_then(JsonValue::as_array)
        .expect("results array");
    assert_eq!(
        results[0].get("spec").and_then(JsonValue::as_str),
        Some("olive-4bit")
    );

    // Streamed generation over a kept-alive connection; the same connection
    // then triggers shutdown, proving clean teardown mid-keep-alive.
    let mut connection = Connection::open(server.addr).expect("keep-alive connect");
    let generate = connection
        .request(
            "POST",
            "/v1/generate",
            Some(r#"{"scheme": "olive-4bit", "prompt_tokens": 4, "max_new_tokens": 4}"#),
        )
        .expect("/v1/generate request");
    assert_eq!(generate.status, 200, "{}", generate.body);
    let chunks = generate.chunks.as_ref().expect("generate must stream");
    assert!(chunks.len() > 2, "expected a multi-chunk stream");
    let v = JsonValue::parse(&generate.body).expect("generate must stream valid JSON");
    assert_eq!(
        v.get("results")
            .and_then(JsonValue::as_array)
            .and_then(|r| r[0].get("steps"))
            .and_then(JsonValue::as_array)
            .map(<[_]>::len),
        Some(4)
    );

    let bye = connection
        .request("POST", "/shutdown", Some(""))
        .expect("/shutdown request");
    assert_eq!(bye.status, 200);

    // The process must exit 0 on its own (drain + join, no kill) promptly.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match server.child.try_wait().expect("child status") {
            Some(status) => {
                assert!(status.success(), "server exited with {status}");
                break;
            }
            None if Instant::now() > deadline => panic!("server did not exit after /shutdown"),
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}
