//! The `olive-serve` daemon: binds, prints the URL, serves until shut down.
//!
//! ```text
//! olive-serve [--addr HOST] [--port N] [--queue-capacity N] [--max-sessions N]
//!             [--kv-pool-pages N] [--artifact-dir DIR] [--allow-shutdown]
//!             [--trace-log PATH] [--no-telemetry]
//! ```
//!
//! `--port 0` (the default) picks an ephemeral port; the chosen URL is
//! printed as `olive-serve listening on http://HOST:PORT` so harnesses can
//! scrape it. `--queue-capacity` bounds both the unary requests computing at
//! once and the generation requests waiting for one of the
//! `--max-sessions` decode sessions (the decode scheduler's one queue);
//! past it, requests are answered 503 + `Retry-After: 1`. A generation
//! whose KV pages exceed `--kv-pool-pages` is answered 503 at once. With
//! `--allow-shutdown`, `POST /shutdown` stops the server and the process
//! exits 0 after finishing the requests it accepted. With
//! `--artifact-dir`, preparation misses cold-start bit-identically from
//! `olive-prepare` snapshots in DIR instead of quantizing in-process (the
//! `cached_artifacts` gauge on `/healthz` counts the snapshots used).
//!
//! `--trace-log PATH` appends every finished request trace as one JSON line
//! to PATH (see `GET /debug/trace` for the in-memory ring). `--no-telemetry`
//! turns off latency timing and tracing; counters, `/healthz` and `/metrics`
//! stay live, and response bodies are byte-identical either way.

use olive_serve::{SchedConfig, ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: olive-serve [--addr HOST] [--port N] [--queue-capacity N] [--max-sessions N] \
         [--kv-pool-pages N] [--artifact-dir DIR] [--allow-shutdown] [--trace-log PATH] \
         [--no-telemetry]"
    );
    std::process::exit(2);
}

fn parse_args() -> ServeConfig {
    let mut host = "127.0.0.1".to_string();
    let mut port = 0u16;
    let mut unary_capacity = ServeConfig::default().unary_capacity;
    let mut sched = SchedConfig::default();
    let mut allow_shutdown = false;
    let mut artifact_dir = None;
    let mut telemetry = olive_serve::TelemetryOptions::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("{name} requires a value");
                usage();
            }
        };
        match arg.as_str() {
            "--addr" => host = value("--addr"),
            "--port" => match value("--port").parse() {
                Ok(p) => port = p,
                Err(_) => usage(),
            },
            "--queue-capacity" => match value("--queue-capacity").parse() {
                Ok(n) if n >= 1 => {
                    unary_capacity = n;
                    sched.queue_capacity = n;
                }
                _ => usage(),
            },
            "--max-sessions" => match value("--max-sessions").parse() {
                Ok(n) if n >= 1 => sched.max_sessions = n,
                _ => usage(),
            },
            "--kv-pool-pages" => match value("--kv-pool-pages").parse() {
                Ok(n) if n >= 1 => sched.kv_pool_pages = n,
                _ => usage(),
            },
            "--artifact-dir" => {
                artifact_dir = Some(std::path::PathBuf::from(value("--artifact-dir")));
            }
            "--allow-shutdown" => allow_shutdown = true,
            "--trace-log" => {
                telemetry.trace_log = Some(std::path::PathBuf::from(value("--trace-log")));
            }
            "--no-telemetry" => telemetry.enabled = false,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    ServeConfig {
        addr: format!("{host}:{port}"),
        unary_capacity,
        sched,
        allow_shutdown,
        artifact_dir,
        telemetry,
    }
}

fn main() {
    // A typo'd OLIVE_THREADS is a startup error, not a silently different
    // thread count: determinism contracts quote the env setting verbatim.
    if let Err(message) = olive_runtime::validate_thread_env() {
        eprintln!("olive-serve: {message}");
        std::process::exit(2);
    }
    // Same contract for OLIVE_SIMD: results are bit-identical on every
    // path, but a daemon asked for a specific kernel must actually run it.
    if let Err(message) = olive_core::validate_simd_env() {
        eprintln!("olive-serve: {message}");
        std::process::exit(2);
    }
    eprintln!(
        "olive-serve: quantized GEMM dispatch: {}",
        olive_core::simd::resolve_path()
    );
    let config = parse_args();
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("olive-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    // The exact line the smoke harness scrapes; flush so a piped stdout
    // delivers it immediately.
    println!("olive-serve listening on {}", server.url());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.wait();
    // Best-effort: the harness may have closed our stdout pipe already, and
    // a farewell message is not worth a broken-pipe panic.
    let _ = writeln!(std::io::stdout(), "olive-serve: shut down cleanly");
}
