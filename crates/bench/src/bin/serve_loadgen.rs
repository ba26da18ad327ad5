//! `serve_loadgen`: closed-loop load generator for `olive-serve`, and the
//! serving-throughput kernel of the bench-regression gate.
//!
//! ```text
//! serve_loadgen [--quick] [--json <results.json>] [--clients N] [--requests M]
//! ```
//!
//! Starts an in-process server (shipped defaults, ephemeral port), warms
//! the model cache with one request, then drives it with N client threads ×
//! M keep-alive `/v1/eval` requests each and reports the latency
//! distribution (p50/p95/p99) and sustained req/s. A second phase sends
//! cache misses from one client. With `--json`, the two p50s are merged
//! into the shared flat results file under the kernel names
//! `serve/eval_tiny_cached` and `serve/eval_tiny_miss`, which
//! `scripts/bench_gate.sh` diffs against `BENCH_baseline.json` — serving
//! latency is regression-gated exactly like the GEMM kernels.
//!
//! The cached phase measures the serving hot path of the quantize-once,
//! serve-many deployment model: HTTP parse → response-cache hit, answered
//! on the connection thread before admission → response write. The miss
//! phase measures what a new model costs: each request carries a model
//! seed no other request uses, so it builds the teacher, calibrates,
//! quantizes the weights under both schemes and runs 48 act-quant forwards
//! (servebench's `eval_miss` shape).

use olive_bench::gate;
use olive_bench::loadgen::{drive, sequence, warmup, LatencySummary};
use olive_bench::report::Table;
use olive_harness::bench::fmt_ns;
use olive_serve::{ServeConfig, Server};
use std::path::PathBuf;

/// The request every client issues — tiny model, two schemes, small batch
/// count, all cached after warmup.
const EVAL_BODY: &str =
    r#"{"schemes": ["olive-4bit", "uniform:4"], "batches": 2, "oversample": 2, "seed": 13}"#;

/// A miss-phase request: `EVAL_BODY`'s schemes at 8 batches for model
/// seed `seed`.
fn miss_body(seed: u64) -> String {
    format!(
        r#"{{"schemes": ["olive-4bit", "uniform:4"], "batches": 8, "oversample": 2, "seed": {seed}}}"#
    )
}

/// Model seeds of the miss phase start here, clear of `EVAL_BODY`'s.
const MISS_SEED_BASE: u64 = 1000;

/// Untimed miss requests that settle the server's lazy set-up first.
const MISS_WARMUP: u64 = 2;

struct Args {
    quick: bool,
    json: Option<PathBuf>,
    clients: Option<usize>,
    requests: Option<usize>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        quick: false,
        json: None,
        clients: None,
        requests: None,
    };
    let mut args = std::env::args().skip(1);
    let usage = "usage: serve_loadgen [--quick] [--json <path>] [--clients N] [--requests M]";
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value\n{usage}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json" => parsed.json = Some(PathBuf::from(value("--json"))),
            "--clients" => match value("--clients").parse() {
                Ok(n) if n >= 1 => parsed.clients = Some(n),
                _ => {
                    eprintln!("--clients must be a positive integer");
                    std::process::exit(2);
                }
            },
            "--requests" => match value("--requests").parse() {
                Ok(n) if n >= 1 => parsed.requests = Some(n),
                _ => {
                    eprintln!("--requests must be a positive integer");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument '{other}'\n{usage}");
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let clients = args.clients.unwrap_or(if args.quick { 4 } else { 8 });
    let requests = args.requests.unwrap_or(if args.quick { 25 } else { 100 });
    let misses: u64 = if args.quick { 40 } else { 200 };

    let server = Server::start(ServeConfig::default()).unwrap_or_else(|e| {
        eprintln!("serve_loadgen: failed to start the server: {e}");
        std::process::exit(1);
    });
    let addr = server.local_addr();

    // Warmup: populate the model + response caches so the timed phase
    // measures the serve-many steady state, not the one-off quantization.
    let (_, uncached_ns) = warmup(addr, "/v1/eval", EVAL_BODY);

    // Timed phase: closed-loop clients over kept-alive connections.
    let (latencies, wall_s) = drive(addr, "/v1/eval", EVAL_BODY, clients, requests);

    // Miss phase: one client, a fresh model seed per request.
    let seeds = MISS_SEED_BASE..MISS_SEED_BASE + MISS_WARMUP + misses;
    let bodies: Vec<String> = seeds.map(miss_body).collect();
    let (untimed, timed) = bodies.split_at(MISS_WARMUP as usize);
    sequence(addr, "/v1/eval", untimed);
    let miss = LatencySummary::from_sorted_ns(&sequence(addr, "/v1/eval", timed));
    server.shutdown();

    let total = latencies.len();
    let summary = LatencySummary::from_sorted_ns(&latencies);
    let p50 = summary.p50_ns;
    let req_per_s = total as f64 / wall_s;

    let mut table = Table::new(vec!["metric".into(), "value".into()]);
    table.row(vec!["clients".into(), clients.to_string()]);
    table.row(vec!["requests/client".into(), requests.to_string()]);
    table.row(vec!["total requests".into(), total.to_string()]);
    table.row(vec!["uncached first eval".into(), fmt_ns(uncached_ns)]);
    table.row(vec!["latency p50".into(), fmt_ns(summary.p50_ns)]);
    table.row(vec!["latency p95".into(), fmt_ns(summary.p95_ns)]);
    table.row(vec!["latency p99".into(), fmt_ns(summary.p99_ns)]);
    table.row(vec!["latency max".into(), fmt_ns(summary.max_ns)]);
    table.row(vec!["throughput".into(), format!("{req_per_s:.0} req/s")]);
    table.row(vec!["miss requests".into(), timed.len().to_string()]);
    table.row(vec!["miss latency p50".into(), fmt_ns(miss.p50_ns)]);
    println!("== serve_loadgen: {total} cached /v1/eval requests, then misses ==");
    println!("{}", table.render());

    // The bucketed distribution, in the same microsecond buckets the
    // server's /metrics histograms use.
    let mut buckets = Table::new(vec!["latency bucket".into(), "cumulative".into()]);
    for (bound, cumulative) in summary.bucket_rows() {
        buckets.row(vec![bound, cumulative.to_string()]);
    }
    println!("{}", buckets.render());

    if let Some(path) = &args.json {
        // Gate only the p50: tail percentiles on shared hardware are too
        // noisy to gate, and req/s is the p50's reciprocal under a closed
        // loop. (Printed above for humans either way.)
        let mut medians = gate::Medians::new();
        medians.insert("serve/eval_tiny_cached".to_string(), p50);
        medians.insert("serve/eval_tiny_miss".to_string(), miss.p50_ns);
        gate::merge_into_file(path, &medians)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote medians to {}", path.display());
    }
}
