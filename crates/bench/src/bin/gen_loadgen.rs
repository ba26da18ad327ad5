//! `gen_loadgen`: closed-loop load generator for the streamed `/v1/generate`
//! endpoint, and the decode-throughput kernel of the bench-regression gate.
//!
//! ```text
//! gen_loadgen [--quick] [--json <results.json>] [--clients N] [--requests M]
//!             [--max-new-tokens T]
//! ```
//!
//! Starts an in-process server (shipped defaults, ephemeral port), warms
//! the generation-preparation cache with one request, then drives it with N
//! client threads × M keep-alive streamed `/v1/generate` requests each and
//! reports the per-request latency distribution (p50/p95/p99), the
//! **tokens/sec p50** (the paper-relevant decode-throughput number) and
//! sustained req/s. With `--json`, the per-request p50 is merged into the
//! shared flat results file under the kernel name `serve/gen_stream_tiny`,
//! which `scripts/bench_gate.sh` diffs against `BENCH_baseline.json` —
//! decode throughput is regression-gated exactly like the GEMM kernels
//! (tokens/sec p50 is the gated p50's reciprocal times the token count).
//!
//! A second, continuous-batching phase then fires 8 concurrent streams at
//! once (barrier-synchronized bursts, so the decode scheduler's merged
//! ticks really carry 8 flights) and gates the per-burst wall-time p50
//! under the kernel name `serve/gen_continuous_tiny`; the human table
//! reports the corresponding **aggregate tokens/sec** across all streams.
//!
//! The measured path is the latency-shaped serving hot path this repo's
//! generative workload introduces: HTTP parse → queue → decode-scheduler
//! admission → paged-KV batched incremental decode → one chunked write per
//! token, demuxed per stream.

use olive_bench::gate;
use olive_bench::loadgen::{burst, drive, quantile, warmup, LatencySummary};
use olive_bench::report::Table;
use olive_harness::bench::fmt_ns;
use olive_serve::{ServeConfig, Server};
use std::path::PathBuf;

struct Args {
    quick: bool,
    json: Option<PathBuf>,
    clients: Option<usize>,
    requests: Option<usize>,
    max_new_tokens: usize,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        quick: false,
        json: None,
        clients: None,
        requests: None,
        max_new_tokens: 16,
    };
    let mut args = std::env::args().skip(1);
    let usage = "usage: gen_loadgen [--quick] [--json <path>] [--clients N] [--requests M] \
                 [--max-new-tokens T]";
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
            "--max-new-tokens" => match value("--max-new-tokens").parse() {
                Ok(n) if (1..=256).contains(&n) => parsed.max_new_tokens = n,
                _ => {
                    eprintln!("--max-new-tokens must be in 1..=256");
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
    let clients = args.clients.unwrap_or(if args.quick { 2 } else { 4 });
    let requests = args.requests.unwrap_or(if args.quick { 8 } else { 25 });
    let max_new_tokens = args.max_new_tokens;
    let body = format!(
        r#"{{"scheme": "olive-4bit", "prompt_tokens": 8, "max_new_tokens": {max_new_tokens}, "seed": 13}}"#,
    );

    let server = Server::start(ServeConfig::default()).unwrap_or_else(|e| {
        eprintln!("gen_loadgen: failed to start the server: {e}");
        std::process::exit(1);
    });
    let addr = server.local_addr();

    // Warmup: populate the generation-preparation cache (teacher + prompt)
    // so the timed phase measures the steady-state decode path.
    let (response, uncached_ns) = warmup(addr, "/v1/generate", &body);
    assert!(response.chunks.is_some(), "generate must stream");

    // Timed phase: closed-loop clients over kept-alive connections, one
    // streamed generation per request.
    let (latencies, wall_s) = drive(addr, "/v1/generate", &body, clients, requests);

    // Continuous-batching phase: 8 streams fired simultaneously per round,
    // so every decode tick batches a full house of flights; the round wall
    // time is how long the merged batch takes to decode to completion.
    let streams = 8;
    let rounds = if args.quick { 6 } else { 20 };
    let round_ns = burst(addr, "/v1/generate", &body, streams, rounds);
    server.shutdown();

    let total = latencies.len();
    let summary = LatencySummary::from_sorted_ns(&latencies);
    let p50 = summary.p50_ns;
    let tokens_per_s_p50 = max_new_tokens as f64 / (p50 as f64 / 1e9);
    let req_per_s = total as f64 / wall_s;
    let burst_p50 = quantile(&round_ns, 0.50);
    let aggregate_tok_per_s = (streams * max_new_tokens) as f64 / (burst_p50 as f64 / 1e9);

    let mut table = Table::new(vec!["metric".into(), "value".into()]);
    table.row(vec!["clients".into(), clients.to_string()]);
    table.row(vec!["requests/client".into(), requests.to_string()]);
    table.row(vec!["tokens/request".into(), max_new_tokens.to_string()]);
    table.row(vec!["total requests".into(), total.to_string()]);
    table.row(vec!["uncached first stream".into(), fmt_ns(uncached_ns)]);
    table.row(vec!["latency p50".into(), fmt_ns(summary.p50_ns)]);
    table.row(vec!["latency p95".into(), fmt_ns(summary.p95_ns)]);
    table.row(vec!["latency p99".into(), fmt_ns(summary.p99_ns)]);
    table.row(vec!["latency max".into(), fmt_ns(summary.max_ns)]);
    table.row(vec![
        "tokens/sec p50".into(),
        format!("{tokens_per_s_p50:.0} tok/s"),
    ]);
    table.row(vec!["throughput".into(), format!("{req_per_s:.1} req/s")]);
    table.row(vec![
        "continuous burst p50".into(),
        format!("{} ({streams} streams)", fmt_ns(burst_p50)),
    ]);
    table.row(vec![
        "aggregate tokens/sec".into(),
        format!("{aggregate_tok_per_s:.0} tok/s"),
    ]);
    println!("== gen_loadgen: {total} streamed /v1/generate requests ==");
    println!("{}", table.render());

    // The bucketed distribution, in the same microsecond buckets the
    // server's /metrics histograms use.
    let mut buckets = Table::new(vec!["latency bucket".into(), "cumulative".into()]);
    for (bound, cumulative) in summary.bucket_rows() {
        buckets.row(vec![bound, cumulative.to_string()]);
    }
    println!("{}", buckets.render());

    if let Some(path) = &args.json {
        // Gate the per-request p50 (tokens/sec p50 is its reciprocal scaled
        // by the fixed token count, so one number gates both; tails are too
        // noisy on shared hardware) and the continuous-batching burst p50
        // (aggregate tokens/sec is likewise its scaled reciprocal).
        let mut medians = gate::Medians::new();
        medians.insert("serve/gen_stream_tiny".to_string(), p50);
        medians.insert("serve/gen_continuous_tiny".to_string(), burst_p50);
        gate::merge_into_file(path, &medians)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote medians to {}", path.display());
    }
}
