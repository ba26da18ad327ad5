//! servebench — the served-path benchmark.
//!
//! ```text
//! servebench --serve-bin PATH --out DIR --workload eval_hit|eval_miss|gen_merged|all
//!            --seed N --seconds S --trace 0|1
//! servebench --list-metrics
//! ```
//!
//! Each run spawns a fresh release `olive-serve` with shipped defaults,
//! drives one seeded closed-loop workload over loopback, byte-checks the
//! replies against the in-process `Pipeline` once the daemon has exited,
//! and prints a report whose last line is one JSON object. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the workload untraced
//! and then traced, and reports the per-layer metrics. `servebench/run.sh`
//! builds both binaries and runs this from the repository root.

mod catalog;
mod check;
mod daemon;
mod drive;
mod http;
mod layers;
mod spans;
mod stats;
mod workload;

use check::Tally;
use daemon::{Daemon, Delta};
use drive::{Exchange, Pass};
use spans::now;
use stats::{mean, median, quantile, ratio};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Plan, Workload};

/// Pre-spin before a run's first daemon, and before each later one (no
/// idle spell precedes those).
const FIRST_SPIN: Duration = Duration::from_secs(2);
const NEXT_SPIN: Duration = Duration::from_millis(500);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A pass starts no new request after this many times `--seconds`, so a
/// much slower program still ends the run within its time limit.
const DEADLINE_FACTOR: f64 = 3.0;
/// `eval_miss` requests replayed stage by stage in a traced run.
const EVAL_REPLAYS: usize = 4;
/// Requests of the post-phase `serve::batch` probe on `gen_merged`.
const BATCH_PROBE_HITS: usize = 32;

struct Args {
    /// `None` runs every workload in turn.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: servebench --serve-bin PATH --out DIR --workload eval_hit|eval_miss|gen_merged|all \
         --seed N --seconds S --trace 0|1\n       servebench --list-metrics"
    );
    std::process::exit(2);
}

/// `None` for `--list-metrics`.
fn parse_args() -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--list-metrics" {
            return None;
        }
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                workload = match value.as_str() {
                    "all" => Some(None),
                    name => Some(Some(Workload::parse(name).unwrap_or_else(|| usage()))),
                }
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => trace = ["0", "1"].iter().position(|v| *v == value).map(|i| i == 1),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace, serve_bin, out) {
        (Some(workload), Some(seed), Some(seconds), Some(trace), Some(serve_bin), Some(out)) => {
            Some(Args {
                workload,
                seed,
                seconds,
                trace,
                serve_bin,
                out,
            })
        }
        _ => usage(),
    }
}

fn main() {
    let Some(args) = parse_args() else {
        catalog::print_list();
        return;
    };
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    for w in workloads {
        let outcome = if args.trace {
            traced(&args, w)
        } else {
            untraced(&args, w)
        };
        match outcome {
            Ok(result) => println!("{}", result.json()),
            Err(message) => {
                eprintln!("servebench: {}: {message}", w.name());
                std::process::exit(1);
            }
        }
    }
}

/// What a run prints as its final JSON line.
struct Outcome {
    tally: Tally,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    catalog::unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed() == 0,
            self.tally.sent,
            self.tally.failed(),
            metrics.join(", ")
        )
    }
}

/// A daemon spawned after a pre-spin and warmed with the plan's set-up
/// requests; `setup_s` runs from spawn to the last warm-up reply.
struct SetUp {
    daemon: Daemon,
    setup_s: f64,
    warmup: Pass,
}

fn set_up(
    args: &Args,
    plan: &Plan,
    spin: Duration,
    trace_log: Option<&Path>,
) -> Result<SetUp, String> {
    daemon::spin(spin);
    let daemon = Daemon::spawn(&args.serve_bin, trace_log)?;
    let w = plan.workload;
    let all = 0..plan.warmup.len();
    let warmup = drive::run(
        daemon.addr,
        w.path(),
        &plan.warmup,
        all,
        w.connections(),
        None,
        deadline(args),
    );
    let setup_s = daemon.spawned.elapsed().as_secs_f64();
    Ok(SetUp {
        daemon,
        setup_s,
        warmup,
    })
}

fn deadline(args: &Args) -> Instant {
    now() + Duration::from_secs_f64(args.seconds * DEADLINE_FACTOR)
}

/// The timed phase runs as consecutive blocks of the plan's timed entries,
/// one per this many seconds of `--seconds`, each on fresh connections.
/// On the unary workloads a block is also a slice (see [`slices`]).
fn block_seconds(w: Workload) -> f64 {
    match w {
        Workload::EvalHit => 1.0,
        Workload::EvalMiss | Workload::GenMerged => 2.0,
    }
}

/// The timed phase, block by block, and what the kernel saw the daemon do
/// during it.
struct Timed {
    blocks: Vec<Pass>,
    cpu_ms: f64,
    hwm_kib: u64,
    switches: (u64, u64),
    steal_pct: f64,
}

impl Timed {
    fn exchanges(&self) -> impl Iterator<Item = &Exchange> {
        self.blocks.iter().flat_map(|b| &b.exchanges)
    }

    fn unsent(&self) -> usize {
        self.blocks.iter().map(|b| b.unsent).sum()
    }

    fn tally(&self, plan: &Plan, expected: &check::Expected) -> Tally {
        let mut t = Tally::default();
        for b in &self.blocks {
            t.add(check::tally(&b.exchanges, &plan.timed, expected));
        }
        t
    }
}

fn timed(
    args: &Args,
    plan: &Plan,
    daemon: &Daemon,
    trace_prefix: Option<&str>,
) -> Result<Timed, String> {
    let w = plan.workload;
    let pid = daemon.pid();
    let deadline = deadline(args);
    let (first, h0) = (daemon::proc_sample(pid)?, daemon::host_sample());
    let n = ((args.seconds / block_seconds(w)).round() as usize).clamp(1, plan.timed.len());
    let blocks = (0..n)
        .map(|b| {
            let range = b * plan.timed.len() / n..(b + 1) * plan.timed.len() / n;
            drive::run(
                daemon.addr,
                w.path(),
                &plan.timed,
                range,
                w.connections(),
                trace_prefix,
                deadline,
            )
        })
        .collect();
    let (last, h1) = (daemon::proc_sample(pid)?, daemon::host_sample());
    Ok(Timed {
        blocks,
        cpu_ms: last.cpu_ms_since(&first),
        hwm_kib: last.hwm_kib,
        switches: (
            last.voluntary.saturating_sub(first.voluntary),
            last.nonvoluntary.saturating_sub(first.nonvoluntary),
        ),
        steal_pct: daemon::steal_pct(h0, h1),
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Latency samples of one slice of the timed phase.
#[derive(Default)]
struct Samples {
    completed: usize,
    req_ms: Vec<f64>,
    ttft_ms: Vec<f64>,
    tpot_ms: Vec<f64>,
    tokens: usize,
}

impl Samples {
    fn of(exchanges: &[Exchange], streams: bool) -> Samples {
        let mut s = Samples::default();
        let mut last_done: Vec<Option<Instant>> = Vec::new();
        for x in exchanges {
            let Some(r) = x.ok() else { continue };
            s.completed += 1;
            s.req_ms.push(ms(r.done - x.sent));
            if streams {
                if let Some(&first) = r.steps.first() {
                    s.ttft_ms.push(ms(first - x.sent));
                }
                s.tpot_ms
                    .extend(r.steps.windows(2).map(|w| ms(w[1] - w[0])));
                s.tokens += r.steps.len();
            } else {
                // A unary reply is one output: it arrives with its first
                // byte, and the next completes one closed-loop turn later.
                s.ttft_ms.push(ms(r.first_byte - x.sent));
                last_done.resize(last_done.len().max(x.conn + 1), None);
                if let Some(prev) = last_done[x.conn].replace(r.done) {
                    s.tpot_ms.push(ms(r.done - prev));
                }
                s.tokens += 1;
            }
        }
        s
    }

    fn merge(&mut self, other: Samples) {
        self.completed += other.completed;
        self.req_ms.extend(other.req_ms);
        self.ttft_ms.extend(other.ttft_ms);
        self.tpot_ms.extend(other.tpot_ms);
        self.tokens += other.tokens;
    }
}

/// The timed phase cut into slices short enough that each sees one host
/// speed: one merged pair of streams on `gen_merged`, one block otherwise.
/// On a shared VM the host's speed switches every few seconds, so a
/// `gen_merged` stream runs at one of two paces (about 1.5 or 2.4 ms a
/// token); a median over all streams jumps between the two as the mix
/// shifts, while a mean over slices moves with it smoothly.
fn slices(t: &Timed, streams: bool) -> Vec<Samples> {
    let mut out = Vec::new();
    for b in &t.blocks {
        if streams {
            // A pass's exchanges are sorted by entry, then connection.
            for pair in b.exchanges.chunk_by(|x, y| x.entry == y.entry) {
                out.push(Samples::of(pair, true));
            }
        } else {
            out.push(Samples::of(&b.exchanges, false));
        }
    }
    out
}

/// The gated end-to-end metrics but `setup_s` and `rss_mib`, in catalog
/// order, with the printed p90s among them.
const SUMMARY_METRICS: [&str; 9] = [
    "req_p50_ms",
    "req_p90_ms",
    "req_per_s",
    "ttft_p50_ms",
    "ttft_p90_ms",
    "tpot_p50_ms",
    "tpot_p90_ms",
    "tok_per_s",
    "cpu_ms_per_req",
];

/// Each of [`SUMMARY_METRICS`], in that order, and every slice's samples
/// pooled. A p50 is each slice's median, averaged over slices; a p90 is
/// taken over the pooled samples; rates and CPU time are totals over the
/// timed phase.
fn summarize(t: &Timed, streams: bool) -> (Vec<(&'static str, f64)>, Samples) {
    let slices = slices(t, streams);
    let p50 = |part: fn(&Samples) -> &[f64]| {
        let medians: Vec<f64> = slices
            .iter()
            .map(part)
            .filter(|xs| !xs.is_empty())
            .map(median)
            .collect();
        mean(&medians)
    };
    let p50s = [
        p50(|s| s.req_ms.as_slice()),
        p50(|s| s.ttft_ms.as_slice()),
        p50(|s| s.tpot_ms.as_slice()),
    ];
    let mut pooled = Samples::default();
    for s in slices {
        pooled.merge(s);
    }
    let wall: f64 = t.blocks.iter().map(Pass::wall_s).sum();
    let values = [
        p50s[0],
        quantile(&pooled.req_ms, 0.9),
        ratio(pooled.completed as f64, wall),
        p50s[1],
        quantile(&pooled.ttft_ms, 0.9),
        p50s[2],
        quantile(&pooled.tpot_ms, 0.9),
        ratio(pooled.tokens as f64, wall),
        ratio(t.cpu_ms, pooled.completed as f64),
    ];
    (SUMMARY_METRICS.into_iter().zip(values).collect(), pooled)
}

/// The request p50 of a timed phase.
fn req_p50(t: &Timed, streams: bool) -> f64 {
    let (medians, _) = summarize(t, streams);
    medians
        .into_iter()
        .find(|(name, _)| *name == "req_p50_ms")
        .map_or(0.0, |(_, v)| v)
}

fn untraced(args: &Args, w: Workload) -> Result<Outcome, String> {
    let plan = w.plan(args.seed, args.seconds);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut warmups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let s = set_up(
            args,
            &plan,
            if i == 0 { FIRST_SPIN } else { NEXT_SPIN },
            None,
        )?;
        setups.push(s.setup_s);
        warmups.push(s.warmup);
        if i + 1 < SETUPS {
            s.daemon.stop()?;
        } else {
            kept = Some(s.daemon);
        }
    }
    let daemon = kept.expect("at least one set-up");
    let t = timed(args, &plan, &daemon, None)?;
    let stderr = daemon.stop()?;

    // The daemon has exited: render every checked request in-process.
    let expected = check::expected(w.path(), &plan.checked_bodies())?;
    let mut tally = t.tally(&plan, &expected);
    for warm in &warmups {
        tally.add(check::tally(&warm.exchanges, &plan.warmup, &expected));
    }

    let (medians, s) = summarize(&t, w.streams());
    let mut measured = vec![("setup_s", median(&setups))];
    measured.extend(medians);
    measured.push(("rss_mib", t.hwm_kib as f64 / 1024.0));

    header(args, &plan);
    print_tally(&tally, t.unsent());
    let counts = [
        ("setup_s", setups.len()),
        ("req_", s.req_ms.len()),
        ("ttft_", s.ttft_ms.len()),
        ("tpot_", s.tpot_ms.len()),
        ("tok_per_s", s.tokens),
        ("", s.completed),
    ];
    println!(
        "  (p50: slice medians averaged over {} slices; p90: pooled; rates, CPU: timed-phase totals; \
         n = samples)",
        slices(&t, w.streams()).len()
    );
    for (name, value) in &measured {
        let n = counts
            .iter()
            .find(|(p, _)| name.starts_with(p))
            .map_or(0, |c| c.1);
        let unit = if name.ends_with("_ms") {
            "ms"
        } else {
            catalog::unit_of(name)
        };
        let gated = if catalog::unit_of(name).is_empty() {
            "  not gated"
        } else {
            ""
        };
        println!("  {name:<16} {value:>12.4} {unit:<5} (n={n}){gated}");
    }
    for (label, xs) in [
        ("req", &s.req_ms),
        ("ttft", &s.ttft_ms),
        ("tpot", &s.tpot_ms),
    ] {
        println!(
            "  {label} tail (not gated, pooled): p99 {:.4} ms, max {:.4} ms, n={}",
            quantile(xs, 0.99),
            quantile(xs, 1.0),
            xs.len()
        );
    }
    diagnostics(&t, &setups, &stderr);
    let metrics = measured
        .into_iter()
        .filter(|(name, _)| !catalog::unit_of(name).is_empty())
        .collect();
    Ok(Outcome { tally, metrics })
}

fn header(args: &Args, plan: &Plan) {
    println!(
        "servebench {} seed={} seconds={} trace={} ({} timed requests x {} connection(s); {} CPUs)",
        plan.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.timed.len(),
        plan.workload.connections(),
        layers::default_threads(),
    );
}

fn print_tally(t: &Tally, unsent: usize) {
    println!(
        "  sent {} succeeded {} failed {} (errors {}, byte mismatches {}; {} replies byte-compared) \
         fail_frac {}{}",
        t.sent,
        t.sent - t.errors,
        t.failed(),
        t.errors,
        t.mismatches,
        t.compared,
        ratio(t.failed() as f64, t.sent as f64),
        if unsent > 0 {
            format!("; {unsent} requests unsent at the deadline")
        } else {
            String::new()
        }
    );
}

fn diagnostics(t: &Timed, setups: &[f64], stderr: &[String]) {
    let dispatch = stderr
        .iter()
        .find(|l| l.contains("quantized GEMM dispatch"))
        .map_or("(no dispatch line)", String::as_str);
    println!(
        "  diagnostics (not gated): host.steal_pct {:.2}; daemon context switches {} voluntary, \
         {} nonvoluntary; pre-spin {:.1} s then {:.1} s per later set-up; set-ups {:?} s; {dispatch}",
        t.steal_pct,
        t.switches.0,
        t.switches.1,
        FIRST_SPIN.as_secs_f64(),
        NEXT_SPIN.as_secs_f64(),
        setups,
    );
}

/// Reads the `"seed"` of a request body.
fn body_seed(body: &str) -> u64 {
    olive_api::JsonValue::parse(body)
        .ok()
        .and_then(|v| v.get("seed").and_then(olive_api::JsonValue::as_u64))
        .expect("workload bodies carry a seed")
}

fn traced(args: &Args, w: Workload) -> Result<Outcome, String> {
    let plan = w.plan(args.seed, args.seconds);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!("{}-seed{}", w.name(), args.seed);
    let daemon_log = args.out.join(format!("{stem}-daemon-trace.jsonl"));
    let _ = std::fs::remove_file(&daemon_log); // the daemon appends

    // The untraced reference pass, for trace.overhead_pct.
    let a = set_up(args, &plan, FIRST_SPIN, None)?;
    let ta = timed(args, &plan, &a.daemon, None)?;
    a.daemon.stop()?;

    // The traced pass: the daemon logs every request trace, the client
    // sends its request ids as trace ids, and /metrics and /healthz are
    // scraped around the timed phase.
    let b = set_up(args, &plan, NEXT_SPIN, Some(&daemon_log))?;
    let addr = b.daemon.addr;
    let m0 = daemon::scrape(addr)?;
    let served0 = daemon::requests_served(addr)?;
    let prefix = format!("sb{}", args.seed);
    let tb = timed(args, &plan, &b.daemon, Some(&prefix))?;
    let m1 = daemon::scrape(addr)?;
    let served1 = daemon::requests_served(addr)?;

    // Probe, on the same daemon, the daemon layer this workload never
    // reaches, with the requests of the workload that does.
    let (probe_path, probe_warm, probe_timed, probe_conns) = if w.streams() {
        let body = Workload::EvalHit
            .plan(args.seed, args.seconds)
            .warmup
            .swap_remove(0);
        (
            "/v1/eval",
            vec![body.clone()],
            vec![body; BATCH_PROBE_HITS],
            1,
        )
    } else {
        let body = Workload::GenMerged
            .plan(args.seed, args.seconds)
            .warmup
            .swap_remove(0);
        ("/v1/generate", vec![body.clone()], vec![body], 2)
    };
    let p_warm = drive::run(
        addr,
        probe_path,
        &probe_warm,
        0..1,
        probe_conns,
        None,
        deadline(args),
    );
    let m2 = daemon::scrape(addr)?;
    let p_timed = drive::run(
        addr,
        probe_path,
        &probe_timed,
        0..probe_timed.len(),
        probe_conns,
        None,
        deadline(args),
    );
    let m3 = daemon::scrape(addr)?;
    let stderr = b.daemon.stop()?;

    let expected = check::expected(w.path(), &plan.checked_bodies())?;
    let mut tally = ta.tally(&plan, &expected);
    tally.add(tb.tally(&plan, &expected));
    for warmup in [&a.warmup, &b.warmup] {
        tally.add(check::tally(&warmup.exchanges, &plan.warmup, &expected));
    }
    let no_render = check::Expected::new();
    tally.add(check::tally(&p_warm.exchanges, &probe_warm, &no_render));
    tally.add(check::tally(&p_timed.exchanges, &probe_timed, &no_render));

    let mut values = layers::Values::new();
    let timed_delta = Delta {
        before: &m0,
        after: &m1,
    };
    let probe_delta = Delta {
        before: &m2,
        after: &m3,
    };
    let probe_evals = if w.streams() { BATCH_PROBE_HITS } else { 0 };
    layers::daemon(&mut values, w, &timed_delta, &probe_delta, probe_evals);

    let (p50_a, p50_b) = (req_p50(&ta, w.streams()), req_p50(&tb, w.streams()));
    let completed: usize = tb.exchanges().filter(|x| x.ok().is_some()).count();
    values.insert("trace.overhead_pct", ratio(p50_b - p50_a, p50_a) * 100.0);
    values.insert("host.steal_pct", tb.steal_pct);
    values.insert(
        "proc.ctx_switches_per_req",
        ratio((tb.switches.0 + tb.switches.1) as f64, completed as f64),
    );

    // In-process replays, after the daemon has exited; spun up first like
    // the daemon, since the unary phases leave the cores mostly idle.
    daemon::spin(FIRST_SPIN);
    let mut spans = spans::Spans::new(tb.blocks[0].start);
    let traced: Vec<&Exchange> = tb.exchanges().collect();
    client_spans(&mut spans, &traced, w.connections());
    layers::replay_requests(&mut spans, &mut values, w, &plan.timed, &traced, &prefix);
    let hit_bodies = match w {
        Workload::EvalHit => plan.warmup[..2].to_vec(),
        _ => Workload::EvalHit.plan(args.seed, args.seconds).warmup[..2].to_vec(),
    };
    layers::replay_cache_hits(&mut spans, &mut values, &hit_bodies);
    let miss = Workload::EvalMiss.plan(args.seed, args.seconds);
    let miss_seeds: Vec<u64> = miss
        .checked
        .iter()
        .take(EVAL_REPLAYS)
        .map(|&i| body_seed(&miss.timed[i]))
        .collect();
    layers::replay_evals(&mut spans, &mut values, &miss_seeds);
    let gen_seed = body_seed(&Workload::GenMerged.plan(args.seed, args.seconds).warmup[0]);
    layers::replay_decode(&mut spans, &mut values, gen_seed);
    let spans_path = args.out.join(format!("{stem}-spans.jsonl"));
    spans
        .write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    header(args, &plan);
    print_tally(&tally, ta.unsent() + tb.unsent());
    let metrics: Vec<(&'static str, f64)> = catalog::PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied()))
        .map(|(name, v)| v.map(|v| (name, v)).ok_or(format!("no value for {name}")))
        .collect::<Result<_, _>>()?;
    for (name, value) in &metrics {
        println!("  {name:<28} {value:>14.4} {}", catalog::unit_of(name));
    }
    let v = |name: &str| values.get(name).copied().unwrap_or(0.0);
    println!(
        "  findings: batch.queue_wait_ms / req_p50_ms {:.3} (traced pass); actq.tick_share {:.3}; \
         decode.rows_per_tick {:.3}; gemm.tick_us / gemm.tick_inline_us {:.3}",
        ratio(v("batch.queue_wait_ms"), p50_b),
        v("actq.tick_share"),
        v("decode.rows_per_tick"),
        ratio(v("gemm.tick_us"), v("gemm.tick_inline_us")),
    );
    println!(
        "  req_p50_ms untraced {p50_a:.4}, traced {p50_b:.4}; daemon counted {} of {} timed replies; \
         spans in {}, daemon traces in {}",
        served1.saturating_sub(served0),
        completed,
        spans_path.display(),
        daemon_log.display(),
    );
    diagnostics(&tb, &[a.setup_s, b.setup_s], &stderr);
    Ok(Outcome { tally, metrics })
}

/// Client spans of the traced pass: one per request, with children for the
/// wait to the first byte and for every received chunk.
fn client_spans(spans: &mut spans::Spans, exchanges: &[&Exchange], connections: usize) {
    for x in exchanges {
        let Ok(reply) = &x.reply else { continue };
        let request = x.request_id(connections);
        let id = spans.push("client.request", None, request, x.sent, reply.done);
        spans.push(
            "client.first_byte",
            Some(id),
            request,
            x.sent,
            reply.first_byte,
        );
        let mut from = reply.first_byte;
        for &(arrived, _) in &reply.chunks {
            spans.push("client.chunk", Some(id), request, from, arrived);
            from = arrived;
        }
    }
}
