//! Shared closed-loop load-generation harness for the serving benchmarks
//! (`serve_loadgen`, `gen_loadgen`): one warmup request, then N client
//! threads × M keep-alive requests each against an in-process server, with
//! the nearest-rank quantiles the gate and the human tables report.
//!
//! Keeping this in one place means a fix to the latency-collection loop or
//! the quantile math reaches every loadgen binary at once — the ROADMAP
//! promises more scenario families, and each should be a thin `main` over
//! this module.

use olive_serve::client::{Connection, HttpResponse};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

// The nearest-rank quantile estimator now lives in `olive_telemetry` (with
// the servers' histogram machinery, so loadgen printouts and `/metrics`
// scrapes bucket latencies identically); re-exported here so every loadgen
// binary keeps a single import point. [`LatencySummary`] bundles the
// p50/p95/p99/max plus the bucketed distribution rows the tables print.
pub use olive_telemetry::summary::{quantile, LatencySummary};

/// Issues one warmup request (populating the server-side caches) and
/// returns the response plus its wall time in nanoseconds.
///
/// # Panics
///
/// Panics if the connection fails or the response is not a 200 — a loadgen
/// cannot measure a server that is not answering.
pub fn warmup(addr: SocketAddr, path: &str, body: &str) -> (HttpResponse, u64) {
    let start = Instant::now();
    let mut connection = Connection::open(addr).expect("warmup connect");
    let response = connection
        .request("POST", path, Some(body))
        .expect("warmup request");
    assert_eq!(response.status, 200, "warmup failed: {}", response.body);
    (response, start.elapsed().as_nanos() as u64)
}

/// Drives `clients` closed-loop client threads, each issuing `requests`
/// keep-alive `POST path` requests with `body`, and returns every observed
/// per-request latency **sorted ascending**, plus the phase's wall time in
/// seconds.
///
/// # Panics
///
/// Panics on connection failures or non-200 responses.
pub fn drive(
    addr: SocketAddr,
    path: &'static str,
    body: &str,
    clients: usize,
    requests: usize,
) -> (Vec<u64>, f64) {
    let run_start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let body = body.to_string();
            // olive-lint: allow(no-spawn-outside-runtime): load-generator clients must be real concurrent connections, not pool jobs in the process under test
            std::thread::spawn(move || {
                let mut connection = Connection::open(addr).expect("client connect");
                let mut latencies_ns = Vec::with_capacity(requests);
                for _ in 0..requests {
                    let start = Instant::now();
                    let response = connection
                        .request("POST", path, Some(&body))
                        .expect("loadgen request");
                    assert_eq!(response.status, 200, "{}", response.body);
                    latencies_ns.push(start.elapsed().as_nanos() as u64);
                }
                latencies_ns
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(clients * requests);
    for worker in workers {
        latencies.extend(worker.join().expect("client thread"));
    }
    let wall_s = run_start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    (latencies, wall_s)
}

/// Sends `bodies` as `POST path` requests one after another over one
/// keep-alive connection (a closed loop of one client) and returns their
/// latencies in nanoseconds **sorted ascending**.
///
/// # Panics
///
/// Panics on connection failures or non-200 responses.
pub fn sequence(addr: SocketAddr, path: &str, bodies: &[String]) -> Vec<u64> {
    let mut connection = Connection::open(addr).expect("client connect");
    let mut latencies: Vec<u64> = bodies
        .iter()
        .map(|body| {
            let start = Instant::now();
            let response = connection
                .request("POST", path, Some(body))
                .expect("loadgen request");
            assert_eq!(response.status, 200, "{}", response.body);
            start.elapsed().as_nanos() as u64
        })
        .collect();
    latencies.sort_unstable();
    latencies
}

/// Drives `streams` persistent client threads through `rounds` barrier-
/// synchronized bursts: every round, all streams issue one keep-alive
/// `POST path` request **simultaneously**, and the round's wall time is the
/// barrier-to-barrier duration — the time the server took to decode all
/// concurrent streams to completion. Returns the per-round wall times
/// **sorted ascending**.
///
/// This is the continuous-batching throughput shape: unlike [`drive`],
/// where closed-loop clients drift apart and the server may see any
/// concurrency from 1 to N, a burst pins the concurrency at exactly
/// `streams`, so the measured number is the aggregate decode rate of a full
/// merged batch.
///
/// # Panics
///
/// Panics on connection failures or non-200 responses.
pub fn burst(
    addr: SocketAddr,
    path: &'static str,
    body: &str,
    streams: usize,
    rounds: usize,
) -> Vec<u64> {
    // streams workers + this thread, which only keeps time.
    let start_line = Arc::new(Barrier::new(streams + 1));
    let finish_line = Arc::new(Barrier::new(streams + 1));
    let workers: Vec<_> = (0..streams)
        .map(|_| {
            let body = body.to_string();
            let start_line = Arc::clone(&start_line);
            let finish_line = Arc::clone(&finish_line);
            // olive-lint: allow(no-spawn-outside-runtime): load-generator clients must be real concurrent connections, not pool jobs in the process under test
            std::thread::spawn(move || {
                let mut connection = Connection::open(addr).expect("client connect");
                for _ in 0..rounds {
                    start_line.wait();
                    let response = connection
                        .request("POST", path, Some(&body))
                        .expect("burst request");
                    assert_eq!(response.status, 200, "{}", response.body);
                    finish_line.wait();
                }
            })
        })
        .collect();
    let mut round_ns = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        start_line.wait();
        let start = Instant::now();
        finish_line.wait();
        round_ns.push(start.elapsed().as_nanos() as u64);
    }
    for worker in workers {
        worker.join().expect("burst client thread");
    }
    round_ns.sort_unstable();
    round_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let sorted = [10u64, 20, 30, 40];
        assert_eq!(quantile(&sorted, 0.0), 10);
        assert_eq!(quantile(&sorted, 0.25), 10);
        assert_eq!(quantile(&sorted, 0.5), 20);
        assert_eq!(quantile(&sorted, 0.75), 30);
        assert_eq!(quantile(&sorted, 0.99), 40);
        assert_eq!(quantile(&sorted, 1.0), 40);
        assert_eq!(quantile(&[7], 0.5), 7);
    }
}
