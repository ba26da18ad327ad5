//! The daemon under test, and what the kernel and `/metrics` say about it.

use crate::http;
use crate::spans::now;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTEN_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);
const LISTEN_PREFIX: &str = "olive-serve listening on http://";

/// A running `olive-serve` with shipped defaults: `OLIVE_THREADS` and
/// `OLIVE_SIMD` are removed from its environment. `--allow-shutdown` only
/// lets the benchmark stop it cleanly.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    pub spawned: Instant,
    readers: Vec<JoinHandle<()>>,
    stderr: mpsc::Receiver<String>,
}

/// Forwards the lines of one of the daemon's pipes until it closes.
fn drain(pipe: impl Read + Send + 'static, lines: mpsc::Sender<String>) -> JoinHandle<()> {
    // olive-lint: allow(no-spawn-outside-runtime): drains a child process's pipe; no computation runs on it
    std::thread::spawn(move || {
        for line in BufReader::new(pipe).lines().map_while(Result::ok) {
            let _ = lines.send(line);
        }
    })
}

impl Daemon {
    pub fn spawn(bin: &Path, trace_log: Option<&Path>) -> Result<Daemon, String> {
        let spawned = now();
        let mut command = Command::new(bin);
        command
            .arg("--allow-shutdown")
            .env_remove("OLIVE_THREADS")
            .env_remove("OLIVE_SIMD")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(path) = trace_log {
            command.arg("--trace-log").arg(path);
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let (out_lines, listening) = mpsc::channel();
        let (err_lines, stderr) = mpsc::channel();
        let readers = vec![
            drain(child.stdout.take().expect("stdout is piped"), out_lines),
            drain(child.stderr.take().expect("stderr is piped"), err_lines),
        ];
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned,
            readers,
            stderr,
        };
        loop {
            let left = LISTEN_TIMEOUT.saturating_sub(spawned.elapsed());
            let line = listening
                .recv_timeout(left)
                .map_err(|_| "the daemon never printed its listening line".to_string())?;
            if let Some(addr) = line.strip_prefix(LISTEN_PREFIX) {
                daemon.addr = addr
                    .parse()
                    .map_err(|_| format!("bad listening line '{line}'"))?;
                return Ok(daemon);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stops the daemon through `POST /shutdown` and waits for it to exit.
    /// Returns its stderr lines.
    pub fn stop(mut self) -> Result<Vec<String>, String> {
        let asked = http::fetch(self.addr, "POST", "/shutdown");
        let deadline = now() + EXIT_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                _ => break None,
            }
        };
        let lines = self.reap();
        match (asked, status) {
            (Ok(reply), Some(status)) if reply.status == 200 && status.success() => Ok(lines),
            (asked, status) => Err(format!(
                "the daemon did not shut down cleanly (shutdown request: {:?}, exit: {status:?})",
                asked.map(|r| r.status).map_err(|e| e.to_string())
            )),
        }
    }

    /// Kills the daemon if it still runs, waits for it, and joins the pipe
    /// readers. Idempotent.
    fn reap(&mut self) -> Vec<String> {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
        self.stderr.try_iter().collect()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// What the kernel reports about the daemon process.
#[derive(Debug, Clone, Default)]
pub struct ProcSample {
    /// `utime` + `stime` of the whole process (`/proc/<pid>/stat`), clock
    /// ticks. Unlike per-thread counters it keeps the time of threads that
    /// have exited, such as the daemon's per-connection threads.
    pub cpu_ticks: u64,
    /// Context switches summed over the live threads.
    pub voluntary: u64,
    pub nonvoluntary: u64,
    /// Peak resident set (`VmHWM`), KiB.
    pub hwm_kib: u64,
}

/// Clock ticks per second of `/proc` times (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

impl ProcSample {
    /// Daemon CPU time since `before`, ms, to one clock tick (10 ms).
    pub fn cpu_ms_since(&self, before: &ProcSample) -> f64 {
        self.cpu_ticks.saturating_sub(before.cpu_ticks) as f64 * 1000.0 / TICKS_PER_S
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

pub fn proc_sample(pid: u32) -> Result<ProcSample, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let mut sample = ProcSample {
        hwm_kib: status_field(&status, "VmHWM:"),
        ..ProcSample::default()
    };
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // utime and stime are fields 14 and 15; the command name (field 2) may
    // hold spaces, so count from the ')' that closes it.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<u64> = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    sample.cpu_ticks = fields.iter().sum();
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).map_err(|e| e.to_string())?;
    for task in tasks.flatten() {
        // A thread may exit between listing and reading: skip it.
        if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
            sample.voluntary += status_field(&status, "voluntary_ctxt_switches:");
            sample.nonvoluntary += status_field(&status, "nonvoluntary_ctxt_switches:");
        }
    }
    Ok(sample)
}

/// Host CPU time from the first line of `/proc/stat`: (all, steal), ticks.
pub fn host_sample() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let all = fields.iter().take(8).sum();
    (all, fields.get(7).copied().unwrap_or(0))
}

/// Steal as a percentage of host CPU time between two samples.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    crate::stats::ratio(
        after.1.saturating_sub(before.1) as f64 * 100.0,
        after.0.saturating_sub(before.0) as f64,
    )
}

/// Busy-loops every core for `d`. Run before spawning the daemon: after an
/// idle spell the first second of load runs at about half speed here, which
/// is exactly the window `setup_s` covers.
pub fn spin(d: Duration) {
    let threads = crate::layers::default_threads();
    let deadline = now() + d;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut x = 1u64;
                while now() < deadline {
                    for _ in 0..4096 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1),
                        );
                    }
                }
            });
        }
    });
}

/// `/metrics` as series name (with labels) → value.
pub type Scrape = BTreeMap<String, f64>;

pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let reply = http::fetch(addr, "GET", "/metrics").map_err(|e| format!("scrape failed: {e}"))?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    Ok(parse_exposition(&reply.body))
}

pub fn parse_exposition(text: &str) -> Scrape {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `requests_served` from `/healthz`.
pub fn requests_served(addr: SocketAddr) -> Result<u64, String> {
    let reply = http::fetch(addr, "GET", "/healthz").map_err(|e| format!("/healthz: {e}"))?;
    olive_api::JsonValue::parse(&reply.body)
        .ok()
        .and_then(|v| {
            v.get("requests_served")
                .and_then(olive_api::JsonValue::as_u64)
        })
        .ok_or_else(|| format!("/healthz answered {}: {}", reply.status, reply.body))
}

/// The change of `/metrics` over one phase.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    pub fn get(&self, series: &str) -> f64 {
        let at = |s: &Scrape| s.get(series).copied().unwrap_or(0.0);
        at(self.after) - at(self.before)
    }

    /// Mean observation of histogram `name` (with `labels`, e.g.
    /// `{endpoint="/v1/eval"}`), converted from µs to ms; 0 when empty.
    pub fn mean_ms(&self, name: &str, labels: &str) -> f64 {
        let sum = self.get(&format!("{name}_sum{labels}"));
        crate::stats::ratio(sum, self.get(&format!("{name}_count{labels}"))) / 1000.0
    }

    /// Σ size × ticks over the `olive_decode_batch_size_total{size=..}`
    /// family, and Σ ticks.
    pub fn batch_rows(&self) -> (f64, f64) {
        let prefix = "olive_decode_batch_size_total{size=\"";
        let mut rows = 0.0;
        let mut ticks = 0.0;
        for series in self.after.keys().filter(|k| k.starts_with(prefix)) {
            let size: f64 = series[prefix.len()..]
                .trim_end_matches("\"}")
                .parse()
                .unwrap_or(0.0);
            let n = self.get(series);
            rows += size * n;
            ticks += n;
        }
        (rows, ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_deltas() {
        let before = parse_exposition(
            "# HELP x\nolive_decode_batch_size_total{size=\"1\"} 2\nh_sum 10\nh_count 1\n",
        );
        let after = parse_exposition(
            "olive_decode_batch_size_total{size=\"1\"} 3\nolive_decode_batch_size_total{size=\"2\"} 9\n\
             h_sum 4010\nh_count 3\n",
        );
        let d = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(d.batch_rows(), (19.0, 10.0));
        assert_eq!(d.mean_ms("h", ""), 2.0);
        assert_eq!(d.get("missing"), 0.0);
    }
}
