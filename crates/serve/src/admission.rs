//! Unary admission: `/v1/eval` misses and `/v1/quantize` run on long-lived
//! lane threads behind a bounded in-flight counter.
//!
//! Unary jobs never share compute, so there is nothing to batch: each one
//! runs alone. A response-cache hit is answered on the connection thread
//! before admission (it costs a lookup and a copy). Everything else takes a
//! slot from a counter bounded by `capacity`; when every slot is taken the
//! request is answered *immediately* with 503 + `Retry-After: 1`, so
//! overload becomes back-pressure the client can see, not latency collapse
//! or OOM. Up to `capacity` admitted jobs compute at once and share the
//! CPUs; their nested `par_rows` calls reach the global pool like any
//! other caller's. [`Admission::close_and_wait`] stops admitting (503
//! without `Retry-After`) and waits for the admitted jobs to finish, so
//! shutdown completes the work it accepted.
//!
//! An admitted job runs on the lowest-numbered idle *lane*, a thread
//! spawned the first time that many jobs run at once and kept until
//! shutdown, while the connection thread waits for the response. Why not
//! the connection thread: those come and go with the client's connections,
//! and glibc gives a new thread a new malloc arena when the one before it
//! has not exited yet. What misses cache (prepared models, rendered bodies)
//! would then spread over two arenas, each holding about the cache's whole
//! footprint: ~19 instead of ~12 MiB for one reconnecting client's
//! `/v1/eval` misses. On lanes, one client's jobs all run on lane 0, so
//! their memory stays in one arena however its connections race. The
//! hand-off costs two thread wake-ups per admitted job.
//!
//! Streamed `/v1/generate` requests decode on the continuous-batching
//! scheduler in [`crate::decode_sched`] instead, with the same 503
//! back-pressure contract at its door.
//!
//! Admission can never change answers: each job is computed by a pure,
//! bit-deterministic function of the request (see the crate-level
//! determinism contract); the counter only decides *whether* it runs now,
//! and the lane only *where*.

use crate::http::Response;
use olive_runtime::{lock_or_recover, wait_or_recover};
use olive_telemetry::{latency_buckets_us, Counter, Histogram, Span, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Condvar, Mutex};
use std::thread::JoinHandle;

/// An admitted job and the channel its response goes back on.
type Job = (
    Box<dyn FnOnce() -> Response + Send>,
    mpsc::SyncSender<Response>,
);

/// A long-lived thread that runs admitted jobs one at a time.
struct Lane {
    jobs: mpsc::Sender<Job>,
    busy: bool,
    thread: JoinHandle<()>,
}

struct Gate {
    in_flight: usize,
    closed: bool,
    /// The lanes spawned so far, at most `capacity`.
    lanes: Vec<Lane>,
}

/// The bounded in-flight counter in front of unary jobs, with the unary
/// path's registry-backed instruments. One instance per server.
///
/// The counters are the single source of truth for both `/healthz` and
/// `/metrics`; the histograms split each job's life into admission wait
/// and execution. Their `olive_batch_*` names predate the counter and are
/// kept so existing scrapes keep working: every answered job counts as a
/// batch of one.
pub(crate) struct Admission {
    capacity: usize,
    gate: Mutex<Gate>,
    /// Signalled when `in_flight` drops to zero.
    drained: Condvar,
    telemetry: Telemetry,
    /// Jobs answered (any status, cache hits included).
    pub(crate) served: Counter,
    /// Jobs shed with 503 because every slot was taken.
    pub(crate) rejected: Counter,
    /// Jobs answered, one batch each.
    pub(crate) batches: Counter,
    /// Arrival to slot grant per job, µs (0 for a cache hit).
    queue_wait_us: Histogram,
    /// Execution time per job, µs.
    execute_us: Histogram,
}

/// An admitted job's slot and the lane reserved for it (`None` if no lane
/// thread could be spawned: the job then runs on the caller); dropping it
/// frees both.
pub(crate) struct Slot<'a> {
    admission: &'a Admission,
    lane: Option<usize>,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut gate = lock_or_recover(&self.admission.gate);
        gate.in_flight -= 1;
        if let Some(lane) = self.lane.and_then(|k| gate.lanes.get_mut(k)) {
            lane.busy = false;
        }
        if gate.in_flight == 0 {
            self.admission.drained.notify_all();
        }
    }
}

/// Runs `job`, answering 500 if it panics.
fn run_caught(job: impl FnOnce() -> Response) -> Response {
    catch_unwind(AssertUnwindSafe(job))
        .unwrap_or_else(|_| Response::error(500, "internal error executing the request"))
}

/// Spawns lane `index`, or `None` if the thread cannot be created. The
/// lane exits once its job queue is closed.
fn spawn_lane(index: usize) -> Option<Lane> {
    let (jobs, queue) = mpsc::channel::<Job>();
    // olive-lint: allow(no-spawn-outside-runtime): a long-lived unary lane, one per concurrently admitted job; a job's parallel compute still runs on the Pool
    let thread = std::thread::Builder::new()
        .name(format!("olive-serve-unary-{index}"))
        .spawn(move || {
            for (job, reply) in queue {
                // The job and its captures are dropped before the reply.
                let _ = reply.send(run_caught(job));
            }
        })
        .ok()?;
    Some(Lane {
        jobs,
        busy: false,
        thread,
    })
}

impl Admission {
    /// An open counter admitting at most `capacity` (at least 1) jobs at
    /// once, registering its instruments on `telemetry`'s registry.
    pub(crate) fn new(capacity: usize, telemetry: Telemetry) -> Self {
        let registry = telemetry.registry();
        Admission {
            capacity: capacity.max(1),
            gate: Mutex::new(Gate {
                in_flight: 0,
                closed: false,
                lanes: Vec::new(),
            }),
            drained: Condvar::new(),
            served: registry.counter(
                "olive_batch_jobs_served_total",
                "Unary jobs answered (any status, response-cache hits included).",
            ),
            rejected: registry.counter(
                "olive_batch_jobs_rejected_total",
                "Unary jobs shed with 503 because every in-flight slot was taken.",
            ),
            batches: registry.counter(
                "olive_batches_executed_total",
                "Unary jobs answered, each counted as a batch of one.",
            ),
            queue_wait_us: registry.histogram(
                "olive_batch_queue_wait_us",
                "Per-job wait from arrival to slot grant (0 for a cache hit), microseconds.",
                &latency_buckets_us(),
            ),
            execute_us: registry.histogram(
                "olive_batch_execute_us",
                "Per-job execution time, the hand-off to its lane included, microseconds.",
                &latency_buckets_us(),
            ),
            telemetry,
        }
    }

    /// Takes a slot and reserves the lowest idle lane for it, spawning the
    /// lane if every existing one is busy; or returns the 503 to answer
    /// instead: with `Retry-After: 1` when every slot is taken, without it
    /// once closed for shutdown.
    pub(crate) fn admit(&self) -> Result<Slot<'_>, Response> {
        let mut gate = lock_or_recover(&self.gate);
        if gate.closed {
            return Err(Response::error(503, "server is shutting down"));
        }
        if gate.in_flight >= self.capacity {
            drop(gate);
            self.rejected.inc();
            return Err(Response::error(
                503,
                "server is at capacity; retry after the Retry-After delay",
            )
            .with_header("Retry-After", "1"));
        }
        let idle = gate.lanes.iter().position(|lane| !lane.busy);
        let lane = idle.or_else(|| {
            let lane = spawn_lane(gate.lanes.len())?;
            gate.lanes.push(lane);
            Some(gate.lanes.len() - 1)
        });
        if let Some(k) = lane {
            gate.lanes[k].busy = true;
        }
        gate.in_flight += 1;
        Ok(Slot {
            admission: self,
            lane,
        })
    }

    /// Answers one unary request. With `admit` set the job first takes a
    /// slot (or is answered 503) and runs on the slot's lane while this
    /// thread waits; a response-cache hit passes `false`, is never shed and
    /// runs on the calling thread. A panicking job is answered 500 and still
    /// frees its slot.
    ///
    /// `span` is the request's trace span (or `None`): purely observational
    /// — the response is a function of `job` alone.
    pub(crate) fn serve(
        &self,
        span: Option<&Span>,
        admit: bool,
        job: impl FnOnce() -> Response + Send + 'static,
    ) -> Response {
        if let Some(span) = span {
            span.event("queued");
        }
        let queued = self.telemetry.stopwatch();
        let slot = if admit {
            match self.admit() {
                Ok(slot) => Some(slot),
                Err(shed) => return shed,
            }
        } else {
            None
        };
        self.queue_wait_us.observe_elapsed(&queued);
        if let Some(span) = span {
            span.event("batched");
        }
        let executing = self.telemetry.stopwatch();
        let response = match slot.as_ref().and_then(|slot| slot.lane) {
            Some(lane) => self.run_on_lane(lane, Box::new(job)),
            None => run_caught(job),
        };
        self.execute_us.observe_elapsed(&executing);
        // Counted before the reply: a client that saw its response must
        // also see it reflected in the stats.
        self.batches.inc();
        self.served.inc();
        response
    }

    /// Hands `job` to lane `lane`, reserved by the caller's slot, and waits
    /// for its response.
    fn run_on_lane(&self, lane: usize, job: Box<dyn FnOnce() -> Response + Send>) -> Response {
        let (reply, response) = mpsc::sync_channel(1);
        let sent = lock_or_recover(&self.gate).lanes[lane]
            .jobs
            .send((job, reply));
        match sent {
            Ok(()) => response
                .recv()
                .unwrap_or_else(|_| Response::error(500, "internal error executing the request")),
            Err(mpsc::SendError((job, _))) => run_caught(job),
        }
    }

    /// Admitted jobs still computing (for `/healthz`).
    pub(crate) fn in_flight(&self) -> usize {
        lock_or_recover(&self.gate).in_flight
    }

    /// Stops admitting jobs, waits until every admitted one has finished,
    /// then ends the lane threads. Idempotent.
    pub(crate) fn close_and_wait(&self) {
        let mut gate = lock_or_recover(&self.gate);
        gate.closed = true;
        while gate.in_flight > 0 {
            gate = wait_or_recover(&self.drained, gate);
        }
        let lanes = std::mem::take(&mut gate.lanes);
        drop(gate);
        for Lane { jobs, thread, .. } in lanes {
            // Closing the queue ends the idle lane's loop, which catches
            // every job's panic, so the join has none to report.
            drop(jobs);
            let _ = thread.join();
        }
    }
}

impl Drop for Admission {
    /// Ends the lane threads; no slot can outlive the counter it borrows.
    fn drop(&mut self) {
        self.close_and_wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};

    fn ok() -> Response {
        Response::json(200, "{}")
    }

    #[test]
    fn answered_jobs_are_counted_and_timed() {
        let unary = Admission::new(64, Telemetry::detached());
        assert_eq!(unary.serve(None, true, ok).status, 200);
        assert_eq!(unary.serve(None, false, ok).status, 200);
        assert_eq!(unary.served.get(), 2);
        assert_eq!(unary.batches.get(), 2);
        assert_eq!(unary.rejected.get(), 0);
        // The admission-wait/execute split saw every job (telemetry on).
        assert_eq!(unary.queue_wait_us.count(), 2);
        assert_eq!(unary.execute_us.count(), 2);
        assert_eq!(unary.in_flight(), 0);
    }

    #[test]
    fn disabled_telemetry_still_counts_but_never_observes_latency() {
        let unary = Admission::new(64, Telemetry::disabled());
        assert_eq!(unary.serve(None, true, ok).status, 200);
        assert_eq!(unary.served.get(), 1);
        assert_eq!(unary.queue_wait_us.count(), 0);
        assert_eq!(unary.execute_us.count(), 0);
    }

    #[test]
    fn full_counter_sheds_with_retry_after_and_closed_without() {
        let unary = Admission::new(2, Telemetry::detached());
        let held = [unary.admit().unwrap(), unary.admit().unwrap()];
        let shed = unary.serve(None, true, || unreachable!("a shed job never runs"));
        assert_eq!(shed.status, 503);
        assert_eq!(shed.extra_headers, [("Retry-After".into(), "1".into())]);
        assert_eq!(unary.rejected.get(), 1);
        assert_eq!(unary.served.get(), 0);
        assert_eq!(unary.in_flight(), 2);
        // A cache hit skips the counter: answered even when it is full.
        assert_eq!(unary.serve(None, false, ok).status, 200);
        drop(held);
        assert_eq!(unary.in_flight(), 0);

        // Shutdown path: a closed counter answers 503 without Retry-After.
        unary.close_and_wait();
        let closed = unary.serve(None, true, || {
            unreachable!("a closed counter admits nothing")
        });
        assert_eq!(closed.status, 503);
        assert!(closed.body.contains("shutting down"), "{}", closed.body);
        assert!(closed.extra_headers.is_empty());
        assert_eq!(unary.rejected.get(), 1);
    }

    /// The name of the thread a job ran on, as its response body.
    fn thread_name() -> Response {
        Response::json(200, std::thread::current().name().unwrap_or("unnamed"))
    }

    #[test]
    fn admitted_jobs_run_on_the_lowest_idle_lane() {
        let unary = Admission::new(4, Telemetry::detached());
        // One job at a time: always lane 0, however many jobs.
        for _ in 0..3 {
            assert_eq!(
                unary.serve(None, true, thread_name).body,
                "olive-serve-unary-0"
            );
        }
        // While lane 0 is reserved, the next job spawns lane 1 ...
        let held = unary.admit().unwrap();
        assert_eq!(
            unary.serve(None, true, thread_name).body,
            "olive-serve-unary-1"
        );
        // ... and once it is free again, lane 0 takes the job.
        drop(held);
        assert_eq!(
            unary.serve(None, true, thread_name).body,
            "olive-serve-unary-0"
        );
        // A cache hit runs on the calling thread.
        let caller = std::thread::current().name().map(str::to_owned);
        assert_eq!(Some(unary.serve(None, false, thread_name).body), caller);
        assert_eq!(lock_or_recover(&unary.gate).lanes.len(), 2);
        // Shutdown ends the lanes.
        unary.close_and_wait();
        assert!(lock_or_recover(&unary.gate).lanes.is_empty());
        assert_eq!(unary.served.get(), 6);
    }

    #[test]
    fn panicking_jobs_answer_500_and_free_their_slots() {
        let capacity = 2;
        let unary = Admission::new(capacity, Telemetry::detached());
        for _ in 0..=capacity {
            let response = unary.serve(None, true, || panic!("poisonous request"));
            assert_eq!(response.status, 500);
        }
        assert_eq!(unary.in_flight(), 0);
        assert_eq!(unary.serve(None, true, ok).status, 200);
        assert_eq!(unary.served.get(), capacity as u64 + 2);
    }

    #[test]
    fn shutdown_waits_for_an_in_flight_job() {
        let unary = Arc::new(Admission::new(64, Telemetry::detached()));
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let job = {
            let unary = Arc::clone(&unary);
            std::thread::spawn(move || {
                unary.serve(None, true, move || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    ok()
                })
            })
        };
        started.recv().unwrap();
        let (closed_tx, closed) = mpsc::channel();
        let closer = {
            let unary = Arc::clone(&unary);
            std::thread::spawn(move || {
                unary.close_and_wait();
                closed_tx.send(()).unwrap();
            })
        };
        // Once the closer has closed the counter, new jobs are refused ...
        let refused = loop {
            match unary.admit() {
                Ok(_probe) => std::thread::yield_now(),
                Err(refused) => break refused,
            }
        };
        assert_eq!(refused.status, 503);
        assert!(refused.extra_headers.is_empty());
        // ... but the closer keeps waiting while the admitted job computes.
        assert!(closed.try_recv().is_err(), "shutdown returned early");
        assert_eq!(unary.in_flight(), 1);
        release.send(()).unwrap();
        assert_eq!(job.join().unwrap().status, 200);
        closed.recv().unwrap();
        closer.join().unwrap();
        assert_eq!(unary.in_flight(), 0);
    }
}
