//! The continuous-batching decode scheduler behind `/v1/generate`.
//!
//! Run as one opaque job, a generation request would hold its slot for its
//! *whole* decode, so a long generation would delay everything queued
//! behind it (head-of-line blocking), and K concurrent streams would cost K
//! independent forward passes per step. This module uses vLLM-style
//! **continuous batching** instead:
//!
//! * every in-flight stream is a `Flight` — a step-schedulable decode
//!   session whose KV state lives in pages reserved from a shared
//!   [`KvPool`];
//! * each scheduler **tick** advances every flight by one *run* of tokens:
//!   a new flight's whole prompt on its first tick, then one token per
//!   tick. The feeds are grouped by model (one group per distinct
//!   quantized student, one per distinct teacher) and each group runs as
//!   **one** batched causal forward ([`TinyTransformer::feed_batch`]) — K
//!   streams over the same model cost one GEMM pipeline per tick, not K,
//!   and a late arrival's prefill rides in the same forward as the other
//!   flights' decode rows. The groups of a tick are independent, so they
//!   run side by side on the runtime pool ([`feed_groups`]) when their
//!   work passes the GEMMs' dispatch rule: the tick lasts as long as its
//!   slowest group;
//! * the logits of each run's last token come back per stream, each flight
//!   emits its own JSON fragment as an HTTP chunk, and the next tick feeds
//!   the next token — new requests are admitted *between* steps, so a long
//!   stream never blocks a short one. A stream takes `1 + max_new_tokens −
//!   1` feeding ticks.
//!
//! The trade-off of one-tick prefill: the tick that carries a long prompt
//! stalls every co-running stream for that prompt's rows (roughly
//! 0.15–0.2 ms per prompt row for a gpt2-small student plus teacher). A
//! per-tick row budget that splits prompts into chunks, as in
//! Sarathi-Serve, is left until a workload mixes new arrivals with running
//! decodes.
//!
//! ## Determinism
//!
//! Interleaving changes **timing only, never bytes**. Each stream's chunks
//! concatenate to exactly `Pipeline::generation(..)` over the same request
//! (wall times stripped), at any thread count, tick order, admission order
//! and batch composition, because:
//!
//! * the logits of each run in a [`feed_batch`](TinyTransformer::feed_batch)
//!   over K streams are bit-identical to feeding that stream's tokens one
//!   `push` at a time, alone (the `olive-models` step-batching contract:
//!   every non-GEMM op is per-row, every GEMM row accumulates in
//!   ascending-`k` order), so a one-tick prefill streams the bytes of
//!   `DecodeSession::prefill`;
//! * a flight's attention reads only its own [`PagedKv`] pages, and the
//!   paged layout is byte-equivalent to the session-owned store;
//! * running the groups in parallel moves no byte: each group's forward
//!   is one pool chunk whose GEMMs run inline, as nested primitives do,
//!   which the `olive-runtime` determinism contract makes bit-identical to
//!   any other thread count, and the logits are scattered back in
//!   group-key order;
//! * a short pool only ever *defers admission* (the queue's head waits for
//!   pages) — it can never truncate or alter a decode, because a flight
//!   reserves its worst-case pages up front, all-or-nothing;
//! * the fragments are the very constructors `GenReport::to_json`
//!   concatenates ([`head_fragment`], [`step_fragment`], …), so framing is
//!   the only thing streaming decides.
//!
//! `crates/serve/tests/continuous.rs` enforces this end to end with
//! staggered concurrent streams, mixed prompt lengths and a mid-stream
//! client disconnect, at `OLIVE_THREADS` ∈ {1, 8}.
//!
//! ## Back-pressure
//!
//! Requests wait in one [`BoundedQueue`] and nowhere else. Each tick admits
//! the requests queued when it began, popping the queue's head only when a
//! session slot is free and the head's KV pages fit the free pool, so a
//! waiting request keeps its place *and* its share of `queue_capacity`:
//! once that many wait, [`DecodeScheduler::submit`] answers 503 +
//! `Retry-After: 1`, the unary admission counter's contract. A request
//! whose pages exceed the whole pool is answered 503 at submit, since it
//! could never be admitted.
//!
//! [`SchedCore`] is the synchronous engine (admission from the queue, one
//! [`tick`](SchedCore::tick) = one merged feed — directly drivable by
//! tests); [`DecodeScheduler`] runs it on one worker thread that blocks on
//! the queue while idle.

use crate::cache::ModelCache;
use crate::http::Response;
use crate::protocol::GenerateRequest;
use olive_api::gen::{
    head_fragment, scheme_head_fragment, scheme_tail_fragment, step_fragment, REPORT_TAIL,
};
use olive_api::{GenSchemeResult, GenStep, PreparedGen, Scheme};
use olive_core::TensorQuantizer;
use olive_models::{
    argmax, feed_groups, feeds_in_parallel, pages_needed, FeedGroup, FeedSlot, KvPool, PagedKv,
    TinyTransformer,
};
use olive_runtime::{lock_or_recover, BoundedQueue, PushError};
use olive_telemetry::{
    latency_buckets_us, Counter, Gauge, Histogram, Registry, Span, Stopwatch, Telemetry,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Decode-scheduling policy.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Most decode sessions in flight at once; further requests wait in the
    /// queue in arrival order.
    pub max_sessions: usize,
    /// Floats per KV page.
    pub kv_page_floats: usize,
    /// Total pages in the shared KV pool.
    pub kv_pool_pages: usize,
    /// Most requests waiting for admission (sessions in flight excluded);
    /// submits beyond it are answered 503 + `Retry-After: 1`.
    pub queue_capacity: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            max_sessions: 8,
            kv_page_floats: 2048,
            kv_pool_pages: 8192,
            queue_capacity: 64,
        }
    }
}

/// One event of a streamed response, sent from the scheduler to the
/// connection thread.
#[derive(Debug)]
pub enum StreamEvent {
    /// A body fragment to write as one HTTP chunk.
    Chunk(String),
    /// The stream completed; write the terminating chunk (keep-alive safe).
    Done,
    /// The request failed. The scheduler sends it only to admitted
    /// flights, whose head chunks are already out, when a tick panics: the
    /// connection layer then truncates the chunked body (a visible framing
    /// error) rather than serving a complete-looking answer. Queued
    /// requests never see it.
    Failed,
}

/// The scheduler's registry-backed instruments — the single source of
/// truth for both `/healthz` and `/metrics`.
pub struct SchedStats {
    /// Generation requests answered (completed, failed, or disconnected):
    /// `olive_decode_streams_served_total`.
    pub served: Counter,
    /// Requests shed with 503 because `queue_capacity` requests were
    /// already waiting: `olive_decode_streams_rejected_total`.
    pub rejected: Counter,
    /// Scheduler ticks executed (only ticks that fed at least one flight):
    /// `olive_decode_ticks_total`.
    pub ticks: Counter,
    /// Decode sessions in flight right now (queued requests excluded):
    /// `olive_decode_sessions`.
    pub sessions: Gauge,
    /// KV pages reserved by live flights right now: `olive_kv_pages_used`.
    pub kv_pages_used: Gauge,
    /// KV pages free right now: `olive_kv_pages_free`.
    pub kv_pages_free: Gauge,
    /// Feeding-tick duration, µs: `olive_decode_tick_duration_us`.
    pub tick_duration_us: Histogram,
    /// Submit → first emitted chunk, µs:
    /// `olive_decode_time_to_first_chunk_us`.
    pub time_to_first_chunk_us: Histogram,
    /// Submit → the first decode step's chunk, µs:
    /// `olive_decode_time_to_first_token_us`.
    pub time_to_first_token_us: Histogram,
    /// Sessions fed per tick, as the labelled counter family
    /// `olive_decode_batch_size_total{size="N"}`. Handles are cached here;
    /// the cells live in the registry like every other instrument.
    batch_sizes: Mutex<BTreeMap<usize, Counter>>,
    registry: Arc<Registry>,
}

impl SchedStats {
    /// Registers the scheduler's instruments on `registry`.
    pub fn new(registry: &Arc<Registry>) -> SchedStats {
        SchedStats {
            served: registry.counter(
                "olive_decode_streams_served_total",
                "Generation streams answered (completed, failed, or disconnected).",
            ),
            rejected: registry.counter(
                "olive_decode_streams_rejected_total",
                "Generation requests shed with 503 because queue_capacity requests were waiting.",
            ),
            ticks: registry.counter(
                "olive_decode_ticks_total",
                "Decode-scheduler ticks that fed at least one flight.",
            ),
            sessions: registry.gauge(
                "olive_decode_sessions",
                "Decode sessions in flight right now (queued requests excluded).",
            ),
            kv_pages_used: registry.gauge(
                "olive_kv_pages_used",
                "KV-cache pages reserved by live flights right now.",
            ),
            kv_pages_free: registry.gauge("olive_kv_pages_free", "KV-cache pages free right now."),
            tick_duration_us: registry.histogram(
                "olive_decode_tick_duration_us",
                "Duration of decode-scheduler ticks that fed flights, microseconds.",
                &latency_buckets_us(),
            ),
            time_to_first_chunk_us: registry.histogram(
                "olive_decode_time_to_first_chunk_us",
                "Generation submit to first emitted chunk, microseconds.",
                &latency_buckets_us(),
            ),
            time_to_first_token_us: registry.histogram(
                "olive_decode_time_to_first_token_us",
                "Generation submit to the first decode step's chunk, microseconds.",
                &latency_buckets_us(),
            ),
            batch_sizes: Mutex::new(BTreeMap::new()),
            registry: Arc::clone(registry),
        }
    }

    fn record_tick(&self, fed: usize) {
        if fed == 0 {
            return;
        }
        self.ticks.inc();
        let mut sizes = lock_or_recover(&self.batch_sizes);
        let size = fed.to_string();
        let counter = sizes.entry(fed).or_insert_with(|| {
            self.registry.counter_with(
                "olive_decode_batch_size_total",
                "Ticks that fed exactly this many sessions.",
                &[("size", size.as_str())],
            )
        });
        counter.inc();
    }

    /// The `batch size → tick count` map `/healthz` renders, read back from
    /// the registry-backed counter family in ascending batch-size order.
    pub fn batch_size_histogram(&self) -> BTreeMap<usize, u64> {
        lock_or_recover(&self.batch_sizes)
            .iter()
            .map(|(&size, counter)| (size, counter.get()))
            .collect()
    }

    fn mirror_pool(&self, pool: &KvPool, sessions: usize) {
        self.sessions.set(sessions as u64);
        self.kv_pages_used.set(pool.pages_used() as u64);
        self.kv_pages_free.set(pool.pages_free() as u64);
    }
}

/// A queued generation request plus its event channel and telemetry
/// context.
pub struct GenJob {
    request: GenerateRequest,
    sink: mpsc::Sender<StreamEvent>,
    /// The request's trace span, when tracing is on; observe-only.
    span: Option<Arc<Span>>,
    /// Started at submit; inert when telemetry is off. Feeds the
    /// time-to-first-chunk histogram at admission and the
    /// time-to-first-token histogram at the first step.
    queued_at: Stopwatch,
}

/// Which model a feed goes through: the scheme's quantized student, or the
/// FP32 teacher forced along the student's tokens.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lane {
    Student,
    Teacher,
}

/// One in-flight decode session: a `/v1/generate` request mid-decode, with
/// its two KV stores (student + teacher) paged out of the shared pool and
/// its per-step emit/feed state.
struct Flight {
    sink: mpsc::Sender<StreamEvent>,
    /// The request's span and submit stopwatch (see [`GenJob`]).
    span: Option<Arc<Span>>,
    queued_at: Stopwatch,
    scheme: Scheme,
    quantize_acts: bool,
    prepared: Arc<PreparedGen>,
    student: Arc<TinyTransformer>,
    result: GenSchemeResult,
    max_new_tokens: usize,
    student_kv: PagedKv,
    teacher_kv: PagedKv,
    /// Tokens fed so far (prompt + forced student tokens); also the next
    /// feed's position.
    fed: usize,
    /// Decode steps emitted so far.
    steps_done: usize,
    /// The student's last token, fed to both lanes once the prompt is done.
    pending_token: usize,
    student_logits: Option<Vec<f32>>,
    teacher_logits: Option<Vec<f32>>,
    /// Group keys: flights with equal keys share one batched forward.
    student_key: String,
    teacher_key: String,
    /// Set when the client hung up or the stream finished; the flight is
    /// swept (pages released) at the end of the tick.
    done: bool,
}

impl Flight {
    fn prompt_len(&self) -> usize {
        self.prepared.prompt.len()
    }

    /// The tokens to feed this tick: the rest of the prompt while
    /// prefilling (all of it, on the flight's first tick), then the
    /// student's own greedy pick.
    fn run(&self) -> &[usize] {
        if self.fed < self.prompt_len() {
            &self.prepared.prompt[self.fed..]
        } else {
            std::slice::from_ref(&self.pending_token)
        }
    }

    /// The model a lane feeds through.
    fn model(&self, lane: Lane) -> &TinyTransformer {
        match lane {
            Lane::Student => &self.student,
            Lane::Teacher => &self.prepared.teacher,
        }
    }

    /// A lane's KV store.
    fn kv_mut(&mut self, lane: Lane) -> &mut PagedKv {
        match lane {
            Lane::Student => &mut self.student_kv,
            Lane::Teacher => &mut self.teacher_kv,
        }
    }

    fn send(&mut self, event: StreamEvent) {
        // A client that hung up mid-stream is not an error; mark the flight
        // for sweeping so its pages free up instead of decoding to the end.
        if self.sink.send(event).is_err() {
            self.done = true;
        }
    }
}

/// What one tick did — returned so tests can assert the merge actually
/// happened (K flights ⇒ one batched forward per model group, never
/// per-session forwards).
#[derive(Debug, Default)]
pub struct TickReport {
    /// Slot count (flights merged) of every batched forward executed, in
    /// model-group order. A prefilling slot carries many rows.
    pub forwards: Vec<usize>,
    /// Whether the model groups ran side by side on the runtime pool
    /// ([`feeds_in_parallel`]) rather than one after the other.
    pub parallel: bool,
    /// Flights fed this tick.
    pub fed: usize,
    /// Requests admitted this tick.
    pub admitted: usize,
}

/// KV pages one request needs across both lanes, at `page_floats` floats a
/// page: student and teacher each decode `prompt + max_new_tokens - 1`
/// positions of the request's model.
fn pages_for(req: &GenerateRequest, page_floats: usize) -> usize {
    let model = req.size.spec(req.family).config;
    let positions = req.prompt_tokens.max(1) + req.max_new_tokens - 1;
    let tokens_per_page = (page_floats / model.d_model).max(1);
    2 * pages_needed(model.n_layers, positions, tokens_per_page)
}

/// The synchronous scheduling engine: admission from the scheduler's queue
/// and the per-tick emit → merge → feed cycle. Single-threaded by design —
/// the [`DecodeScheduler`] worker owns one; tests drive one directly.
pub struct SchedCore {
    cache: Arc<ModelCache>,
    config: SchedConfig,
    pool: KvPool,
    flights: Vec<Flight>,
    /// The one place requests wait, in arrival order, until admitted.
    queue: Arc<BoundedQueue<GenJob>>,
    stats: Arc<SchedStats>,
}

impl SchedCore {
    /// An idle core admitting from `queue` and decoding against `cache`,
    /// with a fresh KV pool.
    pub fn new(
        config: SchedConfig,
        cache: Arc<ModelCache>,
        queue: Arc<BoundedQueue<GenJob>>,
        stats: Arc<SchedStats>,
    ) -> Self {
        let pool = KvPool::new(config.kv_page_floats, config.kv_pool_pages);
        stats.mirror_pool(&pool, 0);
        SchedCore {
            cache,
            config,
            pool,
            flights: Vec::new(),
            queue,
            stats,
        }
    }

    /// Whether any flight or queued request still needs ticks.
    pub fn has_work(&self) -> bool {
        !self.flights.is_empty() || !self.queue.is_empty()
    }

    /// Admits up to `queued` requests from the queue in FIFO order while
    /// session slots and KV pages last. Strict FIFO: a head whose pages do
    /// not fit the free pool stays queued and blocks the ones behind it (no
    /// small-request bypass), so admission order — and with it the served
    /// bytes — cannot depend on pool timing. Every head fits once the
    /// flights release their pages: [`DecodeScheduler::submit`] refuses a
    /// request larger than the pool.
    fn admit(&mut self, queued: usize) -> usize {
        let mut admitted = 0;
        while admitted < queued && self.flights.len() < self.config.max_sessions {
            let page_floats = self.config.kv_page_floats;
            let free = self.pool.pages_free();
            let Some(job) = self
                .queue
                .pop_if(|job| pages_for(&job.request, page_floats) <= free)
            else {
                break; // nothing queued, or the head waits for pages
            };
            let mut pages = self
                .pool
                .try_reserve(pages_for(&job.request, page_floats))
                .expect("the popped request's pages fit the free pool");
            let teacher_pages = pages.split_off(pages.len() / 2);
            if let Some(span) = &job.span {
                span.event("batched");
            }
            let req = job.request;
            let pipeline = req.pipeline();
            let prepared = self.cache.gen_prepared(&req);
            let quantizer = req.scheme.build();
            let quantize_acts = pipeline.quantizes_activations_with(&req.scheme);
            let student = prepared.student(&req.scheme);
            let cfg = &prepared.teacher.config;
            let mut flight = Flight {
                sink: job.sink,
                span: job.span,
                queued_at: job.queued_at,
                quantize_acts,
                result: GenSchemeResult {
                    spec: req.scheme.to_string(),
                    name: quantizer.name().to_string(),
                    activations_quantized: quantize_acts,
                    steps: Vec::with_capacity(req.max_new_tokens),
                    agreement: 1.0,
                    tokens_per_s: 0.0,
                    wall_time_s: 0.0,
                },
                max_new_tokens: req.max_new_tokens,
                student_kv: PagedKv::new(
                    cfg.n_layers,
                    cfg.d_model,
                    self.config.kv_page_floats,
                    pages,
                ),
                teacher_kv: PagedKv::new(
                    cfg.n_layers,
                    cfg.d_model,
                    self.config.kv_page_floats,
                    teacher_pages,
                ),
                fed: 0,
                steps_done: 0,
                pending_token: 0,
                student_logits: None,
                teacher_logits: None,
                student_key: format!(
                    "s|{}|{}|acts={}",
                    req.prepared_key(),
                    req.scheme,
                    quantize_acts
                ),
                teacher_key: format!("t|{}", req.prepared_key()),
                student,
                prepared: Arc::clone(&prepared),
                scheme: req.scheme,
                done: false,
            };
            // The head fragments are emitted at admission — byte-for-byte
            // what Pipeline::generation streams first.
            let skeleton =
                pipeline.gen_report_skeleton(prepared.prompt.clone(), flight.max_new_tokens);
            flight.send(StreamEvent::Chunk(head_fragment(&skeleton)));
            self.stats
                .time_to_first_chunk_us
                .observe_elapsed(&flight.queued_at);
            flight.send(StreamEvent::Chunk(scheme_head_fragment(
                &flight.result,
                true,
            )));
            self.flights.push(flight);
            admitted += 1;
        }
        admitted
    }

    /// Emits each flight's pending step (if its last feed completed the
    /// prompt) and finalizes flights that just emitted their last step.
    ///
    /// Returns the sinks owed a [`StreamEvent::Done`]. The caller sends it
    /// only *after* the tick has swept the flight and mirrored the gauges:
    /// `Done` is what lets the connection write the terminating chunk, so a
    /// client that has its complete body can never observe `/healthz` still
    /// counting the finished session or its pages.
    fn emit(&mut self) -> Vec<mpsc::Sender<StreamEvent>> {
        let mut finished = Vec::new();
        for flight in &mut self.flights {
            if flight.done || flight.fed < flight.prompt_len() {
                continue;
            }
            let (Some(s_logits), Some(t_logits)) =
                (flight.student_logits.take(), flight.teacher_logits.take())
            else {
                continue;
            };
            let step = GenStep {
                token: argmax(&s_logits),
                teacher_token: argmax(&t_logits),
            };
            if flight.steps_done == 0 {
                self.stats
                    .time_to_first_token_us
                    .observe_elapsed(&flight.queued_at);
                if let Some(span) = &flight.span {
                    span.event("first-token");
                }
            }
            flight.send(StreamEvent::Chunk(step_fragment(
                &step,
                flight.steps_done == 0,
            )));
            flight.result.steps.push(step);
            flight.steps_done += 1;
            if flight.steps_done == flight.max_new_tokens {
                let agreed = flight.result.steps.iter().filter(|s| s.agree()).count();
                flight.result.agreement = agreed as f64 / flight.result.steps.len() as f64;
                flight.send(StreamEvent::Chunk(scheme_tail_fragment(&flight.result)));
                flight.send(StreamEvent::Chunk(REPORT_TAIL.to_string()));
                flight.done = true;
                finished.push(flight.sink.clone());
            } else {
                flight.pending_token = step.token;
            }
        }
        finished
    }

    /// Merges the run of every live flight into one batched causal forward
    /// per model group, runs the groups side by side ([`feed_groups`]) and
    /// scatters each run's last logits back. Returns the group sizes, in
    /// group-key order, and whether the groups ran on the pool.
    fn feed(&mut self) -> (Vec<usize>, bool) {
        let mut groups: BTreeMap<String, Vec<(usize, Lane)>> = BTreeMap::new();
        for (i, flight) in self.flights.iter().enumerate() {
            if flight.done {
                continue;
            }
            groups
                .entry(flight.student_key.clone())
                .or_default()
                .push((i, Lane::Student));
            groups
                .entry(flight.teacher_key.clone())
                .or_default()
                .push((i, Lane::Teacher));
        }
        // Move each member's KV store out of the flight table, so the slots
        // can borrow the stores mutably while the flights lend their models
        // and runs.
        let mut stores: Vec<Vec<PagedKv>> = groups
            .values()
            .map(|members| {
                members
                    .iter()
                    .map(|&(i, lane)| std::mem::take(self.flights[i].kv_mut(lane)))
                    .collect()
            })
            .collect();
        // The group key pins (preparation, scheme, acts), so every member
        // shares one model and one activation quantizer; both are taken from
        // the first member. The quantizer is rebuilt per tick from the spec —
        // deterministic and cheap (a stateless config struct).
        let flights = &self.flights;
        let acts: Vec<Option<Box<dyn TensorQuantizer>>> = groups
            .values()
            .map(|members| {
                let flight = &flights[members[0].0];
                (members[0].1 == Lane::Student && flight.quantize_acts)
                    .then(|| flight.scheme.build())
            })
            .collect();
        let feeds: Vec<FeedGroup<'_>> = groups
            .values()
            .zip(&mut stores)
            .zip(&acts)
            .map(|((members, kvs), act)| FeedGroup {
                model: flights[members[0].0].model(members[0].1),
                act_quant: act.as_deref(),
                slots: members
                    .iter()
                    .zip(kvs)
                    .map(|(&(i, _), kv)| FeedSlot {
                        kv,
                        tokens: flights[i].run(),
                        pos: flights[i].fed,
                    })
                    .collect(),
            })
            .collect();
        let parallel = feeds_in_parallel(&feeds);
        let logits = feed_groups(feeds);
        for ((members, kvs), rows) in groups.values().zip(stores).zip(logits) {
            for ((&(i, lane), kv), row) in members.iter().zip(kvs).zip(rows) {
                let flight = &mut self.flights[i];
                *flight.kv_mut(lane) = kv;
                match lane {
                    Lane::Student => flight.student_logits = Some(row),
                    Lane::Teacher => flight.teacher_logits = Some(row),
                }
            }
        }
        (groups.values().map(Vec::len).collect(), parallel)
    }

    /// Releases finished (or disconnected) flights: their KV pages return
    /// to the pool for the next admission.
    fn sweep(&mut self) {
        let pool = &mut self.pool;
        let stats = &self.stats;
        self.flights.retain_mut(|flight| {
            if !flight.done {
                return true;
            }
            pool.release(std::mem::take(&mut flight.student_kv).into_pages());
            pool.release(std::mem::take(&mut flight.teacher_kv).into_pages());
            stats.served.inc();
            false
        });
    }

    /// One scheduler tick: emit pending steps, release finished flights,
    /// admit the requests queued when it began (freed pages are reusable
    /// immediately), then
    /// run one merged batched forward per model group and advance every fed
    /// flight's position by its run. Returns what happened, for
    /// instrumentation.
    pub fn tick(&mut self) -> TickReport {
        // Only requests queued when the tick began are admitted: one that
        // arrives while the tick emits waits for the next tick, so it cannot
        // lengthen the prefill an earlier arrival is about to run.
        let queued = self.queue.len();
        let finished = self.emit();
        self.sweep();
        let admitted = self.admit(queued);
        let (forwards, parallel) = self.feed();
        let mut fed = 0;
        for flight in &mut self.flights {
            if !flight.done {
                flight.fed += flight.run().len();
                fed += 1;
            }
        }
        self.stats.record_tick(fed);
        self.stats.mirror_pool(&self.pool, self.flights.len());
        // Only now may finished streams terminate (see [`SchedCore::emit`]).
        for sink in finished {
            let _ = sink.send(StreamEvent::Done);
        }
        TickReport {
            forwards,
            parallel,
            fed,
            admitted,
        }
    }

    /// Fails every admitted flight and rebuilds the KV pool — the
    /// panic-recovery path: a poisoned tick must never wedge the scheduler
    /// or leak pages. Flights already mid-stream get their chunked body
    /// truncated by the connection layer (a visible framing error). Queued
    /// requests took no part in the tick: they stay queued and are served
    /// afterwards.
    pub fn fail_all(&mut self) {
        for flight in self.flights.drain(..) {
            let _ = flight.sink.send(StreamEvent::Failed);
            self.stats.served.inc();
        }
        // A panic may have fired while stores were moved out of the table;
        // dropping the flights dropped their pages, so start a fresh pool
        // rather than trust the old one's accounting.
        self.pool = KvPool::new(self.config.kv_page_floats, self.config.kv_pool_pages);
        self.stats.mirror_pool(&self.pool, 0);
    }
}

/// The continuous-batching scheduler: [`SchedCore`] driven by one worker
/// thread, admitting from one bounded queue, with the same back-pressure
/// contract as the unary admission counter. One instance per server; shut
/// down explicitly.
pub struct DecodeScheduler {
    queue: Arc<BoundedQueue<GenJob>>,
    config: SchedConfig,
    stats: Arc<SchedStats>,
    telemetry: Telemetry,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl DecodeScheduler {
    /// Starts a scheduler whose worker decodes against `cache`, registering
    /// its instruments on `telemetry`'s registry.
    pub fn start(config: SchedConfig, cache: Arc<ModelCache>, telemetry: Telemetry) -> Self {
        let scheduler = Self::paused_with(config, telemetry);
        let core = SchedCore::new(
            scheduler.config.clone(),
            cache,
            Arc::clone(&scheduler.queue),
            Arc::clone(&scheduler.stats),
        );
        let telemetry = scheduler.telemetry.clone();
        // olive-lint: allow(no-spawn-outside-runtime): the one long-lived decode-scheduler thread; each tick's batched forwards still run on the Pool
        let handle = std::thread::Builder::new()
            .name("olive-serve-decode".into())
            .spawn(move || decode_loop(core, &telemetry))
            .expect("spawning the decode scheduler thread");
        *lock_or_recover(&scheduler.worker) = Some(handle);
        scheduler
    }

    /// A scheduler with no worker thread — requests queue but never decode.
    /// Lets tests exercise the back-pressure path deterministically.
    #[cfg(test)]
    fn paused(config: SchedConfig) -> Self {
        Self::paused_with(config, Telemetry::detached())
    }

    fn paused_with(config: SchedConfig, telemetry: Telemetry) -> Self {
        DecodeScheduler {
            queue: Arc::new(BoundedQueue::new(config.queue_capacity)),
            config,
            stats: Arc::new(SchedStats::new(telemetry.registry())),
            telemetry,
            worker: Mutex::new(None),
        }
    }

    /// Submits a generation request and returns the event receiver the
    /// connection thread drains into chunked writes — or answers
    /// immediately with 503 (+ `Retry-After: 1`) when `queue_capacity`
    /// requests are already waiting, 503 without `Retry-After` when the
    /// request's KV pages exceed the whole pool (it could never be
    /// admitted), and 503 without `Retry-After` when the server is shutting
    /// down.
    ///
    /// `span` is the request's trace span (or `None`): purely
    /// observational — the streamed bytes are a function of `request`
    /// alone.
    ///
    /// # Errors
    ///
    /// The 503 response to answer with instead, when the request could not
    /// be queued.
    pub fn submit(
        &self,
        request: GenerateRequest,
        span: Option<Arc<Span>>,
    ) -> Result<mpsc::Receiver<StreamEvent>, Response> {
        if pages_for(&request, self.config.kv_page_floats) > self.config.kv_pool_pages {
            self.stats.served.inc();
            return Err(Response::error(
                503,
                "generation needs more KV-cache memory than the server has \
                 (lower prompt_tokens/max_new_tokens)",
            ));
        }
        if let Some(span) = &span {
            span.event("queued");
        }
        let (tx, rx) = mpsc::channel();
        let job = GenJob {
            request,
            sink: tx,
            span,
            queued_at: self.telemetry.stopwatch(),
        };
        match self.queue.try_push(job) {
            Ok(()) => Ok(rx),
            Err((PushError::Full, _)) => {
                self.stats.rejected.inc();
                Err(Response::error(
                    503,
                    "server is at capacity; retry after the Retry-After delay",
                )
                .with_header("Retry-After", "1"))
            }
            Err((PushError::Closed, _)) => Err(Response::error(503, "server is shutting down")),
        }
    }

    /// Requests queued and not yet admitted by the worker (for `/healthz`).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The shared counters and gauges.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Stops accepting requests, finishes every queued and in-flight
    /// stream, and joins the worker thread. Idempotent.
    pub fn shutdown(&self) {
        self.queue.close();
        if let Some(handle) = lock_or_recover(&self.worker).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for DecodeScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The worker loop: ticks while any flight or queued request needs it (a
/// tick never waits on the queue), and blocks on the queue when idle. Exits
/// when the queue is closed *and* drained *and* every flight has finished —
/// shutdown completes accepted streams, it never drops them.
fn decode_loop(mut core: SchedCore, telemetry: &Telemetry) {
    loop {
        if !core.has_work() && !core.queue.wait() {
            return; // closed and drained, nothing in flight
        }
        // A panic (a poisonous request) is contained to the tick: every
        // admitted stream is answered or truncated, the pool is rebuilt,
        // and the scheduler keeps serving the queue.
        let ticking = telemetry.stopwatch();
        match catch_unwind(AssertUnwindSafe(|| core.tick())) {
            Ok(report) => {
                // Idle spins (nothing fed) are not observations — they
                // would drown the histogram in sub-µs noise.
                if report.fed > 0 {
                    core.stats.tick_duration_us.observe_elapsed(&ticking);
                }
            }
            Err(_) => core.fail_all(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_api::{GenOptions, JsonValue};

    fn gen_request(text: &str) -> GenerateRequest {
        GenerateRequest::decode(&JsonValue::parse(text).unwrap()).unwrap()
    }

    fn core_with_config(config: SchedConfig) -> SchedCore {
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let stats = Arc::new(SchedStats::new(&Arc::new(Registry::new())));
        SchedCore::new(config, Arc::new(ModelCache::new()), queue, stats)
    }

    /// Pushes `text` onto the core's queue as a job with no span and inert
    /// timing, and returns its stream.
    fn enqueue(core: &SchedCore, text: &str) -> mpsc::Receiver<StreamEvent> {
        let (sink, events) = mpsc::channel();
        let job = GenJob {
            request: gen_request(text),
            sink,
            span: None,
            queued_at: Stopwatch::disabled(),
        };
        assert!(core.queue.try_push(job).is_ok(), "the test queue is full");
        events
    }

    /// Drains a stream to completion: (concatenated body, chunk count).
    fn drain(rx: &mpsc::Receiver<StreamEvent>) -> (String, usize) {
        let mut body = String::new();
        let mut chunks = 0;
        loop {
            match rx.recv().expect("stream must terminate") {
                StreamEvent::Chunk(data) => {
                    chunks += 1;
                    body.push_str(&data);
                }
                StreamEvent::Done => return (body, chunks),
                StreamEvent::Failed => panic!("unexpected failure"),
            }
        }
    }

    fn direct_body(req: &GenerateRequest) -> String {
        let pipeline = req.pipeline();
        let prepared = pipeline.prepare_generation(req.prompt_tokens);
        pipeline
            .generation(
                GenOptions::new()
                    .prepared(&prepared)
                    .max_new_tokens(req.max_new_tokens),
            )
            .without_wall_times()
            .to_json()
    }

    /// The tentpole property, instrumented: K concurrent sessions over the
    /// same request produce exactly TWO batched forwards per feeding tick
    /// (one [K]-row student group, one [K]-row teacher group) — never K
    /// per-session forwards — and still stream bytes identical to a direct
    /// pipeline run.
    #[test]
    fn concurrent_sessions_merge_into_one_forward_per_model_group() {
        let req_text = r#"{"scheme": "olive-4bit", "prompt_tokens": 4, "max_new_tokens": 3}"#;
        let mut core = core_with_config(SchedConfig::default());
        let receivers = enqueue_copies(&core, req_text, 5);
        let mut feeding_ticks = 0;
        while core.has_work() {
            let report = core.tick();
            if report.fed > 0 {
                feeding_ticks += 1;
                assert_eq!(report.fed, 5, "all five sessions advance each tick");
                assert_eq!(
                    report.forwards,
                    vec![5, 5],
                    "one 5-row student forward + one 5-row teacher forward, \
                     never per-session forwards"
                );
            }
        }
        // One whole-prompt feed + max_new_tokens - 1 decode feeds per stream.
        assert_eq!(feeding_ticks, 1 + 3 - 1);
        let direct = direct_body(&gen_request(req_text));
        for rx in &receivers {
            let (body, chunks) = drain(rx);
            assert_eq!(chunks, 1 + 1 + 3 + 1 + 1);
            assert_eq!(body, direct);
        }
    }

    /// One-tick prefill beside a running decode: a request that arrives
    /// after an identical flight has emitted two steps is prefilled whole in
    /// the next tick, inside the same two group forwards as the earlier
    /// flight's decode row, emits its first step one tick later, and both
    /// streams still match a direct pipeline run byte for byte.
    #[test]
    fn late_arrival_prefills_in_one_tick_beside_a_running_decode() {
        let req_text = r#"{"scheme": "olive-4bit", "prompt_tokens": 4, "max_new_tokens": 5}"#;
        let mut core = core_with_config(SchedConfig::default());
        let early = enqueue(&core, req_text);
        while core.flights.first().map_or(0, |f| f.steps_done) < 2 {
            core.tick();
        }
        let late = enqueue(&core, req_text);
        let report = core.tick();
        assert_eq!(report.admitted, 1);
        assert_eq!(
            report.forwards,
            vec![2, 2],
            "the prefill shares the student and teacher forwards"
        );
        let newcomer = &core.flights[1];
        assert_eq!(
            newcomer.fed,
            newcomer.prompt_len(),
            "whole prompt in one tick"
        );
        assert_eq!(newcomer.steps_done, 0);
        core.tick();
        assert_eq!(core.flights[1].steps_done, 1, "first step one tick later");
        while core.has_work() {
            core.tick();
        }
        let direct = direct_body(&gen_request(req_text));
        assert_eq!(drain(&early).0, direct);
        assert_eq!(drain(&late).0, direct);
    }

    /// Different schemes split the student group but still share one merged
    /// teacher forward (same preparation), and every stream's bytes match
    /// its own direct run.
    #[test]
    fn mixed_schemes_share_the_teacher_forward() {
        let olive = r#"{"scheme": "olive-4bit", "prompt_tokens": 3, "max_new_tokens": 2}"#;
        let uniform = r#"{"scheme": "uniform:4", "prompt_tokens": 3, "max_new_tokens": 2}"#;
        let mut core = core_with_config(SchedConfig::default());
        let receivers: Vec<_> = [olive, olive, uniform]
            .into_iter()
            .map(|text| (text, enqueue(&core, text)))
            .collect();
        while core.has_work() {
            let report = core.tick();
            if report.fed > 0 {
                assert_eq!(report.fed, 3);
                // Group-key order is deterministic (BTreeMap): two student
                // groups (2 olive rows, 1 uniform row) + one 3-row teacher.
                let mut sizes = report.forwards.clone();
                sizes.sort_unstable();
                assert_eq!(sizes, vec![1, 2, 3], "{:?}", report.forwards);
            }
        }
        for (text, rx) in &receivers {
            let (body, _) = drain(rx);
            assert_eq!(body, direct_body(&gen_request(text)), "{text}");
        }
    }

    /// Admission is strictly FIFO under KV pressure: a pool sized for one
    /// flight serializes the sessions, defers (never drops) the rest, and
    /// the bytes stay identical.
    #[test]
    fn short_kv_pool_defers_admission_without_changing_bytes() {
        let req_text = r#"{"scheme": "fp32", "prompt_tokens": 3, "max_new_tokens": 2}"#;
        // tiny model: d=32, 2 layers, 4 positions -> pages_needed(2,4,2)=8
        // per lane pair at 64-float pages (2 tokens/page), 16 per flight.
        let mut core = core_with_config(SchedConfig {
            kv_page_floats: 64,
            kv_pool_pages: 16,
            ..SchedConfig::default()
        });
        let receivers = enqueue_copies(&core, req_text, 3);
        let mut max_fed = 0;
        while core.has_work() {
            let report = core.tick();
            max_fed = max_fed.max(report.fed);
        }
        assert_eq!(max_fed, 1, "a one-flight pool must serialize admission");
        let direct = direct_body(&gen_request(req_text));
        for rx in &receivers {
            assert_eq!(drain(rx).0, direct);
        }
        assert_eq!(core.pool.pages_used(), 0, "all pages must be released");
    }

    /// A request whose worst case exceeds the whole pool is answered 503 at
    /// submit instead of waiting in the queue for pages that can never free
    /// up, and a request that fits is still served.
    #[test]
    fn oversized_requests_fail_instead_of_wedging_the_queue() {
        // 8 pages fit the minimal follow-up request exactly (2 layers × K&V ×
        // 1 page × 2 lanes) while the 15-position request needs 64.
        let scheduler = DecodeScheduler::start(
            SchedConfig {
                kv_page_floats: 64,
                kv_pool_pages: 8,
                ..SchedConfig::default()
            },
            Arc::new(ModelCache::new()),
            Telemetry::detached(),
        );
        let oversized =
            gen_request(r#"{"scheme": "fp32", "prompt_tokens": 8, "max_new_tokens": 8}"#);
        let response = scheduler.submit(oversized, None).unwrap_err();
        assert_eq!(response.status, 503);
        assert!(response.body.contains("KV-cache"), "{}", response.body);
        assert!(response.extra_headers.is_empty(), "retrying cannot help");
        assert_eq!(scheduler.queue_depth(), 0);
        assert_eq!(scheduler.stats().rejected.get(), 0, "not a queue shed");

        let fits = gen_request(r#"{"scheme": "fp32", "prompt_tokens": 1, "max_new_tokens": 1}"#);
        let events = scheduler.submit(fits.clone(), None).expect("queued");
        assert_eq!(drain(&events).0, direct_body(&fits));
        scheduler.shutdown();
    }

    /// A client that disconnects mid-stream frees its session and pages;
    /// the surviving streams finish byte-identically.
    #[test]
    fn disconnects_release_the_session_and_pages() {
        let req_text = r#"{"scheme": "olive-4bit", "prompt_tokens": 4, "max_new_tokens": 6}"#;
        let mut core = core_with_config(SchedConfig::default());
        let rx_gone = enqueue(&core, req_text);
        let rx = enqueue(&core, req_text);
        core.tick();
        assert_eq!(core.flights.len(), 2);
        drop(rx_gone); // client hangs up mid-decode
        while core.has_work() {
            core.tick();
        }
        assert_eq!(drain(&rx).0, direct_body(&gen_request(req_text)));
        assert_eq!(core.pool.pages_used(), 0);
        assert_eq!(core.stats.served.get(), 2);
    }

    /// fail_all (the panic-recovery path) fails every admitted stream and
    /// resets the pool; a request still queued took no part in the failed
    /// tick and is served afterwards, byte for byte.
    #[test]
    fn fail_all_fails_admitted_flights_and_keeps_queued_requests() {
        let text = r#"{"scheme": "fp32"}"#;
        let mut core = core_with_config(SchedConfig::default());
        let admitted = enqueue(&core, text);
        core.tick();
        let queued = enqueue(&core, text);
        core.fail_all();
        assert_eq!(core.pool.pages_used(), 0);
        assert!(core.flights.is_empty());
        assert!(
            admitted
                .try_iter()
                .any(|e| matches!(e, StreamEvent::Failed)),
            "the admitted stream must see a Failed event"
        );
        assert_eq!(core.queue.len(), 1, "the queued request stays queued");
        while core.has_work() {
            core.tick();
        }
        assert_eq!(drain(&queued).0, direct_body(&gen_request(text)));
    }

    /// The live scheduler end to end: chunks then Done, bytes equal to the
    /// direct pipeline, and the stats reflect the decode.
    #[test]
    fn live_scheduler_streams_chunks_then_done() {
        let scheduler = DecodeScheduler::start(
            SchedConfig::default(),
            Arc::new(ModelCache::new()),
            Telemetry::detached(),
        );
        let req =
            gen_request(r#"{"scheme": "olive-4bit", "prompt_tokens": 4, "max_new_tokens": 3}"#);
        let events = scheduler.submit(req.clone(), None).expect("queued");
        let (body, chunks) = drain(&events);
        assert_eq!(chunks, 1 + 1 + 3 + 1 + 1);
        assert_eq!(body, direct_body(&req));
        assert_eq!(scheduler.stats().served.get(), 1);
        assert!(scheduler.stats().ticks.get() >= (1 + 3 - 1));
        assert_eq!(scheduler.stats().sessions.get(), 0);
        scheduler.shutdown();
    }

    /// The submit back-pressure contract, bit-for-bit the unary path's:
    /// full queue -> 503 + Retry-After, closed queue -> 503 without.
    #[test]
    fn full_queue_is_answered_503_with_retry_after() {
        let scheduler = DecodeScheduler::paused(SchedConfig {
            queue_capacity: 2,
            ..SchedConfig::default()
        });
        let req = gen_request(r#"{"scheme": "fp32"}"#);
        let _a = scheduler.submit(req.clone(), None).expect("first fits");
        let _b = scheduler.submit(req.clone(), None).expect("second fits");
        let shed = scheduler.submit(req.clone(), None).unwrap_err();
        assert_eq!(shed.status, 503);
        assert!(shed
            .extra_headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && v == "1"));
        assert_eq!(scheduler.stats().rejected.get(), 1);
        assert_eq!(scheduler.queue_depth(), 2);

        scheduler.queue.close();
        let closed = scheduler.submit(req, None).unwrap_err();
        assert_eq!(closed.status, 503);
        assert!(closed.body.contains("shutting down"), "{}", closed.body);
        assert!(closed.extra_headers.is_empty());
    }

    /// The queue bound holds while the worker runs. With one session and a
    /// queue of two, a long stream takes the session and two requests wait
    /// behind it, so every further submit is shed with 503 +
    /// `Retry-After: 1` until one of them finishes. Each submit is followed
    /// by two worker ticks, so the worker has had a whole tick to move it
    /// off the queue (which an unbounded second queue behind this one
    /// would do). Accepted requests never outnumber finished ones by more
    /// than `max_sessions + queue_capacity`, however fast the worker runs,
    /// and every accepted stream keeps its bytes.
    #[test]
    fn a_running_scheduler_sheds_past_max_sessions_plus_queue_capacity() {
        let (max_sessions, queue_capacity) = (1, 2);
        let scheduler = DecodeScheduler::start(
            SchedConfig {
                max_sessions,
                queue_capacity,
                ..SchedConfig::default()
            },
            Arc::new(ModelCache::new()),
            Telemetry::detached(),
        );
        let stats = scheduler.stats();
        let long = gen_request(
            r#"{"family": "gpt2", "size": "small", "scheme": "olive-4bit",
                "prompt_tokens": 8, "max_new_tokens": 256}"#,
        );
        let mut accepted = Vec::new();
        let mut shed = 0;
        for _ in 0..8 {
            match scheduler.submit(long.clone(), None) {
                Ok(events) => {
                    accepted.push(events);
                    // Read after the submit, `served` can only over-count
                    // what had finished when the submit was accepted.
                    let unfinished = accepted.len() - stats.served.get() as usize;
                    assert!(
                        unfinished <= max_sessions + queue_capacity,
                        "accepted with {unfinished} streams unfinished"
                    );
                }
                Err(response) => {
                    assert_eq!(response.status, 503, "{}", response.body);
                    assert_eq!(
                        response.extra_headers,
                        vec![("Retry-After".to_string(), "1".to_string())]
                    );
                    shed += 1;
                }
            }
            assert!(scheduler.queue_depth() <= queue_capacity);
            let ticks = stats.ticks.get();
            while stats.ticks.get() < ticks + 2 && (stats.served.get() as usize) < accepted.len() {
                std::thread::yield_now();
            }
        }
        assert!(shed > 0, "a 256-step stream outlived seven submits");
        assert_eq!(stats.rejected.get(), shed);
        let direct = direct_body(&long);
        for events in &accepted {
            assert_eq!(drain(events).0, direct);
        }
        scheduler.shutdown();
    }

    /// Two identical gpt2-small olive-4bit streams: enough weight work per
    /// tick that, at two threads, every tick runs its groups on the pool.
    /// The student and teacher disagree on three of the four steps, so a
    /// stream's bytes show which lane's logits went where.
    const SMALL_PAIR: &str = r#"{"family": "gpt2", "size": "small", "scheme": "olive-4bit",
        "prompt_tokens": 8, "max_new_tokens": 4}"#;

    /// Queues `n` copies of `text` and returns their receivers.
    fn enqueue_copies(core: &SchedCore, text: &str, n: usize) -> Vec<mpsc::Receiver<StreamEvent>> {
        (0..n).map(|_| enqueue(core, text)).collect()
    }

    /// Ticks `core` until it is idle at `threads` threads, returning the
    /// report of every tick that fed a flight.
    fn run_to_idle(core: &mut SchedCore, threads: usize) -> Vec<TickReport> {
        olive_runtime::with_threads(threads, || {
            let mut reports = Vec::new();
            while core.has_work() {
                let report = core.tick();
                if report.fed > 0 {
                    reports.push(report);
                }
            }
            reports
        })
    }

    /// Running a tick's groups side by side changes timing, never bytes:
    /// the gpt2-small pair streams the direct pipeline's bytes through the
    /// same forwards whether its groups run one after the other (one
    /// thread) or on the pool (two threads, every tick).
    #[test]
    fn parallel_groups_stream_the_bytes_of_sequential_ones() {
        let direct = direct_body(&gen_request(SMALL_PAIR));
        let mut forwards = Vec::new();
        for threads in [1usize, 2] {
            let mut core = core_with_config(SchedConfig::default());
            let receivers = enqueue_copies(&core, SMALL_PAIR, 2);
            let reports = run_to_idle(&mut core, threads);
            assert!(
                reports.iter().all(|r| r.parallel == (threads > 1)),
                "threads={threads}: {reports:?}"
            );
            forwards.push(reports.into_iter().map(|r| r.forwards).collect::<Vec<_>>());
            for rx in &receivers {
                assert_eq!(drain(rx).0, direct, "threads={threads}");
            }
        }
        assert_eq!(forwards[0], forwards[1]);
    }

    /// A group that panics on the pool fails its tick, not the scheduler.
    /// One flight's student store is left without pages, so the student
    /// group panics while the teacher group runs on the other lane. The
    /// tick re-throws, `fail_all` fails both streams and returns every
    /// page, and the next request streams its direct bytes.
    #[test]
    fn a_group_panicking_on_the_pool_fails_the_tick_and_recovers() {
        olive_runtime::with_threads(2, || {
            let mut core = core_with_config(SchedConfig::default());
            let receivers = enqueue_copies(&core, SMALL_PAIR, 2);
            assert_eq!(core.admit(2), 2);
            let cfg = core.flights[0].student.config;
            let page_floats = core.config.kv_page_floats;
            core.flights[0].student_kv =
                PagedKv::new(cfg.n_layers, cfg.d_model, page_floats, Vec::new());
            let tick = catch_unwind(AssertUnwindSafe(|| core.tick()));
            assert!(
                tick.is_err(),
                "the student group's panic must reach the tick"
            );
            core.fail_all();
            assert_eq!(core.pool.pages_used(), 0);
            for rx in &receivers {
                assert!(
                    rx.try_iter().any(|e| matches!(e, StreamEvent::Failed)),
                    "every stream is answered"
                );
            }
            let receivers = enqueue_copies(&core, SMALL_PAIR, 1);
            while core.has_work() {
                core.tick();
            }
            assert_eq!(
                drain(&receivers[0]).0,
                direct_body(&gen_request(SMALL_PAIR))
            );
        });
    }

    /// A tick dispatches its groups by the GEMMs' own work rule: every
    /// tick of the gpt2-small pair dispatches, and so does the tiny
    /// model's four-row prefill, but the tiny model's one-stream decode
    /// steps stay inline.
    #[test]
    fn tick_dispatch_follows_the_gemm_work_rule() {
        let mut core = core_with_config(SchedConfig::default());
        let _streams = enqueue_copies(&core, SMALL_PAIR, 2);
        let reports = run_to_idle(&mut core, 2);
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.parallel), "{reports:?}");

        let tiny = r#"{"scheme": "olive-4bit", "prompt_tokens": 4, "max_new_tokens": 3}"#;
        let mut core = core_with_config(SchedConfig::default());
        let _stream = enqueue_copies(&core, tiny, 1);
        let reports = run_to_idle(&mut core, 2);
        assert_eq!(reports.len(), 3);
        assert!(reports[0].parallel, "the prefill dispatches");
        assert!(reports[1..].iter().all(|r| !r.parallel), "{reports:?}");
    }

    /// Shutdown completes accepted streams instead of dropping them.
    #[test]
    fn shutdown_drains_accepted_streams() {
        let scheduler = DecodeScheduler::start(
            SchedConfig::default(),
            Arc::new(ModelCache::new()),
            Telemetry::detached(),
        );
        let req = gen_request(r#"{"scheme": "fp32", "prompt_tokens": 2, "max_new_tokens": 2}"#);
        let events = scheduler.submit(req.clone(), None).expect("queued");
        scheduler.shutdown();
        let (body, _) = drain(&events);
        assert_eq!(body, direct_body(&req));
    }
}
