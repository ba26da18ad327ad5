//! The scheme-keyed model cache: quantize-once, serve-many.
//!
//! The deployment model the paper's accelerator assumes is a model quantized
//! *once* and then served for millions of requests. This cache realises that
//! for the proxy pipelines. The expensive part of an `/v1/eval` — generating
//! the FP32 teacher and its calibrated task, which a miss does in
//! [`Pipeline::prepare_and_run`](olive_api::Pipeline::prepare_and_run) —
//! is computed once per (family, size, seed, batches, calibration, task)
//! and shared across every request and every scheme; a `/v1/generate`
//! preparation (teacher and prompt) once per (family, size, seed, prompt
//! length). Each preparation owns its quantized students
//! ([`PreparedEval::student`], [`PreparedGen::student`]), at most one per
//! registry scheme, so they are evicted with it. The fully rendered eval
//! response body is additionally cached per (preparation, scheme set,
//! weights-only) so a repeated request is answered without touching the
//! model at all.
//!
//! Correctness leans on determinism, not invalidation: a cache entry is a
//! pure function of its key (the runtime's bit-determinism contract), so a
//! hit can never serve a stale or divergent answer, and eviction (bounded
//! FIFO, [`FifoMap`]) is purely a memory-footprint concern.

use crate::protocol::{EvalRequest, GenerateRequest};
use olive_api::{ModelArtifact, PreparedEval, PreparedGen};
use olive_runtime::{lock_or_recover, FifoMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Most preparations kept alive in each of the eval (teacher, task) and
/// generate (teacher, prompt) maps.
pub const MAX_PREPARED: usize = 32;

/// Most rendered response bodies kept alive.
pub const MAX_RESPONSES: usize = 1024;

/// Shared cache of prepared models and rendered eval responses, optionally
/// backed by an on-disk artifact store (see [`ModelCache::with_artifact_dir`]).
pub struct ModelCache {
    prepared: Mutex<FifoMap<Arc<PreparedEval>>>,
    gen_prepared: Mutex<FifoMap<Arc<PreparedGen>>>,
    responses: Mutex<FifoMap<Arc<String>>>,
    /// Directory of `olive-prepare` snapshots consulted before computing a
    /// preparation in-process.
    artifact_dir: Option<PathBuf>,
    /// Snapshots successfully cold-started from `artifact_dir`.
    artifacts_loaded: AtomicU64,
}

impl Default for ModelCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelCache {
    /// An empty cache with the default bounds and no artifact store.
    pub fn new() -> Self {
        Self::with_artifact_dir(None)
    }

    /// An empty cache that, on a preparation miss, first consults `dir` for
    /// an `olive-prepare` snapshot of the requested cache key before falling
    /// back to in-process preparation.
    ///
    /// Cold-starting from a snapshot is *bit-identical* to preparing
    /// in-process (the artifact format preserves every `f32` bit pattern and
    /// the key pins all preparation inputs), so the artifact store is purely
    /// a latency/CPU optimisation — it can never change a served byte. An
    /// unreadable or corrupted snapshot is logged to stderr and treated as a
    /// miss; serving always proceeds.
    pub fn with_artifact_dir(artifact_dir: Option<PathBuf>) -> Self {
        ModelCache {
            prepared: Mutex::new(FifoMap::new(MAX_PREPARED)),
            gen_prepared: Mutex::new(FifoMap::new(MAX_PREPARED)),
            responses: Mutex::new(FifoMap::new(MAX_RESPONSES)),
            artifact_dir,
            artifacts_loaded: AtomicU64::new(0),
        }
    }

    /// Looks `key` up in the artifact store. The preparation rebuilt from a
    /// hit carries the snapshot's quantized students (the per-scheme
    /// admission work `olive-prepare` already did offline).
    fn load_artifact(&self, key: &str) -> Option<ModelArtifact> {
        let dir = self.artifact_dir.as_deref()?;
        match ModelArtifact::load_from_dir(dir, key) {
            Ok(Some(artifact)) => {
                self.artifacts_loaded.fetch_add(1, Ordering::Relaxed);
                Some(artifact)
            }
            Ok(None) => None,
            Err(e) => {
                // A bad snapshot must never take serving down with it: log,
                // fall back to in-process preparation.
                eprintln!("olive-serve: artifact for key \"{key}\" rejected: {e}");
                None
            }
        }
    }

    /// Snapshots cold-started from the artifact store so far — the
    /// `cached_artifacts` gauge on `/healthz`.
    pub fn artifacts_loaded(&self) -> u64 {
        self.artifacts_loaded.load(Ordering::Relaxed)
    }

    /// The cached `/v1/eval` response body for `req`, if one is resident —
    /// a lookup only, never a computation.
    pub fn cached_eval_body(&self, req: &EvalRequest) -> Option<Arc<String>> {
        lock_or_recover(&self.responses).get(&req.response_key())
    }

    /// The rendered `/v1/eval` response body for `req`, computing and caching
    /// on miss.
    ///
    /// Locks are never held across model computation; two racing misses on
    /// the same key both compute and produce byte-identical bodies (the
    /// determinism contract), so the race is a wasted computation, never a
    /// wrong answer.
    pub fn eval_body(&self, req: &EvalRequest) -> Arc<String> {
        if let Some(hit) = self.cached_eval_body(req) {
            return hit;
        }
        let pipeline = req.pipeline();
        let prepared_key = req.prepared_key();
        let hit = lock_or_recover(&self.prepared).get(&prepared_key);
        let report = match hit {
            Some(prepared) => pipeline.run_prepared(&prepared),
            None => {
                // A preparation made here scores against calibration's
                // teacher logits. It is cached after the run: an identical
                // miss racing this one prepares again, to the same bytes.
                let loaded = self
                    .load_artifact(&prepared_key)
                    .and_then(|a| a.prepared_eval());
                let (prepared, report) = match loaded {
                    Some(prepared) => {
                        let report = pipeline.run_prepared(&prepared);
                        (prepared, report)
                    }
                    None => pipeline.prepare_and_run(),
                };
                lock_or_recover(&self.prepared).insert(prepared_key, Arc::new(prepared));
                report
            }
        };
        // Wall times are the lone nondeterministic report field; serving
        // strips them so responses are byte-stable (crate determinism
        // contract).
        let body = Arc::new(report.without_wall_times().to_json());
        lock_or_recover(&self.responses).insert(req.response_key(), Arc::clone(&body));
        body
    }

    /// The prepared teacher, prompt and students for `req`, computing and
    /// caching on miss — the reusable part of every `/v1/generate`, shared
    /// across schemes and across the decode scheduler's concurrent sessions.
    pub fn gen_prepared(&self, req: &GenerateRequest) -> Arc<PreparedGen> {
        let key = req.prepared_key();
        if let Some(hit) = lock_or_recover(&self.gen_prepared).get(&key) {
            return hit;
        }
        // Lock never held across the computation (see eval_body).
        let p = self
            .load_artifact(&key)
            .and_then(|a| a.prepared_gen())
            .map_or_else(
                || Arc::new(req.pipeline().prepare_generation(req.prompt_tokens)),
                Arc::new,
            );
        lock_or_recover(&self.gen_prepared).insert(key, Arc::clone(&p));
        p
    }

    /// (prepared eval models, prepared generation models, cached response
    /// bodies) currently held — surfaced by `/healthz`.
    pub fn sizes(&self) -> (usize, usize, usize) {
        (
            lock_or_recover(&self.prepared).len(),
            lock_or_recover(&self.gen_prepared).len(),
            lock_or_recover(&self.responses).len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_api::{GenOptions, JsonValue};

    /// Decodes one `/v1/generate` request end to end on one session:
    /// fetches (or computes and caches) the prepared teacher + prompt, then
    /// decodes through [`Pipeline::generation`](olive_api::Pipeline::generation)
    /// and renders the wall-time-stripped report, the bytes a stream's
    /// chunks concatenate to. The server's `/v1/generate` decodes through
    /// the continuous-batching scheduler instead, to the same bytes per
    /// stream.
    fn generate_stream(cache: &ModelCache, req: &GenerateRequest) -> String {
        let prepared = cache.gen_prepared(req);
        req.pipeline()
            .generation(
                GenOptions::new()
                    .prepared(&prepared)
                    .max_new_tokens(req.max_new_tokens),
            )
            .without_wall_times()
            .to_json()
    }

    fn request(text: &str) -> EvalRequest {
        EvalRequest::decode(&JsonValue::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn repeated_requests_share_one_body_allocation() {
        let cache = ModelCache::new();
        let req = request(r#"{"scheme": "fp32", "batches": 2, "oversample": 2}"#);
        let a = cache.eval_body(&req);
        let b = cache.eval_body(&req);
        assert!(Arc::ptr_eq(&a, &b), "second request must be a cache hit");
        assert_eq!(cache.sizes(), (1, 0, 1));
    }

    #[test]
    fn schemes_share_the_prepared_teacher() {
        let cache = ModelCache::new();
        let a = request(r#"{"scheme": "fp32", "batches": 2, "oversample": 2}"#);
        let b = request(r#"{"scheme": "uniform:8", "batches": 2, "oversample": 2}"#);
        let _ = cache.eval_body(&a);
        let _ = cache.eval_body(&b);
        // Two response bodies, one prepared teacher.
        assert_eq!(cache.sizes(), (1, 0, 2));
    }

    #[test]
    fn generate_streams_share_the_prepared_teacher_across_schemes() {
        let cache = ModelCache::new();
        let decode = |text: &str| {
            GenerateRequest::decode(&JsonValue::parse(text).unwrap()).expect("request decodes")
        };
        let olive = decode(r#"{"scheme": "olive-4bit", "max_new_tokens": 3, "prompt_tokens": 4}"#);
        let fp32 = decode(r#"{"scheme": "fp32", "max_new_tokens": 3, "prompt_tokens": 4}"#);
        let streamed = generate_stream(&cache, &olive);
        let _ = generate_stream(&cache, &fp32);
        // One shared generation preparation, no body caching.
        assert_eq!(cache.sizes(), (0, 1, 0));
        // Served bytes equal the direct pipeline's rendering.
        let p = olive.pipeline();
        let prepared = p.prepare_generation(olive.prompt_tokens);
        let direct = p
            .generation(
                GenOptions::new()
                    .prepared(&prepared)
                    .max_new_tokens(olive.max_new_tokens),
            )
            .without_wall_times()
            .to_json();
        assert_eq!(streamed, direct);
    }

    #[test]
    fn cached_bodies_match_a_direct_pipeline_run() {
        let cache = ModelCache::new();
        let req = request(r#"{"scheme": "olive-4bit", "seed": 3, "batches": 2, "oversample": 2}"#);
        let served = cache.eval_body(&req);
        let direct = req.pipeline().run().without_wall_times().to_json();
        assert_eq!(*served.as_str(), direct);
    }

    #[test]
    fn artifact_dir_cold_start_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("olive-cache-art-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let req = request(r#"{"scheme": "olive-4bit", "seed": 9, "batches": 2, "oversample": 2}"#);

        // Reference: prepare in-process.
        let warm = ModelCache::new();
        let want = warm.eval_body(&req);

        // Snapshot the preparation offline, then cold-start a fresh cache
        // from the artifact store only.
        let artifact =
            olive_api::ModelArtifact::eval(req.prepared_key(), "BERT", &req.pipeline().prepare());
        artifact.save(&dir).unwrap();
        let cold = ModelCache::with_artifact_dir(Some(dir.clone()));
        let got = cold.eval_body(&req);
        assert_eq!(
            *got, *want,
            "cold-started bytes must match in-process bytes"
        );
        assert_eq!(cold.artifacts_loaded(), 1);
        // The preparation is now cached: a second request is a memory hit.
        let _ = cold.eval_body(&req);
        assert_eq!(cold.artifacts_loaded(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gen_artifact_seeds_prepared_and_students() {
        let dir = std::env::temp_dir().join(format!("olive-cache-gen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let req = GenerateRequest::decode(
            &JsonValue::parse(
                r#"{"scheme": "olive-4bit", "family": "gpt2", "prompt_tokens": 4, "max_new_tokens": 3}"#,
            )
            .unwrap(),
        )
        .unwrap();

        let warm = ModelCache::new();
        let want = generate_stream(&warm, &req);

        let artifact = olive_api::ModelArtifact::gen(
            req.prepared_key(),
            "GPT-2",
            &req.pipeline().prepare_generation(req.prompt_tokens),
        )
        .with_students(std::slice::from_ref(&req.scheme));
        artifact.save(&dir).unwrap();

        let cold = ModelCache::with_artifact_dir(Some(dir.clone()));
        let prepared = cold.gen_prepared(&req);
        assert_eq!(cold.artifacts_loaded(), 1);
        // The preparation rebuilt from the snapshot hands out one student
        // per scheme, whose weights equal a fresh quantization bit for bit.
        assert!(Arc::ptr_eq(&prepared, &cold.gen_prepared(&req)));
        let student = prepared.student(&req.scheme);
        assert!(Arc::ptr_eq(&student, &prepared.student(&req.scheme)));
        let direct = prepared
            .teacher
            .quantize_weights(req.scheme.build().as_ref());
        assert_eq!(student.embedding.data(), direct.embedding.data());
        assert_eq!(student.layers[0].wqkv.data(), direct.layers[0].wqkv.data());
        let got = generate_stream(&cold, &req);
        assert_eq!(
            got, want,
            "cold-started stream must match in-process stream"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_artifacts_fall_back_to_in_process() {
        let dir = std::env::temp_dir().join(format!("olive-cache-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let req = request(r#"{"scheme": "fp32", "batches": 2, "oversample": 2}"#);
        std::fs::write(
            dir.join(olive_api::ModelArtifact::file_name(&req.prepared_key())),
            b"definitely not an artifact",
        )
        .unwrap();
        let cache = ModelCache::with_artifact_dir(Some(dir.clone()));
        let served = cache.eval_body(&req);
        let direct = req.pipeline().run().without_wall_times().to_json();
        assert_eq!(*served.as_str(), direct);
        assert_eq!(cache.artifacts_loaded(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
