//! The builder-style evaluation pipeline.
//!
//! One [`Pipeline`] describes a complete accuracy experiment — a proxy model,
//! an evaluation task, a set of schemes addressed by spec string — and
//! [`Pipeline::run`] produces a unified [`EvalReport`] with every metric the
//! paper's tables report (fidelity/agreement accuracy proxies, the SQuAD-style
//! per-position agreement, pseudo-perplexity), per-scheme storage widths, the
//! workload's GEMM profile and wall-times, renderable as a plain-text
//! [`Table`] or as zero-dependency JSON.
//!
//! ```
//! use olive_api::{ModelFamily, Pipeline};
//!
//! let report = Pipeline::new(ModelFamily::Bert.tiny())
//!     .schemes(["fp32", "olive-4bit"])
//!     .seed(42)
//!     .batches(2)
//!     .run();
//! assert_eq!(report.results.len(), 2);
//! assert_eq!(report.result("fp32").unwrap().fidelity, 1.0);
//! ```

use crate::json::JsonValue;
use crate::scheme::Scheme;
use olive_harness::report::Table;
use olive_models::{
    eval_scores, student_scores, teacher_logits, EngineConfig, EvalTask, OutlierSeverity,
    TinyTransformer,
};
use olive_runtime::{lock_or_recover, FifoMap};
use olive_tensor::rng::Rng;
use olive_tensor::Tensor;
use std::sync::{Arc, Mutex};

/// Default number of evaluation sequences per task (what the paper-table
/// harnesses use).
pub const DEFAULT_BATCHES: usize = 24;

/// Default oversampling factor of the confidence-filtered calibration.
pub const DEFAULT_OVERSAMPLE: usize = 6;

/// The proxy-model families the pipeline can instantiate.
///
/// Encoder-style families (BERT/BART) get transformer-severity planted
/// outliers; decoder-style LLM families (GPT-2/BLOOM/OPT) get the stronger
/// LLM-severity outliers (paper Fig. 2 / Tbl. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Encoder-only (BERT-class).
    Bert,
    /// Encoder-decoder (BART-class).
    Bart,
    /// Decoder-only LLM (GPT-2 class).
    Gpt2,
    /// Decoder-only LLM (BLOOM class).
    Bloom,
    /// Decoder-only LLM (OPT class).
    Opt,
}

impl ModelFamily {
    /// Every family, in registry order.
    pub fn all() -> [ModelFamily; 5] {
        [
            ModelFamily::Bert,
            ModelFamily::Bart,
            ModelFamily::Gpt2,
            ModelFamily::Bloom,
            ModelFamily::Opt,
        ]
    }

    /// Parses a family from its wire name (`"bert"`, `"bart"`, `"gpt2"`,
    /// `"bloom"`, `"opt"`; case-insensitive, `"gpt-2"` accepted) — the
    /// untrusted-input counterpart of matching on the enum directly, used by
    /// the `olive-serve` request decoder.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown family and the valid names.
    pub fn parse(name: &str) -> Result<ModelFamily, String> {
        match name.to_ascii_lowercase().as_str() {
            "bert" => Ok(ModelFamily::Bert),
            "bart" => Ok(ModelFamily::Bart),
            "gpt2" | "gpt-2" => Ok(ModelFamily::Gpt2),
            "bloom" => Ok(ModelFamily::Bloom),
            "opt" => Ok(ModelFamily::Opt),
            _ => Err(format!(
                "unknown model family '{name}' (expected one of: bert, bart, gpt2, bloom, opt)"
            )),
        }
    }

    /// The family's display label.
    pub fn label(self) -> &'static str {
        match self {
            ModelFamily::Bert => "BERT",
            ModelFamily::Bart => "BART",
            ModelFamily::Gpt2 => "GPT-2",
            ModelFamily::Bloom => "BLOOM",
            ModelFamily::Opt => "OPT",
        }
    }

    /// The outlier severity planted into this family's teachers.
    pub fn severity(self) -> OutlierSeverity {
        match self {
            ModelFamily::Bert | ModelFamily::Bart => OutlierSeverity::transformer(),
            _ => OutlierSeverity::llm(),
        }
    }

    /// A tiny proxy model of this family (unit-test sized).
    pub fn tiny(self) -> ModelSpec {
        self.sized(EngineConfig::tiny())
    }

    /// A small proxy model of this family (the harness default).
    pub fn small(self) -> ModelSpec {
        self.sized(EngineConfig::small())
    }

    /// A proxy model of this family with an explicit architecture.
    pub fn sized(self, config: EngineConfig) -> ModelSpec {
        ModelSpec {
            name: self.label().to_string(),
            severity: self.severity(),
            config,
        }
    }
}

/// A fully-specified proxy model: name, planted-outlier severity and
/// architecture. Usually produced by a [`ModelFamily`] constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Display name used in reports.
    pub name: String,
    /// Outlier severity of the generated teacher.
    pub severity: OutlierSeverity,
    /// Proxy-transformer architecture.
    pub config: EngineConfig,
}

impl ModelSpec {
    /// Renames the spec (e.g. `ModelFamily::Gpt2.small().named("GPT2-XL")`).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

/// How the evaluation inputs are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Calibration {
    /// Oversample random sequences and keep the ones the teacher decides with
    /// the highest margin — mirrors the confident decisions of fine-tuned
    /// task models and is what the paper-table harnesses use.
    Confident {
        /// Candidate-to-kept oversampling factor.
        oversample: usize,
    },
    /// Plain random sequences, no filtering.
    Random,
}

impl Calibration {
    /// The default confidence-filtered calibration.
    pub fn confident(oversample: usize) -> Self {
        Calibration::Confident { oversample }
    }

    /// Unfiltered random inputs.
    pub fn random() -> Self {
        Calibration::Random
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::Confident {
            oversample: DEFAULT_OVERSAMPLE,
        }
    }
}

/// The GEMM workload of one forward pass of the proxy model (what the paper's
/// performance models consume per inference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmProfile {
    /// Matrix multiplications per forward pass (projections, per-head
    /// attention GEMMs, LM head).
    pub gemms_per_forward: u64,
    /// Multiply-accumulate operations per forward pass.
    pub macs_per_forward: u64,
}

impl GemmProfile {
    /// Computes the profile of an architecture over `seq_len` tokens.
    ///
    /// It counts the paper's workload, the GEMMs an accelerator runs for
    /// one forward, two attention GEMMs per head among them; not the CPU
    /// kernel calls of [`TinyTransformer::forward`], whose attention reads
    /// keys and values one query row at a time and runs no GEMM. Every
    /// `/v1/eval` body serves these numbers as `gemm`.
    pub fn of(config: &EngineConfig) -> Self {
        let seq = config.seq_len as u64;
        let d = config.d_model as u64;
        let ff = config.d_ff as u64;
        let heads = config.n_heads as u64;
        let dh = config.head_dim() as u64;
        let layers = config.n_layers as u64;
        let vocab = config.vocab as u64;
        // Per layer: QKV + output projections, both FFN GEMMs, and two
        // seq×seq×head_dim attention GEMMs per head; plus the tied LM head.
        let per_layer = seq * d * 3 * d
            + seq * d * d
            + seq * d * ff
            + seq * ff * d
            + heads * 2 * seq * seq * dh;
        GemmProfile {
            gemms_per_forward: layers * (4 + 2 * heads) + 1,
            macs_per_forward: layers * per_layer + seq * d * vocab,
        }
    }
}

/// Per-scheme outcome of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// The registry spec string ("olive-4bit", "uniform:8@per-row", …).
    pub spec: String,
    /// The quantizer's display name ("OliVe-4bit", "int8", …).
    pub name: String,
    /// Average storage bits per element.
    pub bits_per_element: f64,
    /// Arithmetic precision in bits (GOBO computes FP16).
    pub compute_bits: f64,
    /// Whether activations were quantized in this run (pipeline setting AND
    /// scheme capability).
    pub activations_quantized: bool,
    /// Mean logit cosine fidelity against the FP32 teacher (1.0 = lossless).
    pub fidelity: f64,
    /// Last-position argmax agreement with the teacher.
    pub agreement: f64,
    /// All-position argmax agreement (SQuAD-style EM proxy).
    pub position_agreement: f64,
    /// Pseudo-perplexity against the teacher's argmax labels.
    pub perplexity: f64,
    /// Wall time of this scheme's own work, in seconds: quantizing its
    /// weights (or reusing its cached student) and its student forwards
    /// and scores. The teacher's forwards are shared by every scheme of a
    /// run, and no scheme's time includes them.
    pub wall_time_s: f64,
}

/// The unified result of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Model display name.
    pub model: String,
    /// Task name.
    pub task: String,
    /// RNG seed the teacher and task were generated from.
    pub seed: u64,
    /// Number of evaluation sequences.
    pub batches: usize,
    /// Whether the run requested activation quantization.
    pub quantize_activations: bool,
    /// GEMM workload of one forward pass.
    pub gemm: GemmProfile,
    /// One entry per scheme, in the order they were configured.
    pub results: Vec<SchemeResult>,
}

impl EvalReport {
    /// Looks up a scheme's result by its spec string.
    pub fn result(&self, spec: &str) -> Option<&SchemeResult> {
        self.results.iter().find(|r| r.spec == spec)
    }

    /// The report with every `wall_time_s` zeroed — everything else in a
    /// report is bit-deterministic in (model, task, seed, batches,
    /// calibration, schemes), wall time is the lone measurement. Serving
    /// responses are rendered from this form so an `/v1/eval` answer is
    /// byte-identical to a direct [`Pipeline::run`] at any batch size and
    /// thread count (the `olive-serve` determinism contract).
    pub fn without_wall_times(mut self) -> Self {
        for r in &mut self.results {
            r.wall_time_s = 0.0;
        }
        self
    }

    /// Renders the report as a plain-text [`Table`].
    pub fn table(&self) -> Table {
        let mut table = Table::new(vec![
            "Scheme".into(),
            "Name".into(),
            "Bits".into(),
            "Acts".into(),
            "Fidelity%".into(),
            "Agree%".into(),
            "PosAgree%".into(),
            "PseudoPPL".into(),
            "Time(s)".into(),
        ]);
        for r in &self.results {
            table.row(vec![
                r.spec.clone(),
                r.name.clone(),
                format!("{:.1}", r.bits_per_element),
                if r.activations_quantized { "yes" } else { "no" }.into(),
                format!("{:.2}", 100.0 * r.fidelity),
                format!("{:.2}", 100.0 * r.agreement),
                format!("{:.2}", 100.0 * r.position_agreement),
                format!("{:.2}", r.perplexity),
                format!("{:.2}", r.wall_time_s),
            ]);
        }
        table
    }

    /// Renders the report as machine-readable JSON (zero-dependency; see
    /// [`crate::json`]).
    pub fn to_json(&self) -> String {
        let results: Vec<JsonValue> = self
            .results
            .iter()
            .map(|r| {
                JsonValue::object(vec![
                    ("spec", JsonValue::Str(r.spec.clone())),
                    ("name", JsonValue::Str(r.name.clone())),
                    (
                        "bits_per_element",
                        JsonValue::num_or_null(r.bits_per_element),
                    ),
                    ("compute_bits", JsonValue::num_or_null(r.compute_bits)),
                    (
                        "activations_quantized",
                        JsonValue::Bool(r.activations_quantized),
                    ),
                    ("fidelity", JsonValue::num_or_null(r.fidelity)),
                    ("agreement", JsonValue::num_or_null(r.agreement)),
                    (
                        "position_agreement",
                        JsonValue::num_or_null(r.position_agreement),
                    ),
                    ("perplexity", JsonValue::num_or_null(r.perplexity)),
                    ("wall_time_s", JsonValue::num_or_null(r.wall_time_s)),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("model", JsonValue::Str(self.model.clone())),
            ("task", JsonValue::Str(self.task.clone())),
            ("seed", JsonValue::UInt(self.seed)),
            ("batches", JsonValue::Int(self.batches as i64)),
            (
                "quantize_activations",
                JsonValue::Bool(self.quantize_activations),
            ),
            (
                "gemm",
                JsonValue::object(vec![
                    (
                        "gemms_per_forward",
                        JsonValue::Int(self.gemm.gemms_per_forward as i64),
                    ),
                    (
                        "macs_per_forward",
                        JsonValue::Int(self.gemm.macs_per_forward as i64),
                    ),
                ]),
            ),
            ("results", JsonValue::Array(results)),
        ])
        .render()
    }
}

/// The quantize-once students of one preparation, keyed by scheme spec.
///
/// Quantizing a teacher is pure in (teacher, scheme), so a student is built
/// on the first lookup and reused by every later run over the same
/// preparation. At most one student per registry scheme
/// ([`Scheme::all`]`().len()`) stays resident, oldest out first. Clones share
/// one cache. It is a lookup table only, never iterated into output, so
/// eviction costs a re-quantization, never a byte.
#[derive(Debug, Clone)]
pub(crate) struct StudentCache(Arc<Mutex<FifoMap<Arc<TinyTransformer>>>>);

impl StudentCache {
    pub(crate) fn new() -> Self {
        StudentCache(Arc::new(Mutex::new(FifoMap::new(Scheme::all().len()))))
    }

    /// The student of `teacher` under `scheme`, quantized on a miss outside
    /// the lock. Racing builders may each keep their own `Arc`; both hold
    /// the same bits.
    pub(crate) fn get(&self, teacher: &TinyTransformer, scheme: &Scheme) -> Arc<TinyTransformer> {
        let spec = scheme.to_string();
        if let Some(hit) = lock_or_recover(&self.0).get(&spec) {
            return hit;
        }
        let student = Arc::new(teacher.quantize_weights(scheme.build().as_ref()));
        lock_or_recover(&self.0).insert(spec, Arc::clone(&student));
        student
    }

    /// Loads already-quantized `(spec, student)` pairs, such as an
    /// artifact's.
    pub(crate) fn seed(&self, students: &[(String, TinyTransformer)]) {
        let mut cache = lock_or_recover(&self.0);
        for (spec, student) in students {
            cache.insert(spec.clone(), Arc::new(student.clone()));
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        lock_or_recover(&self.0).len()
    }
}

/// A generated teacher model plus its evaluation task — the reusable part of
/// a pipeline run, exposed for studies that transform weights directly
/// instead of going through a registry scheme (the Fig. 3 clipping/pruning
/// motivation study).
///
/// It holds the teacher, the task and the quantize-once students of every
/// run over it (see [`student`](Self::student)), and not the teacher's
/// logits of the task: [`Pipeline::run_prepared`] recomputes those once per
/// run. Keeping them would grow every preparation a serving cache holds by
/// its task's logits (32 KiB for BERT-tiny at 8 inputs).
#[derive(Debug, Clone)]
pub struct PreparedEval {
    /// The FP32 teacher.
    pub teacher: TinyTransformer,
    /// The evaluation inputs.
    pub task: EvalTask,
    pub(crate) students: StudentCache,
}

impl PreparedEval {
    /// Wraps a teacher and task with an empty student cache.
    pub fn new(teacher: TinyTransformer, task: EvalTask) -> Self {
        PreparedEval {
            teacher,
            task,
            students: StudentCache::new(),
        }
    }

    /// The teacher quantized under `scheme`: built on the first lookup (or
    /// seeded from an artifact) and reused afterwards. At most
    /// [`Scheme::all`]`().len()` students stay resident, oldest out first.
    pub fn student(&self, scheme: &Scheme) -> Arc<TinyTransformer> {
        self.students.get(&self.teacher, scheme)
    }

    /// Fidelity of a student whose weights are `f(name, weight)` (activations
    /// stay FP32), against the teacher.
    pub fn fidelity_of_weight_transform<F>(&self, f: F) -> f64
    where
        F: Fn(&str, &Tensor) -> Tensor + Sync,
    {
        let student = self.teacher.map_weights(f);
        eval_scores(&self.teacher, &student, &self.task, None).fidelity
    }
}

/// Builder-style evaluation pipeline over the scheme registry.
///
/// Defaults: task `"eval"`, seed 0, [`DEFAULT_BATCHES`] inputs,
/// confidence-filtered calibration at [`DEFAULT_OVERSAMPLE`]×, activations
/// quantized (for schemes that support it) — the configuration of the paper's
/// accuracy tables.
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub(crate) model: ModelSpec,
    pub(crate) task: String,
    pub(crate) schemes: Vec<Scheme>,
    pub(crate) seed: u64,
    pub(crate) batches: usize,
    pub(crate) calibration: Calibration,
    pub(crate) quantize_activations: bool,
}

impl Pipeline {
    /// Starts a pipeline over a proxy model.
    pub fn new(model: ModelSpec) -> Self {
        Pipeline {
            model,
            task: "eval".to_string(),
            schemes: Vec::new(),
            seed: 0,
            batches: DEFAULT_BATCHES,
            calibration: Calibration::default(),
            quantize_activations: true,
        }
    }

    /// Names the evaluation task (shows up in reports; also part of no RNG
    /// stream, so renaming never changes results).
    pub fn task(mut self, name: impl Into<String>) -> Self {
        self.task = name.into();
        self
    }

    /// Adds schemes by spec string, in order.
    ///
    /// # Panics
    ///
    /// Panics with the parse error if a spec is malformed, and on duplicate
    /// schemes (a scheme silently evaluated twice doubles a run's cost and
    /// almost always indicates a typo in the comparison set) — spec strings
    /// in driver code are programmer input. Use [`Scheme::parse`] +
    /// [`Pipeline::scheme_set`] to handle untrusted input, validating for
    /// duplicates first.
    pub fn schemes<I, S>(mut self, specs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for spec in specs {
            match Scheme::parse(spec.as_ref()) {
                Ok(s) => self.push_scheme(s),
                Err(e) => panic!("{e}"),
            }
        }
        self
    }

    /// Adds pre-parsed schemes, in order.
    ///
    /// # Panics
    ///
    /// Panics on duplicate schemes, like [`Pipeline::schemes`].
    pub fn scheme_set<I: IntoIterator<Item = Scheme>>(mut self, schemes: I) -> Self {
        for scheme in schemes {
            self.push_scheme(scheme);
        }
        self
    }

    fn push_scheme(&mut self, scheme: Scheme) {
        assert!(
            !self.schemes.contains(&scheme),
            "duplicate scheme '{scheme}' in the pipeline's comparison set"
        );
        self.schemes.push(scheme);
    }

    /// Sets the RNG seed of the teacher + task generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of evaluation sequences.
    pub fn batches(mut self, n: usize) -> Self {
        self.batches = n;
        self
    }

    /// Sets how evaluation inputs are selected.
    pub fn calibrate(mut self, calibration: Calibration) -> Self {
        self.calibration = calibration;
        self
    }

    /// Quantizes weights only; activations stay FP32 (the Tbl. 7/8 setting).
    pub fn weights_only(mut self) -> Self {
        self.quantize_activations = false;
        self
    }

    /// Generates the teacher and evaluation task without running any scheme.
    pub fn prepare(&self) -> PreparedEval {
        self.prepare_with_logits().0
    }

    /// The preparation, plus the teacher's logits of every task input when
    /// calibration computed them: a confident calibration runs the teacher
    /// on every candidate, a random one runs no forward at all.
    fn prepare_with_logits(&self) -> (PreparedEval, Option<Vec<Tensor>>) {
        let mut rng = Rng::seed_from(self.seed);
        let teacher = TinyTransformer::generate(self.model.config, self.model.severity, &mut rng);
        let (task, logits) = match self.calibration {
            Calibration::Confident { oversample } => {
                let (task, logits) = EvalTask::generate_confident_with_logits(
                    &self.task,
                    &teacher,
                    self.batches,
                    oversample,
                    &mut rng,
                );
                (task, Some(logits))
            }
            Calibration::Random => (
                EvalTask::generate(&self.task, &self.model.config, self.batches, &mut rng),
                None,
            ),
        };
        (PreparedEval::new(teacher, task), logits)
    }

    /// Runs every configured scheme and collects the unified report.
    pub fn run(&self) -> EvalReport {
        self.prepare_and_run().1
    }

    /// Prepares, runs every configured scheme, and returns the preparation
    /// with the report, for a cache to keep the preparation.
    ///
    /// A confident calibration has already run the teacher on every kept
    /// input, so each scheme is scored against those logits and the run adds
    /// only student forwards. The logits are dropped with the run; the
    /// returned preparation holds what [`prepare`](Self::prepare) returns.
    pub fn prepare_and_run(&self) -> (PreparedEval, EvalReport) {
        let (prepared, logits) = self.prepare_with_logits();
        let logits = logits.unwrap_or_else(|| teacher_logits(&prepared.teacher, &prepared.task));
        let report = self.report(&prepared, &logits);
        (prepared, report)
    }

    /// Runs every configured scheme against an already-[`prepare`](Self::prepare)d
    /// teacher + task, producing the same report [`run`](Self::run) would —
    /// bit-identically, since preparation is deterministic in the pipeline's
    /// (model, seed, batches, calibration). This is the quantize-once,
    /// serve-many entry point: `olive-serve`'s model cache prepares each
    /// (model, seed, batches) once and reuses it across requests.
    ///
    /// The teacher half of the scores (its logits of every task input) runs
    /// once per call and is shared by every scheme, which then costs one
    /// student forward per input.
    pub fn run_prepared(&self, prepared: &PreparedEval) -> EvalReport {
        self.report(prepared, &teacher_logits(&prepared.teacher, &prepared.task))
    }

    /// The report of every configured scheme, each scored against
    /// `teacher_logits`, the teacher's logits of `prepared.task`.
    fn report(&self, prepared: &PreparedEval, teacher_logits: &[Tensor]) -> EvalReport {
        let results = self
            .schemes
            .iter()
            .map(|scheme| self.run_scheme(prepared, teacher_logits, scheme))
            .collect();
        EvalReport {
            model: self.model.name.clone(),
            task: self.task.clone(),
            seed: self.seed,
            batches: self.batches,
            quantize_activations: self.quantize_activations,
            gemm: GemmProfile::of(&self.model.config),
            results,
        }
    }

    fn run_scheme(
        &self,
        prepared: &PreparedEval,
        teacher_logits: &[Tensor],
        scheme: &Scheme,
    ) -> SchemeResult {
        let quantizer = scheme.build();
        // olive-lint: allow(no-wallclock-in-deterministic-paths): feeds only wall_time_s, which without_wall_times strips before any byte comparison
        let start = std::time::Instant::now();
        // Quantize-once: the student for this spec is cached on the
        // preparation, so repeated runs (the serving cache's steady state)
        // pay only the eval.
        let student = prepared.student(scheme);
        let quantize_acts = self.quantize_activations && quantizer.quantizes_activations();
        let act_q = quantize_acts.then_some(quantizer.as_ref());
        let scores = student_scores(teacher_logits, &student, &prepared.task, act_q);
        SchemeResult {
            spec: scheme.to_string(),
            name: quantizer.name().to_string(),
            bits_per_element: quantizer.bits_per_element(),
            compute_bits: quantizer.compute_bits(),
            activations_quantized: quantize_acts,
            fidelity: scores.fidelity,
            agreement: scores.agreement,
            position_agreement: scores.position_agreement,
            perplexity: scores.perplexity,
            wall_time_s: start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pipeline() -> Pipeline {
        Pipeline::new(ModelFamily::Bert.tiny())
            .task("unit")
            .seed(11)
            .batches(4)
            .calibrate(Calibration::confident(2))
    }

    #[test]
    fn fp32_scheme_is_lossless() {
        let report = tiny_pipeline().schemes(["fp32"]).run();
        let r = report.result("fp32").unwrap();
        assert_eq!(r.fidelity, 1.0);
        assert_eq!(r.agreement, 1.0);
        assert_eq!(r.position_agreement, 1.0);
        assert!(r.perplexity < 10.0);
    }

    #[test]
    fn olive_beats_uniform_int4_through_the_pipeline() {
        let report = tiny_pipeline().schemes(["olive-4bit", "uniform:4"]).run();
        let olive = report.result("olive-4bit").unwrap();
        let int4 = report.result("uniform:4").unwrap();
        assert!(olive.fidelity > int4.fidelity);
        assert!(olive.perplexity < int4.perplexity);
    }

    #[test]
    fn weights_only_disables_activation_quantization() {
        let report = tiny_pipeline()
            .schemes(["olive-4bit", "gobo"])
            .weights_only()
            .run();
        assert!(report.results.iter().all(|r| !r.activations_quantized));
        // GOBO never quantizes activations even when asked to.
        let with_acts = tiny_pipeline().schemes(["gobo"]).run();
        assert!(!with_acts.result("gobo").unwrap().activations_quantized);
    }

    #[test]
    fn run_prepared_reuses_cached_students() {
        let pipeline = tiny_pipeline().schemes(["olive-4bit", "uniform:4"]);
        let prepared = pipeline.prepare();
        assert_eq!(prepared.students.len(), 0);
        let first = pipeline.run_prepared(&prepared);
        assert_eq!(prepared.students.len(), 2);
        let second = pipeline.run_prepared(&prepared);
        // A second run must hit the cache (no new students) and reproduce
        // the report byte-for-byte once wall times are stripped.
        assert_eq!(prepared.students.len(), 2);
        assert_eq!(
            first.without_wall_times().to_json(),
            second.without_wall_times().to_json()
        );
    }

    #[test]
    fn students_past_the_bound_stay_bounded_and_keep_the_bytes() {
        // Two specs more than the registry holds: each pass evicts students
        // it needs again later, and re-quantizes them to the bytes of a
        // fresh run.
        let bound = Scheme::all().len();
        let pipeline = Pipeline::new(ModelFamily::Bert.tiny())
            .seed(3)
            .batches(2)
            .calibrate(Calibration::confident(2))
            .scheme_set(Scheme::all())
            .schemes(["olive-4bit@per-row", "uniform:4@per-row"]);
        let prepared = pipeline.prepare();
        let direct = pipeline.run().without_wall_times().to_json();
        for _ in 0..2 {
            let served = pipeline.run_prepared(&prepared);
            assert_eq!(served.results.len(), bound + 2);
            assert_eq!(served.without_wall_times().to_json(), direct);
            assert_eq!(prepared.students.len(), bound);
        }
    }

    #[test]
    fn cached_students_match_fresh_quantization() {
        let pipeline = tiny_pipeline().schemes(["olive-4bit"]);
        let cached_run = {
            let prepared = pipeline.prepare();
            pipeline.run_prepared(&prepared);
            pipeline.run_prepared(&prepared) // second run: cache hit
        };
        let fresh_run = pipeline.run();
        assert_eq!(
            cached_run.without_wall_times().to_json(),
            fresh_run.without_wall_times().to_json()
        );
    }

    #[test]
    fn identical_pipelines_are_deterministic() {
        let a = tiny_pipeline().schemes(["olive-4bit"]).run();
        let b = tiny_pipeline().schemes(["olive-4bit"]).run();
        let (ra, rb) = (
            a.result("olive-4bit").unwrap(),
            b.result("olive-4bit").unwrap(),
        );
        assert_eq!(ra.fidelity, rb.fidelity);
        assert_eq!(ra.perplexity, rb.perplexity);
    }

    #[test]
    fn random_calibration_changes_the_task_but_stays_deterministic() {
        let conf = tiny_pipeline().schemes(["olive-4bit"]).run();
        let rand = tiny_pipeline()
            .calibrate(Calibration::random())
            .schemes(["olive-4bit"])
            .run();
        let rand2 = tiny_pipeline()
            .calibrate(Calibration::random())
            .schemes(["olive-4bit"])
            .run();
        assert_eq!(
            rand.result("olive-4bit").unwrap().fidelity,
            rand2.result("olive-4bit").unwrap().fidelity
        );
        // Different input selection ⇒ (almost surely) different scores.
        assert_ne!(
            conf.result("olive-4bit").unwrap().fidelity,
            rand.result("olive-4bit").unwrap().fidelity
        );
    }

    #[test]
    fn report_metadata_and_lookup() {
        let report = tiny_pipeline().schemes(["fp32"]).run();
        assert_eq!(report.model, "BERT");
        assert_eq!(report.task, "unit");
        assert_eq!(report.seed, 11);
        assert_eq!(report.batches, 4);
        assert!(report.result("nope").is_none());
        assert!(report.gemm.macs_per_forward > 0);
        assert!(report.gemm.gemms_per_forward > 0);
    }

    #[test]
    fn json_rendering_contains_every_scheme() {
        let report = tiny_pipeline().schemes(["fp32", "uniform:8"]).run();
        let json = report.to_json();
        assert!(json.contains("\"spec\": \"fp32\""), "{json}");
        assert!(json.contains("\"spec\": \"uniform:8\""), "{json}");
        assert!(json.contains("\"macs_per_forward\""), "{json}");
        let table = report.table().render();
        assert!(table.contains("uniform:8"), "{table}");
    }

    #[test]
    fn json_preserves_large_seeds() {
        let report = Pipeline::new(ModelFamily::Bert.tiny())
            .seed(u64::MAX)
            .batches(0)
            .run();
        assert!(
            report.to_json().contains("\"seed\": 18446744073709551615"),
            "{}",
            report.to_json()
        );
    }

    #[test]
    #[should_panic(expected = "invalid scheme spec")]
    fn malformed_spec_panics_in_the_builder() {
        let _ = tiny_pipeline().schemes(["olive-5bit"]);
    }

    #[test]
    #[should_panic(expected = "duplicate scheme 'olive-4bit'")]
    fn duplicate_specs_panic_in_the_builder() {
        let _ = tiny_pipeline().schemes(["olive-4bit", "uniform:4", "olive-4bit"]);
    }

    #[test]
    #[should_panic(expected = "duplicate scheme")]
    fn duplicates_across_builder_calls_panic_too() {
        let _ = tiny_pipeline()
            .schemes(["fp32"])
            .scheme_set([crate::Scheme::parse("fp32").unwrap()]);
    }

    #[test]
    fn per_row_variant_is_not_a_duplicate() {
        // Same scheme at a different granularity is a legitimate comparison.
        let report = tiny_pipeline()
            .schemes(["uniform:4", "uniform:4@per-row"])
            .run();
        assert_eq!(report.results.len(), 2);
    }

    #[test]
    fn run_prepared_matches_run_bit_for_bit() {
        // `run` scores against calibration's teacher logits, `run_prepared`
        // recomputes them once per run: every preparation, however it was
        // made, must give the same bytes, for several schemes at once.
        let schemes = ["olive-4bit", "uniform:8", "uniform:4@per-row"];
        for calibration in [Calibration::confident(2), Calibration::random()] {
            for batches in [4, 0] {
                let pipeline = tiny_pipeline()
                    .calibrate(calibration)
                    .batches(batches)
                    .schemes(schemes);
                let direct = pipeline.run().without_wall_times().to_json();
                let (kept, report) = pipeline.prepare_and_run();
                assert_eq!(report.without_wall_times().to_json(), direct);
                let prepared = pipeline.prepare();
                let snapshot = crate::ModelArtifact::eval("key", "BERT", &prepared)
                    .with_students(&pipeline.schemes)
                    .to_bytes();
                let loaded = crate::ModelArtifact::from_bytes(&snapshot)
                    .unwrap()
                    .prepared_eval()
                    .unwrap();
                // Serve-many: each preparation feeds several runs.
                for p in [&kept, &prepared, &loaded] {
                    for _ in 0..2 {
                        let served = pipeline.run_prepared(p);
                        assert_eq!(
                            served.without_wall_times().to_json(),
                            direct,
                            "{calibration:?}, {batches} batches"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn without_wall_times_zeroes_only_wall_times() {
        let report = tiny_pipeline().schemes(["fp32"]).run();
        let normalized = report.clone().without_wall_times();
        assert_eq!(normalized.results[0].wall_time_s, 0.0);
        assert_eq!(normalized.results[0].fidelity, report.results[0].fidelity);
        assert!(normalized.to_json().contains("\"wall_time_s\": 0"));
    }

    #[test]
    fn model_family_parses_wire_names() {
        for family in ModelFamily::all() {
            let name = family.label().to_ascii_lowercase().replace('-', "");
            assert_eq!(ModelFamily::parse(&name).unwrap(), family);
        }
        assert_eq!(ModelFamily::parse("GPT-2").unwrap(), ModelFamily::Gpt2);
        assert_eq!(ModelFamily::parse("Bert").unwrap(), ModelFamily::Bert);
        let err = ModelFamily::parse("llama").unwrap_err();
        assert!(err.contains("llama") && err.contains("bert"), "{err}");
    }

    #[test]
    fn prepared_eval_supports_weight_transforms() {
        let prepared = tiny_pipeline().prepare();
        let identity = prepared.fidelity_of_weight_transform(|_, w| w.clone());
        assert_eq!(identity, 1.0);
        let zeroed = prepared.fidelity_of_weight_transform(|_, w| w.map(|_| 0.0));
        assert!(zeroed < 1.0);
    }

    #[test]
    fn gemm_profile_counts_match_a_hand_count() {
        let cfg = EngineConfig::tiny(); // d=32, heads=4, layers=2, ff=64, vocab=64, seq=16
        let p = GemmProfile::of(&cfg);
        // Per layer: 4 projection GEMMs + 2 per head; plus the LM head.
        assert_eq!(p.gemms_per_forward, 2 * (4 + 2 * 4) + 1);
        let seq = 16u64;
        let per_layer =
            seq * 32 * 96 + seq * 32 * 32 + seq * 32 * 64 + seq * 64 * 32 + 4 * 2 * seq * seq * 8;
        assert_eq!(p.macs_per_forward, 2 * per_layer + seq * 32 * 64);
    }
}
