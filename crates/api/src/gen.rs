//! The autoregressive generation arm of the pipeline.
//!
//! Where [`Pipeline::run`](crate::Pipeline::run) answers "how much does a
//! scheme perturb one forward pass", [`Pipeline::generation`] answers the
//! *generative* question the paper's serving scenario poses: run a quantized
//! student autoregressively for `max_new_tokens` greedy decode steps and
//! score, at every step, whether the FP32 teacher (forced along the
//! student's token sequence) would have picked the same token. The result is
//! a [`GenReport`]: the generated tokens, the per-step agreement trace, the
//! aggregate agreement and the decode throughput (tokens/sec).
//!
//! The run is described by a [`GenOptions`] builder — prompt length, step
//! budget, an optional pre-prepared teacher/prompt — and
//! [`Pipeline::generation`] is the one entry point. It runs the pipeline's
//! configured schemes.
//!
//! ## Streaming, byte-identically
//!
//! The report's JSON is assembled from **fragments** — a head, one fragment
//! per decode step, a per-scheme tail carrying the summary, a report tail —
//! and [`GenReport::to_json`] is defined as the concatenation of exactly
//! those fragments. The fragment constructors ([`head_fragment`],
//! [`scheme_head_fragment`], [`step_fragment`], [`scheme_tail_fragment`],
//! [`REPORT_TAIL`]) are public so the continuous-batching scheduler in
//! `olive-serve` can emit them as HTTP chunks, each step's the moment it is
//! decoded, while interleaving many streams' decode steps: a streamed
//! `/v1/generate` body, chunks concatenated, is byte-identical to the
//! unstreamed `without_wall_times().to_json()` by construction, not by
//! careful bookkeeping.

use crate::json::JsonValue;
use crate::pipeline::{Pipeline, StudentCache};
use crate::scheme::Scheme;
use olive_models::{argmax, DecodeSession, TinyTransformer};
use olive_tensor::rng::Rng;
use std::sync::Arc;

/// Default prompt length of a generation run, in tokens.
pub const DEFAULT_PROMPT_TOKENS: usize = 8;

/// Default number of greedy decode steps.
pub const DEFAULT_MAX_NEW_TOKENS: usize = 16;

/// One greedy decode step of one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenStep {
    /// The token the quantized student picked (and was fed back).
    pub token: usize,
    /// The token the FP32 teacher would have picked on the same prefix.
    pub teacher_token: usize,
}

impl GenStep {
    /// Whether student and teacher picked the same token at this step.
    pub fn agree(&self) -> bool {
        self.token == self.teacher_token
    }
}

/// Per-scheme outcome of a generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenSchemeResult {
    /// The registry spec string.
    pub spec: String,
    /// The quantizer's display name.
    pub name: String,
    /// Whether activations were quantized (pipeline setting AND scheme
    /// capability), per-row as the decode path requires.
    pub activations_quantized: bool,
    /// The greedy decode trace, one entry per new token.
    pub steps: Vec<GenStep>,
    /// Fraction of steps on which the teacher agreed with the student's
    /// token (1.0 for an empty trace).
    pub agreement: f64,
    /// Decode throughput over the generation loop (0.0 when wall times are
    /// stripped).
    pub tokens_per_s: f64,
    /// Wall time of this scheme's own work, in seconds: quantizing its
    /// weights (or reusing its cached student) and generating.
    pub wall_time_s: f64,
}

impl GenSchemeResult {
    /// The student's generated tokens, in order.
    pub fn tokens(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.token).collect()
    }
}

/// The unified result of a generation run — the generative counterpart of
/// [`EvalReport`](crate::EvalReport).
#[derive(Debug, Clone, PartialEq)]
pub struct GenReport {
    /// Model display name.
    pub model: String,
    /// Task name (display only, never part of an RNG stream).
    pub task: String,
    /// RNG seed the teacher and prompt were generated from.
    pub seed: u64,
    /// The shared prompt all schemes continue from.
    pub prompt: Vec<usize>,
    /// Requested number of decode steps.
    pub max_new_tokens: usize,
    /// Whether the run requested activation quantization.
    pub quantize_activations: bool,
    /// One entry per scheme, in the order they were configured.
    pub results: Vec<GenSchemeResult>,
}

impl GenReport {
    /// Looks up a scheme's result by its spec string.
    pub fn result(&self, spec: &str) -> Option<&GenSchemeResult> {
        self.results.iter().find(|r| r.spec == spec)
    }

    /// The report with `tokens_per_s` and `wall_time_s` zeroed — everything
    /// else is bit-deterministic in (model, seed, prompt, schemes); the
    /// throughput numbers are the lone measurements. Streamed serving
    /// renders this form (the `olive-serve` determinism contract).
    pub fn without_wall_times(mut self) -> Self {
        for r in &mut self.results {
            r.tokens_per_s = 0.0;
            r.wall_time_s = 0.0;
        }
        self
    }

    /// Renders the report as machine-readable JSON: the concatenation of the
    /// fragments `olive-serve` streams.
    pub fn to_json(&self) -> String {
        let mut out = head_fragment(self);
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&scheme_head_fragment(r, i == 0));
            for (j, step) in r.steps.iter().enumerate() {
                out.push_str(&step_fragment(step, j == 0));
            }
            out.push_str(&scheme_tail_fragment(r));
        }
        out.push_str(REPORT_TAIL);
        out
    }
}

/// Everything up to and including `"results": [`.
pub fn head_fragment(report: &GenReport) -> String {
    let prompt: Vec<String> = report.prompt.iter().map(|t| t.to_string()).collect();
    format!(
        "{{\n  \"model\": {},\n  \"task\": {},\n  \"seed\": {},\n  \"prompt_tokens\": {},\n  \
         \"max_new_tokens\": {},\n  \"quantize_activations\": {},\n  \"prompt\": [{}],\n  \
         \"results\": [",
        JsonValue::Str(report.model.clone()).render_inline(),
        JsonValue::Str(report.task.clone()).render_inline(),
        report.seed,
        report.prompt.len(),
        report.max_new_tokens,
        report.quantize_activations,
        prompt.join(", "),
    )
}

/// One scheme's metadata up to and including `"steps": [`; `first` drops
/// the leading comma for the first scheme in the report.
pub fn scheme_head_fragment(result: &GenSchemeResult, first: bool) -> String {
    format!(
        "{}\n    {{\n      \"spec\": {},\n      \"name\": {},\n      \
         \"activations_quantized\": {},\n      \"steps\": [",
        if first { "" } else { "," },
        JsonValue::Str(result.spec.clone()).render_inline(),
        JsonValue::Str(result.name.clone()).render_inline(),
        result.activations_quantized,
    )
}

/// One decode step — the fragment streamed as the token is produced.
pub fn step_fragment(step: &GenStep, first: bool) -> String {
    format!(
        "{}\n        {{\"token\": {}, \"teacher_token\": {}, \"agree\": {}}}",
        if first { "" } else { "," },
        step.token,
        step.teacher_token,
        step.agree(),
    )
}

/// Closes the step array and carries the per-scheme summary (which is only
/// known once every step has been decoded — hence it trails the steps).
pub fn scheme_tail_fragment(result: &GenSchemeResult) -> String {
    format!(
        "\n      ],\n      \"agreement\": {},\n      \"tokens_per_s\": {},\n      \
         \"wall_time_s\": {}\n    }}",
        JsonValue::num_or_null(result.agreement).render_inline(),
        JsonValue::num_or_null(result.tokens_per_s).render_inline(),
        JsonValue::num_or_null(result.wall_time_s).render_inline(),
    )
}

/// Closes the results array and the report object.
pub const REPORT_TAIL: &str = "\n  ]\n}\n";

/// A generated teacher model plus the prompt all schemes continue from — the
/// reusable (cacheable) part of a generation run, mirroring
/// [`PreparedEval`](crate::PreparedEval) for the evaluation arm.
///
/// It also holds the quantize-once students of every generation over it
/// (see [`student`](Self::student)), which `olive-serve`'s decode scheduler
/// shares across streams.
#[derive(Debug, Clone)]
pub struct PreparedGen {
    /// The FP32 teacher.
    pub teacher: TinyTransformer,
    /// The prompt (at least one token).
    pub prompt: Vec<usize>,
    pub(crate) students: StudentCache,
}

impl PreparedGen {
    pub(crate) fn new(teacher: TinyTransformer, prompt: Vec<usize>) -> Self {
        PreparedGen {
            teacher,
            prompt,
            students: StudentCache::new(),
        }
    }

    /// The teacher quantized under `scheme`: built on the first lookup (or
    /// seeded from an artifact) and reused afterwards. At most
    /// [`Scheme::all`]`().len()` students stay resident, oldest out first.
    pub fn student(&self, scheme: &Scheme) -> Arc<TinyTransformer> {
        self.students.get(&self.teacher, scheme)
    }
}

/// The description of one generation run — the single argument of
/// [`Pipeline::generation`].
///
/// Defaults: [`DEFAULT_PROMPT_TOKENS`]-token prompt,
/// [`DEFAULT_MAX_NEW_TOKENS`] decode steps, a fresh preparation from the
/// pipeline seed. Every run decodes the pipeline's configured schemes.
///
/// ```
/// use olive_api::{GenOptions, Pipeline};
/// use olive_api::pipeline::ModelFamily;
///
/// let pipeline = Pipeline::new(ModelFamily::Gpt2.tiny()).schemes(["fp32"]);
/// let report = pipeline.generation(GenOptions::new().prompt_tokens(4).max_new_tokens(2));
/// assert_eq!(report.results.len(), 1);
/// ```
#[derive(Default)]
pub struct GenOptions<'a> {
    prompt_tokens: Option<usize>,
    max_new_tokens: Option<usize>,
    prepared: Option<&'a PreparedGen>,
}

impl<'a> GenOptions<'a> {
    /// All defaults (see the type docs).
    pub fn new() -> Self {
        GenOptions::default()
    }

    /// Prompt length in tokens (clamped to at least 1 at preparation time).
    /// Ignored when [`prepared`](Self::prepared) supplies the prompt.
    pub fn prompt_tokens(mut self, n: usize) -> Self {
        self.prompt_tokens = Some(n);
        self
    }

    /// Number of greedy decode steps per scheme.
    pub fn max_new_tokens(mut self, n: usize) -> Self {
        self.max_new_tokens = Some(n);
        self
    }

    /// Reuses an already-prepared teacher, prompt and students (the
    /// quantize-once/serve-many path) instead of preparing from the pipeline
    /// seed.
    pub fn prepared(mut self, prepared: &'a PreparedGen) -> Self {
        self.prepared = Some(prepared);
        self
    }
}

impl Pipeline {
    /// Generates the teacher and a `prompt_tokens`-long prompt (clamped to at
    /// least 1) without running any scheme. The teacher is bit-identical to
    /// the one [`prepare`](Pipeline::prepare) generates for the same seed;
    /// the prompt continues the same RNG stream, so a `(model, seed,
    /// prompt_tokens)` triple fully determines the preparation — the
    /// quantize-once/serve-many cache key `olive-serve` uses.
    pub fn prepare_generation(&self, prompt_tokens: usize) -> PreparedGen {
        let mut rng = Rng::seed_from(self.seed);
        let teacher = TinyTransformer::generate(self.model.config, self.model.severity, &mut rng);
        let prompt = (0..prompt_tokens.max(1))
            .map(|_| rng.below(self.model.config.vocab))
            .collect();
        PreparedGen::new(teacher, prompt)
    }

    /// A [`GenReport`] carrying this pipeline's identity (model, task, seed,
    /// activation setting) and the given prompt/step budget, with no results
    /// yet. [`Pipeline::generation`] starts from this skeleton; the
    /// continuous-batching scheduler in `olive-serve` uses it to emit
    /// [`head_fragment`]s whose bytes match a direct pipeline run exactly.
    pub fn gen_report_skeleton(&self, prompt: Vec<usize>, max_new_tokens: usize) -> GenReport {
        GenReport {
            model: self.model.name.clone(),
            task: self.task.clone(),
            seed: self.seed,
            prompt,
            max_new_tokens,
            quantize_activations: self.quantize_activations,
            results: Vec::new(),
        }
    }

    /// Whether `scheme` would quantize activations under this pipeline's
    /// settings (the request asked for it AND the scheme supports it) — the
    /// `activations_quantized` flag a [`GenSchemeResult`] reports.
    pub fn quantizes_activations_with(&self, scheme: &Scheme) -> bool {
        self.quantize_activations && scheme.quantizes_activations()
    }

    /// Runs one generation described by `options` — the single public entry
    /// point for generation (see [`GenOptions`] for the knobs).
    pub fn generation(&self, options: GenOptions<'_>) -> GenReport {
        let max_new_tokens = options.max_new_tokens.unwrap_or(DEFAULT_MAX_NEW_TOKENS);
        match options.prepared {
            Some(prepared) => self.generate_inner(prepared, max_new_tokens),
            None => {
                let prompt_tokens = options.prompt_tokens.unwrap_or(DEFAULT_PROMPT_TOKENS);
                let prepared = self.prepare_generation(prompt_tokens);
                self.generate_inner(&prepared, max_new_tokens)
            }
        }
    }

    fn generate_inner(&self, prepared: &PreparedGen, max_new_tokens: usize) -> GenReport {
        let mut report = self.gen_report_skeleton(prepared.prompt.clone(), max_new_tokens);
        report.results.reserve(self.schemes.len());
        for scheme in &self.schemes {
            let quantizer = scheme.build();
            // olive-lint: allow(no-wallclock-in-deterministic-paths): feeds only wall_time_s, which without_wall_times strips before any byte comparison
            let start = std::time::Instant::now();
            let student = prepared.student(scheme);
            let quantize_acts = self.quantize_activations && quantizer.quantizes_activations();
            let act_q = quantize_acts.then_some(quantizer.as_ref());
            let mut result = GenSchemeResult {
                spec: scheme.to_string(),
                name: quantizer.name().to_string(),
                activations_quantized: quantize_acts,
                steps: Vec::with_capacity(max_new_tokens),
                agreement: 1.0,
                tokens_per_s: 0.0,
                wall_time_s: 0.0,
            };

            // The student decodes greedily; the teacher is forced along the
            // student's tokens so every step compares like with like.
            let mut student_session = DecodeSession::new(&student, act_q);
            let mut teacher_session = DecodeSession::new(&prepared.teacher, None);
            let mut s_logits = student_session
                .prefill(&prepared.prompt)
                .expect("prepared prompts are non-empty");
            let mut t_logits = teacher_session
                .prefill(&prepared.prompt)
                .expect("prepared prompts are non-empty");
            for step_index in 0..max_new_tokens {
                let step = GenStep {
                    token: argmax(&s_logits),
                    teacher_token: argmax(&t_logits),
                };
                result.steps.push(step);
                if step_index + 1 < max_new_tokens {
                    s_logits = student_session.push(step.token);
                    t_logits = teacher_session.push(step.token);
                }
            }

            let elapsed = start.elapsed().as_secs_f64();
            if !result.steps.is_empty() {
                let agreed = result.steps.iter().filter(|s| s.agree()).count();
                result.agreement = agreed as f64 / result.steps.len() as f64;
            }
            result.wall_time_s = elapsed;
            if elapsed > 0.0 {
                result.tokens_per_s = max_new_tokens as f64 / elapsed;
            }
            report.results.push(result);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ModelFamily;

    fn tiny_pipeline() -> Pipeline {
        Pipeline::new(ModelFamily::Gpt2.tiny())
            .task("gen-unit")
            .seed(21)
    }

    /// `generation` with positional sugar, for concise tests.
    fn gen(pipeline: &Pipeline, prompt_tokens: usize, max_new_tokens: usize) -> GenReport {
        pipeline.generation(
            GenOptions::new()
                .prompt_tokens(prompt_tokens)
                .max_new_tokens(max_new_tokens),
        )
    }

    #[test]
    fn fp32_student_agrees_with_the_teacher_everywhere() {
        let report = gen(&tiny_pipeline().schemes(["fp32"]), 4, 6);
        let r = report.result("fp32").unwrap();
        assert_eq!(r.agreement, 1.0);
        assert_eq!(r.steps.len(), 6);
        assert!(r.steps.iter().all(GenStep::agree));
        assert!(r.wall_time_s > 0.0);
        assert!(r.tokens_per_s > 0.0);
        assert_eq!(report.prompt.len(), 4);
    }

    #[test]
    fn generation_is_deterministic_and_prepared_matches_direct() {
        let pipeline = tiny_pipeline().schemes(["olive-4bit", "uniform:4"]);
        let a = gen(&pipeline, 5, 8).without_wall_times();
        let b = gen(&pipeline, 5, 8).without_wall_times();
        assert_eq!(a.to_json(), b.to_json());
        let prepared = pipeline.prepare_generation(5);
        let c = pipeline
            .generation(GenOptions::new().prepared(&prepared).max_new_tokens(8))
            .without_wall_times();
        assert_eq!(a.to_json(), c.to_json());
    }

    #[test]
    fn prepared_teacher_matches_the_eval_preparation() {
        // The generation arm shares the eval arm's teacher stream: the same
        // seed must produce the same teacher weights.
        let pipeline = tiny_pipeline();
        let gen = pipeline.prepare_generation(4);
        let eval = pipeline.prepare();
        assert_eq!(gen.teacher.embedding, eval.teacher.embedding);
        assert_eq!(
            gen.teacher.layers[0].wqkv.data(),
            eval.teacher.layers[0].wqkv.data()
        );
    }

    #[test]
    fn report_json_is_valid_and_complete() {
        let report = gen(&tiny_pipeline().schemes(["olive-4bit", "gobo"]), 3, 5);
        let parsed = JsonValue::parse(&report.to_json()).expect("report must be valid JSON");
        assert_eq!(
            parsed.get("model").and_then(JsonValue::as_str),
            Some("GPT-2")
        );
        assert_eq!(parsed.get("seed").and_then(JsonValue::as_u64), Some(21));
        assert_eq!(
            parsed
                .get("prompt")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(3)
        );
        let results = parsed.get("results").and_then(JsonValue::as_array).unwrap();
        assert_eq!(results.len(), 2);
        let steps = results[0]
            .get("steps")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(steps.len(), 5);
        assert!(steps[0].get("token").and_then(JsonValue::as_u64).is_some());
        assert!(steps[0].get("agree").and_then(JsonValue::as_bool).is_some());
        // GOBO is weight-only even when activations are requested.
        assert_eq!(
            results[1]
                .get("activations_quantized")
                .and_then(JsonValue::as_bool),
            Some(false)
        );
    }

    #[test]
    fn empty_traces_render_and_score_neutrally() {
        let report = gen(&tiny_pipeline().schemes(["fp32"]), 2, 0);
        let r = report.result("fp32").unwrap();
        assert!(r.steps.is_empty());
        assert_eq!(r.agreement, 1.0);
        assert!(JsonValue::parse(&report.to_json()).is_ok());
        // No schemes at all still renders valid JSON.
        let bare = gen(&tiny_pipeline(), 2, 3);
        assert!(bare.results.is_empty());
        assert!(JsonValue::parse(&bare.to_json()).is_ok());
    }

    #[test]
    fn quantized_students_degrade_gracefully_in_order() {
        let report = gen(&tiny_pipeline().schemes(["olive-4bit", "uniform:4"]), 6, 12);
        let olive = report.result("olive-4bit").unwrap().agreement;
        let uniform = report.result("uniform:4").unwrap().agreement;
        assert!(
            olive >= uniform,
            "OliVe must track the teacher at least as well: {olive} vs {uniform}"
        );
    }

    #[test]
    fn generation_is_thread_count_invariant() {
        let pipeline = tiny_pipeline().schemes(["olive-4bit"]);
        let run = || gen(&pipeline, 4, 6).without_wall_times().to_json();
        let seq = olive_runtime::with_threads(1, run);
        let par = olive_runtime::with_threads(8, run);
        assert_eq!(seq, par);
    }

    #[test]
    fn students_are_quantized_once_per_scheme() {
        let prepared = tiny_pipeline().prepare_generation(3);
        let scheme = Scheme::parse("olive-4bit").unwrap();
        let a = prepared.student(&scheme);
        let b = prepared.student(&scheme);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        assert_eq!(prepared.students.len(), 1);
        // The cached student is a fresh quantization, bit for bit.
        let direct = prepared.teacher.quantize_weights(scheme.build().as_ref());
        assert_eq!(a.embedding.data(), direct.embedding.data());
        assert_eq!(a.layers[0].wqkv.data(), direct.layers[0].wqkv.data());
    }

    #[test]
    fn repeated_generations_over_one_preparation_quantize_once() {
        let pipeline = tiny_pipeline().schemes(["olive-4bit"]);
        let prepared = pipeline.prepare_generation(4);
        let run = || {
            pipeline
                .generation(GenOptions::new().prepared(&prepared).max_new_tokens(5))
                .without_wall_times()
                .to_json()
        };
        let scheme = &pipeline.schemes[0];
        let first = run();
        assert_eq!(
            prepared.students.len(),
            1,
            "the first run caches its student"
        );
        let student = prepared.student(scheme);
        assert_eq!(run(), first);
        let reused = prepared.student(scheme);
        assert!(Arc::ptr_eq(&student, &reused), "the second run reuses it");
        // The cached student decodes the bytes a fresh preparation does.
        assert_eq!(first, gen(&pipeline, 4, 5).without_wall_times().to_json());
    }

    #[test]
    fn gen_options_defaults_match_the_documented_constants() {
        let report = tiny_pipeline()
            .schemes(["fp32"])
            .generation(GenOptions::new());
        assert_eq!(report.prompt.len(), DEFAULT_PROMPT_TOKENS);
        assert_eq!(report.max_new_tokens, DEFAULT_MAX_NEW_TOKENS);
    }
}
