//! A small, runnable Transformer used as the accuracy proxy.
//!
//! The paper measures accuracy on GLUE/SQuAD and perplexity on WikiText/C4
//! using pretrained checkpoints. Offline we cannot run those models, so the
//! reproduction uses a **teacher–student evaluation** (see DESIGN.md):
//!
//! * the *teacher* is a randomly initialised but fully runnable Transformer
//!   whose weights and LayerNorm scales contain planted outliers — the same
//!   mechanism that produces activation outliers in real LLMs;
//! * a *student* is the same model with its weights (and optionally its
//!   activations) passed through a quantizer;
//! * "accuracy" is the fraction of inputs on which the student's argmax
//!   prediction matches the teacher's, and "perplexity" is the exponential of
//!   the student's cross-entropy against the teacher's argmax labels.
//!
//! What this preserves from the original evaluation is precisely the thing the
//! paper's accuracy tables measure: *how much a quantization scheme perturbs
//! the function computed by an outlier-heavy Transformer*.

use crate::config::ModelFamily;
use crate::decode::FeedSlot;
use crate::kv::VecKv;
use olive_core::simd::{matmul_transpose_b, resolve_path, with_simd};
use olive_core::TensorQuantizer;
use olive_tensor::matmul::layer_norm;
use olive_tensor::rng::Rng;
use olive_tensor::Tensor;

/// Architecture of the proxy Transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Model (hidden) dimension.
    pub d_model: usize,
    /// Number of attention heads.
    pub n_heads: usize,
    /// Number of layers.
    pub n_layers: usize,
    /// Feed-forward inner dimension.
    pub d_ff: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length used by the evaluation helpers.
    pub seq_len: usize,
}

impl EngineConfig {
    /// A tiny configuration for unit tests (fast even in debug builds).
    pub fn tiny() -> Self {
        EngineConfig {
            d_model: 32,
            n_heads: 4,
            n_layers: 2,
            d_ff: 64,
            vocab: 64,
            seq_len: 16,
        }
    }

    /// A small configuration for the accuracy harnesses.
    pub fn small() -> Self {
        EngineConfig {
            d_model: 64,
            n_heads: 4,
            n_layers: 3,
            d_ff: 256,
            vocab: 128,
            seq_len: 32,
        }
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.n_heads
    }
}

/// Weights of one Transformer layer.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Fused QKV projection `[d_model, 3·d_model]`.
    pub wqkv: Tensor,
    /// Output projection `[d_model, d_model]`.
    pub wo: Tensor,
    /// FFN up projection `[d_model, d_ff]`.
    pub w1: Tensor,
    /// FFN down projection `[d_ff, d_model]`.
    pub w2: Tensor,
    /// Pre-attention LayerNorm scale (contains planted outlier channels).
    pub ln1_gamma: Vec<f32>,
    /// Pre-attention LayerNorm shift.
    pub ln1_beta: Vec<f32>,
    /// Pre-FFN LayerNorm scale.
    pub ln2_gamma: Vec<f32>,
    /// Pre-FFN LayerNorm shift.
    pub ln2_beta: Vec<f32>,
}

/// The proxy Transformer model (teacher or student).
#[derive(Debug, Clone)]
pub struct TinyTransformer {
    /// Architecture.
    pub config: EngineConfig,
    /// Token embedding `[vocab, d_model]`; also used (transposed) as LM head.
    pub embedding: Tensor,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
    /// Final LayerNorm scale.
    pub ln_f_gamma: Vec<f32>,
    /// Final LayerNorm shift.
    pub ln_f_beta: Vec<f32>,
}

/// How strongly outliers are planted when generating a teacher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierSeverity {
    /// Fraction of weight elements turned into outliers.
    pub weight_fraction: f64,
    /// Outlier magnitude multiplier range (relative to the weight std).
    pub weight_sigma: (f64, f64),
    /// Number of LayerNorm channels with amplified scale per layer.
    pub gamma_channels: usize,
    /// Amplified LayerNorm scale range.
    pub gamma_range: (f64, f64),
}

impl OutlierSeverity {
    /// Transformer-like severity (BERT/BART class models).
    pub fn transformer() -> Self {
        OutlierSeverity {
            weight_fraction: 0.003,
            weight_sigma: (8.0, 30.0),
            gamma_channels: 2,
            gamma_range: (3.0, 8.0),
        }
    }

    /// LLM-like severity (GPT/BLOOM/OPT class models, stronger outliers).
    pub fn llm() -> Self {
        OutlierSeverity {
            weight_fraction: 0.004,
            weight_sigma: (10.0, 60.0),
            gamma_channels: 3,
            gamma_range: (4.0, 14.0),
        }
    }

    /// Severity matching a model family.
    pub fn for_family(family: ModelFamily) -> Self {
        match family {
            ModelFamily::DecoderOnly => Self::llm(),
            _ => Self::transformer(),
        }
    }
}

impl TinyTransformer {
    /// Generates a teacher model with planted weight and LayerNorm outliers.
    pub fn generate(config: EngineConfig, severity: OutlierSeverity, rng: &mut Rng) -> Self {
        let d = config.d_model;
        let gen_weight = |rows: usize, cols: usize, rng: &mut Rng| -> Tensor {
            let std = 1.0 / (rows as f64).sqrt();
            let mut data = vec![0.0f32; rows * cols];
            rng.fill_normal(&mut data, 0.0, std);
            let n_out = ((rows * cols) as f64 * severity.weight_fraction).round() as usize;
            for _ in 0..n_out {
                let i = rng.below(rows * cols);
                let mag = rng.uniform_range(severity.weight_sigma.0, severity.weight_sigma.1) * std;
                let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
                data[i] = (sign * mag) as f32;
            }
            Tensor::from_vec(vec![rows, cols], data)
        };
        let gen_gamma = |n: usize, rng: &mut Rng| -> Vec<f32> {
            let mut g: Vec<f32> = (0..n).map(|_| 1.0 + rng.normal(0.0, 0.1) as f32).collect();
            for _ in 0..severity.gamma_channels {
                let i = rng.below(n);
                g[i] = rng.uniform_range(severity.gamma_range.0, severity.gamma_range.1) as f32;
            }
            g
        };

        let embedding = gen_weight(config.vocab, d, rng);
        let layers = (0..config.n_layers)
            .map(|_| LayerWeights {
                wqkv: gen_weight(d, 3 * d, rng),
                wo: gen_weight(d, d, rng),
                w1: gen_weight(d, config.d_ff, rng),
                w2: gen_weight(config.d_ff, d, rng),
                ln1_gamma: gen_gamma(d, rng),
                ln1_beta: vec![0.0; d],
                ln2_gamma: gen_gamma(d, rng),
                ln2_beta: vec![0.0; d],
            })
            .collect();
        TinyTransformer {
            config,
            embedding,
            layers,
            ln_f_gamma: gen_gamma(d, rng),
            ln_f_beta: vec![0.0; d],
        }
    }

    /// Returns a copy whose weight matrices have been passed through `f`.
    ///
    /// The calls run on the `olive-runtime` pool, one job per matrix of
    /// [`named_weights`](Self::named_weights), and each result goes back
    /// into its own slot, so the copy does not depend on the thread count.
    /// Parallel code inside `f` runs inline in its job. The caller's SIMD
    /// path is resolved once and pinned in every job, as
    /// [`forward`](Self::forward) does.
    pub fn map_weights<F: Fn(&str, &Tensor) -> Tensor + Sync>(&self, f: F) -> Self {
        let path = resolve_path();
        let mut mapped = olive_runtime::par_map(&self.named_weights(), |(name, w)| {
            with_simd(Some(path), || f(name, w))
        })
        .into_iter();
        let mut next = || mapped.next().expect("one result per weight");
        TinyTransformer {
            config: self.config,
            embedding: next(),
            layers: self
                .layers
                .iter()
                .map(|l| LayerWeights {
                    wqkv: next(),
                    wo: next(),
                    w1: next(),
                    w2: next(),
                    ln1_gamma: l.ln1_gamma.clone(),
                    ln1_beta: l.ln1_beta.clone(),
                    ln2_gamma: l.ln2_gamma.clone(),
                    ln2_beta: l.ln2_beta.clone(),
                })
                .collect(),
            ln_f_gamma: self.ln_f_gamma.clone(),
            ln_f_beta: self.ln_f_beta.clone(),
        }
    }

    /// Returns a student whose weights are fake-quantized with `q`.
    ///
    /// This is the expensive, fully deterministic step of preparing a
    /// student. Callers that evaluate the same scheme repeatedly — the
    /// `olive-api` prepared pipeline and the serving daemons on top of it —
    /// quantize once and reuse the student across requests.
    pub fn quantize_weights(&self, q: &dyn TensorQuantizer) -> Self {
        self.map_weights(|_, w| q.quantize_dequantize(w))
    }

    /// Iterates over the model's weight matrices with their names.
    pub fn named_weights(&self) -> Vec<(String, &Tensor)> {
        let mut v = vec![("embedding".to_string(), &self.embedding)];
        for (i, l) in self.layers.iter().enumerate() {
            v.push((format!("layer{}.wqkv", i), &l.wqkv));
            v.push((format!("layer{}.wo", i), &l.wo));
            v.push((format!("layer{}.w1", i), &l.w1));
            v.push((format!("layer{}.w2", i), &l.w2));
        }
        v
    }

    /// Runs the model on a token sequence and returns the logits of every
    /// position, `[seq_len, vocab]`, with bidirectional attention: every
    /// position attends to every other.
    ///
    /// If `act_quant` is given, the input activations of every GEMM are
    /// fake-quantized first, per tensor (activation quantization, as in the
    /// paper's weight+activation setting).
    ///
    /// This is the layer stack every decode feed runs (see
    /// [`crate::decode`]), over one fresh [`VecKv`] with a bidirectional
    /// mask, then the final layer-norm and LM head over every row.
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of vocabulary range.
    pub fn forward(&self, tokens: &[usize], act_quant: Option<&dyn TensorQuantizer>) -> Tensor {
        // A per-tensor scale spans every row of the stack, which is right
        // only because this stack has one slot.
        let quantize = |t: Tensor| match act_quant {
            Some(q) => q.quantize_dequantize(&t),
            None => t,
        };
        let mut kv = VecKv::new(self.config.n_layers, self.config.d_model);
        let mut slot = [FeedSlot {
            kv: &mut kv,
            tokens,
            pos: 0,
        }];
        // Resolve the kernel path once: the kernel calls below then read
        // only this thread's override, not the environment.
        with_simd(Some(resolve_path()), || {
            let x = self.layer_stack(&quantize, false, &mut slot);
            let normed = layer_norm(&x, &self.ln_f_gamma, &self.ln_f_beta, 1e-5);
            // Weight tying: logits = x · Eᵀ.
            matmul_transpose_b(&quantize(normed), &self.embedding)
        })
    }

    /// Embeds `rows` `(token, position)` pairs as the rows of a
    /// `[rows, d_model]` tensor: each token's embedding row plus a
    /// deterministic sinusoidal position signal, `sin(pos / 64^(j/d)) · 0.1`.
    /// The divisors `64^(j/d)` do not depend on the position, so they are
    /// computed once per call.
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of vocabulary range.
    pub(crate) fn embed(
        &self,
        rows: usize,
        tokens: impl IntoIterator<Item = (usize, usize)>,
    ) -> Tensor {
        let d = self.config.d_model;
        let divisors: Vec<f32> = (0..d).map(|j| 64f32.powf(j as f32 / d as f32)).collect();
        let mut x = Tensor::zeros(vec![rows, d]);
        for (r, (token, pos)) in tokens.into_iter().enumerate() {
            assert!(token < self.config.vocab, "token {} out of range", token);
            let embedded = self.embedding.row(token).iter().zip(&divisors);
            for (out, (&e, &div)) in x.row_mut(r).iter_mut().zip(embedded) {
                *out = e + ((pos as f32) / div).sin() * 0.1;
            }
        }
        x
    }
}

/// Index of the largest value (first winner on ties) — the greedy decoding
/// rule shared by the evaluation metrics and greedy generation.
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

fn softmax_vec(row: &[f32]) -> Vec<f64> {
    let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)) as f64;
    let exps: Vec<f64> = row.iter().map(|&v| ((v as f64) - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum.max(1e-300)).collect()
}

/// An evaluation task: a set of random input sequences for one teacher.
#[derive(Debug, Clone)]
pub struct EvalTask {
    /// Task name (used for the GLUE-like task labels in the harnesses).
    pub name: String,
    /// Input sequences (token ids).
    pub inputs: Vec<Vec<usize>>,
}

impl EvalTask {
    /// Generates a task of `n_inputs` random sequences.
    pub fn generate(name: &str, config: &EngineConfig, n_inputs: usize, rng: &mut Rng) -> Self {
        let inputs = (0..n_inputs)
            .map(|_| {
                (0..config.seq_len)
                    .map(|_| rng.below(config.vocab))
                    .collect()
            })
            .collect();
        EvalTask {
            name: name.to_string(),
            inputs,
        }
    }

    /// Generates a *confidence-filtered* task: `oversample × n_inputs` random
    /// sequences are scored by the teacher's decision margin and only the
    /// `n_inputs` most confident ones are kept.
    ///
    /// Fine-tuned task models (the GLUE/SQuAD checkpoints of the paper) make
    /// high-margin decisions on most of their evaluation data — that margin is
    /// what lets a well-designed 4-bit quantization preserve accuracy. A
    /// randomly initialised teacher has many near-tie decisions, so without
    /// this filter *any* perturbation (even FP16 rounding) flips a large
    /// fraction of predictions and the comparison degenerates. Filtering to
    /// confident inputs restores the property the real benchmark has.
    pub fn generate_confident(
        name: &str,
        teacher: &TinyTransformer,
        n_inputs: usize,
        oversample: usize,
        rng: &mut Rng,
    ) -> Self {
        Self::generate_confident_with_logits(name, teacher, n_inputs, oversample, rng).0
    }

    /// [`generate_confident`](Self::generate_confident), also returning the
    /// teacher's logits of every kept input, in task order. They are the
    /// forwards that scored the candidates, kept instead of dropped, and
    /// bit-identical to [`teacher_logits`] of the task: an evaluation on a
    /// fresh task can skip its teacher half.
    ///
    /// Candidates are drawn and scored 64 at a time, and every candidate
    /// that falls out of the best `n_inputs` is dropped with its logits, so
    /// calibration holds at most `n_inputs` + 64 candidates' logits,
    /// whatever the oversample.
    pub fn generate_confident_with_logits(
        name: &str,
        teacher: &TinyTransformer,
        n_inputs: usize,
        oversample: usize,
        rng: &mut Rng,
    ) -> (Self, Vec<Tensor>) {
        let config = &teacher.config;
        let mut left = n_inputs * oversample.max(1);
        // The best candidates so far, best first: by margin descending,
        // then by candidate index ascending, the order a stable sort of
        // every candidate by margin gives. Chunks are drawn from `rng` in
        // candidate order and appended after the kept candidates, whose
        // indices are all lower, so the stable sort of the two keeps that
        // order. Each chunk's forwards run on the pool in input order, so
        // the selected task is thread-count independent.
        let mut kept: Vec<(f32, Vec<usize>, Tensor)> = Vec::new();
        while left > 0 {
            let chunk = EvalTask::generate(name, config, left.min(CALIBRATION_CHUNK), rng);
            left -= chunk.inputs.len();
            let logits = teacher_logits(teacher, &chunk);
            kept.extend(
                chunk
                    .inputs
                    .into_iter()
                    .zip(logits)
                    .map(|(input, logits)| (decision_margin(&logits), input, logits)),
            );
            kept.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            kept.truncate(n_inputs);
        }
        let (inputs, logits) = kept
            .into_iter()
            .map(|(_, input, logits)| (input, logits))
            .unzip();
        let task = EvalTask {
            name: name.to_string(),
            inputs,
        };
        (task, logits)
    }
}

/// Candidates [`EvalTask::generate_confident`] draws and scores at a time.
const CALIBRATION_CHUNK: usize = 64;

/// The decision margin of the last position: the gap between the largest
/// and second-largest logit. Inputs with a large margin correspond to the
/// "confident" predictions a trained task model makes; they are what the
/// confidence-filtered evaluation tasks are built from.
fn decision_margin(logits: &Tensor) -> f32 {
    let row = logits.row(logits.rows() - 1);
    let mut best = f32::NEG_INFINITY;
    let mut second = f32::NEG_INFINITY;
    for &v in row {
        if v > best {
            second = best;
            best = v;
        } else if v > second {
            second = v;
        }
    }
    best - second
}

/// All four teacher–student scores of one evaluation, computed in a single
/// pass: one teacher + one student forward per input.
///
/// The teacher half ([`teacher_logits`]) does not depend on the student,
/// so a caller scoring several students on one task computes it once and
/// runs only the student half ([`student_scores`]) per student.
/// [`eval_scores`] is the two halves back to back. Each field is
/// **bit-identical** to the standalone metric of the same name that this
/// module's tests keep as its oracle (fidelity, last-position agreement,
/// all-position agreement, pseudo-perplexity): the per-input partials and
/// the in-input-order f64 folds are the same, only the forwards are shared.
/// This is what the `olive::api` evaluation pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalScores {
    /// Mean cosine similarity of the logit vectors over every position of
    /// every input: the primary accuracy proxy. An untrained teacher has
    /// many near-tie argmax decisions, so argmax agreement punishes every
    /// perturbation by a large seed-dependent constant; fidelity measures
    /// how much quantization perturbs the computed function without that
    /// artifact (FP32 scores exactly 1.0).
    pub fidelity: f64,
    /// Last-position argmax agreement.
    pub agreement: f64,
    /// All-position argmax agreement (the SQuAD-style EM proxy).
    pub position_agreement: f64,
    /// Pseudo-perplexity against the teacher's argmax labels.
    pub perplexity: f64,
}

/// Computes [`EvalScores`] for a student against a teacher on a task: the
/// teacher half, then the student half.
pub fn eval_scores(
    teacher: &TinyTransformer,
    student: &TinyTransformer,
    task: &EvalTask,
    act_quant: Option<&dyn TensorQuantizer>,
) -> EvalScores {
    student_scores(&teacher_logits(teacher, task), student, task, act_quant)
}

/// The teacher half of an evaluation: the FP32 teacher's logits
/// `[seq_len, vocab]` of every task input, in task order. One forward per
/// input, sharded over the `olive-runtime` pool.
pub fn teacher_logits(teacher: &TinyTransformer, task: &EvalTask) -> Vec<Tensor> {
    olive_runtime::par_map(&task.inputs, |input| teacher.forward(input, None))
}

/// The student half of an evaluation: scores `student` against the
/// teacher's logits of each task input (`teacher_logits[i]` belongs to
/// `task.inputs[i]`), one student forward per input.
///
/// The inputs are sharded over the pool; each yields one partial, and the
/// partials are folded in input order, so the scores are bit-identical at
/// every thread count.
///
/// # Panics
///
/// Panics unless `teacher_logits` holds one tensor per task input.
pub fn student_scores(
    teacher_logits: &[Tensor],
    student: &TinyTransformer,
    task: &EvalTask,
    act_quant: Option<&dyn TensorQuantizer>,
) -> EvalScores {
    assert_eq!(
        teacher_logits.len(),
        task.inputs.len(),
        "student_scores: one teacher logits tensor per task input"
    );
    if task.inputs.is_empty() {
        return EvalScores {
            fidelity: 1.0,
            agreement: 1.0,
            position_agreement: 1.0,
            perplexity: 1.0,
        };
    }
    let pairs: Vec<(&Vec<usize>, &Tensor)> = task.inputs.iter().zip(teacher_logits).collect();
    let partials = olive_runtime::par_map(&pairs, |&(input, t_logits)| {
        let s_logits = student.forward(input, act_quant);
        let rows = t_logits.rows();
        let mut cos_sum = 0.0f64;
        let mut pos_hits = 0usize;
        let mut ce = 0.0f64;
        for pos in 0..rows {
            let t_row = t_logits.row(pos);
            let s_row = s_logits.row(pos);
            cos_sum += cosine(t_row, s_row);
            let label = argmax(t_row);
            if label == argmax(s_row) {
                pos_hits += 1;
            }
            let probs = softmax_vec(s_row);
            let p = probs[label].max(1e-12);
            ce += -p.ln();
        }
        let last_hit = argmax(t_logits.row(rows - 1)) == argmax(s_logits.row(rows - 1));
        (cos_sum, pos_hits, ce, usize::from(last_hit), rows)
    });
    let mut cos_total = 0.0f64;
    let mut ce_total = 0.0f64;
    let mut pos_hits = 0usize;
    let mut last_hits = 0usize;
    let mut rows_total = 0usize;
    for (cos_sum, hits, ce, last, rows) in partials {
        cos_total += cos_sum;
        ce_total += ce;
        pos_hits += hits;
        last_hits += last;
        rows_total += rows;
    }
    EvalScores {
        // The `rows_total == 0` guards mirror the standalone metrics'
        // empty-count behaviour (only reachable with zero-length inputs).
        fidelity: if rows_total == 0 {
            1.0
        } else {
            cos_total / rows_total as f64
        },
        agreement: last_hits as f64 / task.inputs.len() as f64,
        position_agreement: pos_hits as f64 / rows_total.max(1) as f64,
        perplexity: if rows_total == 0 {
            1.0
        } else {
            (ce_total / rows_total as f64).exp()
        },
    }
}

fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += (x as f64).powi(2);
        nb += (y as f64).powi(2);
    }
    if na == 0.0 || nb == 0.0 {
        return if na == nb { 1.0 } else { 0.0 };
    }
    dot / (na.sqrt() * nb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_baselines::UniformQuantizer;
    use olive_core::simd::{gelu_in_place, matmul};
    use olive_core::{Fp32Baseline, OliveQuantizer};
    use olive_tensor::matmul::softmax_rows;

    // The eval forward as it ran before it shared the decode layer stack:
    // its own layer loop, a per-head copy-and-GEMM attention, and
    // per-tensor act-quant of every GEMM input. Nothing serves it; it stays
    // here as the oracle of `forward`, which must match it bit for bit.

    /// The eval forward's own body: logits of every position.
    fn forward_per_head(
        model: &TinyTransformer,
        tokens: &[usize],
        act_quant: Option<&dyn TensorQuantizer>,
    ) -> Tensor {
        with_simd(Some(resolve_path()), || {
            let mut x = model.embed(tokens.len(), tokens.iter().copied().zip(0..));

            let maybe_q = |t: &Tensor| -> Tensor {
                match act_quant {
                    Some(q) => q.quantize_dequantize(t),
                    None => t.clone(),
                }
            };

            for layer in &model.layers {
                // Pre-norm attention block.
                let normed = layer_norm(&x, &layer.ln1_gamma, &layer.ln1_beta, 1e-5);
                let qkv_in = maybe_q(&normed);
                let qkv = matmul(&qkv_in, &layer.wqkv);
                let attn = attention_per_head(model, &qkv);
                let attn_in = maybe_q(&attn);
                let out = matmul(&attn_in, &layer.wo);
                x = x.add(&out);

                // Pre-norm FFN block.
                let normed = layer_norm(&x, &layer.ln2_gamma, &layer.ln2_beta, 1e-5);
                let ffn_in = maybe_q(&normed);
                let mut h = matmul(&ffn_in, &layer.w1);
                gelu_in_place(h.data_mut());
                let h_in = maybe_q(&h);
                let ffn = matmul(&h_in, &layer.w2);
                x = x.add(&ffn);
            }

            let normed = layer_norm(&x, &model.ln_f_gamma, &model.ln_f_beta, 1e-5);
            let head_in = maybe_q(&normed);
            // Weight tying: logits = x · Eᵀ.
            matmul_transpose_b(&head_in, &model.embedding)
        })
    }

    /// Multi-head self-attention over a fused `[seq, 3·d_model]` QKV tensor:
    /// each head's Q/K/V copied out, then scored and mixed by the dense
    /// GEMMs.
    fn attention_per_head(model: &TinyTransformer, qkv: &Tensor) -> Tensor {
        let d = model.config.d_model;
        let seq = qkv.rows();
        let heads = model.config.n_heads;
        let dh = model.config.head_dim();
        let mut out = Tensor::zeros(vec![seq, d]);
        for h in 0..heads {
            // Slice Q, K, V for this head.
            let mut q = Tensor::zeros(vec![seq, dh]);
            let mut k = Tensor::zeros(vec![seq, dh]);
            let mut v = Tensor::zeros(vec![seq, dh]);
            for i in 0..seq {
                for j in 0..dh {
                    q[[i, j]] = qkv[[i, h * dh + j]];
                    k[[i, j]] = qkv[[i, d + h * dh + j]];
                    v[[i, j]] = qkv[[i, 2 * d + h * dh + j]];
                }
            }
            let scale = 1.0 / (dh as f32).sqrt();
            let scores = matmul_transpose_b(&q, &k).scale(scale);
            let probs = softmax_rows(&scores);
            let ctx = matmul(&probs, &v);
            for i in 0..seq {
                for j in 0..dh {
                    out[[i, j + h * dh]] = ctx[[i, j]];
                }
            }
        }
        out
    }

    /// The fold, property-tested: `forward` (the decode layer stack with a
    /// bidirectional mask and `attend`) returns the per-head eval forward's
    /// logits bit for bit, on BERT-tiny and the small model, on 1 to
    /// 2·`seq_len` tokens, without act-quant and with olive-4bit and
    /// uniform:4, at 1 and 8 threads.
    #[test]
    fn forward_is_bit_identical_to_the_per_head_eval_forward() {
        let models = [
            (EngineConfig::tiny(), OutlierSeverity::transformer()),
            (EngineConfig::small(), OutlierSeverity::llm()),
        ];
        let config = olive_harness::check::CheckConfig {
            cases: 6,
            ..Default::default()
        };
        olive_harness::check::check_with(
            config,
            "forward_matches_per_head",
            |rng| {
                let seed = rng.next_u64();
                let lens = models.map(|(cfg, _)| 1 + rng.below(2 * cfg.seq_len));
                (seed, lens)
            },
            |&(seed, lens)| {
                let olive = OliveQuantizer::int4();
                let uniform = UniformQuantizer::new(4);
                let acts: [(&str, Option<&dyn TensorQuantizer>); 3] = [
                    ("none", None),
                    ("olive-4bit", Some(&olive)),
                    ("uniform:4", Some(&uniform)),
                ];
                let mut rng = Rng::seed_from(seed);
                for ((cfg, severity), len) in models.into_iter().zip(lens) {
                    let model = TinyTransformer::generate(cfg, severity, &mut rng);
                    let tokens: Vec<usize> = (0..len).map(|_| rng.below(cfg.vocab)).collect();
                    for (name, act) in acts {
                        for threads in [1usize, 8] {
                            let (got, want) = olive_runtime::with_threads(threads, || {
                                let want = forward_per_head(&model, &tokens, act);
                                (model.forward(&tokens, act), want)
                            });
                            if !same_bits(&[got], &[want]) {
                                return Err(format!(
                                    "d_model {} on {len} tokens (act={name}, threads={threads})",
                                    cfg.d_model
                                ));
                            }
                        }
                    }
                }
                Ok(())
            },
        );
    }

    // The standalone metrics: one teacher and one student forward per input
    // and metric, each folded on its own. Nothing serves them; they stay
    // here as the oracle of the split scorer (`teacher_logits` +
    // `student_scores`), which must match them bit for bit.

    /// Next-token prediction (argmax of the last position's logits).
    fn predict(
        model: &TinyTransformer,
        tokens: &[usize],
        act_quant: Option<&dyn TensorQuantizer>,
    ) -> usize {
        let logits = model.forward(tokens, act_quant);
        argmax(logits.row(logits.rows() - 1))
    }

    /// Fraction of task inputs on which `student` predicts the same next
    /// token as `teacher` (the "accuracy" proxy).
    fn agreement(
        teacher: &TinyTransformer,
        student: &TinyTransformer,
        task: &EvalTask,
        act_quant: Option<&dyn TensorQuantizer>,
    ) -> f64 {
        if task.inputs.is_empty() {
            return 1.0;
        }
        let hits: usize = olive_runtime::par_map(&task.inputs, |input| {
            usize::from(predict(teacher, input, None) == predict(student, input, act_quant))
        })
        .into_iter()
        .sum();
        hits as f64 / task.inputs.len() as f64
    }

    /// Fraction of *positions* (across all task inputs) at which
    /// `student`'s argmax prediction matches `teacher`'s — the SQuAD-style
    /// exact-match proxy of Tbl. 8.
    fn position_agreement(
        teacher: &TinyTransformer,
        student: &TinyTransformer,
        task: &EvalTask,
        act_quant: Option<&dyn TensorQuantizer>,
    ) -> f64 {
        if task.inputs.is_empty() {
            return 1.0;
        }
        let partials = olive_runtime::par_map(&task.inputs, |input| {
            let t_logits = teacher.forward(input, None);
            let s_logits = student.forward(input, act_quant);
            let mut hits = 0usize;
            for pos in 0..t_logits.rows() {
                if argmax(t_logits.row(pos)) == argmax(s_logits.row(pos)) {
                    hits += 1;
                }
            }
            (hits, t_logits.rows())
        });
        let mut hits = 0usize;
        let mut total = 0usize;
        for (h, rows) in partials {
            hits += h;
            total += rows;
        }
        hits as f64 / total.max(1) as f64
    }

    /// The mean cosine similarity between the teacher's and the student's
    /// logit vectors over every position of every task input, folded in
    /// input order.
    fn logit_fidelity(
        teacher: &TinyTransformer,
        student: &TinyTransformer,
        task: &EvalTask,
        act_quant: Option<&dyn TensorQuantizer>,
    ) -> f64 {
        let partials = olive_runtime::par_map(&task.inputs, |input| {
            let t_logits = teacher.forward(input, None);
            let s_logits = student.forward(input, act_quant);
            let mut sum = 0.0f64;
            for pos in 0..t_logits.rows() {
                sum += cosine(t_logits.row(pos), s_logits.row(pos));
            }
            (sum, t_logits.rows())
        });
        let mut total = 0.0f64;
        let mut count = 0usize;
        for (sum, rows) in partials {
            total += sum;
            count += rows;
        }
        if count == 0 {
            1.0
        } else {
            total / count as f64
        }
    }

    /// Pseudo-perplexity: `exp` of the student's mean cross-entropy against
    /// the teacher's argmax next-token labels over all positions.
    fn pseudo_perplexity(
        teacher: &TinyTransformer,
        student: &TinyTransformer,
        task: &EvalTask,
        act_quant: Option<&dyn TensorQuantizer>,
    ) -> f64 {
        let partials = olive_runtime::par_map(&task.inputs, |input| {
            let t_logits = teacher.forward(input, None);
            let s_logits = student.forward(input, act_quant);
            let mut ce = 0.0f64;
            for pos in 0..t_logits.rows() {
                let label = argmax(t_logits.row(pos));
                let probs = softmax_vec(s_logits.row(pos));
                let p = probs[label].max(1e-12);
                ce += -p.ln();
            }
            (ce, t_logits.rows())
        });
        let mut total_ce = 0.0f64;
        let mut count = 0usize;
        for (ce, rows) in partials {
            total_ce += ce;
            count += rows;
        }
        if count == 0 {
            1.0
        } else {
            (total_ce / count as f64).exp()
        }
    }

    /// Calibration in one piece: every candidate's forward, then one
    /// stable sort of all of them by margin. The oracle of the chunked
    /// calibration, which must keep the same inputs and logits.
    fn confident_in_one_sort(
        teacher: &TinyTransformer,
        n_inputs: usize,
        oversample: usize,
        rng: &mut Rng,
    ) -> (Vec<Vec<usize>>, Vec<Tensor>) {
        let candidates = EvalTask::generate("unit", &teacher.config, n_inputs * oversample, rng);
        let mut scored: Vec<(f32, Vec<usize>, Tensor)> = candidates
            .inputs
            .into_iter()
            .map(|input| {
                let logits = teacher.forward(&input, None);
                (decision_margin(&logits), input, logits)
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        scored
            .into_iter()
            .take(n_inputs)
            .map(|(_, input, logits)| (input, logits))
            .unzip()
    }

    /// Whether two tensor lists hold the same shapes and the same bits
    /// (-0.0 and NaN would slip past `==`).
    fn same_bits(got: &[Tensor], want: &[Tensor]) -> bool {
        got.len() == want.len()
            && got.iter().zip(want).all(|(a, b)| {
                a.shape() == b.shape()
                    && a.data()
                        .iter()
                        .zip(b.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }

    fn setup() -> (TinyTransformer, EvalTask) {
        let cfg = EngineConfig::tiny();
        let mut rng = Rng::seed_from(42);
        let teacher = TinyTransformer::generate(cfg, OutlierSeverity::transformer(), &mut rng);
        let task = EvalTask::generate("unit", &cfg, 12, &mut rng);
        (teacher, task)
    }

    #[test]
    fn forward_produces_logits_of_right_shape() {
        let (teacher, task) = setup();
        let logits = teacher.forward(&task.inputs[0], None);
        assert_eq!(
            logits.shape(),
            &[teacher.config.seq_len, teacher.config.vocab]
        );
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_on_no_tokens_returns_no_rows() {
        let (teacher, _) = setup();
        let q = OliveQuantizer::int4();
        for act in [None, Some(&q as &dyn TensorQuantizer)] {
            let logits = teacher.forward(&[], act);
            assert_eq!(logits.shape(), &[0, teacher.config.vocab]);
        }
    }

    #[test]
    fn teacher_agrees_with_itself() {
        let (teacher, task) = setup();
        assert_eq!(agreement(&teacher, &teacher, &task, None), 1.0);
    }

    #[test]
    fn fp32_baseline_student_is_identical() {
        let (teacher, task) = setup();
        let student = teacher.quantize_weights(&Fp32Baseline);
        assert_eq!(agreement(&teacher, &student, &task, None), 1.0);
    }

    #[test]
    fn olive_4bit_weights_preserve_most_predictions() {
        let (teacher, task) = setup();
        let student = teacher.quantize_weights(&OliveQuantizer::int4());
        let acc = agreement(&teacher, &student, &task, None);
        assert!(acc >= 0.75, "agreement {}", acc);
    }

    #[test]
    fn olive_beats_uniform_int4() {
        let (teacher, task) = setup();
        let olive = teacher.quantize_weights(&OliveQuantizer::int4());
        let int4 = teacher.quantize_weights(&UniformQuantizer::int4());
        let acc_olive = agreement(&teacher, &olive, &task, None);
        let acc_int4 = agreement(&teacher, &int4, &task, None);
        assert!(
            acc_olive >= acc_int4,
            "olive {} vs int4 {}",
            acc_olive,
            acc_int4
        );
    }

    #[test]
    fn position_agreement_is_perfect_for_identity_and_bounded_otherwise() {
        let (teacher, task) = setup();
        assert_eq!(position_agreement(&teacher, &teacher, &task, None), 1.0);
        let student = teacher.quantize_weights(&UniformQuantizer::int4());
        let pos = position_agreement(&teacher, &student, &task, None);
        assert!((0.0..=1.0).contains(&pos));
        // Matching at every position is at most as easy as matching anywhere,
        // so the per-position score is bounded by 1 and thread-invariant.
        let seq =
            olive_runtime::with_threads(1, || position_agreement(&teacher, &student, &task, None));
        let par =
            olive_runtime::with_threads(8, || position_agreement(&teacher, &student, &task, None));
        assert_eq!(seq, par);
    }

    #[test]
    fn perplexity_of_identity_student_is_low() {
        let (teacher, task) = setup();
        let ppl_self = pseudo_perplexity(&teacher, &teacher, &task, None);
        let int4 = teacher.quantize_weights(&UniformQuantizer::int4());
        let ppl_int4 = pseudo_perplexity(&teacher, &int4, &task, None);
        assert!(ppl_self < ppl_int4, "{} vs {}", ppl_self, ppl_int4);
    }

    #[test]
    fn clipping_outliers_destroys_agreement_more_than_victim_pruning() {
        // The Fig. 3 motivation, reproduced end-to-end on the proxy model.
        let (teacher, task) = setup();
        let clipped = teacher.map_weights(|_, w| {
            let s = olive_tensor::stats::TensorStats::compute(w);
            let thr = (s.mean.abs() + 3.0 * s.std) as f32;
            olive_core::pair::clip_outliers(w, thr)
        });
        let pruned = teacher.map_weights(|_, w| {
            let s = olive_tensor::stats::TensorStats::compute(w);
            let thr = (s.mean.abs() + 3.0 * s.std) as f32;
            olive_core::pair::prune_victims(w, thr)
        });
        let acc_clip = agreement(&teacher, &clipped, &task, None);
        let acc_prune = agreement(&teacher, &pruned, &task, None);
        assert!(
            acc_prune >= acc_clip,
            "prune {} vs clip {}",
            acc_prune,
            acc_clip
        );
    }

    #[test]
    fn activation_quantization_is_supported() {
        let (teacher, task) = setup();
        let student = teacher.quantize_weights(&OliveQuantizer::int4());
        let q = OliveQuantizer::int4();
        let acc = agreement(&teacher, &student, &task, Some(&q));
        assert!(acc > 0.3, "agreement {}", acc);
    }

    #[test]
    fn eval_scores_is_bit_identical_to_the_standalone_metrics() {
        let (teacher, task) = setup();
        let student = teacher.quantize_weights(&OliveQuantizer::int4());
        let q = OliveQuantizer::int4();
        for threads in [1, 8] {
            olive_runtime::with_threads(threads, || {
                let t_logits = teacher_logits(&teacher, &task);
                for act in [None, Some(&q as &dyn TensorQuantizer)] {
                    let oracle = EvalScores {
                        fidelity: logit_fidelity(&teacher, &student, &task, act),
                        agreement: agreement(&teacher, &student, &task, act),
                        position_agreement: position_agreement(&teacher, &student, &task, act),
                        perplexity: pseudo_perplexity(&teacher, &student, &task, act),
                    };
                    let split = student_scores(&t_logits, &student, &task, act);
                    let fused = eval_scores(&teacher, &student, &task, act);
                    for got in [split, fused] {
                        // Bits, not values: -0.0 and NaN would slip past `==`.
                        assert_eq!(got.fidelity.to_bits(), oracle.fidelity.to_bits());
                        assert_eq!(got.agreement.to_bits(), oracle.agreement.to_bits());
                        assert_eq!(
                            got.position_agreement.to_bits(),
                            oracle.position_agreement.to_bits()
                        );
                        assert_eq!(got.perplexity.to_bits(), oracle.perplexity.to_bits());
                    }
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "one teacher logits tensor per task input")]
    fn student_scores_reject_mismatched_teacher_logits() {
        let (teacher, task) = setup();
        let t_logits = teacher_logits(&teacher, &task);
        let _ = student_scores(&t_logits[1..], &teacher, &task, None);
    }

    #[test]
    fn eval_scores_of_empty_task_is_neutral() {
        let (teacher, _) = setup();
        let empty = EvalTask {
            name: "empty".into(),
            inputs: vec![],
        };
        let s = eval_scores(&teacher, &teacher, &empty, None);
        assert_eq!(s.fidelity, 1.0);
        assert_eq!(s.agreement, 1.0);
        assert_eq!(s.position_agreement, 1.0);
        assert_eq!(s.perplexity, 1.0);
    }

    #[test]
    fn batched_eval_is_thread_count_invariant() {
        // The full teacher/student evaluation stack — batched forward passes,
        // the parallel GEMMs under them, and the f64 score reductions — must
        // produce bit-identical scores at 1 and 8 threads.
        let (teacher, task) = setup();
        let student = teacher.quantize_weights(&OliveQuantizer::int4());
        let q = OliveQuantizer::int4();
        let run = || eval_scores(&teacher, &student, &task, Some(&q));
        let seq = olive_runtime::with_threads(1, run);
        let par = olive_runtime::with_threads(8, run);
        assert_eq!(seq, par);
    }

    #[test]
    fn confident_task_selection_is_thread_count_invariant() {
        let cfg = EngineConfig::tiny();
        let mut rng = Rng::seed_from(7);
        let teacher = TinyTransformer::generate(cfg, OutlierSeverity::llm(), &mut rng);
        let gen = |threads: usize| {
            olive_runtime::with_threads(threads, || {
                let plain =
                    EvalTask::generate_confident("unit", &teacher, 6, 4, &mut Rng::seed_from(99));
                let (task, logits) = EvalTask::generate_confident_with_logits(
                    "unit",
                    &teacher,
                    6,
                    4,
                    &mut Rng::seed_from(99),
                );
                assert_eq!(task.inputs, plain.inputs);
                // Calibration's logits are the teacher half of the kept
                // inputs, bit for bit.
                let want: Vec<Tensor> = task
                    .inputs
                    .iter()
                    .map(|input| teacher.forward(input, None))
                    .collect();
                assert!(same_bits(&logits, &want));
                (task.inputs, logits)
            })
        };
        let (seq_inputs, seq_logits) = gen(1);
        let (par_inputs, par_logits) = gen(8);
        assert_eq!(seq_inputs, par_inputs);
        assert!(same_bits(&seq_logits, &par_logits));
    }

    #[test]
    fn chunked_calibration_keeps_what_one_sort_of_every_candidate_keeps() {
        // 5 × 40 = 200 candidates: three full chunks and a partial one. The
        // all-zero teacher's logits are all zero, so every margin ties and
        // the first five candidates are kept, across chunk boundaries.
        let (teacher, _) = setup();
        let flat = teacher.map_weights(|_, w| w.map(|_| 0.0));
        for model in [&teacher, &flat] {
            for threads in [1, 8] {
                olive_runtime::with_threads(threads, || {
                    let mut rng = Rng::seed_from(5);
                    let (task, logits) =
                        EvalTask::generate_confident_with_logits("unit", model, 5, 40, &mut rng);
                    let mut one_sort_rng = Rng::seed_from(5);
                    let (inputs, want) = confident_in_one_sort(model, 5, 40, &mut one_sort_rng);
                    assert_eq!(task.inputs, inputs, "{threads} threads");
                    assert!(same_bits(&logits, &want), "{threads} threads");
                    // Both drew every candidate from the generator.
                    assert_eq!(rng.next_u64(), one_sort_rng.next_u64());
                });
            }
        }
        let (ties, _) =
            EvalTask::generate_confident_with_logits("unit", &flat, 5, 40, &mut Rng::seed_from(5));
        let first = EvalTask::generate("unit", &flat.config, 5, &mut Rng::seed_from(5));
        assert_eq!(ties.inputs, first.inputs);
    }

    #[test]
    fn map_weights_puts_each_result_in_its_own_slot() {
        // Each mapped matrix lands in its own slot, at any thread count:
        // tag every matrix with its position in `named_weights`.
        let (teacher, _) = setup();
        let names: Vec<String> = teacher
            .named_weights()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        for threads in [1, 8] {
            let tagged = olive_runtime::with_threads(threads, || {
                teacher.map_weights(|name, w| {
                    let tag = names.iter().position(|n| n == name).unwrap() as f32;
                    w.map(|_| tag)
                })
            });
            for (i, (_, w)) in tagged.named_weights().into_iter().enumerate() {
                assert!(w.data().iter().all(|&v| v == i as f32), "slot {i}");
            }
            // Everything but the weight matrices is copied as it is.
            assert_eq!(tagged.config, teacher.config);
            for (got, want) in tagged.layers.iter().zip(&teacher.layers) {
                assert_eq!(got.ln1_gamma, want.ln1_gamma);
                assert_eq!(got.ln1_beta, want.ln1_beta);
                assert_eq!(got.ln2_gamma, want.ln2_gamma);
                assert_eq!(got.ln2_beta, want.ln2_beta);
            }
            assert_eq!(tagged.ln_f_gamma, teacher.ln_f_gamma);
            assert_eq!(tagged.ln_f_beta, teacher.ln_f_beta);
        }
    }

    #[test]
    fn named_weights_cover_all_layers() {
        let (teacher, _) = setup();
        let names = teacher.named_weights();
        assert_eq!(names.len(), 1 + 4 * teacher.config.n_layers);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_vocab_token_panics() {
        let (teacher, _) = setup();
        let _ = teacher.forward(&[100_000], None);
    }
}
