//! Incremental autoregressive decoding for the proxy Transformer.
//!
//! Generative serving means one request turns into hundreds of decode steps,
//! each a full quantized-GEMM workload — exactly the traffic shape the
//! paper's accelerator targets. This module adds that workload class to the
//! proxy model in two bit-identical flavours:
//!
//! * [`TinyTransformer::forward_causal`] — the **batch** (prefill) path: one
//!   causally-masked forward pass over a whole token sequence, the reference
//!   semantics;
//! * [`DecodeSession`] — the **incremental** path: a resumable session that
//!   caches every layer's per-position keys and values, so pushing token
//!   *t + 1* reuses all of step *t*'s prefix work instead of recomputing the
//!   full forward pass (O(len) work per step instead of O(len²)).
//!
//! ## Step-schedulable decoding (continuous batching)
//!
//! The incremental path is itself split so a serving scheduler can drive
//! many streams through shared GEMMs:
//!
//! * [`TinyTransformer::advance_batch`] advances the *current step* of K
//!   independent streams at once: one `[K, d]` embed, one batched
//!   layer-norm/quantize/GEMM pipeline per layer, with each stream's
//!   attention reading only its own externally-owned [`KvStore`]
//!   ([`StepSlot`] carries the store, token, and position per stream);
//! * [`TinyTransformer::advance_one`] is the K = 1 case, and
//!   [`DecodeSession::push`] is a thin wrapper over it holding a
//!   [`VecKv`](crate::kv::VecKv) — single-stream and batched decoding share
//!   one code path, so they cannot drift apart.
//!
//! Because every non-GEMM op in the step is per-row (layer norm, per-row
//! activation quantization, GELU, residual add) and every GEMM row is
//! accumulated in ascending-`k` order regardless of the batch's row count
//! (the `olive-tensor` kernel contract), row *i* of an `advance_batch` over
//! K streams is **bit-identical** to the lone-stream `push` of that token —
//! the property that lets `olive-serve` merge concurrent `/v1/generate`
//! streams into one forward per tick without changing a single output byte.
//!
//! ## The decode-cache determinism contract
//!
//! For any token sequence, thread count and activation quantizer, row *i* of
//! `forward_causal(&tokens[..=i])` is **bit-identical** to the logits
//! [`DecodeSession::push`] returns for token *i* — enforced by the property
//! tests below. The contract holds by construction:
//!
//! * every GEMM row is accumulated in the same ascending-`k` order whether it
//!   is computed as one row of a batch product or as a `[1, k]` product (the
//!   `olive-tensor` kernel contract), and the runtime's determinism contract
//!   makes that independent of `OLIVE_THREADS`;
//! * attention is causal, so a position's keys/values never change once
//!   computed, and the softmax over a masked batch row is bit-identical to
//!   the softmax over the unmasked prefix (masked lanes contribute exactly
//!   `exp(-inf) = 0.0`, and the GEMM kernels skip zero activations);
//! * activation quantization is **per row** (each position's activation is
//!   calibrated on its own `d` values — dynamic per-token scales, as
//!   decode-time quantization does in deployment), so a row's quantized
//!   values cannot depend on later rows.
//!
//! Note the *causal* forward is a different function from the bidirectional
//! [`TinyTransformer::forward`] used by the evaluation metrics: full
//! bidirectional attention lets every position read every other, which makes
//! incremental reuse impossible by definition. The evaluation path and its
//! goldens are untouched.

use crate::engine::{argmax, TinyTransformer};
use crate::kv::{KvStore, VecKv};
use olive_core::TensorQuantizer;
use olive_tensor::matmul::{gelu, layer_norm, matmul, matmul_transpose_b, softmax_rows};
use olive_tensor::Tensor;

/// Fake-quantizes each row of `t` on its own (per-token dynamic calibration
/// — see the module docs for why decode requires this), writing every row
/// straight into the output.
fn quantize_rows(t: &Tensor, q: Option<&dyn TensorQuantizer>) -> Tensor {
    let Some(q) = q else {
        return t.clone();
    };
    let mut out = Tensor::zeros(vec![t.rows(), t.cols()]);
    for i in 0..t.rows() {
        q.quantize_dequantize_into(t.row(i), out.row_mut(i));
    }
    out
}

/// The token-embedding row for `token` at position `pos`, including the
/// deterministic sinusoidal position signal (same formula as the batch
/// embedding in `TinyTransformer::forward`).
fn embed_row(model: &TinyTransformer, token: usize, pos: usize) -> Tensor {
    let d = model.config.d_model;
    assert!(token < model.config.vocab, "token {} out of range", token);
    let mut x = Tensor::zeros(vec![1, d]);
    for j in 0..d {
        let pe = ((pos as f32) / 64f32.powf(j as f32 / d as f32)).sin() * 0.1;
        x[[0, j]] = model.embedding[[token, j]] + pe;
    }
    x
}

impl TinyTransformer {
    /// Causally-masked forward pass: position *i* attends only to positions
    /// `0..=i`. Returns the logits of every position, `[seq_len, vocab]`.
    ///
    /// This is the batch (prefill) reference for autoregressive decoding;
    /// [`DecodeSession`] computes the same logits incrementally,
    /// bit-identically (see the module docs). Activation quantization, when
    /// requested, is applied per row.
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of vocabulary range.
    pub fn forward_causal(
        &self,
        tokens: &[usize],
        act_quant: Option<&dyn TensorQuantizer>,
    ) -> Tensor {
        let d = self.config.d_model;
        let seq = tokens.len();
        let mut x = Tensor::zeros(vec![seq, d]);
        for (pos, &tok) in tokens.iter().enumerate() {
            let row = embed_row(self, tok, pos);
            x.row_mut(pos).copy_from_slice(row.row(0));
        }

        for layer in &self.layers {
            let normed = layer_norm(&x, &layer.ln1_gamma, &layer.ln1_beta, 1e-5);
            let qkv_in = quantize_rows(&normed, act_quant);
            let qkv = matmul(&qkv_in, &layer.wqkv);
            let attn = self.attention_causal(&qkv);
            let attn_in = quantize_rows(&attn, act_quant);
            let out = matmul(&attn_in, &layer.wo);
            x = x.add(&out);

            let normed = layer_norm(&x, &layer.ln2_gamma, &layer.ln2_beta, 1e-5);
            let ffn_in = quantize_rows(&normed, act_quant);
            let h = gelu(&matmul(&ffn_in, &layer.w1));
            let h_in = quantize_rows(&h, act_quant);
            let ffn = matmul(&h_in, &layer.w2);
            x = x.add(&ffn);
        }

        let normed = layer_norm(&x, &self.ln_f_gamma, &self.ln_f_beta, 1e-5);
        let head_in = quantize_rows(&normed, act_quant);
        matmul_transpose_b(&head_in, &self.embedding)
    }

    /// Multi-head self-attention over a fused `[seq, 3·d_model]` QKV tensor
    /// with a causal mask: scores above the diagonal are `-inf` before the
    /// softmax, so `exp` maps them to exactly `0.0` and they contribute
    /// nothing to the context GEMM (whose kernel skips zero activations).
    fn attention_causal(&self, qkv: &Tensor) -> Tensor {
        let d = self.config.d_model;
        let seq = qkv.rows();
        let heads = self.config.n_heads;
        let dh = self.config.head_dim();
        let mut out = Tensor::zeros(vec![seq, d]);
        for h in 0..heads {
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
            let mut scores = matmul_transpose_b(&q, &k).scale(scale);
            for i in 0..seq {
                for j in (i + 1)..seq {
                    scores[[i, j]] = f32::NEG_INFINITY;
                }
            }
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

    /// Advances the current step of every stream in `slots` through **one**
    /// batched forward: a `[K, d]` embed and one layer-norm → quantize →
    /// GEMM pipeline per layer, shared by all K streams. Each stream's
    /// attention reads only its own [`KvStore`] (its new key/value rows are
    /// appended first), so streams stay fully independent. Returns each
    /// stream's logits in slot order.
    ///
    /// Row *i* of the batch is bit-identical to advancing stream *i* alone
    /// (see the module docs for why), at any `OLIVE_THREADS` — the property
    /// continuous batching in `olive-serve` rests on.
    ///
    /// # Panics
    ///
    /// Panics if any slot's token id is out of vocabulary range.
    pub fn advance_batch(
        &self,
        act_quant: Option<&dyn TensorQuantizer>,
        slots: &mut [StepSlot<'_>],
    ) -> Vec<Vec<f32>> {
        let d = self.config.d_model;
        let k = slots.len();
        if k == 0 {
            return Vec::new();
        }
        let mut x = Tensor::zeros(vec![k, d]);
        for (i, slot) in slots.iter().enumerate() {
            let row = embed_row(self, slot.token, slot.pos);
            x.row_mut(i).copy_from_slice(row.row(0));
        }

        for (li, layer) in self.layers.iter().enumerate() {
            let normed = layer_norm(&x, &layer.ln1_gamma, &layer.ln1_beta, 1e-5);
            let qkv_in = quantize_rows(&normed, act_quant);
            let qkv = matmul(&qkv_in, &layer.wqkv);
            let mut attn = Tensor::zeros(vec![k, d]);
            for (i, slot) in slots.iter_mut().enumerate() {
                let row = qkv.row(i);
                slot.kv.append(li, &row[d..2 * d], &row[2 * d..3 * d]);
                let ctx = self.attention_step(&*slot.kv, li, row, slot.pos + 1);
                attn.row_mut(i).copy_from_slice(ctx.row(0));
            }
            let attn_in = quantize_rows(&attn, act_quant);
            let out = matmul(&attn_in, &layer.wo);
            x = x.add(&out);

            let normed = layer_norm(&x, &layer.ln2_gamma, &layer.ln2_beta, 1e-5);
            let ffn_in = quantize_rows(&normed, act_quant);
            let h = gelu(&matmul(&ffn_in, &layer.w1));
            let h_in = quantize_rows(&h, act_quant);
            let ffn = matmul(&h_in, &layer.w2);
            x = x.add(&ffn);
        }

        let normed = layer_norm(&x, &self.ln_f_gamma, &self.ln_f_beta, 1e-5);
        let head_in = quantize_rows(&normed, act_quant);
        let logits = matmul_transpose_b(&head_in, &self.embedding);
        (0..k).map(|i| logits.row(i).to_vec()).collect()
    }

    /// Advances one stream by one token against an externally-owned
    /// [`KvStore`]: the K = 1 case of [`advance_batch`](Self::advance_batch).
    /// `pos` is the number of positions already in `kv`.
    pub fn advance_one(
        &self,
        act_quant: Option<&dyn TensorQuantizer>,
        kv: &mut dyn KvStore,
        token: usize,
        pos: usize,
    ) -> Vec<f32> {
        let mut slots = [StepSlot { kv, token, pos }];
        self.advance_batch(act_quant, &mut slots)
            .pop()
            .expect("one slot in, one logits row out")
    }

    /// Attention for a stream's newest position: its query row against the
    /// cached keys/values of positions `0..rows` (the just-appended row
    /// included). `qkv_row` is the fused `[3·d_model]` QKV row; only its
    /// query third is read here (keys/values come from the store).
    fn attention_step(&self, kv: &dyn KvStore, li: usize, qkv_row: &[f32], rows: usize) -> Tensor {
        let d = self.config.d_model;
        let heads = self.config.n_heads;
        let dh = self.config.head_dim();
        let mut out = Tensor::zeros(vec![1, d]);
        for h in 0..heads {
            let mut q = Tensor::zeros(vec![1, dh]);
            let mut k = Tensor::zeros(vec![rows, dh]);
            let mut v = Tensor::zeros(vec![rows, dh]);
            for j in 0..dh {
                q[[0, j]] = qkv_row[h * dh + j];
            }
            for i in 0..rows {
                let kc = kv.k_row(li, i);
                let vc = kv.v_row(li, i);
                for j in 0..dh {
                    k[[i, j]] = kc[h * dh + j];
                    v[[i, j]] = vc[h * dh + j];
                }
            }
            let scale = 1.0 / (dh as f32).sqrt();
            let scores = matmul_transpose_b(&q, &k).scale(scale);
            let probs = softmax_rows(&scores);
            let ctx = matmul(&probs, &v);
            for j in 0..dh {
                out[[0, j + h * dh]] = ctx[[0, j]];
            }
        }
        out
    }
}

/// One stream's current step, as fed to
/// [`TinyTransformer::advance_batch`]: which token to decode, at which
/// position, into which externally-owned KV store.
pub struct StepSlot<'s> {
    /// The stream's KV store (exclusively borrowed for the step).
    pub kv: &'s mut dyn KvStore,
    /// The token to decode this step.
    pub token: usize,
    /// The token's position — the number of positions already in `kv`.
    pub pos: usize,
}

/// A resumable incremental decoding session over one model.
///
/// Holds per-layer key/value caches; [`push`](DecodeSession::push)ing a token
/// computes only that position's activations (reusing every earlier
/// position's cached keys/values) and returns its logits — bit-identical to
/// the corresponding row of [`TinyTransformer::forward_causal`] over the full
/// token sequence, at any `OLIVE_THREADS` (the decode-cache determinism
/// contract, see the module docs).
pub struct DecodeSession<'a> {
    model: &'a TinyTransformer,
    act_quant: Option<&'a dyn TensorQuantizer>,
    /// Per-layer key/value rows, fused head-major like QKV — the session
    /// owns its storage; schedulers that pool storage use
    /// [`TinyTransformer::advance_batch`] directly instead.
    kv: VecKv,
    tokens: Vec<usize>,
}

impl<'a> DecodeSession<'a> {
    /// An empty session over `model`, quantizing per-row activations with
    /// `act_quant` when given.
    pub fn new(model: &'a TinyTransformer, act_quant: Option<&'a dyn TensorQuantizer>) -> Self {
        DecodeSession {
            model,
            act_quant,
            kv: VecKv::new(model.config.n_layers, model.config.d_model),
            tokens: Vec::new(),
        }
    }

    /// Positions decoded so far.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True before the first [`push`](DecodeSession::push).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The tokens pushed so far, in order.
    pub fn tokens(&self) -> &[usize] {
        &self.tokens
    }

    /// Decodes one token at the next position and returns that position's
    /// logits (`vocab` values) — the distribution over the *next* token.
    ///
    /// # Panics
    ///
    /// Panics if the token id is out of vocabulary range.
    pub fn push(&mut self, token: usize) -> Vec<f32> {
        let pos = self.tokens.len();
        let logits = self
            .model
            .advance_one(self.act_quant, &mut self.kv, token, pos);
        self.tokens.push(token);
        logits
    }

    /// Pushes every token of `prompt` and returns the last position's logits
    /// (`None` for an empty prompt).
    pub fn prefill(&mut self, prompt: &[usize]) -> Option<Vec<f32>> {
        let mut last = None;
        for &token in prompt {
            last = Some(self.push(token));
        }
        last
    }
}

/// Greedy (argmax) continuation of `prompt` by `max_new_tokens` tokens via
/// the incremental [`DecodeSession`] path. Returns only the new tokens.
///
/// # Panics
///
/// Panics on an empty prompt (there is no distribution to continue from) or
/// out-of-vocabulary prompt tokens.
pub fn generate_greedy(
    model: &TinyTransformer,
    prompt: &[usize],
    max_new_tokens: usize,
    act_quant: Option<&dyn TensorQuantizer>,
) -> Vec<usize> {
    let mut session = DecodeSession::new(model, act_quant);
    let mut logits = session
        .prefill(prompt)
        .expect("generate_greedy requires a non-empty prompt");
    let mut generated = Vec::with_capacity(max_new_tokens);
    for _ in 0..max_new_tokens {
        let next = argmax(&logits);
        generated.push(next);
        logits = session.push(next);
    }
    generated
}

/// Reference greedy generation that recomputes the full causal forward pass
/// every step — O(len²) per token, used to pin the [`DecodeSession`] fast
/// path down in tests and benches.
///
/// # Panics
///
/// Panics on an empty prompt or out-of-vocabulary prompt tokens.
pub fn generate_greedy_recompute(
    model: &TinyTransformer,
    prompt: &[usize],
    max_new_tokens: usize,
    act_quant: Option<&dyn TensorQuantizer>,
) -> Vec<usize> {
    assert!(
        !prompt.is_empty(),
        "generate_greedy_recompute requires a non-empty prompt"
    );
    let mut tokens = prompt.to_vec();
    let mut generated = Vec::with_capacity(max_new_tokens);
    for _ in 0..max_new_tokens {
        let logits = model.forward_causal(&tokens, act_quant);
        let next = argmax(logits.row(logits.rows() - 1));
        generated.push(next);
        tokens.push(next);
    }
    generated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, OutlierSeverity};
    use olive_core::OliveQuantizer;
    use olive_tensor::rng::Rng;

    fn teacher(seed: u64) -> TinyTransformer {
        let mut rng = Rng::seed_from(seed);
        TinyTransformer::generate(EngineConfig::tiny(), OutlierSeverity::llm(), &mut rng)
    }

    fn random_tokens(rng: &mut Rng, vocab: usize, len: usize) -> Vec<usize> {
        (0..len).map(|_| rng.below(vocab)).collect()
    }

    #[test]
    fn causal_logits_have_the_right_shape_and_are_finite() {
        let model = teacher(1);
        let logits = model.forward_causal(&[1, 2, 3], None);
        assert_eq!(logits.shape(), &[3, model.config.vocab]);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn causal_prefix_invariance() {
        // The defining property of causality: earlier rows do not change
        // when the sequence is extended.
        let model = teacher(2);
        let long = model.forward_causal(&[5, 9, 2, 7], None);
        let short = model.forward_causal(&[5, 9, 2], None);
        for pos in 0..3 {
            assert_eq!(long.row(pos), short.row(pos), "position {pos}");
        }
    }

    /// The decode-cache determinism contract, property-tested: incremental
    /// push-by-push logits are bit-identical to the batch causal forward,
    /// with and without (per-row) activation quantization, at 1 and 8
    /// threads.
    #[test]
    fn decode_session_is_bit_identical_to_batch_causal_forward() {
        let cfg = EngineConfig::tiny();
        let config = olive_harness::check::CheckConfig {
            cases: 12,
            ..Default::default()
        };
        olive_harness::check::check_with(
            config,
            "decode_session_matches_batch",
            |rng| {
                let seed = rng.next_u64();
                let len = 1 + rng.below(2 * cfg.seq_len);
                (seed, random_tokens(rng, cfg.vocab, len))
            },
            |(seed, tokens)| {
                let model = teacher(*seed);
                let q = OliveQuantizer::int4();
                for act in [None, Some(&q as &dyn TensorQuantizer)] {
                    for threads in [1usize, 8] {
                        let diverged = olive_runtime::with_threads(threads, || {
                            let batch = model.forward_causal(tokens, act);
                            let mut session = DecodeSession::new(&model, act);
                            for (pos, &tok) in tokens.iter().enumerate() {
                                if session.push(tok).as_slice() != batch.row(pos) {
                                    return Some(pos);
                                }
                            }
                            None
                        });
                        if let Some(pos) = diverged {
                            return Err(format!(
                                "incremental logits diverged from the batch causal \
                                 forward at position {pos} (act={}, threads={threads})",
                                act.is_some(),
                            ));
                        }
                    }
                }
                Ok(())
            },
        );
    }

    /// Continuous batching's foundation: advancing K interleaved streams via
    /// one `advance_batch` per tick is bit-identical to K independent
    /// `DecodeSession::push` streams — across storage backends (pooled
    /// `PagedKv` and plain `VecKv`), activation quantization, thread counts,
    /// and streams of different lengths joining/leaving the batch.
    #[test]
    fn advance_batch_is_bit_identical_to_independent_pushes() {
        use crate::kv::{pages_needed, KvPool, KvStore, PagedKv};
        let model = teacher(11);
        let cfg = &model.config;
        let mut rng = Rng::seed_from(41);
        let lens = [9usize, 4, 7, 1];
        let streams: Vec<Vec<usize>> = lens
            .iter()
            .map(|&len| random_tokens(&mut rng, cfg.vocab, len))
            .collect();
        let q = OliveQuantizer::int4();
        for act in [None, Some(&q as &dyn TensorQuantizer)] {
            for threads in [1usize, 8] {
                olive_runtime::with_threads(threads, || {
                    // Reference: each stream pushed alone.
                    let expected: Vec<Vec<Vec<f32>>> = streams
                        .iter()
                        .map(|tokens| {
                            let mut session = DecodeSession::new(&model, act);
                            tokens.iter().map(|&t| session.push(t)).collect()
                        })
                        .collect();
                    // Batched: tiny pages force paging mid-stream; stream 1
                    // uses VecKv to prove storage-agnosticism in one batch.
                    let page_floats = 2 * cfg.d_model;
                    let mut pool = KvPool::new(page_floats, 256);
                    let tpp = page_floats / cfg.d_model;
                    let mut stores: Vec<Box<dyn KvStore>> = streams
                        .iter()
                        .enumerate()
                        .map(|(s, tokens)| -> Box<dyn KvStore> {
                            if s == 1 {
                                Box::new(VecKv::new(cfg.n_layers, cfg.d_model))
                            } else {
                                let need = pages_needed(cfg.n_layers, tokens.len(), tpp);
                                let pages = pool.try_reserve(need).expect("pool is large enough");
                                Box::new(PagedKv::new(
                                    cfg.n_layers,
                                    cfg.d_model,
                                    page_floats,
                                    pages,
                                ))
                            }
                        })
                        .collect();
                    for tick in 0..lens.iter().max().copied().unwrap() {
                        let live: Vec<usize> =
                            (0..streams.len()).filter(|&s| tick < lens[s]).collect();
                        let mut slots = Vec::new();
                        for (&s, kv) in live.iter().zip(
                            stores
                                .iter_mut()
                                .enumerate()
                                .filter(|(s, _)| tick < lens[*s])
                                .map(|(_, kv)| kv),
                        ) {
                            slots.push(StepSlot {
                                kv: kv.as_mut(),
                                token: streams[s][tick],
                                pos: tick,
                            });
                        }
                        let logits = model.advance_batch(act, &mut slots);
                        assert_eq!(logits.len(), live.len());
                        for (row, &s) in logits.iter().zip(&live) {
                            assert_eq!(
                                row,
                                &expected[s][tick],
                                "stream {s} diverged at tick {tick} \
                                 (act={}, threads={threads})",
                                act.is_some()
                            );
                        }
                    }
                });
            }
        }
    }

    #[test]
    fn decode_session_resumes_mid_stream() {
        // prefill(prompt) then push(rest) must equal pushing everything —
        // the property that makes the serve layer's streaming resumable.
        let model = teacher(3);
        let mut rng = Rng::seed_from(17);
        let tokens = random_tokens(&mut rng, model.config.vocab, 9);
        let mut whole = DecodeSession::new(&model, None);
        let mut last_whole = Vec::new();
        for &t in &tokens {
            last_whole = whole.push(t);
        }
        let mut split = DecodeSession::new(&model, None);
        split.prefill(&tokens[..4]).unwrap();
        let mut last_split = Vec::new();
        for &t in &tokens[4..] {
            last_split = split.push(t);
        }
        assert_eq!(last_whole, last_split);
        assert_eq!(whole.tokens(), split.tokens());
        assert_eq!(whole.len(), 9);
        assert!(!whole.is_empty());
    }

    #[test]
    fn incremental_greedy_generation_matches_full_recompute() {
        let q = OliveQuantizer::int4();
        for seed in [4u64, 5, 6] {
            let model = teacher(seed);
            let mut rng = Rng::seed_from(seed ^ 0xABCD);
            let prompt = random_tokens(&mut rng, model.config.vocab, 6);
            for act in [None, Some(&q as &dyn TensorQuantizer)] {
                let fast = generate_greedy(&model, &prompt, 12, act);
                let slow = generate_greedy_recompute(&model, &prompt, 12, act);
                assert_eq!(fast, slow, "seed {seed}, act={}", act.is_some());
                assert!(fast.iter().all(|&t| t < model.config.vocab));
            }
        }
    }

    #[test]
    fn generation_is_thread_count_invariant() {
        let model = teacher(7);
        let mut rng = Rng::seed_from(23);
        let prompt = random_tokens(&mut rng, model.config.vocab, 5);
        let run = || generate_greedy(&model, &prompt, 10, None);
        let seq = olive_runtime::with_threads(1, run);
        let par = olive_runtime::with_threads(8, run);
        assert_eq!(seq, par);
    }

    #[test]
    fn quantized_student_still_tracks_the_teacher_closely() {
        // A sanity anchor for the generation workload: an OliVe-4bit student
        // should agree with its teacher on a majority of greedy steps.
        let model = teacher(8);
        let student = model.quantize_weights(&OliveQuantizer::int4());
        let mut rng = Rng::seed_from(31);
        let prompt = random_tokens(&mut rng, model.config.vocab, 8);
        let teacher_tokens = generate_greedy(&model, &prompt, 16, None);
        let student_tokens = generate_greedy(&student, &prompt, 16, None);
        let agree = teacher_tokens
            .iter()
            .zip(&student_tokens)
            .filter(|(a, b)| a == b)
            .count();
        assert!(agree * 2 >= teacher_tokens.len(), "agreement {agree}/16");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_session_rejects_out_of_vocab_tokens() {
        let model = teacher(9);
        let mut session = DecodeSession::new(&model, None);
        let _ = session.push(100_000);
    }
}
