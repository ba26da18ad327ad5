//! Incremental autoregressive decoding for the proxy Transformer, and the
//! one layer stack every forward of it runs.
//!
//! Generative serving means one request turns into hundreds of decode steps,
//! each a full quantized-GEMM workload — exactly the traffic shape the
//! paper's accelerator targets. This module adds that workload class to the
//! proxy model: [`DecodeSession`] is a resumable session that caches every
//! layer's per-position keys and values, so pushing token *t + 1* reuses all
//! of step *t*'s prefix work instead of recomputing the full forward pass
//! (O(len) work per step instead of O(len²)).
//!
//! ## One layer stack
//!
//! Every forward of the model — the eval [`TinyTransformer::forward`] and
//! every decode feed — runs one private layer stack. It stacks its slots'
//! runs of tokens into one `[Σ run, d]` embed → layer-norm → act-quant →
//! GEMM pipeline per layer. Per layer, every row appends its key/value row
//! to its own stream's [`KvStore`] first; then each row attends, reading
//! its stream's keys and values in place from the store. The stack takes
//! two parameters:
//!
//! * the **mask**. Causal: row *o* of a run starting at position `pos`
//!   attends over positions `0..pos + o + 1`, which the appends before it
//!   have all written. Bidirectional: every row attends over the whole
//!   run. Only `forward` asks for it, over one fresh [`VecKv`];
//! * the **act-quant of each GEMM input**: per row while decoding (see the
//!   contract below), per tensor in `forward`. A per-tensor scale spans
//!   every stacked row, so only `forward`, with its one slot, passes it.
//!
//! ## Step-schedulable decoding (continuous batching)
//!
//! The decode path is split so a serving scheduler can drive many streams
//! through shared GEMMs:
//!
//! * [`TinyTransformer::feed_batch`] advances K independent streams at once,
//!   each by a *run* of tokens ([`FeedSlot`] carries the stream's
//!   externally-owned [`KvStore`], its run and the run's first position):
//!   one token while decoding, the whole prompt while prefilling. It is the
//!   layer stack, causal and with per-row act-quant; only each run's last
//!   row goes through the final layer-norm and LM head: a prefill discards
//!   the other rows' logits;
//! * [`TinyTransformer::advance_batch`] ([`StepSlot`]) is the one-token
//!   case, [`TinyTransformer::advance_one`] the K = 1 case of that, and
//!   [`DecodeSession::push`] is a thin wrapper over it holding a [`VecKv`]
//!   — single-stream, batched and prefill decoding share one code path, so
//!   they cannot drift apart;
//! * [`feed_groups`] runs one `feed_batch` per model group ([`FeedGroup`]:
//!   a tick's quantized students and fp32 teachers) side by side on the
//!   runtime pool, when their work passes the GEMMs' dispatch rule
//!   ([`feeds_in_parallel`]).
//!
//! Because every non-GEMM op in the step is per-row (layer norm, per-row
//! activation quantization, GELU, residual add) and every GEMM row is
//! accumulated in ascending-`k` order regardless of the batch's row count
//! (the kernel contract below), the row for token *t* of a run is
//! **bit-identical** to the lone-stream `push` of that token — the property
//! that lets `olive-serve` merge concurrent `/v1/generate` streams, and
//! feed a new stream's whole prompt, into one forward per tick without
//! changing a single output byte.
//!
//! ## The decode-cache determinism contract
//!
//! For any token sequence, thread count and activation quantizer, row *i* of
//! a causally-masked forward over `tokens[..=i]` is **bit-identical** to
//! the logits [`DecodeSession::push`] returns for token *i*. This module's
//! tests enforce it against such a forward, kept there as the independent
//! reference on the scalar `olive_tensor` kernels. The contract holds by
//! construction:
//!
//! * every GEMM row is accumulated in the same ascending-`k` order whether it
//!   is computed as one row of a batch product or as a `[1, k]` product, and
//!   the runtime's determinism contract makes that independent of
//!   `OLIVE_THREADS`. This kernel contract covers both GEMMs in play:
//!   `olive_tensor::matmul`'s, which the reference calls, and the
//!   dispatched `olive_core::simd` ones the layer stack calls, whose every
//!   path returns the `olive_tensor` kernels' bits;
//! * attention is causal, so a position's keys/values never change once
//!   computed, and the softmax over a masked batch row is bit-identical to
//!   the softmax over the unmasked prefix (masked lanes contribute exactly
//!   `exp(-inf) = 0.0`, and the GEMM kernels skip zero activations);
//! * activation quantization is **per row** (each position's activation is
//!   calibrated on its own `d` values — dynamic per-token scales, as
//!   decode-time quantization does in deployment), so a row's quantized
//!   values cannot depend on later rows.

use crate::engine::TinyTransformer;
use crate::kv::{KvStore, VecKv};
use olive_core::simd::{self, gelu_in_place};
use olive_core::TensorQuantizer;
use olive_tensor::matmul::{layer_norm, softmax_row};
use olive_tensor::Tensor;
use std::ops::Range;

/// Fake-quantizes each row of `t` in place, on its own (per-token dynamic
/// calibration — see the module docs for why decode requires this).
fn quantize_rows(mut t: Tensor, q: Option<&dyn TensorQuantizer>) -> Tensor {
    if let Some(q) = q {
        let mut row = vec![0.0; t.cols()];
        for i in 0..t.rows() {
            row.copy_from_slice(t.row(i));
            q.quantize_dequantize_into(&row, t.row_mut(i));
        }
    }
    t
}

impl TinyTransformer {
    /// The layer stack of every forward (see the module docs): embeds the
    /// rows of every slot's run, runs them through each layer and returns
    /// the final hidden rows, `[Σ run, d_model]`, before the final
    /// layer-norm. `quantize` is applied to every GEMM input. Each row
    /// appends its key/value row to its slot's store; then it attends over
    /// its slot's positions `0..pos + o + 1` when `causal`, or
    /// `0..pos + run` otherwise.
    ///
    /// The caller pins the SIMD path.
    pub(crate) fn layer_stack(
        &self,
        quantize: &dyn Fn(Tensor) -> Tensor,
        causal: bool,
        slots: &mut [FeedSlot<'_>],
    ) -> Tensor {
        let d = self.config.d_model;
        let rows: usize = slots.iter().map(|slot| slot.tokens.len()).sum();
        let mut x = self.embed(
            rows,
            slots
                .iter()
                .flat_map(|slot| slot.tokens.iter().copied().zip(slot.pos..)),
        );

        // Every intermediate is quantized and activated in place and freed
        // as soon as its consumer has run, so a long prefill holds only a
        // few live tensors at a time.
        let mut scores = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            let normed = layer_norm(&x, &layer.ln1_gamma, &layer.ln1_beta, 1e-5);
            let qkv = simd::matmul(&quantize(normed), &layer.wqkv);
            let mut attn = Tensor::zeros(vec![rows, d]);
            let mut first = 0;
            for slot in slots.iter_mut() {
                let run = slot.tokens.len();
                for r in first..first + run {
                    let row = qkv.row(r);
                    slot.kv.append(li, &row[d..2 * d], &row[2 * d..3 * d]);
                }
                for o in 0..run {
                    let positions = slot.pos + if causal { o + 1 } else { run };
                    let r = first + o;
                    self.attend(
                        &*slot.kv,
                        li,
                        &qkv.row(r)[..d],
                        positions,
                        &mut scores,
                        attn.row_mut(r),
                    );
                }
                first += run;
            }
            drop(qkv);
            x = x.add(&simd::matmul(&quantize(attn), &layer.wo));

            let normed = layer_norm(&x, &layer.ln2_gamma, &layer.ln2_beta, 1e-5);
            let mut h = simd::matmul(&quantize(normed), &layer.w1);
            gelu_in_place(h.data_mut());
            x = x.add(&simd::matmul(&quantize(h), &layer.w2));
        }
        x
    }

    /// Advances every stream in `slots` by its run of tokens through **one**
    /// batched forward: the layer stack (see the module docs), causal and
    /// with per-row act-quant, shared by all K streams. Each row appends its
    /// key/value row to its own stream's [`KvStore`] and attends over that
    /// stream's positions up to its own, so streams stay fully independent.
    /// Returns the logits of each run's **last** token, in slot order — the
    /// distribution over the stream's next token; the other rows skip the
    /// LM head.
    ///
    /// The logits of a run ending at token *t* are bit-identical to row *t*
    /// of a causal forward over the whole sequence and to the lone `push` of
    /// that token (see the module docs for why), at any `OLIVE_THREADS` and
    /// any split of the tokens into runs and slots — the property
    /// continuous batching and one-tick prefill in `olive-serve` rest on.
    ///
    /// # Panics
    ///
    /// Panics if any slot's run is empty or holds an out-of-vocabulary
    /// token id.
    pub fn feed_batch(
        &self,
        act_quant: Option<&dyn TensorQuantizer>,
        slots: &mut [FeedSlot<'_>],
    ) -> Vec<Vec<f32>> {
        if slots.is_empty() {
            return Vec::new();
        }
        let d = self.config.d_model;
        assert!(
            slots.iter().all(|slot| !slot.tokens.is_empty()),
            "a feed slot needs a token"
        );
        let quantize = |t: Tensor| quantize_rows(t, act_quant);
        // Resolve the kernel path once: the kernel calls below then read
        // only this thread's override, not the environment.
        simd::with_simd(Some(simd::resolve_path()), || {
            let x = self.layer_stack(&quantize, true, slots);
            let mut last = Tensor::zeros(vec![slots.len(), d]);
            let mut end = 0;
            for (s, slot) in slots.iter().enumerate() {
                end += slot.tokens.len();
                last.row_mut(s).copy_from_slice(x.row(end - 1));
            }
            drop(x);
            let normed = layer_norm(&last, &self.ln_f_gamma, &self.ln_f_beta, 1e-5);
            let logits = simd::matmul_transpose_b(&quantize(normed), &self.embedding);
            (0..slots.len()).map(|s| logits.row(s).to_vec()).collect()
        })
    }

    /// Advances the current step of every stream in `slots` by one token:
    /// [`feed_batch`](Self::feed_batch) with runs of length 1. Returns each
    /// stream's logits in slot order.
    ///
    /// # Panics
    ///
    /// Panics if any slot's token id is out of vocabulary range.
    pub fn advance_batch(
        &self,
        act_quant: Option<&dyn TensorQuantizer>,
        slots: &mut [StepSlot<'_>],
    ) -> Vec<Vec<f32>> {
        let mut feeds: Vec<FeedSlot<'_>> = slots
            .iter_mut()
            .map(|slot| FeedSlot {
                kv: &mut *slot.kv,
                tokens: std::slice::from_ref(&slot.token),
                pos: slot.pos,
            })
            .collect();
        self.feed_batch(act_quant, &mut feeds)
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

    /// Attention of one query row against positions `0..positions` of a
    /// stream's keys/values, read in place from `kv` and written into `out`
    /// (`d_model` wide): the attention of every forward. `q` is the query
    /// third of the fused QKV row; `scores` is scratch,
    /// `[heads × positions]`, reused across calls.
    ///
    /// The arithmetic is that of the per-head `[1, dh] × [positions, dh]ᵀ`
    /// GEMM, scale, [`softmax_rows`](olive_tensor::matmul::softmax_rows) and
    /// `[1, positions] × [positions, dh]` GEMM, element for element: each
    /// score sums from 0.0 in ascending `k` and is then scaled, and each
    /// context value sums from 0.0 in ascending position, skipping zero
    /// probabilities. `engine.rs`'s tests keep the eval forward's per-head
    /// GEMM attention as its oracle.
    fn attend(
        &self,
        kv: &dyn KvStore,
        li: usize,
        q: &[f32],
        positions: usize,
        scores: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let dh = self.config.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();
        scores.resize(self.config.n_heads * positions, 0.0);
        for pos in 0..positions {
            let k = kv.k_row(li, pos);
            for (h, (qh, kh)) in q.chunks_exact(dh).zip(k.chunks_exact(dh)).enumerate() {
                let mut acc = 0.0f32;
                for (&a, &b) in qh.iter().zip(kh) {
                    acc += a * b;
                }
                scores[h * positions + pos] = acc * scale;
            }
        }
        for head in scores.chunks_exact_mut(positions) {
            softmax_row(head);
        }
        out.fill(0.0);
        for pos in 0..positions {
            let v = kv.v_row(li, pos);
            for (h, (oh, vh)) in out.chunks_exact_mut(dh).zip(v.chunks_exact(dh)).enumerate() {
                let p = scores[h * positions + pos];
                if p == 0.0 {
                    continue;
                }
                for (o, &vv) in oh.iter_mut().zip(vh) {
                    *o += p * vv;
                }
            }
        }
    }
}

/// One stream's run of tokens, as fed to
/// [`TinyTransformer::feed_batch`]: which tokens to decode, from which
/// position, into which externally-owned KV store.
pub struct FeedSlot<'s> {
    /// The stream's KV store (exclusively borrowed for the feed).
    pub kv: &'s mut dyn KvStore,
    /// The tokens to decode, in order: at least one.
    pub tokens: &'s [usize],
    /// The first token's position — the number of positions already in
    /// `kv`.
    pub pos: usize,
}

/// One model group of a decode tick, as fed to [`feed_groups`]: a model,
/// its activation quantizer and the streams it advances in one
/// [`feed_batch`](TinyTransformer::feed_batch).
pub struct FeedGroup<'g> {
    /// The group's model, shared read-only.
    pub model: &'g TinyTransformer,
    /// The per-row activation quantizer, if the group quantizes activations.
    pub act_quant: Option<&'g dyn TensorQuantizer>,
    /// The streams the group advances, each with its own store.
    pub slots: Vec<FeedSlot<'g>>,
}

/// Weight elements one fed row multiplies through: every layer's four
/// projections plus the tied embedding, used as the LM head.
fn weight_elements(model: &TinyTransformer) -> u64 {
    let layers: usize = model
        .layers
        .iter()
        .map(|l| l.wqkv.len() + l.wo.len() + l.w1.len() + l.w2.len())
        .sum();
    (layers + model.embedding.len()) as u64
}

/// Whether [`feed_groups`] runs `groups` side by side on the pool. It is
/// the GEMMs' own rule, [`olive_runtime::should_parallelize`], with one
/// lane per group and one multiply-add per weight element per fed row as
/// the work. So a two-stream gpt2-small tick dispatches, and a one-stream
/// decode step of the tiny model stays inline.
pub fn feeds_in_parallel(groups: &[FeedGroup<'_>]) -> bool {
    let work = groups
        .iter()
        .map(|group| {
            let rows: usize = group.slots.iter().map(|slot| slot.tokens.len()).sum();
            rows as u64 * weight_elements(group.model)
        })
        .sum();
    olive_runtime::should_parallelize(groups.len(), work)
}

/// Runs each group's [`feed_batch`](TinyTransformer::feed_batch) and
/// returns its logits, in group order.
///
/// The groups share nothing mutable: each slot owns its store, and models
/// and quantizers are read-only. When [`feeds_in_parallel`] says so, the
/// groups run as the chunks of one pool job, one group per chunk while
/// there are at most four per thread; otherwise they run inline, one after
/// the other. Inside a chunk the group's GEMMs run inline, and the
/// runtime's determinism contract makes that bit-identical to any other
/// thread count, so the logits do not depend on which way the groups ran.
///
/// # Panics
///
/// Panics as [`feed_batch`](TinyTransformer::feed_batch) does. On the pool,
/// the first panic a group raises is re-thrown once every group has
/// finished.
pub fn feed_groups(groups: Vec<FeedGroup<'_>>) -> Vec<Vec<Vec<f32>>> {
    let parallel = feeds_in_parallel(&groups);
    let mut jobs: Vec<(FeedGroup<'_>, Vec<Vec<f32>>)> = groups
        .into_iter()
        .map(|group| (group, Vec::new()))
        .collect();
    if parallel {
        olive_runtime::par_rows_mut(jobs.len(), 1, &mut jobs, feed_each);
    } else {
        feed_each(0..jobs.len(), &mut jobs);
    }
    jobs.into_iter().map(|(_, logits)| logits).collect()
}

/// Feeds every group of `jobs` in turn, storing each group's logits beside
/// it (one [`feed_groups`] chunk).
fn feed_each(_: Range<usize>, jobs: &mut [(FeedGroup<'_>, Vec<Vec<f32>>)]) {
    for (group, logits) in jobs {
        *logits = group.model.feed_batch(group.act_quant, &mut group.slots);
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
/// the corresponding row of a causal forward over the full token sequence,
/// at any `OLIVE_THREADS` (the decode-cache determinism contract, see the
/// module docs).
pub struct DecodeSession<'a> {
    model: &'a TinyTransformer,
    act_quant: Option<&'a dyn TensorQuantizer>,
    /// Per-layer key/value rows, fused head-major like QKV — the session
    /// owns its storage; schedulers that pool storage use
    /// [`TinyTransformer::advance_batch`] directly instead.
    kv: VecKv,
    /// Positions decoded so far.
    pos: usize,
}

impl<'a> DecodeSession<'a> {
    /// An empty session over `model`, quantizing per-row activations with
    /// `act_quant` when given.
    pub fn new(model: &'a TinyTransformer, act_quant: Option<&'a dyn TensorQuantizer>) -> Self {
        DecodeSession {
            model,
            act_quant,
            kv: VecKv::new(model.config.n_layers, model.config.d_model),
            pos: 0,
        }
    }

    /// Decodes one token at the next position and returns that position's
    /// logits (`vocab` values) — the distribution over the *next* token.
    ///
    /// # Panics
    ///
    /// Panics if the token id is out of vocabulary range.
    pub fn push(&mut self, token: usize) -> Vec<f32> {
        let logits = self
            .model
            .advance_one(self.act_quant, &mut self.kv, token, self.pos);
        self.pos += 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{argmax, EngineConfig, OutlierSeverity};
    use crate::kv::{pages_needed, KvPool, PagedKv};
    use olive_baselines::UniformQuantizer;
    use olive_core::OliveQuantizer;
    use olive_tensor::matmul::{gelu, matmul, matmul_transpose_b, softmax_rows};
    use olive_tensor::rng::Rng;

    /// Causally-masked forward pass: position *i* attends only to positions
    /// `0..=i`. Returns the logits of every position, `[seq_len, vocab]`.
    ///
    /// This is the decode-cache contract's independent reference, on the
    /// scalar `olive_tensor` kernels and a per-head attention of its own:
    /// [`DecodeSession`] and `feed_batch` must return the same logits
    /// incrementally, bit-identically (see the module docs). Activation
    /// quantization, when requested, is applied per row.
    fn forward_causal(
        model: &TinyTransformer,
        tokens: &[usize],
        act_quant: Option<&dyn TensorQuantizer>,
    ) -> Tensor {
        let quantize = |t: &Tensor| quantize_rows(t.clone(), act_quant);
        let mut x = model.embed(tokens.len(), tokens.iter().copied().zip(0..));
        for layer in &model.layers {
            let normed = layer_norm(&x, &layer.ln1_gamma, &layer.ln1_beta, 1e-5);
            let qkv_in = quantize(&normed);
            let qkv = matmul(&qkv_in, &layer.wqkv);
            let attn = attention_causal(model, &qkv);
            let attn_in = quantize(&attn);
            let out = matmul(&attn_in, &layer.wo);
            x = x.add(&out);

            let normed = layer_norm(&x, &layer.ln2_gamma, &layer.ln2_beta, 1e-5);
            let ffn_in = quantize(&normed);
            let h = gelu(&matmul(&ffn_in, &layer.w1));
            let h_in = quantize(&h);
            let ffn = matmul(&h_in, &layer.w2);
            x = x.add(&ffn);
        }

        let normed = layer_norm(&x, &model.ln_f_gamma, &model.ln_f_beta, 1e-5);
        let head_in = quantize(&normed);
        matmul_transpose_b(&head_in, &model.embedding)
    }

    /// Multi-head self-attention over a fused `[seq, 3·d_model]` QKV tensor
    /// with a causal mask: scores above the diagonal are `-inf` before the
    /// softmax, so `exp` maps them to exactly `0.0` and they contribute
    /// nothing to the context GEMM (whose kernel skips zero activations).
    fn attention_causal(model: &TinyTransformer, qkv: &Tensor) -> Tensor {
        let d = model.config.d_model;
        let seq = qkv.rows();
        let heads = model.config.n_heads;
        let dh = model.config.head_dim();
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

    /// Greedy (argmax) continuation of `prompt` by `max_new_tokens` tokens
    /// via the incremental [`DecodeSession`] path. Returns only the new
    /// tokens.
    fn generate_greedy(
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

    /// Reference greedy generation that recomputes the full causal forward
    /// pass every step — O(len²) per token, which pins the
    /// [`DecodeSession`] fast path down.
    fn generate_greedy_recompute(
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
            let logits = forward_causal(model, &tokens, act_quant);
            let next = argmax(logits.row(logits.rows() - 1));
            generated.push(next);
            tokens.push(next);
        }
        generated
    }

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
        let logits = forward_causal(&model, &[1, 2, 3], None);
        assert_eq!(logits.shape(), &[3, model.config.vocab]);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn causal_prefix_invariance() {
        // The defining property of causality: earlier rows do not change
        // when the sequence is extended.
        let model = teacher(2);
        let long = forward_causal(&model, &[5, 9, 2, 7], None);
        let short = forward_causal(&model, &[5, 9, 2], None);
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
                            let batch = forward_causal(&model, tokens, act);
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

    /// A `PagedKv` for `positions` positions over pages of two rows each, so
    /// any run longer than two crosses a page boundary.
    fn small_paged(cfg: &EngineConfig, pool: &mut KvPool, positions: usize) -> PagedKv {
        let page_floats = 2 * cfg.d_model;
        let pages = pool
            .try_reserve(pages_needed(cfg.n_layers, positions, 2))
            .expect("the pool holds every store");
        PagedKv::new(cfg.n_layers, cfg.d_model, page_floats, pages)
    }

    /// Feeds one run to one stream, alone in its `feed_batch` call.
    fn feed_alone(
        model: &TinyTransformer,
        act: Option<&dyn TensorQuantizer>,
        kv: &mut dyn KvStore,
        tokens: &[usize],
        pos: usize,
    ) -> Vec<f32> {
        let mut slot = [FeedSlot { kv, tokens, pos }];
        model
            .feed_batch(act, &mut slot)
            .pop()
            .expect("one slot, one row")
    }

    /// Splits `len` tokens into runs: single tokens, random lengths and
    /// whole remainders (a prefill) all occur.
    fn random_runs(rng: &mut Rng, len: usize) -> Vec<usize> {
        let mut runs = Vec::new();
        let mut rest = len;
        while rest > 0 {
            let run = match rng.below(3) {
                0 => 1,
                1 => 1 + rng.below(rest),
                _ => rest,
            };
            runs.push(run);
            rest -= run;
        }
        runs
    }

    /// The one-tick prefill contract, property-tested: a token sequence fed
    /// through `feed_batch` as random runs — over `VecKv`, and over `PagedKv`
    /// pages so small that a run crosses several page boundaries — returns,
    /// for every run, `forward_causal`'s row at the run's last token, bit
    /// for bit, without act-quant and with olive-4bit and uniform:4, at 1
    /// and 8 threads.
    #[test]
    fn feeding_random_runs_is_bit_identical_to_batch_causal_forward() {
        let cfg = EngineConfig::tiny();
        let config = olive_harness::check::CheckConfig {
            cases: 10,
            ..Default::default()
        };
        olive_harness::check::check_with(
            config,
            "feed_runs_match_batch",
            |rng| {
                let seed = rng.next_u64();
                let len = 1 + rng.below(2 * cfg.seq_len);
                let tokens = random_tokens(rng, cfg.vocab, len);
                (seed, tokens, random_runs(rng, len))
            },
            |(seed, tokens, runs)| {
                let model = teacher(*seed);
                let olive = OliveQuantizer::int4();
                let uniform = UniformQuantizer::new(4);
                let acts: [(&str, Option<&dyn TensorQuantizer>); 3] = [
                    ("none", None),
                    ("olive-4bit", Some(&olive)),
                    ("uniform:4", Some(&uniform)),
                ];
                for (name, act) in acts {
                    for threads in [1usize, 8] {
                        let diverged = olive_runtime::with_threads(threads, || {
                            let batch = forward_causal(&model, tokens, act);
                            let mut pool = KvPool::new(2 * cfg.d_model, 1024);
                            let mut paged = small_paged(&cfg, &mut pool, tokens.len());
                            let mut flat = VecKv::new(cfg.n_layers, cfg.d_model);
                            let mut pos = 0;
                            for &run in runs {
                                let run_tokens = &tokens[pos..pos + run];
                                for kv in [&mut flat as &mut dyn KvStore, &mut paged] {
                                    let logits = feed_alone(&model, act, kv, run_tokens, pos);
                                    if logits != batch.row(pos + run - 1) {
                                        return Some(pos);
                                    }
                                }
                                pos += run;
                            }
                            None
                        });
                        if let Some(pos) = diverged {
                            return Err(format!(
                                "the run starting at position {pos} diverged from the batch \
                                 causal forward (act={name}, threads={threads})"
                            ));
                        }
                    }
                }
                Ok(())
            },
        );
    }

    /// One `feed_batch` mixing a decode step (run of 1), a run of 3 and a
    /// whole fresh prompt equals feeding each slot alone, and each stream's
    /// store is left as if it had been fed alone (its next step agrees too).
    #[test]
    fn one_feed_mixing_run_lengths_equals_each_slot_fed_alone() {
        let model = teacher(13);
        let cfg = model.config;
        let mut rng = Rng::seed_from(43);
        // (tokens already in the store, the run fed in the mixed call).
        let shapes = [(5usize, 1usize), (2, 3), (0, 7)];
        let streams: Vec<Vec<usize>> = shapes
            .iter()
            .map(|&(prefix, run)| random_tokens(&mut rng, cfg.vocab, prefix + run + 1))
            .collect();
        let olive = OliveQuantizer::int4();
        let uniform = UniformQuantizer::new(4);
        for act in [None, Some(&olive as &dyn TensorQuantizer), Some(&uniform)] {
            for threads in [1usize, 8] {
                olive_runtime::with_threads(threads, || {
                    let mut pool = KvPool::new(2 * cfg.d_model, 1024);
                    let mut stores: Vec<Box<dyn KvStore>> = streams
                        .iter()
                        .enumerate()
                        .map(|(s, tokens)| -> Box<dyn KvStore> {
                            if s == 1 {
                                Box::new(VecKv::new(cfg.n_layers, cfg.d_model))
                            } else {
                                Box::new(small_paged(&cfg, &mut pool, tokens.len()))
                            }
                        })
                        .collect();
                    let mut alone = Vec::new();
                    for (tokens, &(prefix, run)) in streams.iter().zip(&shapes) {
                        let mut kv = VecKv::new(cfg.n_layers, cfg.d_model);
                        if prefix > 0 {
                            feed_alone(&model, act, &mut kv, &tokens[..prefix], 0);
                        }
                        let logits =
                            feed_alone(&model, act, &mut kv, &tokens[prefix..prefix + run], prefix);
                        let next =
                            model.advance_one(act, &mut kv, tokens[prefix + run], prefix + run);
                        alone.push((logits, next));
                    }
                    for ((tokens, &(prefix, _)), kv) in
                        streams.iter().zip(&shapes).zip(stores.iter_mut())
                    {
                        if prefix > 0 {
                            feed_alone(&model, act, kv.as_mut(), &tokens[..prefix], 0);
                        }
                    }
                    let mut slots: Vec<FeedSlot<'_>> = stores
                        .iter_mut()
                        .zip(&streams)
                        .zip(&shapes)
                        .map(|((kv, tokens), &(prefix, run))| FeedSlot {
                            kv: kv.as_mut(),
                            tokens: &tokens[prefix..prefix + run],
                            pos: prefix,
                        })
                        .collect();
                    let mixed = model.feed_batch(act, &mut slots);
                    drop(slots);
                    let mut steps: Vec<StepSlot<'_>> = stores
                        .iter_mut()
                        .zip(&streams)
                        .zip(&shapes)
                        .map(|((kv, tokens), &(prefix, run))| StepSlot {
                            kv: kv.as_mut(),
                            token: tokens[prefix + run],
                            pos: prefix + run,
                        })
                        .collect();
                    let next = model.advance_batch(act, &mut steps);
                    for (s, (want, want_next)) in alone.iter().enumerate() {
                        let ctx = format!("stream {s} (act={}, threads={threads})", act.is_some());
                        assert_eq!(&mixed[s], want, "run logits, {ctx}");
                        assert_eq!(&next[s], want_next, "next step, {ctx}");
                    }
                });
            }
        }
    }

    /// `feed_groups` returns exactly what feeding each group alone
    /// returns, whether its groups run inline (one thread) or as pool
    /// chunks (two threads): a gpt2-small-sized olive-4bit student, with
    /// per-row act-quant, and its fp32 teacher, each advancing a prefill
    /// run and a decode step. A one-row tick of the tiny model stays inline.
    #[test]
    fn feed_groups_equals_feeding_each_group_alone() {
        let mut rng = Rng::seed_from(47);
        let fp32 =
            TinyTransformer::generate(EngineConfig::small(), OutlierSeverity::llm(), &mut rng);
        let olive = OliveQuantizer::int4();
        let student = fp32.quantize_weights(&olive);
        let lanes: [(&TinyTransformer, Option<&dyn TensorQuantizer>); 2] =
            [(&student, Some(&olive)), (&fp32, None)];
        let cfg = fp32.config;
        let tokens = random_tokens(&mut rng, cfg.vocab, 6);
        // Stream 0 prefills five tokens; stream 1 decodes its sixth.
        let runs = [(&tokens[..5], 0), (&tokens[5..], 5)];
        let stores = || -> Vec<VecKv> {
            runs.iter()
                .map(|&(_, pos)| {
                    let mut kv = VecKv::new(cfg.n_layers, cfg.d_model);
                    // Both sides start from this prefix; which model wrote
                    // it does not matter.
                    for (prefix_pos, &token) in tokens[..pos].iter().enumerate() {
                        fp32.advance_one(None, &mut kv, token, prefix_pos);
                    }
                    kv
                })
                .collect()
        };
        let alone: Vec<Vec<Vec<f32>>> = lanes
            .iter()
            .map(|&(model, act)| {
                let mut kvs = stores();
                let mut slots: Vec<FeedSlot<'_>> = kvs
                    .iter_mut()
                    .zip(runs)
                    .map(|(kv, (tokens, pos))| FeedSlot { kv, tokens, pos })
                    .collect();
                model.feed_batch(act, &mut slots)
            })
            .collect();
        for threads in [1usize, 2] {
            olive_runtime::with_threads(threads, || {
                let mut lane_kvs: Vec<Vec<VecKv>> = lanes.iter().map(|_| stores()).collect();
                let groups: Vec<FeedGroup<'_>> = lanes
                    .iter()
                    .zip(&mut lane_kvs)
                    .map(|(&(model, act_quant), kvs)| FeedGroup {
                        model,
                        act_quant,
                        slots: kvs
                            .iter_mut()
                            .zip(runs)
                            .map(|(kv, (tokens, pos))| FeedSlot { kv, tokens, pos })
                            .collect(),
                    })
                    .collect();
                assert_eq!(feeds_in_parallel(&groups), threads > 1);
                assert_eq!(feed_groups(groups), alone, "threads={threads}");
            });
        }

        let tiny = teacher(9);
        let mut kvs: Vec<VecKv> = (0..2)
            .map(|_| VecKv::new(tiny.config.n_layers, tiny.config.d_model))
            .collect();
        let tick: Vec<FeedGroup<'_>> = kvs
            .iter_mut()
            .map(|kv| FeedGroup {
                model: &tiny,
                act_quant: None,
                slots: vec![FeedSlot {
                    kv,
                    tokens: &[0],
                    pos: 0,
                }],
            })
            .collect();
        olive_runtime::with_threads(2, || assert!(!feeds_in_parallel(&tick)));
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
