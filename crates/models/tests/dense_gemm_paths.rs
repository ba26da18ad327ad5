//! The served forwards on every dispatch path of the dense GEMMs:
//! [`TinyTransformer::forward`] and [`TinyTransformer::feed_batch`] (a
//! prompt fed as one run, then one decode step) must return logits with
//! the same bits on the scalar path and on the widest path this CPU
//! supports. Run for BERT-tiny and gpt2-small students with fp32,
//! olive-4bit and uniform:4 activations.

use olive_baselines::UniformQuantizer;
use olive_core::{with_simd, OliveQuantizer, SimdPath, TensorQuantizer};
use olive_models::{EngineConfig, FeedSlot, OutlierSeverity, TinyTransformer, VecKv};
use olive_tensor::rng::Rng;

/// The bits of `model`'s logits: `forward` over `tokens`, then
/// `feed_batch` fed all but the last token as one run and the last token
/// alone.
fn logit_bits(
    model: &TinyTransformer,
    act: Option<&dyn TensorQuantizer>,
    tokens: &[usize],
) -> Vec<u32> {
    let mut bits: Vec<u32> = model
        .forward(tokens, act)
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let mut kv = VecKv::new(model.config.n_layers, model.config.d_model);
    let (prompt, last) = tokens.split_at(tokens.len() - 1);
    for (run, pos) in [(prompt, 0), (last, prompt.len())] {
        let mut slots = [FeedSlot {
            kv: &mut kv,
            tokens: run,
            pos,
        }];
        for row in model.feed_batch(act, &mut slots) {
            bits.extend(row.iter().map(|v| v.to_bits()));
        }
    }
    bits
}

#[test]
fn forward_and_feed_batch_logits_match_on_every_path() {
    let families = [
        (
            "bert-tiny",
            EngineConfig::tiny(),
            OutlierSeverity::transformer(),
        ),
        ("gpt2-small", EngineConfig::small(), OutlierSeverity::llm()),
    ];
    let olive = OliveQuantizer::int4();
    let uniform = UniformQuantizer::int4();
    let schemes: [(&str, Option<&dyn TensorQuantizer>); 3] = [
        ("fp32", None),
        ("olive-4bit", Some(&olive)),
        ("uniform:4", Some(&uniform)),
    ];
    for (family, config, severity) in families {
        let mut rng = Rng::seed_from(0x9E77);
        let teacher = TinyTransformer::generate(config, severity, &mut rng);
        let tokens: Vec<usize> = (0..config.seq_len)
            .map(|_| rng.below(config.vocab))
            .collect();
        for (scheme, act) in schemes {
            let student = match act {
                Some(q) => teacher.quantize_weights(q),
                None => teacher.clone(),
            };
            let scalar = with_simd(Some(SimdPath::Scalar), || {
                logit_bits(&student, act, &tokens)
            });
            let auto = with_simd(None, || logit_bits(&student, act, &tokens));
            assert_eq!(scalar.len(), auto.len());
            let differ = scalar.iter().zip(&auto).filter(|(s, a)| s != a).count();
            assert_eq!(
                differ, 0,
                "{family} {scheme}: logits that differ between the paths"
            );
        }
    }
}
