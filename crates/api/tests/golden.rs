//! Acceptance test: the pipeline reproduces the pre-refactor tbl06/tbl09
//! numbers **bit-identically**.
//!
//! The golden constants below were captured from the pre-refactor harness
//! code path (`olive_bench::accuracy::Experiment` + the standalone metric
//! functions) at the exact seeds the `tbl06_glue_accuracy` and
//! `tbl09_llm_perplexity` binaries use. The pipeline must reproduce them to
//! the last bit — any drift in teacher generation, task selection, quantizer
//! behaviour or metric folding fails this test.
//!
//! Those cells run `EngineConfig::small`. The BERT-tiny cell pins the shape
//! `/v1/eval` serves most (servebench's `eval_miss`), captured from the
//! eval forward's own per-head attention before `forward` moved onto the
//! decode layer stack.

use olive_api::{Calibration, ModelFamily, Pipeline};
use olive_core::TensorQuantizer;
use olive_models::{argmax, EngineConfig, EvalTask, OutlierSeverity, TinyTransformer};
use olive_tensor::rng::Rng;

/// The pre-refactor harness defaults: `EngineConfig::small()`, 24 inputs,
/// confidence filtering at 6× oversampling.
const BATCHES: usize = 24;
const OVERSAMPLE: usize = 6;

/// tbl06, BERT-base × CoLA cell (seed `0x7B06_0000 + mi*101 + ti` with
/// `mi = ti = 0`): fidelity with weights + activations quantized.
const TBL06_SEED: u64 = 0x7B06_0000;
const TBL06_GOLDEN: [(&str, f64); 6] = [
    ("olive-4bit", 0.6777846228802514),
    ("ant:4bit", 0.4555762409735949),
    ("os:4bit", 0.15884167707614696),
    ("os:6bit", 0.6760894234470428),
    ("uniform:8", 0.9518976334994638),
    ("uniform:4", 0.23863463783075098),
];

/// tbl09, GPT2-XL × Wiki cell (seed `0x7B0901 * 131 + 11`): pseudo-perplexity
/// with weights + activations quantized; "fp32" is the FP32 floor row.
const TBL09_SEED: u64 = 0x7B0901 * 131 + 11;
const TBL09_GOLDEN: [(&str, f64); 6] = [
    ("fp32", 1.207966904595803),
    ("uniform:8", 37.197947480917215),
    ("olive-8bit", 2.972031600450773),
    ("uniform:4", 1308.6076316039375),
    ("ant:4bit", 1444207.9371676007),
    ("olive-4bit", 2432.002882350858),
];

#[test]
fn tbl06_cell_is_bit_identical_through_the_pipeline() {
    let report = Pipeline::new(ModelFamily::Bert.small().named("BERT-base"))
        .task("CoLA")
        .schemes(TBL06_GOLDEN.iter().map(|(spec, _)| *spec))
        .seed(TBL06_SEED)
        .batches(BATCHES)
        .calibrate(Calibration::confident(OVERSAMPLE))
        .run();
    for (spec, golden) in TBL06_GOLDEN {
        let got = report.result(spec).expect(spec).fidelity;
        assert_eq!(got, golden, "{spec}: {got:?} != golden {golden:?}");
    }
}

#[test]
fn tbl09_cell_is_bit_identical_through_the_pipeline() {
    let report = Pipeline::new(ModelFamily::Gpt2.small().named("GPT2-XL"))
        .task("Wiki")
        .schemes(TBL09_GOLDEN.iter().map(|(spec, _)| *spec))
        .seed(TBL09_SEED)
        .batches(BATCHES)
        .calibrate(Calibration::confident(OVERSAMPLE))
        .run();
    for (spec, golden) in TBL09_GOLDEN {
        let got = report.result(spec).expect(spec).perplexity;
        assert_eq!(got, golden, "{spec}: {got:?} != golden {golden:?}");
    }
}

/// The served eval shape, servebench's `eval_miss` request: BERT-tiny, 8
/// inputs kept at 2× oversampling, activations quantized. All four scores
/// of each scheme as f64 bits: fidelity, agreement, position agreement and
/// pseudo-perplexity.
const TINY_SEED: u64 = 7;
const TINY_GOLDEN: [(&str, [u64; 4]); 2] = [
    (
        "olive-4bit",
        [
            0x3fe7_33f7_07c3_77aa,
            0x3fd8_0000_0000_0000,
            0x3fdb_8000_0000_0000,
            0x4027_e9fb_3500_534d,
        ],
    ),
    (
        "uniform:4",
        [
            0x3fc6_2cce_6c4b_c573,
            0x0000_0000_0000_0000,
            0x3fc3_0000_0000_0000,
            0x4055_8594_a36e_723a,
        ],
    ),
];

#[test]
fn served_tiny_cell_is_bit_identical_through_run_and_run_prepared() {
    let pipeline = Pipeline::new(ModelFamily::Bert.tiny())
        .schemes(TINY_GOLDEN.iter().map(|(spec, _)| *spec))
        .seed(TINY_SEED)
        .batches(8)
        .calibrate(Calibration::confident(2));
    let prepared = pipeline.prepare();
    for (path, report) in [
        ("run", pipeline.run()),
        ("run_prepared", pipeline.run_prepared(&prepared)),
    ] {
        for (spec, golden) in TINY_GOLDEN {
            let r = report.result(spec).expect(spec);
            let got =
                [r.fidelity, r.agreement, r.position_agreement, r.perplexity].map(f64::to_bits);
            assert_eq!(got, golden, "{path} {spec}");
        }
    }
}

/// Belt and braces: independently of the hard-coded constants, the pipeline
/// must agree bit-for-bit with a hand-constructed legacy evaluation (the
/// exact construction sequence the pre-refactor `Experiment` used).
#[test]
fn pipeline_matches_a_hand_constructed_legacy_evaluation() {
    let seed = 0x7B06_0000 + 101 + 2; // tbl06 BERT-large × MNLI cell
    let mut rng = Rng::seed_from(seed);
    let teacher = TinyTransformer::generate(
        EngineConfig::small(),
        OutlierSeverity::transformer(),
        &mut rng,
    );
    let task = EvalTask::generate_confident("MNLI", &teacher, BATCHES, OVERSAMPLE, &mut rng);

    let q = olive_core::OliveQuantizer::int4();
    let student = teacher.quantize_weights(&q);
    let legacy_fidelity =
        logit_fidelity(&teacher, &student, &task, Some(&q as &dyn TensorQuantizer));
    let legacy_ppl = pseudo_perplexity(&teacher, &student, &task, Some(&q as &dyn TensorQuantizer));

    let report = Pipeline::new(ModelFamily::Bert.small().named("BERT-large"))
        .task("MNLI")
        .schemes(["olive-4bit"])
        .seed(seed)
        .batches(BATCHES)
        .calibrate(Calibration::confident(OVERSAMPLE))
        .run();
    let r = report.result("olive-4bit").unwrap();
    assert_eq!(r.fidelity, legacy_fidelity);
    assert_eq!(r.perplexity, legacy_ppl);
}

// The legacy harness's two standalone folds, kept here as the cross-check's
// reference: one teacher and one student forward per input, one partial per
// input, folded in input order.

/// Mean cosine similarity of the teacher's and the student's logit rows.
fn logit_fidelity(
    teacher: &TinyTransformer,
    student: &TinyTransformer,
    task: &EvalTask,
    act_quant: Option<&dyn TensorQuantizer>,
) -> f64 {
    let partials = olive_runtime::par_map(&task.inputs, |input| {
        let t_logits = teacher.forward(input, None);
        let s_logits = student.forward(input, act_quant);
        let sum: f64 = (0..t_logits.rows())
            .map(|pos| cosine(t_logits.row(pos), s_logits.row(pos)))
            .fold(0.0, |acc, c| acc + c);
        (sum, t_logits.rows())
    });
    let (total, count) = partials
        .into_iter()
        .fold((0.0f64, 0usize), |(t, c), (sum, rows)| (t + sum, c + rows));
    if count == 0 {
        1.0
    } else {
        total / count as f64
    }
}

/// `exp` of the student's mean cross-entropy against the teacher's argmax
/// labels.
fn pseudo_perplexity(
    teacher: &TinyTransformer,
    student: &TinyTransformer,
    task: &EvalTask,
    act_quant: Option<&dyn TensorQuantizer>,
) -> f64 {
    let partials = olive_runtime::par_map(&task.inputs, |input| {
        let t_logits = teacher.forward(input, None);
        let s_logits = student.forward(input, act_quant);
        let ce: f64 = (0..t_logits.rows())
            .map(|pos| {
                let label = argmax(t_logits.row(pos));
                let probs = softmax(s_logits.row(pos));
                -probs[label].max(1e-12).ln()
            })
            .fold(0.0, |acc, c| acc + c);
        (ce, t_logits.rows())
    });
    let (total, count) = partials
        .into_iter()
        .fold((0.0f64, 0usize), |(t, c), (ce, rows)| (t + ce, c + rows));
    if count == 0 {
        1.0
    } else {
        (total / count as f64).exp()
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

fn softmax(row: &[f32]) -> Vec<f64> {
    let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)) as f64;
    let exps: Vec<f64> = row.iter().map(|&v| ((v as f64) - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum.max(1e-300)).collect()
}
