//! Registry property tests: spec round-tripping, malformed-spec rejection,
//! and the per-row granularity contract.

use olive_api::{Granularity, Scheme};
use olive_core::TensorQuantizer;
use olive_harness::check::{check, check_with, CheckConfig};
use olive_harness::{prop_assert, prop_assert_eq};
use olive_models::{EngineConfig, OutlierSeverity, TinyTransformer};
use olive_tensor::rng::Rng;
use olive_tensor::Tensor;

/// `Scheme::parse(s).to_string() == s` for every registry entry, at both
/// granularities.
#[test]
fn every_registry_spec_round_trips() {
    let entries = Scheme::all();
    assert!(entries.len() >= 13, "registry shrank to {}", entries.len());
    check_with(
        CheckConfig {
            cases: 4 * entries.len(),
            ..CheckConfig::default()
        },
        "registry_round_trip",
        |rng| {
            let scheme = entries[rng.below(entries.len())];
            if rng.chance(0.5) {
                scheme.with_granularity(Granularity::PerRow)
            } else {
                scheme
            }
        },
        |scheme| {
            let spec = scheme.to_string();
            let parsed = Scheme::parse(&spec)
                .map_err(|e| format!("canonical spec '{spec}' failed to parse: {e}"))?;
            prop_assert_eq!(parsed, *scheme, "spec '{}' did not round-trip", spec);
            prop_assert_eq!(parsed.to_string(), spec);
            Ok(())
        },
    );
}

/// `parse(render(s)) == s` survives random case/whitespace mangling: specs
/// arrive from CLIs and HTTP bodies, so `Scheme::parse` case-folds and trims
/// (including around the `@` granularity separator) instead of erroring.
#[test]
fn parse_survives_case_and_whitespace_mangling() {
    let entries = Scheme::all();
    check_with(
        CheckConfig {
            cases: 8 * entries.len(),
            ..CheckConfig::default()
        },
        "registry_case_whitespace_mangling",
        |rng| {
            let scheme = if rng.chance(0.5) {
                entries[rng.below(entries.len())].with_granularity(Granularity::PerRow)
            } else {
                entries[rng.below(entries.len())]
            };
            let canonical = scheme.to_string();
            // Random per-character case flips…
            let mut mangled: String = canonical
                .chars()
                .map(|c| {
                    if rng.chance(0.5) {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
            // …plus whitespace at the ends and around the '@' separator
            // (never inside a token — that must stay an error).
            let pad = |rng: &mut Rng| " ".repeat(rng.below(3));
            if let Some(at) = mangled.find('@') {
                let (base, suffix) = mangled.split_at(at);
                mangled = format!("{base}{}@{}{}", pad(rng), pad(rng), &suffix[1..]);
            }
            mangled = format!("{}{mangled}{}", pad(rng), pad(rng));
            (scheme, mangled)
        },
        |(scheme, mangled)| {
            let parsed = Scheme::parse(mangled)
                .map_err(|e| format!("mangled spec '{mangled}' failed to parse: {e}"))?;
            prop_assert_eq!(
                parsed,
                *scheme,
                "mangled spec '{}' parsed to the wrong scheme",
                mangled
            );
            prop_assert_eq!(parsed.to_string(), scheme.to_string());
            Ok(())
        },
    );
    // Whitespace inside a token is still rejected.
    for bad in ["oli ve-4bit", "uniform: 8", "olive-4bit@per- row"] {
        assert!(Scheme::parse(bad).is_err(), "'{bad}' should not parse");
    }
}

/// Random mutations of valid specs either parse to something that re-renders
/// canonically, or are rejected with an error that names the offending spec.
#[test]
fn malformed_specs_are_rejected_with_useful_errors() {
    let entries = Scheme::all();
    check(
        "registry_rejects_garbage",
        |rng| {
            let base = entries[rng.below(entries.len())].to_string();
            // Mutate: append junk, flip a char, or mangle the granularity.
            match rng.below(4) {
                0 => format!("{base}x"),
                1 => format!("{base}@per-col"),
                2 => base[..base.len() - 1].to_string(),
                _ => format!("no-such-scheme-{}", rng.below(100)),
            }
        },
        |spec| {
            match Scheme::parse(spec) {
                // Some mutations still hit a valid spec (e.g. "uniform:1" is
                // invalid but "gobo:4bi" is not a truncation that parses);
                // valid outcomes must still round-trip canonically.
                Ok(scheme) => {
                    let rendered = scheme.to_string();
                    prop_assert_eq!(Scheme::parse(&rendered).unwrap(), scheme);
                }
                Err(e) => {
                    let msg = e.to_string();
                    prop_assert!(
                        msg.contains(spec.trim()),
                        "error '{}' does not name the offending spec '{}'",
                        msg,
                        spec
                    );
                    prop_assert!(!e.reason().is_empty());
                }
            }
            Ok(())
        },
    );
}

/// A fixed list of malformed specs every registry version must reject.
#[test]
fn known_bad_specs_never_parse() {
    for bad in [
        "",
        " ",
        "olive",
        "olive-16bit",
        "uniform:1",
        "uniform:17",
        "uniform:",
        "uniform:4.5",
        "os:1bit",
        "os:9bit",
        "os:6",
        "ant:fp16-fallback",
        "gobo:5bit",
        "adafloat:6bit",
        "fp64",
        "olive-4bit@",
        "olive-4bit@row",
        "@per-row",
    ] {
        assert!(Scheme::parse(bad).is_err(), "'{bad}' should not parse");
    }
}

/// Per-row and per-tensor granularity agree bit-exactly on single-row
/// tensors, for every scheme in the registry.
#[test]
fn per_row_equals_per_tensor_on_single_row_tensors() {
    let entries = Scheme::all();
    check_with(
        CheckConfig {
            cases: 3 * entries.len(),
            ..CheckConfig::default()
        },
        "per_row_single_row",
        |rng| {
            let scheme = entries[rng.below(entries.len())];
            let cols = 1 + rng.below(96);
            let mut data = vec![0.0f32; cols];
            rng.fill_normal(&mut data, 0.0, 1.0);
            // Plant an outlier half the time to exercise the outlier paths.
            if rng.chance(0.5) && cols > 1 {
                let i = rng.below(cols);
                data[i] = 50.0;
            }
            let rank1 = rng.chance(0.5);
            (scheme, data, rank1)
        },
        |(scheme, data, rank1)| {
            let shape = if *rank1 {
                vec![data.len()]
            } else {
                vec![1, data.len()]
            };
            let t = Tensor::from_vec(shape, data.clone());
            let per_tensor = scheme.build().quantize_dequantize(&t);
            let per_row = scheme
                .with_granularity(Granularity::PerRow)
                .build()
                .quantize_dequantize(&t);
            prop_assert_eq!(
                per_tensor.data(),
                per_row.data(),
                "scheme '{}' disagrees between granularities on a single row",
                scheme
            );
            Ok(())
        },
    );
}

/// Multi-row per-row quantization equals quantizing each row separately.
#[test]
fn per_row_is_rowwise_application_of_the_base_scheme() {
    let mut rng = Rng::seed_from(0xA91);
    for spec in ["olive-4bit", "uniform:8", "gobo", "os:6bit"] {
        let scheme = Scheme::parse(spec).unwrap();
        let rows = 3;
        let cols = 64;
        let mut data = vec![0.0f32; rows * cols];
        rng.fill_normal(&mut data, 0.0, 1.0);
        data[10] = 30.0;
        data[cols + 5] = -60.0;
        let t = Tensor::from_vec(vec![rows, cols], data.clone());
        let whole = scheme
            .with_granularity(Granularity::PerRow)
            .build()
            .quantize_dequantize(&t);
        let base = scheme.build();
        for r in 0..rows {
            let row = Tensor::from_vec(vec![1, cols], data[r * cols..(r + 1) * cols].to_vec());
            let expect = base.quantize_dequantize(&row);
            assert_eq!(
                &whole.data()[r * cols..(r + 1) * cols],
                expect.data(),
                "{spec} row {r}"
            );
        }
    }
}

/// Acceptance criterion: every quantizer in olive-core and olive-baselines is
/// constructible from a spec string, and names/bit widths are consistent.
#[test]
fn registry_covers_core_and_baseline_quantizers() {
    let expect = [
        ("fp32", "FP32", 32.0),
        ("olive-4bit", "OliVe-4bit", 4.0),
        ("olive-4bit-flint", "OliVe-4bit-flint", 4.0),
        ("olive-8bit", "OliVe-8bit", 8.0),
        ("ant:4bit", "ANT-4bit", 4.0),
        ("ant:int8-fallback", "ANT", 4.0),
        ("gobo", "GOBO", 3.0),
        ("olaccel", "OLAccel", 4.0 + 0.03 * (16.0 + 32.0)),
        ("adafloat", "AdaFloat-8bit", 8.0),
        ("os:4bit", "OS-4bit", 4.0),
        ("os:6bit", "OS-6bit", 6.0),
        ("uniform:4", "int4", 4.0),
        ("uniform:8", "int8", 8.0),
    ];
    for (spec, name, bits) in expect {
        let q = Scheme::parse(spec).unwrap().build();
        assert_eq!(q.name(), name, "{spec}");
        assert!(
            (q.bits_per_element() - bits).abs() < 0.5,
            "{spec}: {} vs {}",
            q.bits_per_element(),
            bits
        );
    }
}

/// `quantize_weights` maps a teacher's weight matrices on the pool; for
/// every registry spec, at both granularities, its student must hold the
/// bits of quantizing each matrix on its own, one after another, at 1 and
/// at 8 threads.
#[test]
fn quantize_weights_on_the_pool_matches_a_serial_per_tensor_map() {
    let teacher = TinyTransformer::generate(
        EngineConfig::tiny(),
        OutlierSeverity::llm(),
        &mut Rng::seed_from(5),
    );
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    for base in Scheme::all() {
        for scheme in [base, base.with_granularity(Granularity::PerRow)] {
            let q = scheme.build();
            let serial: Vec<Vec<u32>> = teacher
                .named_weights()
                .into_iter()
                .map(|(_, w)| bits(&q.quantize_dequantize(w)))
                .collect();
            for threads in [1, 8] {
                let student =
                    olive_runtime::with_threads(threads, || teacher.quantize_weights(q.as_ref()));
                let pooled: Vec<Vec<u32>> = student
                    .named_weights()
                    .into_iter()
                    .map(|(_, w)| bits(w))
                    .collect();
                assert!(pooled == serial, "{scheme} at {threads} threads");
            }
        }
    }
}
