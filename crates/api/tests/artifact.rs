//! Property and fuzz suite for prepared-model artifacts.
//!
//! Two contracts, both load-bearing for scale-out:
//!
//! * **Round-trip bit-identity** — serialize → deserialize → serialize is
//!   the identity on bytes, across every model family × scheme combination
//!   a worker can be asked to prepare. A worker cold-starting from an
//!   artifact therefore computes from exactly the tensors an in-process
//!   preparation would have produced.
//! * **Total decoding** — `ModelArtifact::from_bytes` over corrupted,
//!   truncated, bit-flipped or random input always returns a typed
//!   [`ArtifactError`], never panics and never silently accepts. The fuzz
//!   corpus is generated from a seeded [`Rng`], so every failure is
//!   replayable from the reported case number.

use olive_api::{ArtifactError, ModelArtifact, ModelFamily, Pipeline, Scheme};
use olive_harness::{check_with, prop_assert, CheckConfig};
use olive_models::artifact::{FORMAT_VERSION, HEADER_BYTES, MAGIC};

/// Scheme specs covering the registry's structurally distinct encodings
/// (outlier-victim pairs, plain uniform grids, the identity scheme).
const SPECS: [&str; 4] = ["olive-4bit", "olive-8bit", "uniform:4", "fp32"];

fn scheme(spec: &str) -> Scheme {
    Scheme::parse(spec).unwrap_or_else(|e| panic!("spec '{spec}' must parse: {e:?}"))
}

/// One prepared eval artifact per family, each carrying every scheme in
/// [`SPECS`] as a student — prepared once and shared across properties
/// (preparation dominates the suite's runtime).
fn eval_corpus() -> Vec<ModelArtifact> {
    ModelFamily::all()
        .into_iter()
        .map(|family| {
            let pipeline = Pipeline::new(family.tiny())
                .task("artifact-prop")
                .seed(11)
                .batches(2);
            let schemes: Vec<Scheme> = SPECS.iter().map(|s| scheme(s)).collect();
            ModelArtifact::eval(
                format!("family={family:?};size=tiny;seed=11;batches=2"),
                format!("{family:?}"),
                &pipeline.prepare(),
            )
            .with_students(&schemes)
        })
        .collect()
}

#[test]
fn round_trip_is_bit_identical_across_families_and_schemes() {
    let corpus = eval_corpus();
    // Generation artifacts ride the same container; cover both payload
    // kinds and a couple of prompt lengths.
    let gen_corpus: Vec<ModelArtifact> = [(ModelFamily::Gpt2, 4usize), (ModelFamily::Bloom, 9)]
        .into_iter()
        .map(|(family, prompt)| {
            let pipeline = Pipeline::new(family.tiny()).seed(23);
            ModelArtifact::gen(
                format!("family={family:?};size=tiny;seed=23;prompt={prompt}"),
                format!("{family:?}"),
                &pipeline.prepare_generation(prompt),
            )
            .with_students(&[scheme("olive-4bit")])
        })
        .collect();

    check_with(
        CheckConfig {
            cases: 40,
            seed: 0x0A_71FAC7,
        },
        "artifact round-trip bit-identity",
        |rng| {
            let all = corpus.len() + gen_corpus.len();
            rng.below(all)
        },
        |&index| {
            let artifact = corpus
                .iter()
                .chain(gen_corpus.iter())
                .nth(index)
                .ok_or_else(|| format!("index {index} out of corpus range"))?;
            let bytes = artifact.to_bytes();
            let reloaded = ModelArtifact::from_bytes(&bytes)
                .map_err(|e| format!("valid artifact rejected: {e}"))?;
            prop_assert!(
                reloaded.to_bytes() == bytes,
                "re-serialization changed the bytes for key \"{}\"",
                artifact.key
            );
            prop_assert!(
                reloaded.key == artifact.key && reloaded.model_name == artifact.model_name,
                "metadata drifted for key \"{}\"",
                artifact.key
            );
            prop_assert!(
                reloaded.students.len() == artifact.students.len(),
                "student count drifted"
            );
            for (spec, student) in &artifact.students {
                let loaded = reloaded
                    .students
                    .iter()
                    .find(|(s, _)| s == spec)
                    .map(|(_, m)| m)
                    .ok_or_else(|| format!("student '{spec}' lost in round-trip"))?;
                prop_assert!(
                    loaded.embedding.data() == student.embedding.data(),
                    "student '{spec}' embedding bits drifted"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn single_byte_flips_are_always_rejected() {
    // FNV-1a's update is injective in both accumulator and byte, so any
    // single-byte payload flip changes the checksum; header flips hit the
    // magic/version/length/checksum checks instead. No flip may decode.
    let artifact = eval_corpus().swap_remove(0);
    let pristine = artifact.to_bytes();
    check_with(
        CheckConfig {
            cases: 400,
            seed: 0xF11B,
        },
        "single-byte flips are rejected",
        |rng| {
            let position = rng.below(pristine.len());
            let flip = 1 + rng.below(255) as u8; // never the identity XOR
            (position, flip)
        },
        |&(position, flip)| {
            let mut corrupted = pristine.clone();
            let byte = corrupted
                .get_mut(position)
                .ok_or_else(|| format!("position {position} out of range"))?;
            *byte ^= flip;
            prop_assert!(
                ModelArtifact::from_bytes(&corrupted).is_err(),
                "flip {flip:#04x} at byte {position} decoded successfully"
            );
            Ok(())
        },
    );
}

#[test]
fn truncations_and_extensions_are_always_rejected() {
    let artifact = eval_corpus().swap_remove(1);
    let pristine = artifact.to_bytes();
    check_with(
        CheckConfig {
            cases: 300,
            seed: 0x7268,
        },
        "truncations/extensions are rejected",
        |rng| {
            // Bias towards interesting prefixes: the header boundary region
            // and uniformly random cuts; extensions append 1..=8 bytes.
            match rng.below(3) {
                0 => rng.below(HEADER_BYTES + 8),
                1 => rng.below(pristine.len()),
                _ => pristine.len() + 1 + rng.below(8),
            }
        },
        |&length| {
            let mut mutated = pristine.clone();
            mutated.resize(length, 0xA5);
            prop_assert!(
                length != pristine.len(),
                "generator must never produce the pristine length"
            );
            let error = match ModelArtifact::from_bytes(&mutated) {
                Err(e) => e,
                Ok(_) => return Err(format!("length {length} decoded successfully")),
            };
            // Truncation and extension surface as framing errors, never as
            // a semantic misread of garbage content.
            prop_assert!(
                matches!(
                    error,
                    ArtifactError::Truncated { .. } | ArtifactError::Malformed(_)
                ),
                "length {length}: unexpected error class {error}"
            );
            Ok(())
        },
    );
}

#[test]
fn random_bytes_never_panic_and_never_decode() {
    check_with(
        CheckConfig {
            cases: 200,
            seed: 0x9A9B,
        },
        "random input is rejected",
        |rng| {
            let len = rng.below(256);
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            // Half the cases get a valid magic prefix so the deeper header
            // and payload checks are exercised too.
            if rng.below(2) == 0 {
                for (dst, src) in bytes.iter_mut().zip(MAGIC.iter()) {
                    *dst = *src;
                }
            }
            bytes
        },
        |bytes| {
            prop_assert!(
                ModelArtifact::from_bytes(bytes).is_err(),
                "{} random bytes decoded successfully",
                bytes.len()
            );
            Ok(())
        },
    );
}

#[test]
fn each_corruption_yields_its_typed_error() {
    let artifact = eval_corpus().swap_remove(2);
    let pristine = artifact.to_bytes();

    let mut bad_magic = pristine.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        ModelArtifact::from_bytes(&bad_magic),
        Err(ArtifactError::BadMagic { .. })
    ));

    let mut future = pristine.clone();
    future[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match ModelArtifact::from_bytes(&future) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!((found, supported), (FORMAT_VERSION + 1, FORMAT_VERSION));
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    let mut bad_sum = pristine.clone();
    let last = bad_sum.len() - 1;
    bad_sum[last] ^= 0x01;
    assert!(matches!(
        ModelArtifact::from_bytes(&bad_sum),
        Err(ArtifactError::ChecksumMismatch { .. })
    ));

    assert!(matches!(
        ModelArtifact::from_bytes(&pristine[..HEADER_BYTES - 1]),
        Err(ArtifactError::Truncated { .. })
    ));

    let mut trailing = pristine.clone();
    trailing.push(0);
    assert!(matches!(
        ModelArtifact::from_bytes(&trailing),
        Err(ArtifactError::Malformed(_))
    ));

    // And the pristine bytes still decode after all that cloning.
    assert!(ModelArtifact::from_bytes(&pristine).is_ok());
}
