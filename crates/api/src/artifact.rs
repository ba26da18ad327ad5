//! Prepared-model snapshots: the typed layer over the binary container in
//! [`olive_models::artifact`].
//!
//! A [`ModelArtifact`] captures everything `olive-serve` computes when it
//! prepares a model for a request — the FP32 teacher, the calibration state
//! (an eval task or a generation prompt), the serving cache key it was
//! prepared under, and optionally the quantized student per scheme — so the
//! expensive preparation can run *offline once* (the `olive-prepare` binary)
//! and every worker process can cold-start from disk in milliseconds.
//!
//! The contract is bit-identity: a worker that loads an artifact serves the
//! same response bytes as a worker that prepared in-process, because every
//! `f32` survives as its exact bit pattern and the cache key pins the
//! preparation inputs. Loading is total — corrupted, truncated or
//! future-versioned files come back as typed [`ArtifactError`]s, never
//! panics (see the property/fuzz suite in `crates/api/tests/artifact.rs`).

use crate::gen::PreparedGen;
use crate::json::JsonValue;
use crate::pipeline::PreparedEval;
use crate::scheme::Scheme;
use olive_models::artifact::{
    fnv1a64, read_model, read_task, validate_tokens, write_model, write_task, ArtifactError,
    ArtifactReader, ArtifactWriter,
};
use olive_models::TinyTransformer;
use std::path::{Path, PathBuf};

/// File extension for artifacts on disk.
pub const ARTIFACT_EXTENSION: &str = "olv";

/// What the snapshot prepares the model *for*.
#[derive(Debug, Clone)]
pub enum ArtifactPayload {
    /// An `/v1/eval` preparation: teacher plus calibrated evaluation task.
    Eval {
        /// The calibration task all schemes are scored on.
        task: olive_models::EvalTask,
    },
    /// A `/v1/generate` preparation: teacher plus the prompt all schemes
    /// continue from.
    Gen {
        /// The prompt token ids.
        prompt: Vec<usize>,
    },
}

impl ArtifactPayload {
    fn kind_code(&self) -> u64 {
        match self {
            ArtifactPayload::Eval { .. } => 0,
            ArtifactPayload::Gen { .. } => 1,
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            ArtifactPayload::Eval { .. } => "eval",
            ArtifactPayload::Gen { .. } => "generate",
        }
    }
}

/// A complete prepared-model snapshot.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// The serving cache key this model was prepared under (the
    /// `prepared_key()` of the originating request). Loaders must treat a
    /// key mismatch as a miss: the key *is* the preparation's identity.
    pub key: String,
    /// Human-readable model label (`"BERT"`, `"GPT-2"`, …) — advisory
    /// metadata for `describe`, not part of the identity.
    pub model_name: String,
    /// The FP32 teacher.
    pub teacher: TinyTransformer,
    /// Calibration state: eval task or generation prompt.
    pub payload: ArtifactPayload,
    /// Quantized students, one `(scheme spec, student)` pair per scheme the
    /// artifact was prepared with. Specs are the canonical
    /// [`Scheme`] renderings, so they match serving cache keys verbatim.
    pub students: Vec<(String, TinyTransformer)>,
}

impl ModelArtifact {
    /// Snapshots an eval preparation.
    pub fn eval(key: impl Into<String>, model_name: impl Into<String>, p: &PreparedEval) -> Self {
        ModelArtifact {
            key: key.into(),
            model_name: model_name.into(),
            teacher: p.teacher.clone(),
            payload: ArtifactPayload::Eval {
                task: p.task.clone(),
            },
            students: Vec::new(),
        }
    }

    /// Snapshots a generation preparation.
    pub fn gen(key: impl Into<String>, model_name: impl Into<String>, p: &PreparedGen) -> Self {
        ModelArtifact {
            key: key.into(),
            model_name: model_name.into(),
            teacher: p.teacher.clone(),
            payload: ArtifactPayload::Gen {
                prompt: p.prompt.clone(),
            },
            students: Vec::new(),
        }
    }

    /// Quantizes and attaches one student per scheme (skipping specs already
    /// present), so loaders get the per-scheme admission work for free.
    pub fn with_students(mut self, schemes: &[Scheme]) -> Self {
        for scheme in schemes {
            let spec = scheme.to_string();
            if self.students.iter().any(|(s, _)| *s == spec) {
                continue;
            }
            let student = self.teacher.quantize_weights(scheme.build().as_ref());
            self.students.push((spec, student));
        }
        self
    }

    /// Rebuilds the eval preparation, or `None` for a generation artifact.
    /// The artifact's quantized students seed the preparation's
    /// quantize-once cache, so a loader's first eval per scheme skips
    /// re-quantization (the snapshot already paid for it).
    pub fn prepared_eval(&self) -> Option<PreparedEval> {
        match &self.payload {
            ArtifactPayload::Eval { task } => {
                let prepared = PreparedEval::new(self.teacher.clone(), task.clone());
                prepared.students.seed(&self.students);
                Some(prepared)
            }
            ArtifactPayload::Gen { .. } => None,
        }
    }

    /// Rebuilds the generation preparation, or `None` for an eval artifact.
    /// The artifact's quantized students seed the preparation's
    /// quantize-once cache, as in [`prepared_eval`](Self::prepared_eval).
    pub fn prepared_gen(&self) -> Option<PreparedGen> {
        match &self.payload {
            ArtifactPayload::Gen { prompt } => {
                let prepared = PreparedGen::new(self.teacher.clone(), prompt.clone());
                prepared.students.seed(&self.students);
                Some(prepared)
            }
            ArtifactPayload::Eval { .. } => None,
        }
    }

    /// The canonical on-disk file name for a cache key: a hash, because keys
    /// contain characters that are hostile to file systems, plus the
    /// [`ARTIFACT_EXTENSION`]. Collisions are harmless — loaders verify the
    /// stored key.
    pub fn file_name(key: &str) -> String {
        format!("m-{:016x}.{ARTIFACT_EXTENSION}", fnv1a64(key.as_bytes()))
    }

    /// Serializes to the framed binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.u64(self.payload.kind_code());
        w.str(&self.key);
        w.str(&self.model_name);
        write_model(&mut w, &self.teacher);
        match &self.payload {
            ArtifactPayload::Eval { task } => write_task(&mut w, task),
            ArtifactPayload::Gen { prompt } => w.usizes(prompt),
        }
        w.u64(self.students.len() as u64);
        for (spec, student) in &self.students {
            w.str(spec);
            write_model(&mut w, student);
        }
        w.finish()
    }

    /// Deserializes and validates a snapshot.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`]: framing failures from the container layer,
    /// plus [`ArtifactError::Malformed`] for semantic violations (unknown
    /// payload kind, out-of-vocabulary prompt tokens, a student whose
    /// architecture differs from the teacher's).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = ArtifactReader::new(bytes)?;
        let kind = r.u64()?;
        let key = r.str()?;
        let model_name = r.str()?;
        let teacher = read_model(&mut r)?;
        let payload = match kind {
            0 => ArtifactPayload::Eval {
                task: read_task(&mut r, &teacher.config)?,
            },
            1 => {
                let prompt = r.usizes()?;
                validate_tokens("prompt", &prompt, &teacher.config)?;
                ArtifactPayload::Gen { prompt }
            }
            other => {
                return Err(ArtifactError::Malformed(format!(
                    "unknown payload kind {other} (expected 0=eval or 1=generate)"
                )))
            }
        };
        let n_students = r.usize()?;
        let mut students = Vec::new();
        for _ in 0..n_students {
            let spec = r.str()?;
            let student = read_model(&mut r)?;
            if student.config != teacher.config {
                return Err(ArtifactError::Malformed(format!(
                    "student '{spec}' architecture differs from the teacher's"
                )));
            }
            students.push((spec, student));
        }
        r.finish()?;
        Ok(ModelArtifact {
            key,
            model_name,
            teacher,
            payload,
            students,
        })
    }

    /// Writes the snapshot into `dir` under its canonical
    /// [`file_name`](ModelArtifact::file_name), atomically (temp file +
    /// rename), creating `dir` if needed. Returns the final path.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on any filesystem failure.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, ArtifactError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::file_name(&self.key));
        // Atomic publish: concurrent readers either see the complete file or
        // no file, never a prefix.
        let tmp = dir.join(format!(
            "{}.tmp-{}",
            Self::file_name(&self.key),
            std::process::id()
        ));
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Reads and validates a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`].
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Looks `key` up in an artifact directory: `Ok(None)` when no file
    /// exists for it, an error only when a file exists and fails to decode
    /// or was written for a different key (a hash collision).
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] from decoding an existing file, plus
    /// [`ArtifactError::Malformed`] on a key mismatch.
    pub fn load_from_dir(dir: &Path, key: &str) -> Result<Option<Self>, ArtifactError> {
        let path = dir.join(Self::file_name(key));
        if !path.exists() {
            return Ok(None);
        }
        let artifact = Self::load(&path)?;
        if artifact.key != key {
            return Err(ArtifactError::Malformed(format!(
                "artifact {} was written for key \"{}\", requested \"{key}\"",
                path.display(),
                artifact.key
            )));
        }
        Ok(Some(artifact))
    }

    /// A JSON description of the snapshot (the `olive-prepare --describe`
    /// output): key, kind, model, architecture, calibration size, students.
    pub fn describe(&self) -> String {
        let c = &self.teacher.config;
        let calibration = match &self.payload {
            ArtifactPayload::Eval { task } => JsonValue::object(vec![
                ("task", JsonValue::Str(task.name.clone())),
                ("inputs", JsonValue::UInt(task.inputs.len() as u64)),
            ]),
            ArtifactPayload::Gen { prompt } => JsonValue::object(vec![(
                "prompt_tokens",
                JsonValue::UInt(prompt.len() as u64),
            )]),
        };
        JsonValue::object(vec![
            ("key", JsonValue::Str(self.key.clone())),
            ("kind", JsonValue::Str(self.payload.kind_name().into())),
            ("model", JsonValue::Str(self.model_name.clone())),
            (
                "config",
                JsonValue::object(vec![
                    ("d_model", JsonValue::UInt(c.d_model as u64)),
                    ("n_heads", JsonValue::UInt(c.n_heads as u64)),
                    ("n_layers", JsonValue::UInt(c.n_layers as u64)),
                    ("d_ff", JsonValue::UInt(c.d_ff as u64)),
                    ("vocab", JsonValue::UInt(c.vocab as u64)),
                    ("seq_len", JsonValue::UInt(c.seq_len as u64)),
                ]),
            ),
            ("calibration", calibration),
            (
                "students",
                JsonValue::Array(
                    self.students
                        .iter()
                        .map(|(spec, _)| JsonValue::Str(spec.clone()))
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ModelFamily, Pipeline};

    #[test]
    fn eval_artifact_round_trips_and_reports() {
        let pipeline = Pipeline::new(ModelFamily::Bert.tiny())
            .task("artifact-test")
            .schemes(["olive-4bit"])
            .seed(5)
            .batches(2);
        let prepared = pipeline.prepare();
        let artifact = ModelArtifact::eval("key-a", "BERT", &prepared)
            .with_students(&[Scheme::parse("olive-4bit").unwrap()]);
        let back = ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        assert_eq!(back.key, "key-a");
        let restored = back.prepared_eval().expect("eval payload");
        assert_eq!(restored.task.inputs, prepared.task.inputs);
        // The loaded preparation serves byte-identical report JSON.
        let a = pipeline
            .run_prepared(&prepared)
            .without_wall_times()
            .to_json();
        let b = pipeline
            .run_prepared(&restored)
            .without_wall_times()
            .to_json();
        assert_eq!(a, b);
        assert!(back.students.iter().any(|(spec, _)| spec == "olive-4bit"));
        assert!(back.describe().contains("\"kind\": \"eval\""));
    }

    #[test]
    fn prepared_gen_holds_the_artifacts_students() {
        let pipeline = Pipeline::new(ModelFamily::Gpt2.tiny()).seed(4);
        let prepared = pipeline.prepare_generation(3);
        let schemes = ["olive-4bit", "uniform:4"].map(|s| Scheme::parse(s).unwrap());
        let artifact = ModelArtifact::gen("key-s", "GPT-2", &prepared).with_students(&schemes);
        let restored = artifact.prepared_gen().expect("gen payload");
        // Seeded before any lookup: every student the snapshot carries.
        assert_eq!(restored.students.len(), schemes.len());
        for (scheme, (_, stored)) in schemes.iter().zip(&artifact.students) {
            let student = restored.student(scheme);
            assert_eq!(student.embedding.data(), stored.embedding.data());
            assert_eq!(student.layers[0].wqkv.data(), stored.layers[0].wqkv.data());
        }
        assert_eq!(restored.students.len(), schemes.len());
    }

    #[test]
    fn gen_artifact_round_trips() {
        let pipeline = Pipeline::new(ModelFamily::Gpt2.tiny()).seed(3);
        let prepared = pipeline.prepare_generation(4);
        let artifact = ModelArtifact::gen("key-g", "GPT-2", &prepared);
        let back = ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        let restored = back.prepared_gen().expect("gen payload");
        assert_eq!(restored.prompt, prepared.prompt);
        assert_eq!(
            restored.teacher.embedding.data(),
            prepared.teacher.embedding.data()
        );
        assert!(back.prepared_eval().is_none());
    }

    #[test]
    fn dir_lookup_misses_cleanly_and_rejects_key_mismatch() {
        let dir = std::env::temp_dir().join(format!("olive-art-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            ModelArtifact::load_from_dir(&dir, "absent"),
            Ok(None)
        ));
        let pipeline = Pipeline::new(ModelFamily::Bert.tiny()).batches(2).seed(1);
        let artifact = ModelArtifact::eval("key-x", "BERT", &pipeline.prepare());
        artifact.save(&dir).unwrap();
        assert!(ModelArtifact::load_from_dir(&dir, "key-x")
            .unwrap()
            .is_some());
        // Simulate a hash collision: file present under the name of a key it
        // was not written for.
        let evil = dir.join(ModelArtifact::file_name("other-key"));
        std::fs::copy(dir.join(ModelArtifact::file_name("key-x")), &evil).unwrap();
        assert!(matches!(
            ModelArtifact::load_from_dir(&dir, "other-key"),
            Err(ArtifactError::Malformed(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
