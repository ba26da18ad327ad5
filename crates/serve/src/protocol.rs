//! The JSON wire protocol: decoding `/v1/eval`, `/v1/generate` and
//! `/v1/quantize` request bodies into validated, serveable jobs, and
//! rendering the non-batched endpoint bodies (`/v1/schemes`).
//!
//! Decoding is strict: unknown fields, wrong types, out-of-range sizes and
//! duplicate schemes are all 400s with messages naming the offending field —
//! requests are untrusted input, so nothing here panics.
//!
//! All three POST endpoints decode through one typed layer
//! (`RequestDecoder`): the field whitelist is checked before any field is
//! read (a typo'd field name 400s even when everything else is valid), and
//! every typed accessor produces its error in one place — so "must be an
//! unsigned integer", range violations and missing-field messages are
//! uniform across the whole API, not per-endpoint dialects. The model
//! fields the eval and generate endpoints share (`family`, `size`, `seed`,
//! `weights_only`, `task`) decode through one `ModelParams` reader.

use olive_api::{
    Calibration, JsonValue, ModelFamily, ModelSpec, Pipeline, Scheme, DEFAULT_BATCHES,
    DEFAULT_MAX_NEW_TOKENS, DEFAULT_OVERSAMPLE, DEFAULT_PROMPT_TOKENS,
};
use olive_core::TensorQuantizer;
use olive_tensor::Tensor;

/// Most evaluation sequences a single request may ask for — serving bounds
/// per-request work so one client cannot monopolise the batch worker.
pub const MAX_BATCHES: usize = 256;

/// Largest accepted calibration oversampling factor.
pub const MAX_OVERSAMPLE: usize = 64;

/// Most matrix elements `/v1/quantize` accepts (1M f32 ≈ 4 MB dense).
pub const MAX_QUANTIZE_ELEMENTS: usize = 1 << 20;

/// A decode failure; always answered as a 400 with this message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The proxy-model size a request selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSize {
    /// Unit-test sized (`EngineConfig::tiny()`): sub-millisecond evals.
    Tiny,
    /// The harness default (`EngineConfig::small()`).
    Small,
}

impl ModelSize {
    fn parse(name: &str) -> Result<ModelSize, DecodeError> {
        match name {
            "tiny" => Ok(ModelSize::Tiny),
            "small" => Ok(ModelSize::Small),
            other => Err(DecodeError(format!(
                "unknown model size '{other}' (expected 'tiny' or 'small')"
            ))),
        }
    }

    fn wire_name(self) -> &'static str {
        match self {
            ModelSize::Tiny => "tiny",
            ModelSize::Small => "small",
        }
    }

    pub(crate) fn spec(self, family: ModelFamily) -> ModelSpec {
        match self {
            ModelSize::Tiny => family.tiny(),
            ModelSize::Small => family.small(),
        }
    }
}

/// A fully validated `/v1/eval` request.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Proxy-model family (`"family"`, default `"bert"`).
    pub family: ModelFamily,
    /// Proxy-model size (`"size"`, default `"tiny"`).
    pub size: ModelSize,
    /// Schemes to evaluate (`"scheme"` or `"schemes"`, required, no
    /// duplicates).
    pub schemes: Vec<Scheme>,
    /// Teacher/task RNG seed (`"seed"`, default 0).
    pub seed: u64,
    /// Evaluation sequences (`"batches"`, default [`DEFAULT_BATCHES`], max
    /// [`MAX_BATCHES`]).
    pub batches: usize,
    /// Input selection (`"calibration"`: `"confident"`/`"random"`, plus
    /// `"oversample"`).
    pub calibration: Calibration,
    /// Quantize weights only (`"weights_only"`, default false).
    pub weights_only: bool,
    /// Task display name (`"task"`, default `"eval"` like the pipeline).
    pub task: String,
}

impl EvalRequest {
    /// Decodes and validates a request body.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the offending field.
    pub fn decode(body: &JsonValue) -> Result<EvalRequest, DecodeError> {
        let dec = RequestDecoder::new(
            body,
            &[
                "family",
                "size",
                "scheme",
                "schemes",
                "seed",
                "batches",
                "calibration",
                "oversample",
                "weights_only",
                "task",
            ],
        )?;
        let model = ModelParams::decode(&dec, "eval")?;

        let mut specs: Vec<&str> = Vec::new();
        match (dec.get("scheme"), dec.get("schemes")) {
            (Some(_), Some(_)) => {
                return Err(DecodeError(
                    "pass either 'scheme' or 'schemes', not both".into(),
                ))
            }
            (Some(v), None) => specs.push(str_value(v, "scheme")?),
            (None, Some(v)) => {
                let items = v.as_array().ok_or_else(|| {
                    DecodeError("'schemes' must be an array of spec strings".into())
                })?;
                for item in items {
                    specs.push(str_value(item, "schemes[..]")?);
                }
            }
            (None, None) => {
                return Err(DecodeError(
                    "missing 'scheme' (or 'schemes'): see GET /v1/schemes for the registry".into(),
                ))
            }
        }
        if specs.is_empty() {
            return Err(DecodeError("'schemes' must not be empty".into()));
        }
        let mut schemes = Vec::with_capacity(specs.len());
        for spec in specs {
            let scheme = Scheme::parse(spec).map_err(|e| DecodeError(e.to_string()))?;
            if schemes.contains(&scheme) {
                return Err(DecodeError(format!(
                    "duplicate scheme '{scheme}' in the request"
                )));
            }
            schemes.push(scheme);
        }

        let batches = dec.bounded_usize("batches", DEFAULT_BATCHES, 1, MAX_BATCHES)?;
        let oversample = dec.bounded_usize("oversample", DEFAULT_OVERSAMPLE, 1, MAX_OVERSAMPLE)?;
        let calibration = match dec.str("calibration")? {
            None => Calibration::Confident { oversample },
            Some("confident") => Calibration::Confident { oversample },
            Some("random") => Calibration::Random,
            Some(other) => {
                return Err(DecodeError(format!(
                    "unknown calibration '{other}' (expected 'confident' or 'random')"
                )))
            }
        };
        if matches!(calibration, Calibration::Random) && dec.get("oversample").is_some() {
            return Err(DecodeError(
                "'oversample' only applies to 'confident' calibration".into(),
            ));
        }

        Ok(EvalRequest {
            family: model.family,
            size: model.size,
            schemes,
            seed: model.seed,
            batches,
            calibration,
            weights_only: model.weights_only,
            task: model.task,
        })
    }

    /// The equivalent direct [`Pipeline`] — serving is defined as "exactly
    /// what this pipeline computes" (see the crate-level determinism
    /// contract).
    pub fn pipeline(&self) -> Pipeline {
        let mut p = Pipeline::new(self.size.spec(self.family))
            .task(self.task.clone())
            .scheme_set(self.schemes.iter().copied())
            .seed(self.seed)
            .batches(self.batches)
            .calibrate(self.calibration);
        if self.weights_only {
            p = p.weights_only();
        }
        p
    }

    /// Cache key of the prepared teacher + task this request needs —
    /// everything that feeds [`Pipeline::prepare`], excluding the schemes.
    pub fn prepared_key(&self) -> String {
        let calibration = match self.calibration {
            Calibration::Confident { oversample } => format!("confident:{oversample}"),
            Calibration::Random => "random".to_string(),
        };
        format!(
            "family={};size={};seed={};batches={};cal={};task={}",
            self.family.label(),
            self.size.wire_name(),
            self.seed,
            self.batches,
            calibration,
            self.task,
        )
    }

    /// Cache key of the full rendered response body.
    pub fn response_key(&self) -> String {
        let specs: Vec<String> = self.schemes.iter().map(|s| s.to_string()).collect();
        format!(
            "{}|weights_only={}|schemes={}",
            self.prepared_key(),
            self.weights_only,
            specs.join(","),
        )
    }
}

/// Most decode steps a single `/v1/generate` request may ask for — a
/// generation request occupies its batch slot for its whole duration, so
/// this bounds how long one client can hold a slot.
pub const MAX_NEW_TOKENS: usize = 256;

/// Longest accepted prompt, in tokens.
pub const MAX_PROMPT_TOKENS: usize = 256;

/// A fully validated `/v1/generate` request: one scheme decoded greedily for
/// a bounded number of steps, streamed as chunked transfer-encoding.
///
/// Exactly **one** scheme per request: a stream is one decode trace; compare
/// schemes with one request each (they share the cached teacher + prompt).
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateRequest {
    /// Proxy-model family (`"family"`, default `"bert"`).
    pub family: ModelFamily,
    /// Proxy-model size (`"size"`, default `"tiny"`).
    pub size: ModelSize,
    /// Scheme to generate with (`"scheme"`, required, single).
    pub scheme: Scheme,
    /// Teacher/prompt RNG seed (`"seed"`, default 0).
    pub seed: u64,
    /// Prompt length (`"prompt_tokens"`, default
    /// [`DEFAULT_PROMPT_TOKENS`], max [`MAX_PROMPT_TOKENS`]).
    pub prompt_tokens: usize,
    /// Greedy decode steps (`"max_new_tokens"`, default
    /// [`DEFAULT_MAX_NEW_TOKENS`], max [`MAX_NEW_TOKENS`]).
    pub max_new_tokens: usize,
    /// Quantize weights only (`"weights_only"`, default false).
    pub weights_only: bool,
    /// Task display name (`"task"`, default `"generate"`).
    pub task: String,
}

impl GenerateRequest {
    /// Decodes and validates a request body.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the offending field.
    pub fn decode(body: &JsonValue) -> Result<GenerateRequest, DecodeError> {
        let dec = RequestDecoder::new(
            body,
            &[
                "family",
                "size",
                "scheme",
                "seed",
                "prompt_tokens",
                "max_new_tokens",
                "weights_only",
                "task",
            ],
        )?;
        let model = ModelParams::decode(&dec, "generate")?;
        let spec = dec.str("scheme")?.ok_or_else(|| {
            DecodeError("missing 'scheme' (one per generation stream; see GET /v1/schemes)".into())
        })?;
        let scheme = Scheme::parse(spec).map_err(|e| DecodeError(e.to_string()))?;
        let prompt_tokens =
            dec.bounded_usize("prompt_tokens", DEFAULT_PROMPT_TOKENS, 1, MAX_PROMPT_TOKENS)?;
        let max_new_tokens =
            dec.bounded_usize("max_new_tokens", DEFAULT_MAX_NEW_TOKENS, 1, MAX_NEW_TOKENS)?;
        Ok(GenerateRequest {
            family: model.family,
            size: model.size,
            scheme,
            seed: model.seed,
            prompt_tokens,
            max_new_tokens,
            weights_only: model.weights_only,
            task: model.task,
        })
    }

    /// The equivalent direct [`Pipeline`] — a streamed `/v1/generate`
    /// response, chunks concatenated, is byte-identical to this pipeline's
    /// `generate(..).without_wall_times().to_json()` (the serving
    /// determinism contract).
    pub fn pipeline(&self) -> Pipeline {
        let mut p = Pipeline::new(self.size.spec(self.family))
            .task(self.task.clone())
            .scheme_set([self.scheme])
            .seed(self.seed);
        if self.weights_only {
            p = p.weights_only();
        }
        p
    }

    /// Cache key of the prepared teacher + prompt this request needs —
    /// everything that feeds [`Pipeline::prepare_generation`], excluding the
    /// scheme (so scheme comparisons share one preparation).
    pub fn prepared_key(&self) -> String {
        format!(
            "family={};size={};seed={};prompt={}",
            self.family.label(),
            self.size.wire_name(),
            self.seed,
            self.prompt_tokens,
        )
    }
}

/// A fully validated `/v1/quantize` request: one raw f32 matrix plus the
/// scheme to encode it with.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizeRequest {
    /// Scheme to quantize with (`"scheme"`, required).
    pub scheme: Scheme,
    /// Matrix rows (`"rows"`, required, ≥ 1).
    pub rows: usize,
    /// Matrix columns (`"cols"`, required, ≥ 1).
    pub cols: usize,
    /// Row-major matrix data (`"data"`, required, finite, rows×cols values).
    pub data: Vec<f32>,
}

impl QuantizeRequest {
    /// Decodes and validates a request body.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the offending field.
    pub fn decode(body: &JsonValue) -> Result<QuantizeRequest, DecodeError> {
        let dec = RequestDecoder::new(body, &["scheme", "rows", "cols", "data"])?;
        let spec = dec
            .str("scheme")?
            .ok_or_else(|| DecodeError("missing 'scheme'".into()))?;
        let scheme = Scheme::parse(spec).map_err(|e| DecodeError(e.to_string()))?;
        let rows = dec.required_usize("rows")?;
        let cols = dec.required_usize("cols")?;
        if rows == 0 || cols == 0 {
            return Err(DecodeError("'rows' and 'cols' must be at least 1".into()));
        }
        let elements = rows
            .checked_mul(cols)
            .filter(|&n| n <= MAX_QUANTIZE_ELEMENTS)
            .ok_or_else(|| {
                DecodeError(format!(
                    "matrix of {rows}x{cols} exceeds the {MAX_QUANTIZE_ELEMENTS}-element limit"
                ))
            })?;
        let items = dec
            .get("data")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| DecodeError("'data' must be an array of numbers".into()))?;
        if items.len() != elements {
            return Err(DecodeError(format!(
                "'data' has {} values but rows*cols = {elements}",
                items.len()
            )));
        }
        let mut data = Vec::with_capacity(elements);
        for (i, item) in items.iter().enumerate() {
            let x = item
                .as_f64()
                .ok_or_else(|| DecodeError(format!("'data[{i}]' is not a number")))?;
            let x = x as f32;
            if !x.is_finite() {
                return Err(DecodeError(format!(
                    "'data[{i}]' does not fit in a finite f32"
                )));
            }
            data.push(x);
        }
        Ok(QuantizeRequest {
            scheme,
            rows,
            cols,
            data,
        })
    }

    /// Quantizes the matrix and renders the response body: the dequantized
    /// values plus per-scheme storage/error statistics (and OVP-specific
    /// outlier statistics for OliVe schemes).
    pub fn execute(&self) -> String {
        let tensor = Tensor::from_vec(vec![self.rows, self.cols], self.data.clone());
        let quantizer = self.scheme.build();
        let mut extra: Vec<(String, JsonValue)> = Vec::new();
        let dequantized = match self.scheme.olive_quantizer() {
            Some(olive) => {
                let encoded = olive.quantize(&tensor);
                extra.push((
                    "storage_bytes".into(),
                    JsonValue::Int(encoded.storage_bytes() as i64),
                ));
                extra.push((
                    "compression_ratio".into(),
                    JsonValue::num_or_null(encoded.compression_ratio()),
                ));
                extra.push((
                    "outlier_pair_fraction".into(),
                    JsonValue::num_or_null(encoded.outlier_pair_fraction()),
                ));
                encoded.dequantize()
            }
            None => quantizer.quantize_dequantize(&tensor),
        };
        let mse = tensor.mse(&dequantized);
        let max_abs_err = tensor
            .data()
            .iter()
            .zip(dequantized.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let values: Vec<JsonValue> = dequantized
            .data()
            .iter()
            .map(|&x| JsonValue::num_or_null(x as f64))
            .collect();
        let mut entries: Vec<(String, JsonValue)> = vec![
            ("scheme".into(), JsonValue::Str(self.scheme.to_string())),
            ("name".into(), JsonValue::Str(quantizer.name().to_string())),
            ("rows".into(), JsonValue::Int(self.rows as i64)),
            ("cols".into(), JsonValue::Int(self.cols as i64)),
            (
                "bits_per_element".into(),
                JsonValue::num_or_null(quantizer.bits_per_element()),
            ),
            (
                "compute_bits".into(),
                JsonValue::num_or_null(quantizer.compute_bits()),
            ),
            ("mse".into(), JsonValue::num_or_null(mse)),
            (
                "max_abs_err".into(),
                JsonValue::num_or_null(max_abs_err as f64),
            ),
        ];
        entries.extend(extra);
        entries.push(("values".into(), JsonValue::Array(values)));
        JsonValue::object(entries).render()
    }
}

/// Renders the `/v1/schemes` body: the whole registry with per-scheme
/// storage/compute stats.
pub fn render_schemes_body() -> String {
    let schemes: Vec<JsonValue> = Scheme::all()
        .into_iter()
        .map(|scheme| {
            let q = scheme.build();
            JsonValue::object(vec![
                ("spec", JsonValue::Str(scheme.to_string())),
                ("name", JsonValue::Str(q.name().to_string())),
                (
                    "bits_per_element",
                    JsonValue::num_or_null(q.bits_per_element()),
                ),
                ("compute_bits", JsonValue::num_or_null(q.compute_bits())),
                (
                    "quantizes_activations",
                    JsonValue::Bool(q.quantizes_activations()),
                ),
            ])
        })
        .collect();
    JsonValue::object(vec![
        ("granularity_suffix", JsonValue::Str("@per-row".into())),
        ("schemes", JsonValue::Array(schemes)),
    ])
    .render()
}

/// The one typed request-decode layer every POST endpoint goes through.
///
/// Construction enforces the two invariants shared by the whole API:
/// the body is a JSON object, and every present field is on the endpoint's
/// whitelist — checked *before* any field is read, so a typo'd field name
/// 400s even when everything else is valid (a misspelled "batchs" silently
/// falling back to a default would change results quietly: a debugging
/// nightmare). The accessors then produce every type/range/missing error
/// from one place, so error wording is uniform across endpoints.
struct RequestDecoder<'a> {
    body: &'a JsonValue,
}

impl<'a> RequestDecoder<'a> {
    fn new(body: &'a JsonValue, allowed: &[&str]) -> Result<Self, DecodeError> {
        let JsonValue::Object(entries) = body else {
            return Err(DecodeError("request body must be a JSON object".into()));
        };
        for (key, _) in entries {
            if !allowed.contains(&key.as_str()) {
                return Err(DecodeError(format!(
                    "unknown field '{key}' (expected one of: {})",
                    allowed.join(", ")
                )));
            }
        }
        Ok(RequestDecoder { body })
    }

    fn get(&self, name: &str) -> Option<&'a JsonValue> {
        self.body.get(name)
    }

    fn str(&self, name: &str) -> Result<Option<&'a str>, DecodeError> {
        self.get(name).map(|v| str_value(v, name)).transpose()
    }

    fn string_or(&self, name: &str, default: &str) -> Result<String, DecodeError> {
        Ok(self.str(name)?.unwrap_or(default).to_string())
    }

    fn bool_or(&self, name: &str, default: bool) -> Result<bool, DecodeError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| DecodeError(format!("'{name}' must be a boolean"))),
        }
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, DecodeError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| DecodeError(format!("'{name}' must be an unsigned integer"))),
        }
    }

    /// An optional bounded count: serving limits (`MAX_BATCHES`,
    /// `MAX_NEW_TOKENS`, …) are enforced here so every endpoint rejects
    /// out-of-range sizes with the same wording.
    fn bounded_usize(
        &self,
        name: &str,
        default: usize,
        min: usize,
        max: usize,
    ) -> Result<usize, DecodeError> {
        let value = match self.get(name) {
            None => default,
            Some(v) => v
                .as_usize()
                .ok_or_else(|| DecodeError(format!("'{name}' must be an unsigned integer")))?,
        };
        if !(min..=max).contains(&value) {
            return Err(DecodeError(format!(
                "'{name}' must be between {min} and {max}, got {value}"
            )));
        }
        Ok(value)
    }

    fn required_usize(&self, name: &str) -> Result<usize, DecodeError> {
        self.get(name)
            .ok_or_else(|| DecodeError(format!("missing '{name}'")))?
            .as_usize()
            .ok_or_else(|| DecodeError(format!("'{name}' must be an unsigned integer")))
    }
}

/// The model-selection fields `/v1/eval` and `/v1/generate` share, decoded
/// identically for both (only the default task label differs).
struct ModelParams {
    family: ModelFamily,
    size: ModelSize,
    seed: u64,
    weights_only: bool,
    task: String,
}

impl ModelParams {
    fn decode(dec: &RequestDecoder<'_>, default_task: &str) -> Result<ModelParams, DecodeError> {
        let family = match dec.str("family")? {
            None => ModelFamily::Bert,
            Some(name) => ModelFamily::parse(name).map_err(DecodeError)?,
        };
        let size = match dec.str("size")? {
            None => ModelSize::Tiny,
            Some(name) => ModelSize::parse(name)?,
        };
        Ok(ModelParams {
            family,
            size,
            seed: dec.u64_or("seed", 0)?,
            weights_only: dec.bool_or("weights_only", false)?,
            task: dec.string_or("task", default_task)?,
        })
    }
}

fn str_value<'a>(v: &'a JsonValue, name: &str) -> Result<&'a str, DecodeError> {
    v.as_str()
        .ok_or_else(|| DecodeError(format!("'{name}' must be a string")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_eval(text: &str) -> Result<EvalRequest, DecodeError> {
        EvalRequest::decode(&JsonValue::parse(text).unwrap())
    }

    fn decode_quantize(text: &str) -> Result<QuantizeRequest, DecodeError> {
        QuantizeRequest::decode(&JsonValue::parse(text).unwrap())
    }

    #[test]
    fn eval_defaults_mirror_the_pipeline_defaults() {
        let req = decode_eval(r#"{"scheme": "olive-4bit"}"#).unwrap();
        assert_eq!(req.family, ModelFamily::Bert);
        assert_eq!(req.size, ModelSize::Tiny);
        assert_eq!(req.seed, 0);
        assert_eq!(req.batches, DEFAULT_BATCHES);
        assert_eq!(
            req.calibration,
            Calibration::Confident {
                oversample: DEFAULT_OVERSAMPLE
            }
        );
        assert!(!req.weights_only);
        assert_eq!(req.task, "eval");
    }

    #[test]
    fn eval_accepts_a_full_request() {
        let req = decode_eval(
            r#"{"family": "gpt2", "size": "small", "schemes": ["fp32", "olive-4bit@per-row"],
                "seed": 7, "batches": 3, "calibration": "random", "weights_only": true,
                "task": "wiki"}"#,
        )
        .unwrap();
        assert_eq!(req.family, ModelFamily::Gpt2);
        assert_eq!(req.size, ModelSize::Small);
        assert_eq!(req.schemes.len(), 2);
        assert_eq!(req.calibration, Calibration::Random);
        assert!(req.weights_only);
        // The derived pipeline reports exactly these settings.
        let report = EvalRequest {
            size: ModelSize::Tiny,
            batches: 2,
            ..req
        }
        .pipeline()
        .run();
        assert_eq!(report.task, "wiki");
        assert_eq!(report.seed, 7);
        assert!(!report.quantize_activations);
    }

    #[test]
    fn eval_rejections_name_the_problem() {
        for (body, needle) in [
            (r#"[1]"#, "must be a JSON object"),
            (r#"{}"#, "missing 'scheme'"),
            (r#"{"schemes": []}"#, "must not be empty"),
            (
                r#"{"scheme": "olive-4bit", "schemes": ["fp32"]}"#,
                "not both",
            ),
            (r#"{"scheme": "olive-5bit"}"#, "olive-5bit"),
            (
                r#"{"schemes": ["fp32", "fp32"]}"#,
                "duplicate scheme 'fp32'",
            ),
            (r#"{"scheme": "fp32", "family": "llama"}"#, "llama"),
            (r#"{"scheme": "fp32", "size": "xl"}"#, "unknown model size"),
            (r#"{"scheme": "fp32", "seed": -1}"#, "'seed'"),
            (r#"{"scheme": "fp32", "batches": 0}"#, "'batches'"),
            (r#"{"scheme": "fp32", "batches": 100000}"#, "'batches'"),
            (r#"{"scheme": "fp32", "calibration": "magic"}"#, "magic"),
            (
                r#"{"scheme": "fp32", "calibration": "random", "oversample": 2}"#,
                "oversample",
            ),
            (r#"{"scheme": "fp32", "weights_only": 1}"#, "weights_only"),
            (
                r#"{"scheme": "fp32", "batchs": 4}"#,
                "unknown field 'batchs'",
            ),
        ] {
            let err = decode_eval(body).expect_err(body);
            assert!(err.0.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn cache_keys_separate_what_must_be_separated() {
        let a = decode_eval(r#"{"scheme": "fp32", "seed": 1}"#).unwrap();
        let b = decode_eval(r#"{"scheme": "fp32", "seed": 2}"#).unwrap();
        let c = decode_eval(r#"{"scheme": "olive-4bit", "seed": 1}"#).unwrap();
        assert_ne!(a.prepared_key(), b.prepared_key());
        // Same preparation, different schemes: shared teacher, distinct body.
        assert_eq!(a.prepared_key(), c.prepared_key());
        assert_ne!(a.response_key(), c.response_key());
    }

    fn decode_generate(text: &str) -> Result<GenerateRequest, DecodeError> {
        GenerateRequest::decode(&JsonValue::parse(text).unwrap())
    }

    #[test]
    fn generate_defaults_and_full_requests_decode() {
        let req = decode_generate(r#"{"scheme": "olive-4bit"}"#).unwrap();
        assert_eq!(req.family, ModelFamily::Bert);
        assert_eq!(req.size, ModelSize::Tiny);
        assert_eq!(req.seed, 0);
        assert_eq!(req.prompt_tokens, DEFAULT_PROMPT_TOKENS);
        assert_eq!(req.max_new_tokens, DEFAULT_MAX_NEW_TOKENS);
        assert!(!req.weights_only);
        assert_eq!(req.task, "generate");

        let req = decode_generate(
            r#"{"family": "gpt2", "size": "small", "scheme": "olive-4bit@per-row",
                "seed": 3, "prompt_tokens": 5, "max_new_tokens": 7,
                "weights_only": true, "task": "story"}"#,
        )
        .unwrap();
        assert_eq!(req.family, ModelFamily::Gpt2);
        assert_eq!(req.prompt_tokens, 5);
        assert_eq!(req.max_new_tokens, 7);
        assert!(req.weights_only);
        // The derived pipeline reports exactly these settings.
        let report = GenerateRequest {
            size: ModelSize::Tiny,
            max_new_tokens: 2,
            ..req
        }
        .pipeline()
        .generation(
            olive_api::GenOptions::new()
                .prompt_tokens(5)
                .max_new_tokens(2),
        );
        assert_eq!(report.task, "story");
        assert_eq!(report.seed, 3);
        assert_eq!(report.prompt.len(), 5);
        assert!(!report.quantize_activations);
    }

    #[test]
    fn generate_rejections_name_the_problem() {
        for (body, needle) in [
            (r#"{}"#, "missing 'scheme'"),
            (r#"{"schemes": ["fp32"]}"#, "unknown field 'schemes'"),
            (r#"{"scheme": "olive-5bit"}"#, "olive-5bit"),
            (
                r#"{"scheme": "fp32", "max_new_tokens": 0}"#,
                "max_new_tokens",
            ),
            (
                r#"{"scheme": "fp32", "max_new_tokens": 100000}"#,
                "max_new_tokens",
            ),
            (r#"{"scheme": "fp32", "prompt_tokens": 0}"#, "prompt_tokens"),
            (r#"{"scheme": "fp32", "seed": -2}"#, "'seed'"),
            (
                r#"{"scheme": "fp32", "batches": 4}"#,
                "unknown field 'batches'",
            ),
        ] {
            let err = decode_generate(body).expect_err(body);
            assert!(err.0.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn generate_cache_keys_share_preparations_across_schemes() {
        let a = decode_generate(r#"{"scheme": "fp32", "seed": 1}"#).unwrap();
        let b = decode_generate(r#"{"scheme": "olive-4bit", "seed": 1}"#).unwrap();
        let c = decode_generate(r#"{"scheme": "fp32", "seed": 2}"#).unwrap();
        let d = decode_generate(r#"{"scheme": "fp32", "seed": 1, "prompt_tokens": 9}"#).unwrap();
        assert_eq!(a.prepared_key(), b.prepared_key());
        assert_ne!(a.prepared_key(), c.prepared_key());
        assert_ne!(a.prepared_key(), d.prepared_key());
    }

    #[test]
    fn quantize_round_trips_fp32_exactly() {
        let req = decode_quantize(
            r#"{"scheme": "fp32", "rows": 2, "cols": 3, "data": [1, -2, 3.5, 0, 4, -0.25]}"#,
        )
        .unwrap();
        let body = req.execute();
        let v = JsonValue::parse(&body).unwrap();
        assert_eq!(v.get("mse").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(v.get("max_abs_err").and_then(JsonValue::as_f64), Some(0.0));
        let values = v.get("values").and_then(JsonValue::as_array).unwrap();
        assert_eq!(values.len(), 6);
        assert_eq!(values[2].as_f64(), Some(3.5));
    }

    #[test]
    fn quantize_reports_olive_ovp_statistics() {
        let data: Vec<String> = (0..64)
            .map(|i| {
                if i == 10 {
                    "50.0".into()
                } else {
                    format!("0.{i:02}")
                }
            })
            .collect();
        let req = decode_quantize(&format!(
            r#"{{"scheme": "olive-4bit", "rows": 4, "cols": 16, "data": [{}]}}"#,
            data.join(",")
        ))
        .unwrap();
        let v = JsonValue::parse(&req.execute()).unwrap();
        assert!(v.get("storage_bytes").and_then(JsonValue::as_u64).unwrap() > 0);
        assert!(
            v.get("compression_ratio")
                .and_then(JsonValue::as_f64)
                .unwrap()
                > 1.0
        );
        assert!(v.get("outlier_pair_fraction").is_some());
        // The planted outlier must survive 4-bit quantization.
        let values = v.get("values").and_then(JsonValue::as_array).unwrap();
        let back = values[10].as_f64().unwrap();
        assert!(
            (back - 50.0).abs() / 50.0 < 0.25,
            "outlier decayed to {back}"
        );
    }

    #[test]
    fn quantize_rejections_name_the_problem() {
        for (body, needle) in [
            (r#"{"rows": 1, "cols": 1, "data": [1]}"#, "missing 'scheme'"),
            (
                r#"{"scheme": "fp32", "cols": 1, "data": [1]}"#,
                "missing 'rows'",
            ),
            (
                r#"{"scheme": "fp32", "rows": 0, "cols": 1, "data": []}"#,
                "at least 1",
            ),
            (
                r#"{"scheme": "fp32", "rows": 2, "cols": 2, "data": [1, 2, 3]}"#,
                "rows*cols",
            ),
            (
                r#"{"scheme": "fp32", "rows": 1, "cols": 2, "data": [1, "x"]}"#,
                "not a number",
            ),
            (
                r#"{"scheme": "fp32", "rows": 1, "cols": 1, "data": [1e300]}"#,
                "finite f32",
            ),
            (
                r#"{"scheme": "fp32", "rows": 2000, "cols": 2000, "data": []}"#,
                "element limit",
            ),
        ] {
            let err = decode_quantize(body).expect_err(body);
            assert!(err.0.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn schemes_body_lists_the_whole_registry() {
        let v = JsonValue::parse(&render_schemes_body()).unwrap();
        let listed = v.get("schemes").and_then(JsonValue::as_array).unwrap();
        assert_eq!(listed.len(), Scheme::all().len());
        assert!(listed
            .iter()
            .any(|s| { s.get("spec").and_then(JsonValue::as_str) == Some("olive-4bit") }));
    }
}
