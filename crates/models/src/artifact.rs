//! The low-level model-artifact container: a zero-dependency, versioned,
//! checksummed binary format for snapshotting prepared models to disk.
//!
//! The deployment story the paper's accelerator assumes — quantize *once*,
//! serve many — only scales horizontally if "once" can happen in a different
//! process than "serve". This module provides the byte-level half of that:
//! [`ArtifactWriter`] frames typed fields (integers, strings, f32 slices,
//! tensors) into a payload protected by a magic number, a format version
//! ([`FORMAT_VERSION`], now 2), an explicit length, and a word-wise
//! FNV-1a-derived 64-bit checksum ([`fnv1a64`]); [`ArtifactReader`]
//! validates all four before handing a single field back. The checksum
//! hashes eight bytes per step: a byte at a time, it took about nine tenths
//! of a snapshot load.
//!
//! Two properties are load-bearing:
//!
//! - **Bit-exactness.** Every `f32` travels as its IEEE-754 bit pattern
//!   (`to_bits`/`from_bits`), never through a decimal round-trip, so a model
//!   loaded from disk is indistinguishable — to the last ULP, and therefore
//!   to the last output byte — from the one that was written.
//! - **Totality.** Malformed input of any kind (wrong magic, future version,
//!   truncation, bit rot, type confusion, trailing garbage) surfaces as a
//!   typed [`ArtifactError`], never a panic and never an OOM: every
//!   length-prefixed read checks the prefix against the bytes actually
//!   remaining before allocating.
//!
//! The typed layer that composes these fields into a complete prepared-model
//! snapshot (cache key, teacher, calibration, quantized students) lives in
//! `olive_api::artifact`.

use crate::engine::{EngineConfig, EvalTask, LayerWeights, TinyTransformer};
use olive_tensor::Tensor;
use std::fmt;

/// File magic: identifies an OliVe artifact regardless of version.
pub const MAGIC: [u8; 8] = *b"OLVARTIF";

/// Current format version. Readers reject anything else: the format is
/// allowed to evolve, silent misinterpretation is not. Version 2 hashes
/// the payload a word at a time ([`fnv1a64`]); version 1 hashed it with
/// byte-wise FNV-1a, so a version-1 snapshot is refused rather than misread.
pub const FORMAT_VERSION: u32 = 2;

/// Header size: magic (8) + version (4) + payload length (8) + checksum (8).
pub const HEADER_BYTES: usize = 28;

/// Hard ceiling on any single declared element count (strings, slices,
/// tensor dimensions). Real artifacts stay far below; a crafted length that
/// clears the remaining-bytes check can still not amplify memory.
pub const MAX_ELEMENTS: u64 = 1 << 28;

/// Why an artifact could not be decoded.
///
/// Every variant is a *rejection*, not a crash: readers return these for
/// arbitrary input bytes.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying file I/O failed (open, read, write, rename).
    Io(std::io::Error),
    /// The first bytes are not [`MAGIC`] — not an artifact at all.
    BadMagic {
        /// What was found instead (at most 8 bytes).
        found: Vec<u8>,
    },
    /// A version this build does not understand.
    UnsupportedVersion {
        /// The version stamped in the file.
        found: u32,
        /// The single version this reader supports.
        supported: u32,
    },
    /// Fewer bytes than a declared length requires.
    Truncated {
        /// Bytes the current field needed.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The payload does not hash to the checksum in the header.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// Structurally invalid content (wrong field tag, non-UTF-8 string,
    /// inconsistent shape, out-of-range token, trailing bytes, …).
    Malformed(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::BadMagic { found } => {
                write!(f, "not an OliVe artifact (magic bytes {found:02x?})")
            }
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported artifact version {found} (this build reads version {supported})"
            ),
            ArtifactError::Truncated { needed, available } => write!(
                f,
                "artifact truncated: field needs {needed} bytes, {available} remain"
            ),
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: header says {stored:#018x}, payload hashes to \
                 {computed:#018x}"
            ),
            ArtifactError::Malformed(why) => write!(f, "malformed artifact: {why}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// An FNV-1a-derived 64-bit hash over `bytes`, eight bytes per step — the
/// integrity hash for artifact payloads (format version 2 on) and the key
/// hash in snapshot file names.
///
/// Each step folds one little-endian 8-byte word into the accumulator:
/// XOR the word in, multiply by the FNV prime, XOR the high half into the
/// low half, multiply by a second odd constant. The `len % 8` tail then
/// goes in one byte per step. Two multiplies per word instead of one per
/// byte make hashing a snapshot about 3.5 times cheaper; byte-wise FNV-1a
/// took about nine tenths of a snapshot load.
///
/// Not cryptographic; it guards against truncation and bit rot, not
/// adversaries. Every step is injective in the accumulator and in its
/// input (XOR, odd multiplies, and an xorshift are all invertible), so
/// any corruption confined to one word, or to one tail byte, always
/// changes the digest. Corruption spread over several words can cancel,
/// but only for particular payloads. That takes both the xorshift and the
/// second multiply: a multiply passes a flip of bit 63 through unchanged,
/// and an xorshift moves any flip to a fixed place, so a step with one
/// multiply, with or without the xorshift after it, lets fixed flip
/// patterns in two words cancel for every payload.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |hash: u64, input: u64| {
        let h = (hash ^ input).wrapping_mul(PRIME);
        (h ^ (h >> 32)).wrapping_mul(MIX)
    };
    let mut words = bytes.chunks_exact(8);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        hash = step(hash, word);
    }
    for &b in words.remainder() {
        hash = step(hash, u64::from(b));
    }
    hash
}

/// Per-field type tags. A reader expecting one type that meets another
/// reports the confusion instead of reinterpreting bytes.
const TAG_U64: u8 = 0x01;
const TAG_STR: u8 = 0x02;
const TAG_F32S: u8 = 0x03;
const TAG_USIZES: u8 = 0x04;
const TAG_TENSOR: u8 = 0x05;

fn tag_name(tag: u8) -> &'static str {
    match tag {
        TAG_U64 => "u64",
        TAG_STR => "string",
        TAG_F32S => "f32 slice",
        TAG_USIZES => "usize slice",
        TAG_TENSOR => "tensor",
        _ => "unknown",
    }
}

/// Accumulates typed fields into a payload and frames it with the header.
///
/// Writing is infallible (it only appends to memory); all validation lives
/// on the read side, where the bytes are untrusted.
#[derive(Default)]
pub struct ArtifactWriter {
    payload: Vec<u8>,
}

impl ArtifactWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an integer field.
    pub fn u64(&mut self, value: u64) {
        self.payload.push(TAG_U64);
        self.payload.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a UTF-8 string field.
    pub fn str(&mut self, value: &str) {
        self.payload.push(TAG_STR);
        self.payload
            .extend_from_slice(&(value.len() as u64).to_le_bytes());
        self.payload.extend_from_slice(value.as_bytes());
    }

    /// Appends an `f32` slice field, element by bit pattern.
    pub fn f32s(&mut self, values: &[f32]) {
        self.payload.push(TAG_F32S);
        self.payload
            .extend_from_slice(&(values.len() as u64).to_le_bytes());
        for v in values {
            self.payload.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Appends a `usize` slice field (stored as u64s).
    pub fn usizes(&mut self, values: &[usize]) {
        self.payload.push(TAG_USIZES);
        self.payload
            .extend_from_slice(&(values.len() as u64).to_le_bytes());
        for &v in values {
            self.payload.extend_from_slice(&(v as u64).to_le_bytes());
        }
    }

    /// Appends a tensor field: shape, then data by bit pattern.
    pub fn tensor(&mut self, tensor: &Tensor) {
        self.payload.push(TAG_TENSOR);
        let shape = tensor.shape();
        self.payload
            .extend_from_slice(&(shape.len() as u64).to_le_bytes());
        for &dim in shape {
            self.payload.extend_from_slice(&(dim as u64).to_le_bytes());
        }
        for v in tensor.data() {
            self.payload.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Frames the accumulated payload: magic, version, length, checksum,
    /// payload.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Validates the header once, then hands back typed fields in write order.
pub struct ArtifactReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> ArtifactReader<'a> {
    /// Checks magic, version, declared length and checksum; positions the
    /// cursor at the first field.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::BadMagic`], [`ArtifactError::UnsupportedVersion`],
    /// [`ArtifactError::Truncated`] (header or payload shorter than
    /// declared), [`ArtifactError::Malformed`] (bytes past the declared
    /// payload), or [`ArtifactError::ChecksumMismatch`].
    pub fn new(bytes: &'a [u8]) -> Result<Self, ArtifactError> {
        let header = bytes.get(..HEADER_BYTES).ok_or(ArtifactError::Truncated {
            needed: HEADER_BYTES,
            available: bytes.len(),
        })?;
        let (magic, rest) = header.split_at(8);
        if magic != MAGIC {
            return Err(ArtifactError::BadMagic {
                found: magic.to_vec(),
            });
        }
        let (version_bytes, rest) = rest.split_at(4);
        let version = u32::from_le_bytes(version_bytes.try_into().unwrap_or([0; 4]));
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let (len_bytes, checksum_bytes) = rest.split_at(8);
        let declared = u64::from_le_bytes(len_bytes.try_into().unwrap_or([0; 8]));
        let stored = u64::from_le_bytes(checksum_bytes.try_into().unwrap_or([0; 8]));
        let available = bytes.len() - HEADER_BYTES;
        let declared_usize = usize::try_from(declared).map_err(|_| ArtifactError::Truncated {
            needed: usize::MAX,
            available,
        })?;
        if declared_usize > available {
            return Err(ArtifactError::Truncated {
                needed: declared_usize,
                available,
            });
        }
        if declared_usize < available {
            return Err(ArtifactError::Malformed(format!(
                "{} bytes past the declared payload",
                available - declared_usize
            )));
        }
        let payload = &bytes[HEADER_BYTES..];
        let computed = fnv1a64(payload);
        if computed != stored {
            return Err(ArtifactError::ChecksumMismatch { stored, computed });
        }
        Ok(ArtifactReader { payload, pos: 0 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let available = self.payload.len() - self.pos;
        if n > available {
            return Err(ArtifactError::Truncated {
                needed: n,
                available,
            });
        }
        let slice = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn expect_tag(&mut self, expected: u8) -> Result<(), ArtifactError> {
        let found = *self.take(1)?.first().ok_or(ArtifactError::Truncated {
            needed: 1,
            available: 0,
        })?;
        if found != expected {
            return Err(ArtifactError::Malformed(format!(
                "expected a {} field, found {} (tag {found:#04x})",
                tag_name(expected),
                tag_name(found)
            )));
        }
        Ok(())
    }

    /// Reads a declared element count and sanity-bounds it: it must clear
    /// [`MAX_ELEMENTS`] and the per-element byte cost must fit what remains.
    fn count(&mut self, element_bytes: usize) -> Result<usize, ArtifactError> {
        let raw = u64::from_le_bytes(self.take(8)?.try_into().unwrap_or([0; 8]));
        if raw > MAX_ELEMENTS {
            return Err(ArtifactError::Malformed(format!(
                "declared count {raw} exceeds the {MAX_ELEMENTS} element ceiling"
            )));
        }
        let n = raw as usize;
        let needed = n.saturating_mul(element_bytes);
        let available = self.payload.len() - self.pos;
        if needed > available {
            return Err(ArtifactError::Truncated { needed, available });
        }
        Ok(n)
    }

    /// Reads an integer field.
    ///
    /// # Errors
    ///
    /// Truncation or a field of a different type.
    pub fn u64(&mut self) -> Result<u64, ArtifactError> {
        self.expect_tag(TAG_U64)?;
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap_or([0; 8]),
        ))
    }

    /// Reads an integer field and converts it to `usize`.
    ///
    /// # Errors
    ///
    /// As [`ArtifactReader::u64`], plus overflow on 32-bit targets.
    pub fn usize(&mut self) -> Result<usize, ArtifactError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| ArtifactError::Malformed(format!("integer {v} overflows usize")))
    }

    /// Reads a string field.
    ///
    /// # Errors
    ///
    /// Truncation, type confusion, or non-UTF-8 content.
    pub fn str(&mut self) -> Result<String, ArtifactError> {
        self.expect_tag(TAG_STR)?;
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ArtifactError::Malformed("string field is not UTF-8".into()))
    }

    /// Reads an `f32` slice field, bit patterns preserved.
    ///
    /// # Errors
    ///
    /// Truncation or type confusion.
    pub fn f32s(&mut self) -> Result<Vec<f32>, ArtifactError> {
        self.expect_tag(TAG_F32S)?;
        let n = self.count(4)?;
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap_or([0; 4]))))
            .collect())
    }

    /// Reads a `usize` slice field.
    ///
    /// # Errors
    ///
    /// Truncation, type confusion, or overflow on 32-bit targets.
    pub fn usizes(&mut self) -> Result<Vec<usize>, ArtifactError> {
        self.expect_tag(TAG_USIZES)?;
        let n = self.count(8)?;
        let bytes = self.take(n * 8)?;
        bytes
            .chunks_exact(8)
            .map(|c| {
                let v = u64::from_le_bytes(c.try_into().unwrap_or([0; 8]));
                usize::try_from(v)
                    .map_err(|_| ArtifactError::Malformed(format!("integer {v} overflows usize")))
            })
            .collect()
    }

    /// Reads a tensor field: shape, then row-major data.
    ///
    /// # Errors
    ///
    /// Truncation, type confusion, or a shape whose element count does not
    /// fit the remaining bytes.
    pub fn tensor(&mut self) -> Result<Tensor, ArtifactError> {
        self.expect_tag(TAG_TENSOR)?;
        let ndim = self.count(8)?;
        let shape_bytes = self.take(ndim * 8)?;
        let mut shape = Vec::with_capacity(ndim);
        let mut elements: u64 = 1;
        for c in shape_bytes.chunks_exact(8) {
            let dim = u64::from_le_bytes(c.try_into().unwrap_or([0; 8]));
            elements = elements.saturating_mul(dim.max(1));
            if dim > MAX_ELEMENTS || elements > MAX_ELEMENTS {
                return Err(ArtifactError::Malformed(format!(
                    "tensor shape exceeds the {MAX_ELEMENTS} element ceiling"
                )));
            }
            let dim = usize::try_from(dim).map_err(|_| {
                ArtifactError::Malformed(format!("tensor dimension {dim} overflows usize"))
            })?;
            shape.push(dim);
        }
        let n: usize = shape.iter().product();
        let available = self.payload.len() - self.pos;
        if n.saturating_mul(4) > available {
            return Err(ArtifactError::Truncated {
                needed: n * 4,
                available,
            });
        }
        let data_bytes = self.take(n * 4)?;
        let data: Vec<f32> = data_bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap_or([0; 4]))))
            .collect();
        Ok(Tensor::from_vec(shape, data))
    }

    /// Asserts every payload byte was consumed — a structure/content
    /// mismatch that slipped past per-field checks surfaces here.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Malformed`] when bytes remain.
    pub fn finish(self) -> Result<(), ArtifactError> {
        let remaining = self.payload.len() - self.pos;
        if remaining != 0 {
            return Err(ArtifactError::Malformed(format!(
                "{remaining} unread bytes after the last field"
            )));
        }
        Ok(())
    }
}

/// Writes a complete [`TinyTransformer`]: config, embedding, per-layer
/// weights and norms, final norm.
pub fn write_model(w: &mut ArtifactWriter, model: &TinyTransformer) {
    let c = model.config;
    w.usizes(&[c.d_model, c.n_heads, c.n_layers, c.d_ff, c.vocab, c.seq_len]);
    w.tensor(&model.embedding);
    for layer in &model.layers {
        w.tensor(&layer.wqkv);
        w.tensor(&layer.wo);
        w.tensor(&layer.w1);
        w.tensor(&layer.w2);
        w.f32s(&layer.ln1_gamma);
        w.f32s(&layer.ln1_beta);
        w.f32s(&layer.ln2_gamma);
        w.f32s(&layer.ln2_beta);
    }
    w.f32s(&model.ln_f_gamma);
    w.f32s(&model.ln_f_beta);
}

fn expect_shape(
    what: &str,
    tensor: &Tensor,
    rows: usize,
    cols: usize,
) -> Result<(), ArtifactError> {
    if tensor.shape() != [rows, cols] {
        return Err(ArtifactError::Malformed(format!(
            "{what} has shape {:?}, config implies [{rows}, {cols}]",
            tensor.shape()
        )));
    }
    Ok(())
}

fn expect_len(what: &str, values: &[f32], len: usize) -> Result<(), ArtifactError> {
    if values.len() != len {
        return Err(ArtifactError::Malformed(format!(
            "{what} has {} elements, config implies {len}",
            values.len()
        )));
    }
    Ok(())
}

/// Reads a [`TinyTransformer`] written by [`write_model`], cross-checking
/// every tensor shape against the stored config so a corrupted-but-
/// checksummed artifact can never feed impossible shapes into the forward
/// pass.
///
/// # Errors
///
/// Any [`ArtifactError`]; notably [`ArtifactError::Malformed`] when the
/// config is internally inconsistent or a weight does not match it.
pub fn read_model(r: &mut ArtifactReader<'_>) -> Result<TinyTransformer, ArtifactError> {
    let dims = r.usizes()?;
    let [d_model, n_heads, n_layers, d_ff, vocab, seq_len] = dims.as_slice() else {
        return Err(ArtifactError::Malformed(format!(
            "model config has {} fields, expected 6",
            dims.len()
        )));
    };
    let config = EngineConfig {
        d_model: *d_model,
        n_heads: *n_heads,
        n_layers: *n_layers,
        d_ff: *d_ff,
        vocab: *vocab,
        seq_len: *seq_len,
    };
    if config.d_model == 0
        || config.n_heads == 0
        || config.d_ff == 0
        || config.vocab == 0
        || config.seq_len == 0
    {
        return Err(ArtifactError::Malformed(
            "model config has a zero dimension".into(),
        ));
    }
    if config.d_model % config.n_heads != 0 {
        return Err(ArtifactError::Malformed(format!(
            "n_heads {} does not divide d_model {}",
            config.n_heads, config.d_model
        )));
    }
    let d = config.d_model;
    let embedding = r.tensor()?;
    expect_shape("embedding", &embedding, config.vocab, d)?;
    let mut layers = Vec::with_capacity(config.n_layers);
    for i in 0..config.n_layers {
        let wqkv = r.tensor()?;
        expect_shape(&format!("layer {i} wqkv"), &wqkv, d, 3 * d)?;
        let wo = r.tensor()?;
        expect_shape(&format!("layer {i} wo"), &wo, d, d)?;
        let w1 = r.tensor()?;
        expect_shape(&format!("layer {i} w1"), &w1, d, config.d_ff)?;
        let w2 = r.tensor()?;
        expect_shape(&format!("layer {i} w2"), &w2, config.d_ff, d)?;
        let ln1_gamma = r.f32s()?;
        expect_len(&format!("layer {i} ln1_gamma"), &ln1_gamma, d)?;
        let ln1_beta = r.f32s()?;
        expect_len(&format!("layer {i} ln1_beta"), &ln1_beta, d)?;
        let ln2_gamma = r.f32s()?;
        expect_len(&format!("layer {i} ln2_gamma"), &ln2_gamma, d)?;
        let ln2_beta = r.f32s()?;
        expect_len(&format!("layer {i} ln2_beta"), &ln2_beta, d)?;
        layers.push(LayerWeights {
            wqkv,
            wo,
            w1,
            w2,
            ln1_gamma,
            ln1_beta,
            ln2_gamma,
            ln2_beta,
        });
    }
    let ln_f_gamma = r.f32s()?;
    expect_len("ln_f_gamma", &ln_f_gamma, d)?;
    let ln_f_beta = r.f32s()?;
    expect_len("ln_f_beta", &ln_f_beta, d)?;
    Ok(TinyTransformer {
        config,
        embedding,
        layers,
        ln_f_gamma,
        ln_f_beta,
    })
}

/// Writes an [`EvalTask`]: name, then each input token sequence.
pub fn write_task(w: &mut ArtifactWriter, task: &EvalTask) {
    w.str(&task.name);
    w.u64(task.inputs.len() as u64);
    for input in &task.inputs {
        w.usizes(input);
    }
}

/// Reads an [`EvalTask`] written by [`write_task`], validating every token
/// id against `config` so loaded calibration data can never index out of the
/// embedding table.
///
/// # Errors
///
/// Any [`ArtifactError`]; notably [`ArtifactError::Malformed`] for an
/// out-of-vocabulary token or an over-long sequence.
pub fn read_task(
    r: &mut ArtifactReader<'_>,
    config: &EngineConfig,
) -> Result<EvalTask, ArtifactError> {
    let name = r.str()?;
    let n = r.usize()?;
    if n as u64 > MAX_ELEMENTS {
        return Err(ArtifactError::Malformed(format!(
            "task declares {n} inputs, exceeding the {MAX_ELEMENTS} ceiling"
        )));
    }
    let mut inputs = Vec::with_capacity(n.min(1024));
    for i in 0..n {
        let tokens = r.usizes()?;
        validate_tokens(&format!("task input {i}"), &tokens, config)?;
        inputs.push(tokens);
    }
    Ok(EvalTask { name, inputs })
}

/// Validates a token sequence against the model config: non-empty, no longer
/// than the context window, every id inside the vocabulary.
///
/// # Errors
///
/// [`ArtifactError::Malformed`] describing the offending token or length.
pub fn validate_tokens(
    what: &str,
    tokens: &[usize],
    config: &EngineConfig,
) -> Result<(), ArtifactError> {
    if tokens.is_empty() {
        return Err(ArtifactError::Malformed(format!("{what} is empty")));
    }
    if tokens.len() > config.seq_len {
        return Err(ArtifactError::Malformed(format!(
            "{what} has {} tokens, context window is {}",
            tokens.len(),
            config.seq_len
        )));
    }
    if let Some(&bad) = tokens.iter().find(|&&t| t >= config.vocab) {
        return Err(ArtifactError::Malformed(format!(
            "{what} contains token {bad}, vocabulary size is {}",
            config.vocab
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_tensor::rng::Rng;

    #[test]
    fn checksum_catches_every_single_byte_flip_in_words_and_tail() {
        // 2 full words + a 3-byte tail: both halves of the hash are hit.
        let bytes: Vec<u8> = (0u8..19).map(|i| i.wrapping_mul(37)).collect();
        let digest = fnv1a64(&bytes);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(fnv1a64(&flipped), digest, "byte {i} bit {bit}");
            }
        }
        // The empty input hashes to the offset basis; prefixes of 7 (tail
        // only), 8 (one word) and 9 bytes (word + tail) all hash apart.
        let prefixes: Vec<u64> = [0, 7, 8, 9].iter().map(|&n| fnv1a64(&bytes[..n])).collect();
        assert_eq!(prefixes[0], 0xcbf2_9ce4_8422_2325);
        for (i, a) in prefixes.iter().enumerate() {
            for b in &prefixes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn top_bit_flips_in_two_words_are_rejected() {
        // Flip patterns that cancel for every payload under weaker steps:
        // bit 63 of any two words (one multiply a word), and bit 63 of one
        // word with bits 63 and 31 of the next (a multiply, then an
        // xorshift). Bit 63 of a word is bit 7 of its last byte.
        let mut w = ArtifactWriter::new();
        let values: Vec<f32> = (0..24).map(|i| i as f32 * 0.37 - 4.0).collect();
        w.f32s(&values);
        let bytes = w.finish();
        let words = (bytes.len() - HEADER_BYTES) / 8;
        let flip = |bytes: &mut [u8], word: usize, bit: usize| {
            bytes[HEADER_BYTES + 8 * word + bit / 8] ^= 1 << (bit % 8);
        };
        let rejected = |bytes: &[u8]| {
            matches!(
                ArtifactReader::new(bytes),
                Err(ArtifactError::ChecksumMismatch { .. })
            )
        };
        for i in 0..words {
            for j in i + 1..words {
                let mut corrupt = bytes.clone();
                flip(&mut corrupt, i, 63);
                flip(&mut corrupt, j, 63);
                assert!(rejected(&corrupt), "bit 63 of words {i} and {j}");
            }
            if i + 1 < words {
                let mut corrupt = bytes.clone();
                flip(&mut corrupt, i, 63);
                flip(&mut corrupt, i + 1, 63);
                flip(&mut corrupt, i + 1, 31);
                assert!(
                    rejected(&corrupt),
                    "bit 63 of word {i}, 63 and 31 of the next"
                );
            }
        }
    }

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = ArtifactWriter::new();
        w.u64(u64::MAX);
        w.str("olive — ünïcode");
        let weird = vec![0.0f32, -0.0, f32::MIN_POSITIVE, f32::NAN, 1.5e-42];
        w.f32s(&weird);
        w.usizes(&[0, 7, usize::from(u16::MAX)]);
        w.tensor(&Tensor::from_vec(
            vec![2, 3],
            vec![1.0, -2.0, 3.5, 0.25, -0.0, 9.0],
        ));
        let bytes = w.finish();

        let mut r = ArtifactReader::new(&bytes).expect("valid artifact");
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.str().unwrap(), "olive — ünïcode");
        let back = r.f32s().unwrap();
        let bits: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = weird.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want, "f32 bit patterns must survive, NaN included");
        assert_eq!(r.usizes().unwrap(), vec![0, 7, usize::from(u16::MAX)]);
        let t = r.tensor().unwrap();
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.data(), &[1.0, -2.0, 3.5, 0.25, -0.0, 9.0]);
        r.finish().expect("fully consumed");
    }

    #[test]
    fn header_failures_are_typed() {
        let bytes = {
            let mut w = ArtifactWriter::new();
            w.u64(42);
            w.finish()
        };
        assert!(matches!(
            ArtifactReader::new(&bytes[..10]),
            Err(ArtifactError::Truncated { .. })
        ));
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            ArtifactReader::new(&wrong_magic),
            Err(ArtifactError::BadMagic { .. })
        ));
        let mut future = bytes.clone();
        future[8] = 99;
        assert!(matches!(
            ArtifactReader::new(&future),
            Err(ArtifactError::UnsupportedVersion { found: 99, .. })
        ));
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            ArtifactReader::new(&flipped),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            ArtifactReader::new(&bytes[..bytes.len() - 1]),
            Err(ArtifactError::Truncated { .. })
        ));
    }

    #[test]
    fn type_confusion_and_trailing_bytes_are_malformed() {
        let mut w = ArtifactWriter::new();
        w.str("not a number");
        let bytes = w.finish();
        let mut r = ArtifactReader::new(&bytes).unwrap();
        assert!(matches!(r.u64(), Err(ArtifactError::Malformed(_))));

        let mut w = ArtifactWriter::new();
        w.u64(1);
        w.u64(2);
        let bytes = w.finish();
        let mut r = ArtifactReader::new(&bytes).unwrap();
        let _ = r.u64().unwrap();
        assert!(matches!(r.finish(), Err(ArtifactError::Malformed(_))));
    }

    #[test]
    fn oversized_declared_counts_cannot_allocate() {
        // A string field claiming 2^40 bytes inside a tiny payload must be
        // rejected by the remaining-bytes check, not attempted.
        let mut payload = vec![0x02u8];
        payload.extend_from_slice(&(1u64 << 40).to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let mut r = ArtifactReader::new(&bytes).unwrap();
        assert!(matches!(
            r.str(),
            Err(ArtifactError::Truncated { .. } | ArtifactError::Malformed(_))
        ));
    }

    #[test]
    fn model_and_task_round_trip_bit_exactly() {
        let config = EngineConfig::tiny();
        let mut rng = Rng::seed_from(11);
        let model =
            TinyTransformer::generate(config, crate::OutlierSeverity::transformer(), &mut rng);
        let task = EvalTask::generate("roundtrip", &config, 3, &mut rng);

        let mut w = ArtifactWriter::new();
        write_model(&mut w, &model);
        write_task(&mut w, &task);
        let bytes = w.finish();

        let mut r = ArtifactReader::new(&bytes).unwrap();
        let model_back = read_model(&mut r).unwrap();
        let task_back = read_task(&mut r, &model_back.config).unwrap();
        r.finish().unwrap();

        assert_eq!(model_back.config, config);
        assert_eq!(model_back.embedding.data(), model.embedding.data());
        for (a, b) in model_back.layers.iter().zip(&model.layers) {
            assert_eq!(a.wqkv.data(), b.wqkv.data());
            assert_eq!(a.wo.data(), b.wo.data());
            assert_eq!(a.w1.data(), b.w1.data());
            assert_eq!(a.w2.data(), b.w2.data());
            assert_eq!(a.ln1_gamma, b.ln1_gamma);
            assert_eq!(a.ln2_gamma, b.ln2_gamma);
        }
        assert_eq!(model_back.ln_f_gamma, model.ln_f_gamma);
        assert_eq!(task_back.name, task.name);
        assert_eq!(task_back.inputs, task.inputs);
    }

    #[test]
    fn out_of_vocab_tokens_are_rejected() {
        let config = EngineConfig::tiny();
        let mut w = ArtifactWriter::new();
        w.str("bad");
        w.u64(1);
        w.usizes(&[0, config.vocab]); // one past the end
        let bytes = w.finish();
        let mut r = ArtifactReader::new(&bytes).unwrap();
        assert!(matches!(
            read_task(&mut r, &config),
            Err(ArtifactError::Malformed(_))
        ));
    }
}
