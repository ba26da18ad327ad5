//! The unified quantization-scheme registry.
//!
//! Every quantizer in `olive-core` and `olive-baselines` is addressable by a
//! short **spec string** — `"olive-4bit"`, `"ant:int8-fallback"`, `"gobo"`,
//! `"uniform:8"`, `"fp32"`, … — optionally suffixed with a granularity,
//! `"olive-4bit@per-row"`. [`Scheme::parse`] turns a spec into a typed
//! [`Scheme`], [`Scheme::build`] constructs the corresponding
//! [`TensorQuantizer`], and [`Scheme::all`] enumerates the registry. Spec
//! strings round-trip: `Scheme::parse(s)?.to_string() == s` for every
//! canonical spec.
//!
//! ## Spec grammar
//!
//! | Spec | Quantizer |
//! |---|---|
//! | `fp32` | identity FP32 baseline |
//! | `olive-4bit` | OliVe, `int4` normal values |
//! | `olive-4bit-flint` | OliVe, `flint4` normal values |
//! | `olive-8bit` | OliVe, `int8` normal values, E4M3 outliers |
//! | `ant:4bit` | pure 4-bit ANT (no mixed precision) |
//! | `ant:int8-fallback` | ANT with the paper's int8 mixed-precision PTQ |
//! | `gobo` | GOBO, 3-bit centroids (weights only) |
//! | `gobo:4bit` | GOBO, 4-bit centroids |
//! | `olaccel` | OLAccel 4-bit dense + 16-bit sparse outliers |
//! | `adafloat` | AdaptivFloat 8-bit (1-4-3) |
//! | `adafloat:4bit` | AdaptivFloat 4-bit (1-2-1) |
//! | `os:<N>bit` | Outlier-Suppression-style clipping PTQ, `N` ∈ 2..=8 |
//! | `uniform:<N>` | symmetric uniform int, `N` ∈ 2..=16 |
//!
//! Append `@per-row` (or the explicit default `@per-tensor`) to any spec to
//! select the calibration granularity; per-row wraps the base quantizer in
//! [`PerRowQuantizer`].

use olive_accel::QuantScheme;
use olive_baselines::{
    AdaptivFloatQuantizer, AntQuantizer, GoboQuantizer, OlAccelQuantizer,
    OutlierSuppressionQuantizer, UniformQuantizer,
};
use olive_core::{Fp32Baseline, Granularity, OliveQuantizer, PerRowQuantizer, TensorQuantizer};
use olive_dtypes::NormalDataType;

/// Error returned by [`Scheme::parse`] for malformed spec strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeError {
    spec: String,
    reason: String,
}

impl SchemeError {
    fn new(spec: &str, reason: impl Into<String>) -> Self {
        SchemeError {
            spec: spec.to_string(),
            reason: reason.into(),
        }
    }

    /// The offending spec string.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Why it was rejected.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scheme spec '{}': {}", self.spec, self.reason)
    }
}

impl std::error::Error for SchemeError {}

/// The base quantization method a spec string names (without granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// The identity FP32 baseline.
    Fp32,
    /// OliVe OVP quantization with the given normal data type.
    Olive(NormalDataType),
    /// ANT adaptive 4-bit types; `int8_fallback` enables the mixed-precision
    /// escalation the paper's PTQ setting uses.
    Ant {
        /// Escalate outlier-heavy tensors to int8 (paper Sec. 5.3).
        int8_fallback: bool,
    },
    /// GOBO weight-only centroids (3- or 4-bit).
    Gobo {
        /// Centroid bits for the Gaussian group.
        centroid_bits: u32,
    },
    /// OLAccel 4-bit dense + sparse 16-bit outlier coordinate list.
    OlAccel,
    /// AdaptivFloat at the given total width (8 or 4).
    AdaFloat {
        /// Total bits (sign + exponent + mantissa).
        bits: u32,
    },
    /// Outlier-Suppression-style clipping PTQ at the given width.
    OutlierSuppression {
        /// Integer grid width after clipping.
        bits: u32,
    },
    /// Symmetric per-tensor uniform integer quantization.
    Uniform {
        /// Grid width in bits.
        bits: u32,
    },
}

/// A parsed quantization-scheme spec: a [`SchemeKind`] plus a calibration
/// [`Granularity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scheme {
    kind: SchemeKind,
    granularity: Granularity,
}

impl Scheme {
    /// Wraps a kind at per-tensor granularity, validating its parameters
    /// (the same bounds [`Scheme::parse`] enforces, so every constructible
    /// `Scheme` round-trips through its spec string and builds the quantizer
    /// it reports).
    ///
    /// # Errors
    ///
    /// Returns a [`SchemeError`] for out-of-range widths (e.g. an AdaptivFloat
    /// width other than 4/8, GOBO centroid bits other than 3/4, uniform
    /// widths outside 2..=16).
    pub fn new(kind: SchemeKind) -> Result<Self, SchemeError> {
        let candidate = Scheme {
            kind,
            granularity: Granularity::PerTensor,
        };
        // Render + reparse: the grammar is the single source of validity.
        Scheme::parse(&candidate.to_string())
    }

    /// The base method.
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// The calibration granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Returns the same scheme at a different granularity.
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Parses a spec string (see the module docs for the grammar).
    ///
    /// Specs arrive from CLIs, environment files and HTTP bodies, so the
    /// parser normalizes instead of nitpicking: surrounding whitespace is
    /// trimmed (including around the `@` granularity separator) and the spec
    /// is ASCII-case-folded — `" OLIVE-4bit @per-row "` parses to the same
    /// scheme as `"olive-4bit@per-row"`. Whitespace *inside* a token and
    /// genuinely unknown names still error.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemeError`] (echoing the original, un-normalized spec)
    /// describing the first problem: unknown scheme name, out-of-range bit
    /// width, or unknown granularity suffix.
    pub fn parse(spec: &str) -> Result<Scheme, SchemeError> {
        let normalized = spec.trim().to_ascii_lowercase();
        if normalized.is_empty() {
            return Err(SchemeError::new(
                spec,
                format!("empty spec; known specs are {}", known_specs()),
            ));
        }
        let (base, granularity) = match normalized.split_once('@') {
            None => (normalized.as_str(), Granularity::PerTensor),
            Some((base, suffix)) => match suffix.trim() {
                "per-row" => (base.trim_end(), Granularity::PerRow),
                "per-tensor" => (base.trim_end(), Granularity::PerTensor),
                other => {
                    return Err(SchemeError::new(
                        spec,
                        format!(
                            "unknown granularity '@{other}' (expected '@per-row' or '@per-tensor')"
                        ),
                    ));
                }
            },
        };
        let kind = Self::parse_kind(spec, base)?;
        Ok(Scheme { kind, granularity })
    }

    fn parse_kind(spec: &str, base: &str) -> Result<SchemeKind, SchemeError> {
        if let Some(bits) = base.strip_prefix("uniform:") {
            let bits: u32 = bits.parse().map_err(|_| {
                SchemeError::new(
                    spec,
                    format!("'{bits}' is not a bit width (uniform:<bits>)"),
                )
            })?;
            if !(2..=16).contains(&bits) {
                return Err(SchemeError::new(
                    spec,
                    format!("uniform width {bits} out of range 2..=16"),
                ));
            }
            return Ok(SchemeKind::Uniform { bits });
        }
        if let Some(rest) = base.strip_prefix("os:") {
            let bits = rest.strip_suffix("bit").ok_or_else(|| {
                SchemeError::new(spec, format!("'{rest}' should look like os:<bits>bit"))
            })?;
            let bits: u32 = bits.parse().map_err(|_| {
                SchemeError::new(spec, format!("'{bits}' is not a bit width (os:<bits>bit)"))
            })?;
            if !(2..=8).contains(&bits) {
                return Err(SchemeError::new(
                    spec,
                    format!("outlier-suppression width {bits} out of range 2..=8"),
                ));
            }
            return Ok(SchemeKind::OutlierSuppression { bits });
        }
        match base {
            "fp32" => Ok(SchemeKind::Fp32),
            "olive-4bit" => Ok(SchemeKind::Olive(NormalDataType::Int4)),
            "olive-4bit-flint" => Ok(SchemeKind::Olive(NormalDataType::Flint4)),
            "olive-8bit" => Ok(SchemeKind::Olive(NormalDataType::Int8)),
            "ant" | "ant:int8-fallback" => Ok(SchemeKind::Ant {
                int8_fallback: true,
            }),
            "ant:4bit" => Ok(SchemeKind::Ant {
                int8_fallback: false,
            }),
            "gobo" => Ok(SchemeKind::Gobo { centroid_bits: 3 }),
            "gobo:4bit" => Ok(SchemeKind::Gobo { centroid_bits: 4 }),
            "olaccel" => Ok(SchemeKind::OlAccel),
            "adafloat" => Ok(SchemeKind::AdaFloat { bits: 8 }),
            "adafloat:4bit" => Ok(SchemeKind::AdaFloat { bits: 4 }),
            other => Err(SchemeError::new(
                spec,
                format!(
                    "unknown scheme '{other}'; known specs are {}",
                    known_specs()
                ),
            )),
        }
    }

    /// Every canonical spec in the registry, at per-tensor granularity, in
    /// presentation order (OliVe first, then the baselines).
    pub fn all() -> Vec<Scheme> {
        [
            "olive-4bit",
            "olive-4bit-flint",
            "olive-8bit",
            "ant:4bit",
            "ant:int8-fallback",
            "gobo",
            "gobo:4bit",
            "olaccel",
            "adafloat",
            "adafloat:4bit",
            "os:4bit",
            "os:6bit",
            "uniform:4",
            "uniform:8",
            "fp32",
        ]
        .iter()
        .map(|s| Scheme::parse(s).expect("registry specs parse"))
        .collect()
    }

    /// Constructs the quantizer this scheme names.
    pub fn build(&self) -> Box<dyn TensorQuantizer> {
        let base: Box<dyn TensorQuantizer> = match self.kind {
            SchemeKind::Fp32 => Box::new(Fp32Baseline),
            SchemeKind::Olive(ty) => Box::new(OliveQuantizer::new(ty)),
            SchemeKind::Ant { int8_fallback } => Box::new(if int8_fallback {
                AntQuantizer::paper_default()
            } else {
                AntQuantizer::fixed_4bit()
            }),
            SchemeKind::Gobo { centroid_bits } => Box::new(GoboQuantizer::new(centroid_bits, 3.0)),
            SchemeKind::OlAccel => Box::new(OlAccelQuantizer::paper_default()),
            SchemeKind::AdaFloat { bits: 4 } => Box::new(AdaptivFloatQuantizer::bits4()),
            SchemeKind::AdaFloat { .. } => Box::new(AdaptivFloatQuantizer::paper_8bit()),
            SchemeKind::OutlierSuppression { bits } => {
                Box::new(OutlierSuppressionQuantizer::new(bits))
            }
            SchemeKind::Uniform { bits } => Box::new(UniformQuantizer::new(bits)),
        };
        match self.granularity {
            Granularity::PerTensor => base,
            Granularity::PerRow => Box::new(PerRowQuantizer::new(base)),
        }
    }

    /// The underlying packed-encoding [`OliveQuantizer`], when this scheme is
    /// an OliVe scheme at per-tensor granularity (the only configuration the
    /// packed OVP GEMM consumes).
    pub fn olive_quantizer(&self) -> Option<OliveQuantizer> {
        match (self.kind, self.granularity) {
            (SchemeKind::Olive(ty), Granularity::PerTensor) => Some(OliveQuantizer::new(ty)),
            _ => None,
        }
    }

    /// Average storage bits per element of the built quantizer.
    pub fn bits_per_element(&self) -> f64 {
        self.build().bits_per_element()
    }

    /// Whether the scheme quantizes activations (GOBO does not).
    pub fn quantizes_activations(&self) -> bool {
        self.build().quantizes_activations()
    }

    /// Display name of the built quantizer ("OliVe-4bit", "GOBO", …).
    pub fn display_name(&self) -> String {
        self.build().name().to_string()
    }

    /// The architecture-level design the performance models (`olive-accel`)
    /// use for this scheme, when one exists. Granularity does not change the
    /// hardware design.
    pub fn to_accel(&self) -> Option<QuantScheme> {
        match self.kind {
            SchemeKind::Olive(NormalDataType::Int8) => Some(QuantScheme::olive8()),
            SchemeKind::Olive(_) => Some(QuantScheme::olive4()),
            SchemeKind::Ant {
                int8_fallback: true,
            } => Some(QuantScheme::ant_mixed()),
            SchemeKind::Gobo { centroid_bits: 3 } => Some(QuantScheme::gobo()),
            SchemeKind::OlAccel => Some(QuantScheme::olaccel()),
            SchemeKind::AdaFloat { bits: 8 } => Some(QuantScheme::adafloat()),
            SchemeKind::Uniform { bits: 8 } => Some(QuantScheme::int8_tensor_core()),
            _ => None,
        }
    }

    /// The GPU comparison set of Fig. 9 as registry schemes, in plotting
    /// order (every entry has a [`Scheme::to_accel`] design).
    pub fn gpu_comparison() -> Vec<Scheme> {
        ["olive-4bit", "ant:int8-fallback", "uniform:8", "gobo"]
            .iter()
            .map(|s| Scheme::parse(s).expect("comparison specs parse"))
            .collect()
    }

    /// The accelerator comparison set of Fig. 10 as registry schemes, in
    /// plotting order (every entry has a [`Scheme::to_accel`] design).
    pub fn accelerator_comparison() -> Vec<Scheme> {
        ["olive-4bit", "ant:int8-fallback", "olaccel", "adafloat"]
            .iter()
            .map(|s| Scheme::parse(s).expect("comparison specs parse"))
            .collect()
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let base = match self.kind {
            SchemeKind::Fp32 => "fp32".to_string(),
            SchemeKind::Olive(NormalDataType::Int4) => "olive-4bit".to_string(),
            SchemeKind::Olive(NormalDataType::Flint4) => "olive-4bit-flint".to_string(),
            SchemeKind::Olive(NormalDataType::Int8) => "olive-8bit".to_string(),
            SchemeKind::Ant {
                int8_fallback: true,
            } => "ant:int8-fallback".to_string(),
            SchemeKind::Ant {
                int8_fallback: false,
            } => "ant:4bit".to_string(),
            SchemeKind::Gobo { centroid_bits: 3 } => "gobo".to_string(),
            SchemeKind::Gobo { centroid_bits } => format!("gobo:{centroid_bits}bit"),
            SchemeKind::OlAccel => "olaccel".to_string(),
            SchemeKind::AdaFloat { bits: 8 } => "adafloat".to_string(),
            SchemeKind::AdaFloat { bits } => format!("adafloat:{bits}bit"),
            SchemeKind::OutlierSuppression { bits } => format!("os:{bits}bit"),
            SchemeKind::Uniform { bits } => format!("uniform:{bits}"),
        };
        match self.granularity {
            Granularity::PerTensor => f.write_str(&base),
            Granularity::PerRow => write!(f, "{base}@per-row"),
        }
    }
}

impl std::str::FromStr for Scheme {
    type Err = SchemeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::parse(s)
    }
}

/// Maps registry schemes onto their `olive-accel` hardware designs.
///
/// # Panics
///
/// Panics if a scheme has no hardware design — use [`Scheme::to_accel`]
/// directly to handle that case. The [`Scheme::gpu_comparison`] and
/// [`Scheme::accelerator_comparison`] sets always map.
pub fn accel_designs(schemes: &[Scheme]) -> Vec<QuantScheme> {
    schemes
        .iter()
        .map(|s| {
            s.to_accel()
                .unwrap_or_else(|| panic!("scheme '{s}' has no hardware design"))
        })
        .collect()
}

fn known_specs() -> String {
    "fp32, olive-4bit, olive-4bit-flint, olive-8bit, ant:4bit, ant:int8-fallback, gobo, \
     gobo:4bit, olaccel, adafloat, adafloat:4bit, os:<bits>bit, uniform:<bits> \
     (append '@per-row' for per-row granularity)"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_specs_round_trip() {
        for scheme in Scheme::all() {
            let spec = scheme.to_string();
            assert_eq!(Scheme::parse(&spec).unwrap(), scheme, "spec {spec}");
        }
    }

    #[test]
    fn per_row_specs_round_trip() {
        let s = Scheme::parse("olive-4bit@per-row").unwrap();
        assert_eq!(s.granularity(), Granularity::PerRow);
        assert_eq!(s.to_string(), "olive-4bit@per-row");
        assert_eq!(s.build().name(), "OliVe-4bit@per-row");
    }

    #[test]
    fn parse_normalizes_case_and_whitespace() {
        let canonical = Scheme::parse("olive-4bit@per-row").unwrap();
        for messy in [
            " OLIVE-4bit @per-row ",
            "Olive-4Bit@Per-Row",
            "\tolive-4bit @ per-row\t",
            "  olive-4bit@per-row",
        ] {
            assert_eq!(Scheme::parse(messy).unwrap(), canonical, "{messy:?}");
            assert_eq!(
                Scheme::parse(messy).unwrap().to_string(),
                "olive-4bit@per-row"
            );
        }
        assert_eq!(
            Scheme::parse(" FP32 ").unwrap(),
            Scheme::parse("fp32").unwrap()
        );
        // Normalization never resurrects unknown specs.
        assert!(Scheme::parse(" OLIVE-5bit ").is_err());
        assert!(Scheme::parse("oli ve-4bit").is_err());
    }

    #[test]
    fn per_tensor_suffix_is_accepted_but_not_canonical() {
        let s = Scheme::parse("uniform:8@per-tensor").unwrap();
        assert_eq!(s.to_string(), "uniform:8");
    }

    #[test]
    fn ant_alias_parses_to_fallback() {
        assert_eq!(
            Scheme::parse("ant").unwrap(),
            Scheme::parse("ant:int8-fallback").unwrap()
        );
    }

    #[test]
    fn errors_are_descriptive() {
        let e = Scheme::parse("olive-5bit").unwrap_err();
        assert!(e.to_string().contains("unknown scheme"), "{e}");
        assert!(e.to_string().contains("olive-4bit"), "{e}");
        let e = Scheme::parse("uniform:99").unwrap_err();
        assert!(e.to_string().contains("2..=16"), "{e}");
        let e = Scheme::parse("uniform:x").unwrap_err();
        assert!(e.to_string().contains("bit width"), "{e}");
        let e = Scheme::parse("olive-4bit@per-column").unwrap_err();
        assert!(e.to_string().contains("granularity"), "{e}");
        let e = Scheme::parse("").unwrap_err();
        assert!(e.to_string().contains("empty"), "{e}");
        let e = Scheme::parse("os:9bit").unwrap_err();
        assert!(e.to_string().contains("2..=8"), "{e}");
    }

    #[test]
    fn every_registry_entry_builds() {
        for scheme in Scheme::all() {
            let q = scheme.build();
            assert!(!q.name().is_empty());
            assert!(q.bits_per_element() > 0.0);
        }
    }

    #[test]
    fn display_names_and_flags_match_the_quantizers() {
        assert_eq!(Scheme::parse("gobo").unwrap().display_name(), "GOBO");
        assert!(!Scheme::parse("gobo").unwrap().quantizes_activations());
        assert!(Scheme::parse("olive-4bit").unwrap().quantizes_activations());
        assert_eq!(Scheme::parse("uniform:8").unwrap().bits_per_element(), 8.0);
        assert_eq!(Scheme::parse("fp32").unwrap().bits_per_element(), 32.0);
    }

    #[test]
    fn olive_quantizer_only_for_per_tensor_olive_schemes() {
        assert!(Scheme::parse("olive-4bit")
            .unwrap()
            .olive_quantizer()
            .is_some());
        assert!(Scheme::parse("olive-4bit@per-row")
            .unwrap()
            .olive_quantizer()
            .is_none());
        assert!(Scheme::parse("uniform:4")
            .unwrap()
            .olive_quantizer()
            .is_none());
    }

    #[test]
    fn comparison_sets_match_the_accel_designs() {
        let gpu: Vec<String> = accel_designs(&Scheme::gpu_comparison())
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(gpu, ["OliVe", "ANT", "INT8", "GOBO"]);
        let sa: Vec<String> = accel_designs(&Scheme::accelerator_comparison())
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(sa, ["OliVe", "ANT", "OLAccel", "AdaFloat"]);
    }

    #[test]
    fn programmatic_kinds_are_validated() {
        assert!(Scheme::new(SchemeKind::AdaFloat { bits: 6 }).is_err());
        assert!(Scheme::new(SchemeKind::Gobo { centroid_bits: 5 }).is_err());
        assert!(Scheme::new(SchemeKind::Uniform { bits: 40 }).is_err());
        assert!(Scheme::new(SchemeKind::OutlierSuppression { bits: 9 }).is_err());
        let ok = Scheme::new(SchemeKind::Uniform { bits: 8 }).unwrap();
        assert_eq!(ok.to_string(), "uniform:8");
        assert_eq!(
            Scheme::new(SchemeKind::Gobo { centroid_bits: 3 }).unwrap(),
            Scheme::parse("gobo").unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "no hardware design")]
    fn accel_designs_panics_on_unmapped_schemes() {
        let _ = accel_designs(&[Scheme::parse("os:6bit").unwrap()]);
    }

    #[test]
    fn accel_mapping_covers_the_expected_subset() {
        assert!(Scheme::parse("fp32").unwrap().to_accel().is_none());
        assert!(Scheme::parse("os:6bit").unwrap().to_accel().is_none());
        assert_eq!(
            Scheme::parse("olive-8bit")
                .unwrap()
                .to_accel()
                .unwrap()
                .name,
            "OliVe-8bit"
        );
        // Granularity does not change the hardware design.
        assert_eq!(
            Scheme::parse("olive-4bit@per-row")
                .unwrap()
                .to_accel()
                .unwrap()
                .name,
            "OliVe"
        );
    }
}
