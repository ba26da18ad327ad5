//! The bench-regression gate: flat-JSON median recording and comparison.
//!
//! `scripts/bench_gate.sh` runs the four micro-benchmarks with
//! `--json BENCH_results.json`, producing one flat object mapping
//! `"<suite>/<kernel>"` to its median wall time in nanoseconds, then invokes
//! the `bench_gate` binary to diff it against the checked-in
//! `BENCH_baseline.json`: any kernel slower than `baseline × (1 + tolerance)`
//! fails the gate, as does a kernel that disappeared from the results.
//! Kernels present only in the results (e.g. heavyweight ones skipped by
//! `--quick` baselines) are reported but never fatal.
//!
//! The JSON dialect is deliberately tiny — one object, string keys, unsigned
//! integer values — so the workspace stays free of serde while the artifacts
//! remain readable by standard tooling.

use olive_harness::bench::BenchSuite;
use std::collections::BTreeMap;
use std::path::Path;

/// Median nanoseconds per kernel, keyed `"<suite>/<benchmark>"`.
pub type Medians = BTreeMap<String, u64>;

/// Parses the flat `{"kernel": median_ns, ...}` object produced by
/// [`render_flat_json`].
///
/// # Errors
///
/// Returns a description of the first malformed token. Only the flat dialect
/// is accepted: nested objects, arrays, floats and other JSON values are
/// errors.
pub fn parse_flat_json(text: &str) -> Result<Medians, String> {
    let mut medians = Medians::new();
    let rest = text.trim();
    let rest = rest
        .strip_prefix('{')
        .ok_or("expected '{' at start of results object")?;
    let rest = rest
        .strip_suffix('}')
        .ok_or("expected '}' at end of results object")?;
    let body = rest.trim();
    if body.is_empty() {
        return Ok(medians);
    }
    for (i, entry) in body.split(',').enumerate() {
        let entry = entry.trim();
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("entry {i}: expected '\"key\": value', got '{entry}'"))?;
        let key = key.trim();
        let key = key
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("entry {i}: key must be a JSON string, got {key}"))?;
        if key.contains(['"', '\\']) {
            return Err(format!("entry {i}: unsupported escape in key '{key}'"));
        }
        let value: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("entry {i} ('{key}'): value must be an unsigned integer"))?;
        medians.insert(key.to_string(), value);
    }
    Ok(medians)
}

/// Renders medians as a stable, diff-friendly flat JSON object (sorted keys,
/// one entry per line).
pub fn render_flat_json(medians: &Medians) -> String {
    let mut out = String::from("{\n");
    for (i, (kernel, ns)) in medians.iter().enumerate() {
        let comma = if i + 1 < medians.len() { "," } else { "" };
        out.push_str(&format!("  \"{kernel}\": {ns}{comma}\n"));
    }
    out.push('}');
    out.push('\n');
    out
}

/// Extracts `"<suite>/<benchmark>" → median_ns` entries from rendered suites.
pub fn suite_medians(suites: &[&BenchSuite]) -> Medians {
    let mut medians = Medians::new();
    for suite in suites {
        for m in suite.measurements() {
            medians.insert(format!("{}/{}", suite.title(), m.name), m.median_ns());
        }
    }
    medians
}

/// Merges the suites' medians into the flat JSON file at `path`, creating it
/// when absent and overwriting re-measured keys while keeping the rest (the
/// bench binaries append to one shared results file).
///
/// # Errors
///
/// Returns a description of any I/O or parse failure.
pub fn merge_medians_into_file(path: &Path, suites: &[&BenchSuite]) -> Result<(), String> {
    merge_into_file(path, &suite_medians(suites))
}

/// Merges pre-computed medians into the flat JSON file at `path` — the entry
/// point for measurements that do not come from a [`BenchSuite`] (the
/// `serve_loadgen` latency percentiles).
///
/// # Errors
///
/// Returns a description of any I/O or parse failure.
pub fn merge_into_file(path: &Path, medians: &Medians) -> Result<(), String> {
    let mut merged = match std::fs::read_to_string(path) {
        Ok(text) => parse_flat_json(&text).map_err(|e| format!("existing file: {e}"))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Medians::new(),
        Err(e) => return Err(e.to_string()),
    };
    merged.extend(medians.iter().map(|(k, &v)| (k.clone(), v)));
    std::fs::write(path, render_flat_json(&merged)).map_err(|e| e.to_string())
}

/// One kernel that got slower than the gate allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// `"<suite>/<benchmark>"` key.
    pub kernel: String,
    /// Median in the checked-in baseline.
    pub baseline_ns: u64,
    /// Median in this run.
    pub result_ns: u64,
}

impl Regression {
    /// Slowdown factor versus the baseline (e.g. `2.0` for twice as slow).
    pub fn ratio(&self) -> f64 {
        self.result_ns as f64 / self.baseline_ns.max(1) as f64
    }
}

/// The verdict of one baseline-vs-results comparison.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Kernels present in both files and within tolerance.
    pub passed: Vec<String>,
    /// Kernels slower than `baseline × (1 + tolerance_pct / 100)`.
    pub regressions: Vec<Regression>,
    /// Kernels in the baseline but absent from the results (a silently
    /// deleted bench must fail the gate, not shrink it).
    pub missing: Vec<String>,
    /// Kernels in the results but not yet baselined (informational).
    pub unbaselined: Vec<String>,
}

impl GateOutcome {
    /// True when no kernel regressed and none disappeared.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Compares per-kernel medians against a baseline with a percentage
/// tolerance: a kernel fails when `result > baseline * (1 + pct / 100)`.
/// Speedups never fail the gate (re-baseline to lock them in).
pub fn compare(baseline: &Medians, results: &Medians, tolerance_pct: f64) -> GateOutcome {
    let mut outcome = GateOutcome::default();
    let factor = 1.0 + tolerance_pct / 100.0;
    for (kernel, &baseline_ns) in baseline {
        match results.get(kernel) {
            None => outcome.missing.push(kernel.clone()),
            Some(&result_ns) => {
                if (result_ns as f64) > (baseline_ns as f64) * factor {
                    outcome.regressions.push(Regression {
                        kernel: kernel.clone(),
                        baseline_ns,
                        result_ns,
                    });
                } else {
                    outcome.passed.push(kernel.clone());
                }
            }
        }
    }
    for kernel in results.keys() {
        if !baseline.contains_key(kernel) {
            outcome.unbaselined.push(kernel.clone());
        }
    }
    outcome
}

/// Multiplies every median by `factor` — the synthetic-slowdown injector used
/// to prove the gate actually fails (see `bench_gate --inject-slowdown`).
pub fn scale_medians(medians: &Medians, factor: f64) -> Medians {
    medians
        .iter()
        .map(|(k, &ns)| (k.clone(), (ns as f64 * factor).round() as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medians(entries: &[(&str, u64)]) -> Medians {
        entries.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn json_round_trips() {
        let m = medians(&[("suite/kernel_a", 1200), ("suite/kernel_b", 88)]);
        let parsed = parse_flat_json(&render_flat_json(&m)).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn empty_object_round_trips() {
        assert_eq!(parse_flat_json("{}").unwrap(), Medians::new());
        assert_eq!(
            parse_flat_json(&render_flat_json(&Medians::new())).unwrap(),
            Medians::new()
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_flat_json("not json").is_err());
        assert!(parse_flat_json("{\"k\": 1.5}").is_err());
        assert!(parse_flat_json("{\"k\" 1}").is_err());
        assert!(parse_flat_json("{k: 1}").is_err());
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = medians(&[("s/a", 1000)]);
        let results = medians(&[("s/a", 1200)]);
        let outcome = compare(&baseline, &results, 25.0);
        assert!(outcome.ok());
        assert_eq!(outcome.passed, vec!["s/a".to_string()]);
    }

    #[test]
    fn synthetic_two_x_slowdown_fails_the_gate() {
        // The acceptance demo: a 2x slowdown must trip a 25% gate.
        let baseline = medians(&[("s/a", 1000), ("s/b", 500)]);
        let slowed = scale_medians(&baseline, 2.0);
        let outcome = compare(&baseline, &slowed, 25.0);
        assert!(!outcome.ok());
        assert_eq!(outcome.regressions.len(), 2);
        assert!((outcome.regressions[0].ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn speedups_never_fail() {
        let baseline = medians(&[("s/a", 1000)]);
        let results = medians(&[("s/a", 10)]);
        assert!(compare(&baseline, &results, 25.0).ok());
    }

    #[test]
    fn missing_kernel_fails_but_new_kernel_does_not() {
        let baseline = medians(&[("s/gone", 100)]);
        let results = medians(&[("s/new", 100)]);
        let outcome = compare(&baseline, &results, 25.0);
        assert!(!outcome.ok());
        assert_eq!(outcome.missing, vec!["s/gone".to_string()]);
        assert_eq!(outcome.unbaselined, vec!["s/new".to_string()]);

        let only_new = compare(&Medians::new(), &results, 25.0);
        assert!(only_new.ok());
    }

    #[test]
    fn boundary_is_inclusive() {
        // Exactly baseline * 1.25 is allowed; one ns more is not.
        let baseline = medians(&[("s/a", 1000)]);
        assert!(compare(&baseline, &medians(&[("s/a", 1250)]), 25.0).ok());
        assert!(!compare(&baseline, &medians(&[("s/a", 1251)]), 25.0).ok());
    }

    #[test]
    fn merge_overwrites_and_keeps() {
        let dir = std::env::temp_dir().join("olive_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.json");
        std::fs::write(
            &path,
            render_flat_json(&medians(&[("old/kernel", 7), ("shared/kernel", 1)])),
        )
        .unwrap();
        let mut suite = BenchSuite::with_config(
            "shared",
            olive_harness::bench::BenchConfig {
                warmup_iters: 0,
                sample_iters: 1,
            },
        );
        suite.bench("kernel", || 42u32);
        merge_medians_into_file(&path, &[&suite]).unwrap();
        let merged = parse_flat_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(merged.get("old/kernel"), Some(&7));
        assert!(merged.contains_key("shared/kernel"));
        std::fs::remove_file(&path).unwrap();
    }
}
