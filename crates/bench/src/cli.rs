//! Shared command-line handling for the micro-benchmark binaries
//! (`benches/*.rs`, built with `harness = false`).
//!
//! Every bench accepts:
//!
//! * `--quick` — smoke mode for CI: fewer warmup/sample iterations (1/5
//!   instead of 3/20, still overridable via `OLIVE_BENCH_WARMUP` /
//!   `OLIVE_BENCH_SAMPLES`) and heavyweight kernels are skipped;
//! * `--json <path>` — append this run's `suite/kernel → median ns` entries
//!   to a flat JSON file (created if missing, existing keys overwritten).
//!   `scripts/bench_gate.sh` aggregates all four benches into one
//!   `BENCH_results.json` this way and diffs it against the checked-in
//!   `BENCH_baseline.json`;
//! * `--list-schemes` — print every spec in the `olive::api` scheme registry
//!   (bits per element + activation-quantization flag) and exit;
//! * `--scheme <spec>` (repeatable) — restrict scheme-aware benches (the
//!   quantized GEMM bench) to the named registry schemes.

use crate::gate;
use olive_api::Scheme;
use olive_harness::bench::{BenchConfig, BenchSuite};
use olive_harness::report::Table;
use std::path::PathBuf;

/// Parsed benchmark command line.
#[derive(Debug, Clone, Default)]
pub struct BenchCli {
    /// CI smoke mode: fewer iterations, heavy kernels skipped.
    pub quick: bool,
    /// Where to merge this run's medians as flat JSON, if anywhere.
    pub json: Option<PathBuf>,
    /// Registry schemes selected with `--scheme` (empty = the bench's
    /// default kernel set, which is what the regression gate baselines).
    pub schemes: Vec<Scheme>,
}

impl BenchCli {
    /// Parses `std::env::args`, exiting with a usage message on unknown flags
    /// (unknown args would otherwise silently change what a gate run
    /// measures). `--list-schemes` prints the registry and exits.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable core of [`parse`]).
    ///
    /// # Errors
    ///
    /// Returns a usage string on unknown flags, a missing `--json`/`--scheme`
    /// value, or a malformed scheme spec. `Ok(None)` means `--list-schemes`
    /// was requested (print [`render_scheme_list`] and exit).
    pub fn try_parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Option<Self>, String> {
        let mut cli = BenchCli::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--json" => {
                    let path = args
                        .next()
                        .ok_or_else(|| "--json requires a file path".to_string())?;
                    cli.json = Some(PathBuf::from(path));
                }
                "--list-schemes" => return Ok(None),
                "--scheme" => {
                    let spec = args.next().ok_or_else(|| {
                        "--scheme requires a spec (see --list-schemes)".to_string()
                    })?;
                    cli.schemes
                        .push(Scheme::parse(&spec).map_err(|e| e.to_string())?);
                }
                // `cargo bench` passes --bench to harness=false targets.
                "--bench" => {}
                other => {
                    return Err(format!(
                        "unknown argument '{other}' (expected --quick, --json <path>, \
                         --scheme <spec> and/or --list-schemes)"
                    ))
                }
            }
        }
        Ok(Some(cli))
    }

    fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        match Self::try_parse_from(args) {
            Ok(Some(cli)) => cli,
            Ok(None) => {
                println!("{}", render_scheme_list());
                std::process::exit(0);
            }
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }

    /// Iteration counts for this run: quick mode falls back to 1 warmup / 5
    /// samples, normal mode to the defaults; the `OLIVE_BENCH_*` env
    /// variables override either.
    pub fn bench_config(&self) -> BenchConfig {
        if self.quick {
            BenchConfig::from_env_or(1, 5)
        } else {
            BenchConfig::default()
        }
    }

    /// Creates a suite wired to this run's iteration counts.
    pub fn suite(&self, title: &str) -> BenchSuite {
        BenchSuite::with_config(title, self.bench_config())
    }

    /// Prints each suite's table and, with `--json`, merges their medians
    /// (keyed `"<suite>/<benchmark>"`) into the JSON results file.
    ///
    /// # Panics
    ///
    /// Panics if the JSON file cannot be read, parsed or written — a bench
    /// run that cannot record its results must not look green.
    pub fn finish(&self, suites: &[&BenchSuite]) {
        for suite in suites {
            suite.report();
        }
        if let Some(path) = &self.json {
            gate::merge_medians_into_file(path, suites)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!("\nwrote medians to {}", path.display());
        }
    }
}

/// Renders the scheme registry as a table: one row per canonical spec with
/// its display name, storage bits per element and whether it quantizes
/// activations (what `--list-schemes` prints).
pub fn render_scheme_list() -> String {
    let mut table = Table::new(vec![
        "Spec".into(),
        "Name".into(),
        "Bits/elem".into(),
        "Quantizes acts".into(),
    ]);
    for scheme in Scheme::all() {
        let q = scheme.build();
        table.row(vec![
            scheme.to_string(),
            q.name().to_string(),
            format!("{:.2}", q.bits_per_element()),
            if q.quantizes_activations() {
                "yes"
            } else {
                "no"
            }
            .into(),
        ]);
    }
    format!(
        "Registry schemes (append '@per-row' to any spec for per-row granularity):\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_quick_and_json() {
        let cli = BenchCli::try_parse_from(strings(&["--quick", "--json", "out.json"]))
            .unwrap()
            .unwrap();
        assert!(cli.quick);
        assert_eq!(cli.json.as_deref(), Some(std::path::Path::new("out.json")));
    }

    #[test]
    fn defaults_to_full_mode() {
        let cli = BenchCli::try_parse_from(strings(&[])).unwrap().unwrap();
        assert!(!cli.quick);
        assert!(cli.json.is_none());
        assert!(cli.schemes.is_empty());
    }

    #[test]
    fn ignores_cargo_bench_flag() {
        let cli = BenchCli::try_parse_from(strings(&["--bench"]))
            .unwrap()
            .unwrap();
        assert!(!cli.quick);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(BenchCli::try_parse_from(strings(&["--frobnicate"])).is_err());
    }

    #[test]
    fn rejects_dangling_json() {
        assert!(BenchCli::try_parse_from(strings(&["--json"])).is_err());
    }

    #[test]
    fn parses_scheme_filters() {
        let cli = BenchCli::try_parse_from(strings(&[
            "--scheme",
            "olive-4bit",
            "--scheme",
            "uniform:8@per-row",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(cli.schemes.len(), 2);
        assert_eq!(cli.schemes[0].to_string(), "olive-4bit");
        assert_eq!(cli.schemes[1].to_string(), "uniform:8@per-row");
    }

    #[test]
    fn rejects_malformed_scheme_specs() {
        let err = BenchCli::try_parse_from(strings(&["--scheme", "olive-5bit"])).unwrap_err();
        assert!(err.contains("unknown scheme"), "{err}");
        assert!(BenchCli::try_parse_from(strings(&["--scheme"])).is_err());
    }

    #[test]
    fn list_schemes_short_circuits_parsing() {
        assert!(BenchCli::try_parse_from(strings(&["--list-schemes"]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn scheme_list_covers_the_registry() {
        let listing = render_scheme_list();
        for scheme in Scheme::all() {
            assert!(listing.contains(&scheme.to_string()), "{listing}");
        }
        assert!(listing.contains("Bits/elem"), "{listing}");
        // GOBO is the weights-only scheme; the flag column must show it.
        assert!(listing.contains("no"), "{listing}");
    }

    #[test]
    fn quick_mode_shrinks_iteration_counts() {
        // Only meaningful when the env overrides are unset (they win).
        if std::env::var("OLIVE_BENCH_SAMPLES").is_err()
            && std::env::var("OLIVE_BENCH_WARMUP").is_err()
        {
            let quick = BenchCli {
                quick: true,
                ..BenchCli::default()
            };
            assert!(quick.bench_config().sample_iters < BenchConfig::default().sample_iters);
        }
    }
}
