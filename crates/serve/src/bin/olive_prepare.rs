//! `olive-prepare`: quantize offline once, cold-start everywhere.
//!
//! ```text
//! olive-prepare --artifact-dir DIR [--verify] \
//!               [--eval REQUEST_JSON]... [--generate REQUEST_JSON]...
//! olive-prepare --describe FILE
//! ```
//!
//! Each `--eval`/`--generate` argument is the same JSON body the
//! `/v1/eval`/`/v1/generate` endpoints accept. For every request the tool
//! runs the expensive preparation (teacher generation + calibration) once,
//! quantizes the requested schemes' students, and writes a versioned,
//! checksummed snapshot into DIR under the request's serving cache key —
//! the file an `olive-serve --artifact-dir DIR` worker then cold-starts
//! from, bit-identically to in-process preparation.
//!
//! `--verify` reloads each snapshot after writing, asserts the round-trip is
//! byte-exact, and reports load time next to preparation time (the
//! cold-start speedup). Both times are the minimum of 5 runs: the snapshot
//! is rebuilt 4 more times, each byte-identical to the first, and reloaded
//! 5 times, each byte-identical to what was written. `--describe`
//! pretty-prints a snapshot's metadata.

use olive_api::{JsonValue, ModelArtifact};
use olive_serve::{EvalRequest, GenerateRequest};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: olive-prepare --artifact-dir DIR [--verify] [--eval JSON]... [--generate JSON]...\n\
         \x20      olive-prepare --describe FILE"
    );
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("olive-prepare: {message}");
    std::process::exit(1);
}

enum Task {
    Eval(String),
    Generate(String),
}

struct Args {
    artifact_dir: Option<PathBuf>,
    verify: bool,
    tasks: Vec<Task>,
    describe: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        artifact_dir: None,
        verify: false,
        tasks: Vec::new(),
        describe: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("{name} requires a value");
                usage();
            }
        };
        match arg.as_str() {
            "--artifact-dir" => parsed.artifact_dir = Some(PathBuf::from(value("--artifact-dir"))),
            "--eval" => parsed.tasks.push(Task::Eval(value("--eval"))),
            "--generate" => parsed.tasks.push(Task::Generate(value("--generate"))),
            "--describe" => parsed.describe = Some(PathBuf::from(value("--describe"))),
            "--verify" => parsed.verify = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    parsed
}

fn parse_body(what: &str, text: &str) -> JsonValue {
    match JsonValue::parse(text) {
        Ok(v) => v,
        Err(e) => fail(&format!("{what} request is not valid JSON: {e}")),
    }
}

/// Builds the snapshot for one request, timing the preparation.
fn build(task: &Task) -> (ModelArtifact, f64) {
    match task {
        Task::Eval(text) => {
            let req = match EvalRequest::decode(&parse_body("--eval", text)) {
                Ok(req) => req,
                Err(e) => fail(&format!("--eval request rejected: {}", e.0)),
            };
            let started = Instant::now();
            let prepared = req.pipeline().prepare();
            let artifact = ModelArtifact::eval(req.prepared_key(), req.family.label(), &prepared)
                .with_students(&req.schemes);
            (artifact, started.elapsed().as_secs_f64() * 1e3)
        }
        Task::Generate(text) => {
            let req = match GenerateRequest::decode(&parse_body("--generate", text)) {
                Ok(req) => req,
                Err(e) => fail(&format!("--generate request rejected: {}", e.0)),
            };
            let started = Instant::now();
            let prepared = req.pipeline().prepare_generation(req.prompt_tokens);
            let artifact = ModelArtifact::gen(req.prepared_key(), req.family.label(), &prepared)
                .with_students(std::slice::from_ref(&req.scheme));
            (artifact, started.elapsed().as_secs_f64() * 1e3)
        }
    }
}

/// Runs of the build and of the reload that `--verify` times. Each side
/// reports its minimum, so one slow run on a shared host cannot decide the
/// speedup.
const VERIFY_RUNS: usize = 5;

/// Reloads the written snapshot and asserts the round-trip is byte-exact.
/// Returns the load time in milliseconds.
fn verify(path: &Path, written: &[u8]) -> f64 {
    let started = Instant::now();
    let loaded = match ModelArtifact::load(path) {
        Ok(a) => a,
        Err(e) => fail(&format!("verify failed for {}: {e}", path.display())),
    };
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    if loaded.to_bytes() != written {
        fail(&format!(
            "verify failed for {}: reloaded snapshot is not byte-identical",
            path.display()
        ));
    }
    load_ms
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.describe {
        match ModelArtifact::load(path) {
            Ok(artifact) => println!("{}", artifact.describe()),
            Err(e) => fail(&format!("cannot describe {}: {e}", path.display())),
        }
        return;
    }
    let Some(dir) = &args.artifact_dir else {
        eprintln!("--artifact-dir is required (or use --describe FILE)");
        usage();
    };
    if args.tasks.is_empty() {
        eprintln!("nothing to prepare: pass at least one --eval or --generate request");
        usage();
    }
    for task in &args.tasks {
        let kind = match task {
            Task::Eval(_) => "eval",
            Task::Generate(_) => "generate",
        };
        let (artifact, mut prepare_ms) = build(task);
        let path = match artifact.save(dir) {
            Ok(path) => path,
            Err(e) => fail(&format!("cannot write snapshot: {e}")),
        };
        let bytes = artifact.to_bytes();
        let mut load_ms = None;
        if args.verify {
            for _ in 1..VERIFY_RUNS {
                let (again, ms) = build(task);
                if again.to_bytes() != bytes {
                    fail(&format!(
                        "verify failed for {}: a rebuild is not byte-identical to the first build",
                        path.display()
                    ));
                }
                prepare_ms = prepare_ms.min(ms);
            }
            let runs = (0..VERIFY_RUNS).map(|_| verify(&path, &bytes));
            load_ms = Some(runs.fold(f64::INFINITY, f64::min));
        }
        let mut line = format!(
            "olive-prepare: wrote {} kind={kind} key=\"{}\" bytes={} prepare_ms={prepare_ms:.1}",
            path.display(),
            artifact.key,
            bytes.len()
        );
        if let Some(load_ms) = load_ms {
            line.push_str(&format!(
                " load_ms={load_ms:.3} speedup={:.0}x",
                prepare_ms / load_ms.max(1e-6)
            ));
        }
        println!("{line}");
    }
}
