//! The three workloads: which request bodies a run sends, in which order.
//!
//! Every body is a function of `--seed` and the run length, so the same
//! arguments send the identical requests, and another seed sends different
//! requests of identical shape (same endpoint, model, sizes and counts).

/// SplitMix64: the benchmark's own generator, so a change to the program's
/// RNG can never change which requests the benchmark sends.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EB3_BE7C_11A5_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// A model seed: below 2^48, so it survives any JSON number path.
    fn model_seed(&mut self) -> u64 {
        self.below(1 << 48)
    }
}

/// The registry's canonical scheme specs, fixed here so the `eval_hit`
/// working set does not change when the registry grows.
const REGISTRY: [&str; 15] = [
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
];

/// `eval_hit`: model seeds in the working set, and scheme pairs per seed.
const HIT_MODEL_SEEDS: usize = 2;
const HIT_PAIRS_PER_SEED: usize = 16;
/// Timed `eval_hit` requests per second of `--seconds` (~one connection's
/// closed-loop rate today), rounded to whole passes over the working set.
const HIT_RATE: f64 = 400.0;

/// Calibration oversampling of every eval request.
pub const OVERSAMPLE: usize = 2;

/// The `eval_miss` request shape.
pub const MISS_SCHEMES: [&str; 2] = ["olive-4bit", "uniform:4"];
pub const MISS_BATCHES: usize = 8;
/// Timed `eval_miss` requests per second of `--seconds`.
const MISS_RATE: f64 = 35.0;
/// `eval_miss` requests are capped below the daemon's 1024-entry response
/// cache, so every timed request is a miss and the cache's growth counts
/// them exactly.
const MISS_MAX: usize = 900;
/// Setup requests of `eval_miss`, with seeds no timed request uses.
const MISS_WARMUP: usize = 4;
/// One in this many timed `eval_miss` responses is byte-checked.
pub const MISS_CHECK_EVERY: usize = 8;

/// `gen_merged`: model seeds the streams cycle through, and timed merged
/// pairs per second of `--seconds`.
const GEN_MODEL_SEEDS: usize = 2;
const GEN_PAIR_RATE: f64 = 3.5;
/// The `gen_merged` request shape.
pub const GEN_PROMPT_TOKENS: usize = 64;
pub const GEN_MAX_NEW_TOKENS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EvalHit,
    EvalMiss,
    GenMerged,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::EvalHit, Workload::EvalMiss, Workload::GenMerged];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalHit => "eval_hit",
            Workload::EvalMiss => "eval_miss",
            Workload::GenMerged => "gen_merged",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn path(self) -> &'static str {
        match self {
            Workload::EvalHit | Workload::EvalMiss => "/v1/eval",
            Workload::GenMerged => "/v1/generate",
        }
    }

    pub fn streams(self) -> bool {
        self == Workload::GenMerged
    }

    /// Concurrent keep-alive connections. The unary workloads use one: with
    /// two, the clients race the batcher's linger and throughput swings.
    /// `gen_merged` uses two, each sending the same request at the same time,
    /// because the scheduler merges only identical requests.
    pub fn connections(self) -> usize {
        match self {
            Workload::EvalHit | Workload::EvalMiss => 1,
            Workload::GenMerged => 2,
        }
    }

    pub fn plan(self, seed: u64, seconds: f64) -> Plan {
        let mut rng = Rng::new(seed);
        match self {
            Workload::EvalHit => eval_hit(&mut rng, seconds),
            Workload::EvalMiss => eval_miss(&mut rng, seconds),
            Workload::GenMerged => gen_merged(&mut rng, seconds),
        }
    }
}

/// A run's request bodies. Every connection sends each entry once, in order;
/// the connections of a multi-connection workload start each entry together.
pub struct Plan {
    pub workload: Workload,
    /// Answered during setup, before the timed phase.
    pub warmup: Vec<String>,
    pub timed: Vec<String>,
    /// Timed entries whose responses are byte-checked (all, except for
    /// `eval_miss`, whose in-process render costs as much as serving it).
    pub checked: Vec<usize>,
}

impl Plan {
    /// The distinct bodies whose responses are byte-checked, in first-use order.
    pub fn checked_bodies(&self) -> Vec<&str> {
        let mut bodies: Vec<&str> = Vec::new();
        for &i in &self.checked {
            if !bodies.contains(&self.timed[i].as_str()) {
                bodies.push(&self.timed[i]);
            }
        }
        bodies
    }
}

fn count(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).round() as usize).max(1)
}

pub fn eval_body(schemes: &[&str], batches: usize, seed: u64) -> String {
    let specs: Vec<String> = schemes.iter().map(|s| format!("\"{s}\"")).collect();
    format!(
        "{{\"family\": \"bert\", \"size\": \"tiny\", \"schemes\": [{}], \"batches\": {batches}, \
         \"oversample\": {OVERSAMPLE}, \"seed\": {seed}}}",
        specs.join(", ")
    )
}

pub fn gen_body(seed: u64) -> String {
    format!(
        "{{\"family\": \"gpt2\", \"size\": \"small\", \"scheme\": \"olive-4bit\", \
         \"prompt_tokens\": {GEN_PROMPT_TOKENS}, \"max_new_tokens\": {GEN_MAX_NEW_TOKENS}, \
         \"seed\": {seed}}}"
    )
}

/// The `eval_miss` body for model seed `seed`.
pub fn miss_body(seed: u64) -> String {
    eval_body(&MISS_SCHEMES, MISS_BATCHES, seed)
}

/// The 32-body `eval_hit` working set: per model seed, 16 ordered scheme
/// pairs that use every registry spec twice plus two fixed extras, so every
/// seed costs the same to set up. The seed picks the pairing.
pub fn hit_working_set(rng: &mut Rng) -> Vec<String> {
    let mut bodies = Vec::with_capacity(HIT_MODEL_SEEDS * HIT_PAIRS_PER_SEED);
    for _ in 0..HIT_MODEL_SEEDS {
        let model_seed = rng.model_seed();
        let mut slots: Vec<&str> = REGISTRY.iter().chain(REGISTRY.iter()).copied().collect();
        slots.extend(&REGISTRY[..2 * HIT_PAIRS_PER_SEED - slots.len()]);
        loop {
            rng.shuffle(&mut slots);
            let pairs: Vec<[&str; 2]> = slots.chunks(2).map(|p| [p[0], p[1]]).collect();
            let distinct = pairs
                .iter()
                .enumerate()
                .all(|(i, p)| p[0] != p[1] && !pairs[..i].contains(p));
            if distinct {
                bodies.extend(pairs.iter().map(|p| eval_body(p, 4, model_seed)));
                break;
            }
        }
    }
    bodies
}

/// `eval_hit`: one connection cycles through the working set, a seeded
/// permutation per pass. Setup answers each body once, so every timed
/// request is a response-cache hit.
fn eval_hit(rng: &mut Rng, seconds: f64) -> Plan {
    let set = hit_working_set(rng);
    let passes = ((HIT_RATE * seconds / set.len() as f64).round() as usize).max(1);
    let mut timed = Vec::with_capacity(passes * set.len());
    let mut order: Vec<usize> = (0..set.len()).collect();
    for _ in 0..passes {
        rng.shuffle(&mut order);
        timed.extend(order.iter().map(|&i| set[i].clone()));
    }
    Plan {
        workload: Workload::EvalHit,
        checked: (0..timed.len()).collect(),
        warmup: set,
        timed,
    }
}

/// `eval_miss`: a fresh model seed for every request, so each one misses
/// the response, preparation and student caches.
fn eval_miss(rng: &mut Rng, seconds: f64) -> Plan {
    let n = count(MISS_RATE, seconds).min(MISS_MAX);
    let base = rng.model_seed() + (MISS_WARMUP as u64);
    let warmup = (1..=MISS_WARMUP as u64)
        .map(|k| miss_body(base - k))
        .collect();
    let timed: Vec<String> = (0..n as u64).map(|i| miss_body(base + i)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut checked: Vec<usize> = order[..n.div_ceil(MISS_CHECK_EVERY)].to_vec();
    checked.sort_unstable();
    Plan {
        workload: Workload::EvalMiss,
        warmup,
        timed,
        checked,
    }
}

/// `gen_merged`: both connections stream the same request at once, cycling
/// through a few model seeds whose preparation setup already paid for.
fn gen_merged(rng: &mut Rng, seconds: f64) -> Plan {
    let mut seeds: Vec<u64> = Vec::with_capacity(GEN_MODEL_SEEDS);
    while seeds.len() < GEN_MODEL_SEEDS {
        let s = rng.model_seed();
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    let pairs = count(GEN_PAIR_RATE, seconds);
    let mut order: Vec<u64> = (0..pairs).map(|i| seeds[i % seeds.len()]).collect();
    rng.shuffle(&mut order);
    let timed: Vec<String> = order.into_iter().map(gen_body).collect();
    Plan {
        workload: Workload::GenMerged,
        warmup: seeds.into_iter().map(gen_body).collect(),
        checked: (0..timed.len()).collect(),
        timed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olive_api::JsonValue;

    /// A body with its model seed blanked and its scheme list replaced by
    /// its length: what must not depend on `--seed`.
    fn shape(body: &str) -> String {
        let mut fields = match JsonValue::parse(body).expect("bodies are JSON") {
            JsonValue::Object(fields) => fields,
            other => panic!("not an object: {other:?}"),
        };
        for (key, value) in &mut fields {
            match key.as_str() {
                "seed" => *value = JsonValue::Null,
                "schemes" => {
                    let n = value.as_array().map_or(0, <[JsonValue]>::len);
                    *value = JsonValue::UInt(n as u64);
                }
                _ => {}
            }
        }
        JsonValue::Object(fields).render_inline()
    }

    fn schemes_used(plan: &Plan) -> Vec<String> {
        let mut specs: Vec<String> = plan
            .timed
            .iter()
            .flat_map(|b| {
                let v = JsonValue::parse(b).unwrap();
                let specs = v.get("schemes").map(|s| s.as_array().unwrap().to_vec());
                specs
                    .unwrap_or_default()
                    .into_iter()
                    .map(|s| s.as_str().unwrap().to_string())
            })
            .collect();
        specs.sort();
        specs
    }

    #[test]
    fn another_seed_sends_different_requests_of_identical_shape() {
        for workload in Workload::ALL {
            let a = workload.plan(1, 2.0);
            let b = workload.plan(2, 2.0);
            assert_ne!(a.timed, b.timed, "{}", workload.name());
            assert_ne!(a.warmup, b.warmup, "{}", workload.name());
            assert_eq!(a.timed.len(), b.timed.len());
            assert_eq!(a.warmup.len(), b.warmup.len());
            assert_eq!(a.checked.len(), b.checked.len());
            let shapes = |p: &Plan| {
                let mut s: Vec<String> =
                    p.timed.iter().chain(&p.warmup).map(|b| shape(b)).collect();
                s.sort();
                s
            };
            assert_eq!(shapes(&a), shapes(&b), "{}", workload.name());
            assert_eq!(schemes_used(&a), schemes_used(&b), "{}", workload.name());
            // Same seed, same requests.
            assert_eq!(a.timed, workload.plan(1, 2.0).timed);
        }
    }

    #[test]
    fn eval_hit_times_only_working_set_bodies_in_whole_passes() {
        let plan = Workload::EvalHit.plan(7, 10.0);
        assert_eq!(plan.warmup.len(), HIT_MODEL_SEEDS * HIT_PAIRS_PER_SEED);
        let mut distinct = plan.warmup.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            plan.warmup.len(),
            "working-set bodies are distinct"
        );
        assert_eq!(plan.timed.len() % plan.warmup.len(), 0);
        for body in &plan.timed {
            assert!(plan.warmup.contains(body));
        }
    }

    #[test]
    fn eval_miss_never_repeats_a_model_seed() {
        let plan = Workload::EvalMiss.plan(3, 10.0);
        let mut all: Vec<&String> = plan.warmup.iter().chain(&plan.timed).collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
        assert_eq!(
            plan.checked.len(),
            plan.timed.len().div_ceil(MISS_CHECK_EVERY)
        );
    }
}
