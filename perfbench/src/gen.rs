//! Seeded workload generator. Every request body is built here, before
//! any clock starts; the server only ever sees these bytes.
//!
//! The seed draws request order, GA seeds, tile vectors, nest spelling
//! (registry name or inline IR) and body spelling. The *population* each
//! workload draws from — which kernels, sizes, caches and families — is
//! fixed, so that runs with different seeds measure the same mix of work
//! and their medians can be compared.

use cme_api::cme::{CacheHierarchy, CacheSpec, EvalEngine, SamplingConfig};
use cme_api::{
    AnalyzeRequest, BaselineKind, CompareRequest, LintRequest, NestSource, OptimizeRequest,
    StrategySpec,
};
use cme_core::{DisplacementKey, DisplacementProvider};
use cme_loopnest::{LoopNest, MemoryLayout, TileSizes};
use serde::Value;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// SplitMix64: a tiny, fully specified generator, so a seed means the
/// same inputs on every build and platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_4D15_7A11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The typed form of a generated request, used to compute the reference
/// answer the served one must equal.
#[derive(Debug, Clone)]
pub enum Typed {
    Optimize(OptimizeRequest),
    Compare(CompareRequest),
    Lint(LintRequest),
    Analyze(AnalyzeRequest),
}

impl Typed {
    pub fn path(&self) -> &'static str {
        match self {
            Typed::Optimize(_) => "/optimize",
            Typed::Compare(_) => "/compare",
            Typed::Lint(_) => "/lint",
            Typed::Analyze(_) => "/analyze",
        }
    }

    /// A key that is equal for two requests exactly when the server must
    /// give them the same answer: the route plus the runtime's canonical
    /// key (analyze requests are never cached; their serialisation is
    /// already canonical).
    pub fn answer_key(&self) -> String {
        match self {
            Typed::Optimize(r) => format!("/optimize {}", cme_runtime::canonical_key(r)),
            Typed::Compare(r) => format!("/compare {}", cme_runtime::canonical_compare_key(r)),
            Typed::Lint(r) => format!("/lint {}", cme_runtime::canonical_lint_key(r)),
            Typed::Analyze(r) => format!("/analyze {}", to_json(r)),
        }
    }
}

/// One generated request: its typed form and the body bytes sent.
#[derive(Debug, Clone)]
pub struct GenRequest {
    pub typed: Typed,
    pub body: String,
}

/// A workload's generated inputs.
pub struct Workload {
    pub name: &'static str,
    /// Clients issuing requests concurrently (closed loop).
    pub clients: usize,
    /// Length of the stream's rounds: every round carries the same mix of
    /// work, so latency and answer quality are taken over the complete
    /// rounds a run served (0: no rounds, every answer counts).
    pub round: usize,
    /// Requests sent once during set-up, before the clock starts.
    pub warm: Vec<GenRequest>,
    /// The measured request stream, issued in order. `hot_mixed` draws
    /// from `pool` through `draws` instead.
    pub requests: Vec<GenRequest>,
    /// `hot_mixed` only: the distinct working-set requests (every body
    /// spelling of each) and the seeded draw sequence into them as
    /// `(item, spelling)` pairs.
    pub pool: Vec<Vec<GenRequest>>,
    pub draws: Vec<(u32, u8)>,
}

impl Workload {
    /// The `k`-th measured request.
    pub fn request(&self, k: usize) -> &GenRequest {
        if self.draws.is_empty() {
            &self.requests[k]
        } else {
            let (item, spelling) = self.draws[k % self.draws.len()];
            &self.pool[item as usize][spelling as usize]
        }
    }

    /// The item answering the `k`-th measured request: its stream index,
    /// or for `hot_mixed` its working-set entry (all spellings of an
    /// entry share one answer).
    pub fn item(&self, k: usize) -> usize {
        if self.draws.is_empty() {
            k
        } else {
            self.draws[k % self.draws.len()].0 as usize
        }
    }

    /// The typed request behind an [`Self::item`].
    pub fn item_request(&self, item: usize) -> &GenRequest {
        if self.draws.is_empty() {
            &self.requests[item]
        } else {
            &self.pool[item][0]
        }
    }

    /// How many of `served` requests (a prefix of the stream) fall in
    /// complete rounds.
    pub fn complete_rounds(&self, served: usize) -> usize {
        match self.round {
            0 => served,
            r if served >= r => served / r * r,
            _ => served,
        }
    }

    /// Requests available to the measured phase (`hot_mixed` cycles).
    pub fn len(&self) -> usize {
        if self.draws.is_empty() {
            self.requests.len()
        } else {
            usize::MAX
        }
    }
}

pub const WORKLOADS: [&str; 3] = ["cold_tile", "near_miss", "hot_mixed"];

pub fn generate(name: &str, seed: u64) -> Result<Workload, String> {
    match name {
        "cold_tile" => Ok(cold_tile(seed)),
        "near_miss" => Ok(near_miss(seed)),
        "hot_mixed" => Ok(hot_mixed(seed)),
        other => Err(format!("unknown workload `{other}` (expected one of {WORKLOADS:?})")),
    }
}

/// The five cache configurations: the paper's 8 KB and 32 KB
/// direct-mapped caches, a 32 KB 2-way cache, a long-line 32 KB / 256 B
/// cache and the built-in two-level hierarchy.
pub fn caches() -> [CacheHierarchy; 5] {
    [
        CacheSpec::paper_8k().into(),
        CacheSpec::paper_32k().into(),
        CacheSpec { size: 32 * 1024, line: 32, assoc: 2 }.into(),
        CacheSpec::direct_mapped(32 * 1024, 256).into(),
        CacheHierarchy::l1l2_default(),
    ]
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("generated requests serialise")
}

fn kernel_nest(name: &str, size: i64) -> LoopNest {
    NestSource::kernel_sized(name, size).resolve().expect("registry kernel resolves")
}

/// Registry kernels `cold_tile` tiles. Left out: TRSOLVE, whose carried
/// dependence makes tiling illegal (the server answers 422 by design),
/// and VPENTA1/VPENTA2, whose GA-tiled estimates miss the simulator by
/// more than the checked tolerance on the 32 KB and two-level caches.
fn cold_kernels() -> Vec<cme_kernels::KernelSpec> {
    cme_kernels::all_kernels()
        .into_iter()
        .filter(|k| !matches!(k.name, "TRSOLVE" | "VPENTA1" | "VPENTA2"))
        .collect()
}

/// `/compare` slots per pass, by kernel; eighteen in all, one request in
/// five. Kernels not listed get none: on the BIHAR transforms (DPSS*,
/// DRAD*) and on T3DJIK with the two-level cache, the LRW baseline's and
/// the cache-oblivious family's tiles give estimates that miss the
/// simulator by more than the checked tolerance.
const COMPARE_SLOTS: [(&str, usize); 11] = [
    ("T2D", 2),
    ("TSHIFT", 2),
    ("T3DIKJ", 2),
    ("JACOBI3D", 1),
    ("MATMUL", 2),
    ("MM", 2),
    ("ADI", 1),
    ("ADD", 2),
    ("BTRIX", 1),
    ("TRMM", 2),
    ("TTRANS", 1),
];

fn compare_slots(spec: &cme_kernels::KernelSpec) -> usize {
    COMPARE_SLOTS.iter().find(|(name, _)| *name == spec.name).map_or(0, |&(_, n)| n)
}

/// Problem size of kernel `spec` for cache `cache` in pass `pass`: small
/// enough for the exact simulator, and distinct for every
/// (kernel, cache, pass) so that no two requests share a displacement
/// set — every `cold_tile` request enumerates its own.
fn cold_size(spec: &cme_kernels::KernelSpec, cache: usize, pass: usize) -> i64 {
    let (base, per_cache, per_pass) = match spec.depth {
        2 => (40, 4, 20),
        3 => (16, 2, 10),
        _ => (8, 1, 5),
    };
    base + per_cache * cache as i64 + per_pass * pass as i64
}

const COLD_PASSES: usize = 4;

/// `cold_tile`: distinct GA-tiling requests over the registry kernels ×
/// the five caches, one in five a default four-way `/compare`.
///
/// Each pass covers every (kernel, cache) pair once, in five rounds that
/// hold every kernel once and every cache three or four times (a Latin
/// square), so any prefix of the stream has nearly the same mix of work.
/// The work of an item — its size, cache, family and GA seed — is fixed;
/// the workload seed draws the order within each round and which nests
/// are sent inline. A run's cost mix therefore depends on the seed only
/// through its last, partial round.
fn cold_tile(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let kernels = cold_kernels();
    let caches = caches();
    let n_caches = caches.len();
    let mut requests = Vec::new();
    for pass in 0..COLD_PASSES {
        for round in 0..n_caches {
            let mut order: Vec<usize> = (0..kernels.len()).collect();
            rng.shuffle(&mut order);
            for k in order {
                let spec = &kernels[k];
                let c = (k + round + pass) % n_caches;
                let size = cold_size(spec, c, pass);
                let nest = if rng.below(4) == 0 {
                    NestSource::inline(kernel_nest(spec.name, size))
                } else {
                    NestSource::kernel_sized(spec.name, size)
                };
                let ga_seed = Rng::new((k * 64 + c * 8 + pass) as u64).next_u64();
                let req = OptimizeRequest::new(nest, StrategySpec::Tiling)
                    .with_cache(caches[c].clone())
                    .with_seed(ga_seed);
                // A kernel's tournaments spread over rounds (and so over
                // caches, rotating with the pass).
                let typed = if (round + k) % n_caches < compare_slots(spec) {
                    Typed::Compare(CompareRequest::new(req))
                } else {
                    Typed::Optimize(req)
                };
                requests.push(spelled(&typed, Spelling::Canonical));
            }
        }
    }
    Workload {
        name: "cold_tile",
        clients: 1,
        round: kernels.len(),
        warm: Vec::new(),
        requests,
        pool: Vec::new(),
        draws: Vec::new(),
    }
}

/// The (kernel, size, cache index) pairs `near_miss` warms and re-asks.
const NEAR_PAIRS: [(&str, i64, usize); 6] = [
    ("MM", 24, 0),
    ("T3DIKJ", 20, 2),
    ("JACOBI3D", 20, 3),
    ("T3DJIK", 20, 4),
    ("T2D", 64, 1),
    ("TRMM", 24, 0),
];

const NEAR_ROUNDS: usize = 120;

/// `near_miss`: a warm request per pair during set-up, then rounds of two
/// fresh-seed GA requests and one fresh-tile `/analyze` per pair. Every
/// outcome-cache lookup misses; every displacement lookup hits. As in
/// `cold_tile`, an item's work (GA seed, tiles) is fixed and the
/// workload seed draws the order within each round.
fn near_miss(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let caches = caches();
    let ga_request = |pair: usize, item_seed: u64| {
        let (name, size, c) = NEAR_PAIRS[pair];
        OptimizeRequest::new(NestSource::kernel_sized(name, size), StrategySpec::Tiling)
            .with_cache(caches[c].clone())
            .with_seed(Rng::new(item_seed).next_u64())
    };
    let warm: Vec<GenRequest> = (0..NEAR_PAIRS.len())
        .map(|p| spelled(&Typed::Optimize(ga_request(p, 1 << 40 | p as u64)), Spelling::Canonical))
        .collect();
    let mut requests = Vec::new();
    for r in 0..NEAR_ROUNDS {
        let mut round = Vec::new();
        for (p, &(name, size, c)) in NEAR_PAIRS.iter().enumerate() {
            let item = (r * NEAR_PAIRS.len() + p) as u64;
            for j in 0..2 {
                round.push(Typed::Optimize(ga_request(p, item << 1 | j)));
            }
            let mut item_rng = Rng::new(1 << 41 | item);
            let spans = kernel_nest(name, size).spans();
            let mut req = AnalyzeRequest::new(NestSource::kernel_sized(name, size));
            req.cache = caches[c].clone();
            req.seed = item_rng.next_u64();
            req.tiles = Some(TileSizes(
                spans.iter().map(|&s| 1 + item_rng.below(s as u64) as i64).collect(),
            ));
            round.push(Typed::Analyze(req));
        }
        rng.shuffle(&mut round);
        requests.extend(round.iter().map(|t| spelled(t, Spelling::Canonical)));
    }
    Workload {
        name: "near_miss",
        clients: 2,
        round: NEAR_PAIRS.len() * 3,
        warm,
        requests,
        pool: Vec::new(),
        draws: Vec::new(),
    }
}

/// The `hot_mixed` working set, in popularity order (most popular first).
fn hot_items() -> Vec<Typed> {
    let c = caches();
    let opt = |name: &str, size: i64, cache: usize, strategy: StrategySpec| {
        Typed::Optimize(
            OptimizeRequest::new(NestSource::kernel_sized(name, size), strategy)
                .with_cache(c[cache].clone()),
        )
    };
    let cmp = |name: &str, size: i64, cache: usize| {
        Typed::Compare(CompareRequest::new(
            OptimizeRequest::new(NestSource::kernel_sized(name, size), StrategySpec::Tiling)
                .with_cache(c[cache].clone()),
        ))
    };
    let lint = |name: &str, size: i64, cache: usize| {
        Typed::Lint(
            LintRequest::new(NestSource::kernel_sized(name, size)).with_cache(c[cache].clone()),
        )
    };
    vec![
        opt("MM", 24, 0, StrategySpec::Tiling),
        lint("MM", 500, 0),
        cmp("MM", 20, 2),
        opt("T2D", 64, 3, StrategySpec::Tiling),
        opt("JACOBI3D", 16, 0, StrategySpec::CacheOblivious),
        lint("TSHIFT", 64, 0),
        opt("DPSSF", 20, 4, StrategySpec::Tiling),
        cmp("TTRANS", 48, 0),
        opt("T3DJIK", 16, 2, StrategySpec::LatencyBased),
        opt("ADI", 48, 0, StrategySpec::Baseline { kind: BaselineKind::LrwSquare }),
        lint("TRSOLVE", 64, 1),
        opt("VPENTA1", 48, 1, StrategySpec::Baseline { kind: BaselineKind::Tss }),
        cmp("ADD", 8, 0),
        opt("TRMM", 24, 0, StrategySpec::Tiling),
        opt("BTRIX", 16, 2, StrategySpec::Tiling),
        lint("JACOBI3D", 100, 3),
        cmp("DRADBG2", 16, 4),
        opt("MATMUL", 24, 0, StrategySpec::CacheOblivious),
    ]
}

const HOT_DRAWS: usize = 1 << 20;

/// `hot_mixed`: Zipf(1) popularity over a fixed working set, each draw
/// sent in one of three spellings that all share a canonical key.
fn hot_mixed(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let items = hot_items();
    let pool: Vec<Vec<GenRequest>> =
        items.iter().map(|t| SPELLINGS.iter().map(|&s| spelled(t, s)).collect()).collect();
    let weights: Vec<f64> = (0..items.len()).map(|k| 1.0 / (k + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let draws = (0..HOT_DRAWS)
        .map(|_| {
            let u = rng.unit();
            let item = cdf.iter().position(|&p| u < p).unwrap_or(items.len() - 1);
            (item as u32, rng.below(SPELLINGS.len() as u64) as u8)
        })
        .collect();
    Workload {
        name: "hot_mixed",
        clients: 2,
        round: 0,
        warm: pool.iter().map(|spellings| spellings[0].clone()).collect(),
        requests: Vec::new(),
        pool,
        draws,
    }
}

/// How a request body is written. Every spelling parses to the same
/// typed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spelling {
    /// The request's own serialisation.
    Canonical,
    /// Every object's keys in reverse order.
    Permuted,
    /// Fields equal to the server's defaults omitted, the rest permuted.
    Minimal,
}

const SPELLINGS: [Spelling; 3] = [Spelling::Canonical, Spelling::Permuted, Spelling::Minimal];

fn reversed(v: Value) -> Value {
    match v {
        Value::Object(fields) => {
            Value::Object(fields.into_iter().rev().map(|(k, v)| (k, reversed(v))).collect())
        }
        Value::Array(items) => Value::Array(items.into_iter().map(reversed).collect()),
        other => other,
    }
}

/// Drop the top-level fields the server fills in when absent.
fn drop_defaults(v: &mut Value, defaults: &[(&str, Value)]) {
    if let Value::Object(fields) = v {
        fields.retain(|(k, val)| !defaults.iter().any(|(d, dv)| d == k && dv == val));
    }
}

fn optimize_defaults() -> Vec<(&'static str, Value)> {
    vec![
        ("cache", serde_json::to_value(&CacheHierarchy::from(CacheSpec::paper_8k()))),
        ("sampling", serde_json::to_value(&SamplingConfig::paper())),
        ("ga", serde_json::to_value(&cme_api::GaConfig::default())),
    ]
}

pub fn spelled(typed: &Typed, spelling: Spelling) -> GenRequest {
    let mut value = match typed {
        Typed::Optimize(r) => serde_json::to_value(r),
        Typed::Compare(r) => serde_json::to_value(r),
        Typed::Lint(r) => serde_json::to_value(r),
        Typed::Analyze(r) => serde_json::to_value(r),
    };
    if spelling == Spelling::Minimal {
        match typed {
            Typed::Optimize(_) => drop_defaults(&mut value, &optimize_defaults()),
            Typed::Compare(_) => {
                if let Value::Object(fields) = &mut value {
                    for (k, v) in fields.iter_mut() {
                        if k == "base" {
                            drop_defaults(v, &optimize_defaults());
                        }
                    }
                    // The default four-way line-up is what an absent
                    // `strategies` means.
                    let default_line_up = serde_json::to_value(&CompareRequest::new(
                        OptimizeRequest::new(NestSource::kernel("MM"), StrategySpec::Tiling),
                    ))
                    .get("strategies")
                    .cloned();
                    fields
                        .retain(|(k, v)| k != "strategies" || Some(v) != default_line_up.as_ref());
                }
            }
            Typed::Lint(_) => drop_defaults(&mut value, &optimize_defaults()[..1]),
            Typed::Analyze(_) => {}
        }
    }
    if spelling != Spelling::Canonical {
        value = reversed(value);
    }
    GenRequest { typed: typed.clone(), body: to_json(&value) }
}

/// Parse a body the way the server does and return its answer key —
/// the check that every spelling of a request shares one canonical key.
pub fn served_answer_key(path: &str, body: &str) -> Result<String, String> {
    let bytes = body.as_bytes();
    let typed = match path {
        "/optimize" => {
            Typed::Optimize(cme_serve::router::parse_optimize_request(bytes).map_err(|r| r.body)?)
        }
        "/compare" => {
            Typed::Compare(cme_serve::router::parse_compare_request(bytes).map_err(|r| r.body)?)
        }
        "/lint" => {
            let mut v: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
            if let Value::Object(fields) = &mut v {
                if serde::get_field(fields, "cache").is_none() {
                    fields.push(("cache".into(), optimize_defaults()[0].1.clone()));
                }
            }
            Typed::Lint(serde_json::from_value(&v).map_err(|e| e.to_string())?)
        }
        "/analyze" => Typed::Analyze(serde_json::from_str(body).map_err(|e| e.to_string())?),
        other => return Err(format!("no route {other}")),
    };
    Ok(typed.answer_key())
}

/// Guard: no two `cold_tile` requests (nor any two `near_miss` GA
/// requests) share a canonical key, so the outcome cache can never
/// answer them; and every spelling of a `hot_mixed` item parses to its
/// item's key.
pub fn check_keys(w: &Workload) -> Result<(), String> {
    if !w.pool.is_empty() {
        for spellings in &w.pool {
            let want = spellings[0].typed.answer_key();
            for r in spellings {
                let got = served_answer_key(r.typed.path(), &r.body)?;
                if got != want {
                    return Err(format!("{}: spelling `{}` parses to another key", w.name, r.body));
                }
            }
        }
        return Ok(());
    }
    let mut seen = HashSet::new();
    for r in w.warm.iter().chain(&w.requests) {
        if matches!(r.typed, Typed::Analyze(_)) {
            continue;
        }
        let key = served_answer_key(r.typed.path(), &r.body)?;
        if !seen.insert(key) {
            return Err(format!("{}: two requests share the key of `{}`", w.name, r.body));
        }
    }
    Ok(())
}

/// Records every displacement key an engine asks for.
#[derive(Default)]
struct KeyRecorder(Mutex<HashSet<DisplacementKey>>);

impl DisplacementProvider for KeyRecorder {
    fn get_or_compute(
        &self,
        key: &DisplacementKey,
        compute: &mut dyn FnMut() -> Vec<Vec<i64>>,
    ) -> Arc<Vec<Vec<i64>>> {
        self.0.lock().expect("key recorder lock").insert(key.clone());
        Arc::new(compute())
    }
}

fn nest_and_cache(t: &Typed) -> (&NestSource, &CacheHierarchy) {
    match t {
        Typed::Optimize(r) => (&r.nest, &r.cache),
        Typed::Compare(r) => (&r.base.nest, &r.base.cache),
        Typed::Lint(r) => (&r.nest, &r.cache),
        Typed::Analyze(r) => (&r.nest, &r.cache),
    }
}

/// The displacement keys an engine for `t`'s nest and cache requests.
fn displacement_keys(t: &Typed) -> HashSet<DisplacementKey> {
    let (nest, cache) = nest_and_cache(t);
    let nest = nest.resolve().expect("generated nests resolve");
    let recorder = Arc::new(KeyRecorder::default());
    EvalEngine::new_hierarchy_shared(
        cache,
        &nest,
        &MemoryLayout::contiguous(&nest),
        SamplingConfig::paper(),
        0,
        Some(Arc::clone(&recorder) as _),
    );
    let keys = recorder.0.lock().expect("key recorder lock").clone();
    keys
}

/// Guard: every displacement key a `near_miss` request needs was
/// requested by some warm-up request.
pub fn check_warmed(w: &Workload) -> Result<(), String> {
    let warmed: HashSet<DisplacementKey> =
        w.warm.iter().flat_map(|r| displacement_keys(&r.typed)).collect();
    let mut checked = HashSet::new();
    for r in &w.requests {
        let (nest, cache) = nest_and_cache(&r.typed);
        if !checked.insert(to_json(&(nest, cache))) {
            continue;
        }
        if let Some(missing) = displacement_keys(&r.typed).into_iter().find(|k| !warmed.contains(k))
        {
            return Err(format!("{}: displacement key {missing:?} was never warmed", w.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(w: &Workload) -> Vec<String> {
        let n = if w.draws.is_empty() { w.requests.len() } else { 2000 };
        w.warm
            .iter()
            .map(|r| r.body.clone())
            .chain((0..n).map(|k| w.request(k).body.clone()))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in WORKLOADS {
            let a = bodies(&generate(name, 7).unwrap());
            let b = bodies(&generate(name, 7).unwrap());
            let c = bodies(&generate(name, 8).unwrap());
            assert_eq!(a, b, "{name}: a seed must reproduce its inputs");
            assert_ne!(a, c, "{name}: another seed must draw other inputs");
        }
    }

    #[test]
    fn cold_tile_keys_are_distinct_and_hot_spellings_agree() {
        for name in ["cold_tile", "hot_mixed"] {
            check_keys(&generate(name, 3).unwrap()).unwrap();
        }
    }

    #[test]
    fn near_miss_keys_are_warmed_and_distinct() {
        let w = generate("near_miss", 3).unwrap();
        check_keys(&w).unwrap();
        check_warmed(&w).unwrap();
    }

    #[test]
    fn cold_tile_holds_one_compare_in_five() {
        let w = generate("cold_tile", 1).unwrap();
        let compares = w.requests.iter().filter(|r| matches!(r.typed, Typed::Compare(_))).count();
        assert_eq!(compares * 5, w.requests.len(), "{compares} of {}", w.requests.len());
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(generate("nope", 1).is_err());
    }
}
