//! The shared evaluation engine — the search hot path's per-request
//! state.
//!
//! A GA run evaluates hundreds of candidate transforms of **one** nest.
//! Building a [`NestAnalysis`] from scratch per candidate spends most of
//! its time in [`crate::reuse::original_displacements`] — Diophantine
//! window enumeration that is completely independent of the candidate's
//! tile sizes and, for same-array reference pairs, independent of its
//! padding too. The engine computes that work once per request and lets
//! every candidate borrow it:
//!
//! * the **candidate base** (uniform pairs + original-space displacement
//!   sets) for the request's base layout is built eagerly; per candidate
//!   only the cheap lift/sort/truncate step runs,
//! * a displacement cache keyed by `(address coefficients, base-address
//!   delta)` serves padding searches, where candidate layouts differ but
//!   most pairs (all self-pairs and same-array pairs) keep their key,
//! * the untiled analysis is cached whole — trivial tile vectors and
//!   baseline estimates reuse it directly,
//! * on a cache hierarchy, levels are grouped by line size: one analysis
//!   per group and candidate, classified in one pass for all of the
//!   group's levels ([`crate::estimate::sampled`] over their
//!   geometries). The sample, the source search and the interference walk
//!   are shared; only the set-conflict test is per level.
//!
//! Results are **byte-identical** to the from-scratch path: the engine
//! assembles analyses from the same `reuse::candidate_base` /
//! `reuse::lift_base` primitives [`CmeModel::analyze`] itself uses, and
//! reproduces [`CmeModel::estimate_nest`]'s seed derivation exactly.
//! Optional approximation (early-abandon sampling, see
//! [`SamplingConfig::early_abandon`]) only engages through the
//! incumbent-aware [`EvalEngine::cost`] path used by search objectives.

use crate::estimate::{
    exhaustive, one_level, sampled, sampled_vs_incumbent, LevelEstimate, LevelReport, MissEstimate,
    MissReport,
};
use crate::hierarchy::CacheHierarchy;
use crate::lexmax::SuffixRanges;
use crate::model::{CmeModel, NestAnalysis};
use crate::reuse::{candidate_base_with, original_displacements, CandidateBase};
use crate::sampling::SamplingConfig;
use crate::CacheSpec;
use cme_loopnest::{ExecSpace, LoopNest, MemoryLayout, TileSizes};
use cme_polyhedra::AffineForm;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Complete key of one displacement-set computation, as shared *across*
/// requests. [`crate::reuse::original_displacements`] is a pure function
/// of the subject's coefficients, the base-address delta, the line size
/// and the loop spans — nothing else — so two engines built for different
/// requests may exchange values under this key without observable effect.
/// (The engine's own per-request memo drops `spans`, which are fixed for
/// one engine; a process-wide store must keep them.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DisplacementKey {
    /// Subject address coefficients (identical for both refs of a
    /// uniform pair).
    pub coeffs: Vec<i64>,
    /// Source `c0` minus subject `c0`.
    pub delta: i64,
    /// Cache line size in bytes.
    pub line: i64,
    /// Inclusive loop spans of the original iteration space.
    pub spans: Vec<i64>,
}

/// A process-wide store of displacement sets that outlives any one
/// [`EvalEngine`]. The engine consults its per-request memo first and
/// only falls through here, so a provider sees each distinct key at most
/// once per request.
///
/// Contract: `get_or_compute` returns the stored value on a hit and
/// exactly `compute()`'s value on a miss (which it may retain). Values
/// are pure functions of the key, so any cache policy (bounded shards,
/// eviction, no-op) yields byte-identical analyses — pinned by the
/// determinism tests.
pub trait DisplacementProvider: Send + Sync {
    fn get_or_compute(
        &self,
        key: &DisplacementKey,
        compute: &mut dyn FnMut() -> Vec<Vec<i64>>,
    ) -> Arc<Vec<Vec<i64>>>;
}

/// A cloneable, `Debug`-able handle to a [`DisplacementProvider`] — the
/// form carried through request/problem structs that derive `Debug`.
#[derive(Clone)]
pub struct SharedDisplacements(pub Arc<dyn DisplacementProvider>);

impl SharedDisplacements {
    pub fn new(provider: Arc<dyn DisplacementProvider>) -> Self {
        SharedDisplacements(provider)
    }

    pub fn provider(&self) -> Arc<dyn DisplacementProvider> {
        Arc::clone(&self.0)
    }
}

impl std::fmt::Debug for SharedDisplacements {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedDisplacements(..)")
    }
}

/// Seed-mixing constants shared with [`CmeModel::estimate_nest`] and the
/// search objectives: every candidate derives its sampling seed as
/// `(base ^ SEED_SPLIT)` folded over its decision values with
/// `h·SEED_FOLD + v`.
pub const SEED_SPLIT: u64 = 0x9E37_79B9_7F4A_7C15;
pub const SEED_FOLD: u64 = 0x100_0000_01B3;

/// Fold decision values into a base seed (the canonical derivation used
/// across the suite — identical inputs give identical sampling seeds, so
/// memoised costs are reproducible).
pub fn fold_seed(mut h: u64, values: &[i64]) -> u64 {
    for &v in values {
        h = h.wrapping_mul(SEED_FOLD).wrapping_add(v as u64);
    }
    h
}

/// The cache levels of one line size and their shared analysis state:
/// the candidate base and untiled analysis for that line. Everything a
/// classification needs besides the final set-conflict test depends on
/// the line size alone, so the group's levels classify in one pass.
struct LineGroup {
    /// Model of the group's first level — the geometry its analyses carry.
    model: CmeModel,
    /// Hierarchy indices of the group's levels, ascending.
    levels: Vec<usize>,
    /// Their geometries, in the same order.
    caches: Vec<CacheSpec>,
    /// Candidate base for the base layout (tile-independent).
    base: Arc<CandidateBase>,
    /// Untiled analysis of the base layout, shared by trivial-tile
    /// candidates and baseline estimates.
    untiled: Arc<NestAnalysis>,
}

/// Shared evaluation state for one optimisation request: one nest, one
/// base layout, one cache hierarchy, one sampling configuration, one
/// seed. `Sync` — rayon-parallel GA evaluation borrows it from every
/// worker.
///
/// For a multi-level hierarchy, levels are grouped by **line size**: the
/// sample, the most-recent-source search and the interference walk depend
/// on the line alone, so each group builds one analysis per candidate and
/// classifies it in one pass for all of its levels, each level keeping
/// only its own set-conflict test. Displacement sets likewise depend only
/// on the address forms, the loop spans and the line, so each group has
/// one [`CandidateBase`], and the cross-layout displacement cache is keyed
/// by line so padding candidates share entries across groups too.
pub struct EvalEngine {
    /// Innermost (L1) model — the one every legacy path uses.
    model: CmeModel,
    hierarchy: CacheHierarchy,
    /// One group per distinct line size, in order of first appearance:
    /// `groups[0]` holds L1.
    groups: Vec<LineGroup>,
    sampling: SamplingConfig,
    seed: u64,
    nest: LoopNest,
    layout: MemoryLayout,
    spans: Vec<i64>,
    /// Cross-layout displacement cache: `(subject coefficients, source c0
    /// − subject c0, line size) → displacement set`. Spans are fixed per
    /// engine, so the key is complete — and shared across cache levels.
    displacements: Mutex<HashMap<(Vec<i64>, i64, i64), Arc<Vec<Vec<i64>>>>>,
    /// Optional process-wide displacement store, consulted on local-memo
    /// misses (the runtime layer wires the serve-wide sharded cache in
    /// here). `None` ⇒ fully self-contained per-request behaviour.
    provider: Option<Arc<dyn DisplacementProvider>>,
}

impl EvalEngine {
    /// Build a legacy single-level engine, precomputing everything
    /// candidate-independent. Byte-identical to the pre-hierarchy engine.
    pub fn new(
        model: CmeModel,
        nest: &LoopNest,
        layout: &MemoryLayout,
        sampling: SamplingConfig,
        seed: u64,
    ) -> Self {
        Self::build(model, CacheHierarchy::single(model.cache), nest, layout, sampling, seed, None)
    }

    /// Build a hierarchy-aware engine. With a legacy one-level hierarchy
    /// this is exactly [`Self::new`] with `CmeModel::new(h.l1())`.
    pub fn new_hierarchy(
        hierarchy: &CacheHierarchy,
        nest: &LoopNest,
        layout: &MemoryLayout,
        sampling: SamplingConfig,
        seed: u64,
    ) -> Self {
        Self::new_hierarchy_shared(hierarchy, nest, layout, sampling, seed, None)
    }

    /// As [`Self::new_hierarchy`], with an optional process-wide
    /// displacement store consulted on local-memo misses. With
    /// `provider: None` this is exactly `new_hierarchy`; with a provider
    /// the results are byte-identical and only the work is shared.
    pub fn new_hierarchy_shared(
        hierarchy: &CacheHierarchy,
        nest: &LoopNest,
        layout: &MemoryLayout,
        sampling: SamplingConfig,
        seed: u64,
        provider: Option<Arc<dyn DisplacementProvider>>,
    ) -> Self {
        let model = CmeModel::new(hierarchy.l1());
        Self::build(model, hierarchy.clone(), nest, layout, sampling, seed, provider)
    }

    fn build(
        model: CmeModel,
        hierarchy: CacheHierarchy,
        nest: &LoopNest,
        layout: &MemoryLayout,
        sampling: SamplingConfig,
        seed: u64,
        provider: Option<Arc<dyn DisplacementProvider>>,
    ) -> Self {
        let spans = nest.spans();
        let displacements = Mutex::new(HashMap::new());
        let addr = layout.address_forms(nest);
        let mut groups: Vec<LineGroup> = Vec::new();
        for (k, level) in hierarchy.levels().iter().enumerate() {
            if let Some(group) = groups.iter_mut().find(|g| g.model.cache.line == level.spec.line) {
                group.levels.push(k);
                group.caches.push(level.spec);
                continue;
            }
            let group_model = if k == 0 { model } else { CmeModel::new(level.spec) };
            let base = Arc::new(candidate_base_with(nest, &addr, |a, b| {
                cached_displacements(
                    &displacements,
                    provider.as_deref(),
                    &addr[a],
                    &addr[b],
                    level.spec.line,
                    &spans,
                )
            }));
            let untiled = Arc::new(assemble(group_model, nest, layout, None, Arc::clone(&base)));
            groups.push(LineGroup {
                model: group_model,
                levels: vec![k],
                caches: vec![level.spec],
                base,
                untiled,
            });
        }
        EvalEngine {
            model,
            hierarchy,
            groups,
            sampling,
            seed,
            nest: nest.clone(),
            layout: layout.clone(),
            spans,
            displacements,
            provider,
        }
    }

    /// The cache hierarchy this engine evaluates against.
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    pub fn model(&self) -> CmeModel {
        self.model
    }

    pub fn sampling(&self) -> &SamplingConfig {
        &self.sampling
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }

    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// A line group's analysis of `layout` (`None`: the base layout) under
    /// an optional tiling; a trivial tiling analyses the original nest.
    /// Byte-identical to [`CmeModel::analyze`] with the group's model. The
    /// base layout borrows the group's candidate base; other layouts
    /// (padding candidates) are served by the cross-layout displacement
    /// cache.
    fn analysis(
        &self,
        group: &LineGroup,
        layout: Option<&MemoryLayout>,
        tiles: Option<&TileSizes>,
    ) -> NestAnalysis {
        let tiles = tiles.filter(|t| !t.is_trivial(&self.nest));
        let Some(layout) = layout.filter(|l| **l != self.layout) else {
            return match tiles {
                None => (*group.untiled).clone(),
                Some(t) => assemble(
                    group.model,
                    &self.nest,
                    &self.layout,
                    Some(t),
                    Arc::clone(&group.base),
                ),
            };
        };
        let addr = layout.address_forms(&self.nest);
        let base = Arc::new(candidate_base_with(&self.nest, &addr, |a, b| {
            cached_displacements(
                &self.displacements,
                self.provider.as_deref(),
                &addr[a],
                &addr[b],
                group.model.cache.line,
                &self.spans,
            )
        }));
        assemble(group.model, &self.nest, layout, tiles, base)
    }

    /// Run `pass` once per line group and return its per-level results
    /// (one per group level) in hierarchy order.
    fn per_level<T>(&self, mut pass: impl FnMut(&LineGroup) -> Vec<T>) -> Vec<T> {
        let mut out: Vec<(usize, T)> = Vec::with_capacity(self.hierarchy.depth());
        for group in &self.groups {
            out.extend(group.levels.iter().copied().zip(pass(group)));
        }
        out.sort_by_key(|&(k, _)| k);
        out.into_iter().map(|(_, r)| r).collect()
    }

    /// Sampled estimates of every level, in hierarchy order: one pass per
    /// line group, every level classifying the same points (same seed).
    fn sampled_levels(
        &self,
        layout: Option<&MemoryLayout>,
        tiles: Option<&TileSizes>,
        seed: u64,
    ) -> Vec<MissEstimate> {
        self.per_level(|g| {
            sampled(&self.analysis(g, layout, tiles), &g.caches, &self.sampling, seed)
        })
    }

    /// Fold per-level estimates (hierarchy order) into one: the top-level
    /// fields are L1's, and a non-legacy hierarchy adds the per-level
    /// breakdown. A legacy single-level engine returns L1's estimate
    /// unchanged — breakdown-free and byte-identical to the
    /// pre-hierarchy form.
    fn decorate(&self, per_level: Vec<MissEstimate>) -> MissEstimate {
        if self.hierarchy.is_legacy() {
            return one_level(per_level);
        }
        let levels = per_level
            .iter()
            .zip(self.hierarchy.levels())
            .map(|(est, level)| LevelEstimate {
                cache: level.spec,
                miss_latency: level.miss_latency,
                per_ref: est.per_ref.clone(),
                solver: est.solver,
            })
            .collect();
        let l1 = per_level.into_iter().next().expect("a hierarchy has at least L1");
        MissEstimate { levels: Some(levels), ..l1 }
    }

    /// Canonical estimate — the drop-in replacement for
    /// [`CmeModel::estimate_nest`] on the engine's nest and base layout:
    /// same seed derivation (fold only when the tiling is effective),
    /// same sampling, byte-identical result on the legacy single-level
    /// model. On a non-legacy hierarchy the estimate additionally carries
    /// the per-level breakdown, every level classifying the same sampled
    /// points (same derived seed).
    pub fn estimate_canonical(&self, tiles: Option<&TileSizes>) -> MissEstimate {
        let effective = tiles.filter(|t| !t.is_trivial(&self.nest));
        let mut h = self.seed ^ SEED_SPLIT;
        if let Some(t) = effective {
            h = fold_seed(h, &t.0);
        }
        self.decorate(self.sampled_levels(None, effective, h))
    }

    /// Estimate under an explicit layout and sampling seed — the
    /// lower-level entry for objectives with their own seed conventions
    /// (padding folds raw GA values, joint search folds tile values).
    /// `incumbent` — a [`MissEstimate::weighted_cost`] upper bound —
    /// enables early abandonment when the sampling configuration allows
    /// it. Single-level engines abandon against the incumbent rescaled to
    /// replacement misses; multi-level engines sample every level fully
    /// (a per-level partial sample would skew the weighted sum).
    pub fn estimate_seeded(
        &self,
        layout: Option<&MemoryLayout>,
        tiles: Option<&TileSizes>,
        sample_seed: u64,
        incumbent: Option<f64>,
    ) -> MissEstimate {
        if self.hierarchy.depth() > 1 {
            return self.decorate(self.sampled_levels(layout, tiles, sample_seed));
        }
        let an = self.analysis(&self.groups[0], layout, tiles);
        // The abandon test compares L1 replacement-miss counts, so a
        // weighted-cost incumbent must be divided back by the (single)
        // level's latency. Legacy latency is 1.0 — an exact no-op.
        let incumbent = incumbent.map(|c| c / self.hierarchy.levels()[0].miss_latency);
        self.decorate(vec![sampled_vs_incumbent(&an, &self.sampling, sample_seed, incumbent)])
    }

    /// Exhaustive (every-point) classification of the base layout under
    /// an optional tiling, per level — the hierarchy-aware counterpart of
    /// [`NestAnalysis::exhaustive`], which it equals byte-for-byte on the
    /// legacy single-level model.
    pub fn exhaustive_report(&self, tiles: Option<&TileSizes>) -> MissReport {
        let per_level = self.per_level(|g| exhaustive(&self.analysis(g, None, tiles), &g.caches));
        if self.hierarchy.is_legacy() {
            return one_level(per_level);
        }
        let levels = per_level
            .iter()
            .zip(self.hierarchy.levels())
            .map(|(rep, level)| LevelReport {
                cache: level.spec,
                miss_latency: level.miss_latency,
                per_ref: rep.per_ref.clone(),
                solver: rep.solver,
            })
            .collect();
        let l1 = per_level.into_iter().next().expect("a hierarchy has at least L1");
        MissReport { levels: Some(levels), ..l1 }
    }

    /// The search objective value for a candidate tile vector on the base
    /// layout: the latency-weighted replacement cost (§3.1's `f` on the
    /// legacy single level), with the tiling-objective seed convention
    /// (fold the raw values, trivial or not). `incumbent` enables early
    /// abandonment when configured.
    pub fn cost(&self, values: &[i64], incumbent: Option<f64>) -> f64 {
        let tiles = TileSizes(values.to_vec());
        let effective = (!tiles.is_trivial(&self.nest)).then_some(&tiles);
        let seed = fold_seed(self.seed ^ SEED_SPLIT, values);
        self.estimate_seeded(None, effective, seed, incumbent).weighted_cost()
    }
}

/// Cache lookup with the Diophantine enumeration kept *outside* the
/// lock: rayon workers evaluating padding candidates in parallel must not
/// serialize on a miss. Two workers racing on the same key compute the
/// same (deterministic) value; the first insert wins and both return it.
/// A local miss falls through to the optional process-wide provider
/// (which pays the enumeration at most once per distinct key across
/// requests); either way the resolved Arc lands in the local memo so the
/// provider is hit once per key per engine.
fn cached_displacements(
    cache: &Mutex<HashMap<(Vec<i64>, i64, i64), Arc<Vec<Vec<i64>>>>>,
    provider: Option<&dyn DisplacementProvider>,
    addr_a: &AffineForm,
    addr_b: &AffineForm,
    line: i64,
    spans: &[i64],
) -> Arc<Vec<Vec<i64>>> {
    let key = (addr_a.coeffs.clone(), addr_b.c0 - addr_a.c0, line);
    if let Some(hit) = cache.lock().get(&key) {
        return Arc::clone(hit);
    }
    let fresh = match provider {
        Some(p) => {
            let global = DisplacementKey {
                coeffs: key.0.clone(),
                delta: key.1,
                line,
                spans: spans.to_vec(),
            };
            p.get_or_compute(&global, &mut || original_displacements(addr_a, addr_b, line, spans))
        }
        None => Arc::new(original_displacements(addr_a, addr_b, line, spans)),
    };
    Arc::clone(cache.lock().entry(key).or_insert(fresh))
}

/// Assemble a [`NestAnalysis`] from a prebuilt candidate base. This is
/// *the* analysis constructor: [`CmeModel::analyze`] delegates here with
/// a fresh base, the engine with its shared/cached one. The explicit
/// equation-object candidates are lifted lazily (see
/// [`NestAnalysis::candidates`]) — the classifier never reads them.
pub(crate) fn assemble(
    model: CmeModel,
    nest: &LoopNest,
    layout: &MemoryLayout,
    tiles: Option<&TileSizes>,
    base: Arc<CandidateBase>,
) -> NestAnalysis {
    let space = match tiles {
        None => ExecSpace::untiled(nest),
        Some(t) => ExecSpace::tiled(nest, t),
    };
    let addr: Vec<AffineForm> =
        layout.address_forms(nest).iter().map(|f| space.lift_form(f)).collect();
    let relaxed = space.relaxed_dims();
    let suffix = addr.iter().map(|f| SuffixRanges::of(f, &relaxed)).collect();
    let uniform_sources = (0..nest.refs.len())
        .map(|a| {
            (0..nest.refs.len())
                .filter(|&b| {
                    nest.refs[a].array == nest.refs[b].array && addr[a].coeffs == addr[b].coeffs
                })
                .collect()
        })
        .collect();
    NestAnalysis {
        cache: model.cache,
        solver_nodes: model.solver_nodes,
        space,
        addr,
        base,
        lifted: std::sync::OnceLock::new(),
        uniform_sources,
        suffix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheSpec;
    use cme_loopnest::builder::{sub, NestBuilder};

    fn mm(n: i64) -> LoopNest {
        let mut nb = NestBuilder::new(format!("mm_{n}"));
        let i = nb.add_loop("i", 1, n);
        let j = nb.add_loop("j", 1, n);
        let k = nb.add_loop("k", 1, n);
        let a = nb.array("a", &[n, n]);
        let b = nb.array("b", &[n, n]);
        let c = nb.array("c", &[n, n]);
        nb.read(a, &[sub(i), sub(j)]);
        nb.read(b, &[sub(i), sub(k)]);
        nb.read(c, &[sub(k), sub(j)]);
        nb.write(a, &[sub(i), sub(j)]);
        nb.finish().unwrap()
    }

    #[test]
    fn engine_estimates_match_model_byte_for_byte() {
        let nest = mm(20);
        let layout = MemoryLayout::contiguous(&nest);
        let model = CmeModel::new(CacheSpec::direct_mapped(1024, 32));
        let cfg = SamplingConfig::paper();
        let engine = EvalEngine::new(model, &nest, &layout, cfg, 0xCE11);
        for tiles in [None, Some(TileSizes(vec![5, 7, 3])), Some(TileSizes(vec![20, 20, 20]))] {
            let from_scratch = model.estimate_nest(&nest, &layout, tiles.as_ref(), &cfg, 0xCE11);
            let engined = engine.estimate_canonical(tiles.as_ref());
            assert_eq!(from_scratch, engined, "tiles {tiles:?}");
        }
    }

    #[test]
    fn engine_cost_matches_from_scratch_objective_seeding() {
        let nest = mm(16);
        let layout = MemoryLayout::contiguous(&nest);
        let model = CmeModel::new(CacheSpec::direct_mapped(512, 32));
        let cfg = SamplingConfig::paper();
        let engine = EvalEngine::new(model, &nest, &layout, cfg, 42);
        for values in [vec![4i64, 4, 4], vec![16, 16, 16], vec![1, 16, 2]] {
            let tiles = TileSizes(values.clone());
            let effective = (!tiles.is_trivial(&nest)).then_some(&tiles);
            let an = model.analyze(&nest, &layout, effective);
            let seed = fold_seed(42 ^ SEED_SPLIT, &values);
            let want = an.estimate(&cfg, seed).replacement_misses();
            assert_eq!(engine.cost(&values, None), want, "values {values:?}");
        }
    }

    #[test]
    fn engine_handles_foreign_layouts_via_displacement_cache() {
        let nest = mm(12);
        let base = MemoryLayout::contiguous(&nest);
        let model = CmeModel::new(CacheSpec::direct_mapped(512, 32));
        let cfg = SamplingConfig::paper();
        let engine = EvalEngine::new(model, &nest, &base, cfg, 7);
        // A padded layout: displace arrays by whole lines.
        let padded = MemoryLayout::with_padding(&nest, &[0, 32, 64], &vec![vec![0i64; 2]; 3]);
        let want = model.analyze(&nest, &padded, None).estimate(&cfg, 99);
        let got = engine.estimate_seeded(Some(&padded), None, 99, None);
        assert_eq!(want, got);
        // And tiled on the padded layout.
        let t = TileSizes(vec![3, 12, 5]);
        let want = model.analyze(&nest, &padded, Some(&t)).estimate(&cfg, 99);
        let got = engine.estimate_seeded(Some(&padded), Some(&t), 99, None);
        assert_eq!(want, got);
    }

    #[test]
    fn legacy_hierarchy_engine_is_byte_identical_to_single_level() {
        let nest = mm(16);
        let layout = MemoryLayout::contiguous(&nest);
        let spec = CacheSpec::direct_mapped(1024, 32);
        let cfg = SamplingConfig::paper();
        let single = EvalEngine::new(CmeModel::new(spec), &nest, &layout, cfg, 9);
        let hier =
            EvalEngine::new_hierarchy(&crate::CacheHierarchy::single(spec), &nest, &layout, cfg, 9);
        for tiles in [None, Some(TileSizes(vec![4, 8, 4]))] {
            let a = single.estimate_canonical(tiles.as_ref());
            let b = hier.estimate_canonical(tiles.as_ref());
            assert_eq!(a, b);
            assert!(b.levels.is_none(), "legacy estimates carry no breakdown");
        }
        for values in [vec![4i64, 4, 4], vec![16, 16, 16]] {
            assert_eq!(
                single.cost(&values, None).to_bits(),
                hier.cost(&values, None).to_bits(),
                "weighted cost must equal the legacy objective bit-for-bit"
            );
        }
    }

    #[test]
    fn hierarchy_estimates_decompose_per_level() {
        let nest = mm(16);
        let layout = MemoryLayout::contiguous(&nest);
        let l1 = CacheSpec::direct_mapped(512, 32);
        let l2 = CacheSpec { size: 4096, line: 32, assoc: 2 };
        let hier = crate::CacheHierarchy::two_level(l1, 10.0, l2, 80.0);
        let cfg = SamplingConfig::paper();
        let engine = EvalEngine::new_hierarchy(&hier, &nest, &layout, cfg, 9);
        let est = engine.estimate_canonical(None);
        let levels = est.levels.as_ref().expect("multi-level estimates carry the breakdown");
        assert_eq!(levels.len(), 2);
        // Level 0 of the breakdown *is* the top-level estimate.
        assert_eq!(levels[0].per_ref, est.per_ref);
        assert_eq!(levels[0].cache, l1);
        assert_eq!(levels[1].cache, l2);
        // Each level's slice equals the level analysed on its own (same
        // derived seed ⇒ same sampled points).
        for (k, spec) in [l1, l2].into_iter().enumerate() {
            let solo = EvalEngine::new(CmeModel::new(spec), &nest, &layout, cfg, 9)
                .estimate_canonical(None);
            assert_eq!(levels[k].per_ref, solo.per_ref, "level {k}");
        }
        // And the weighted cost is the latency-weighted sum.
        let want = levels[0].replacement_misses(est.volume) * 10.0
            + levels[1].replacement_misses(est.volume) * 80.0;
        assert_eq!(est.weighted_cost().to_bits(), want.to_bits());
    }

    #[test]
    fn single_level_custom_latency_scales_the_objective() {
        let nest = mm(16);
        let layout = MemoryLayout::contiguous(&nest);
        let spec = CacheSpec::direct_mapped(512, 32);
        let cfg = SamplingConfig::paper();
        let legacy = EvalEngine::new(CmeModel::new(spec), &nest, &layout, cfg, 9);
        let scaled = EvalEngine::new_hierarchy(
            &crate::CacheHierarchy::new(vec![crate::CacheLevel::new(spec, 4.0)]).unwrap(),
            &nest,
            &layout,
            cfg,
            9,
        );
        let values = vec![4i64, 4, 4];
        assert_eq!(
            scaled.cost(&values, None).to_bits(),
            (legacy.cost(&values, None) * 4.0).to_bits()
        );
    }

    #[test]
    fn early_abandon_stops_hopeless_candidates_deterministically() {
        let nest = mm(20);
        let layout = MemoryLayout::contiguous(&nest);
        let model = CmeModel::new(CacheSpec::direct_mapped(512, 32));
        let cfg = SamplingConfig::paper()
            .with_early_abandon(crate::sampling::EarlyAbandonConfig { check_every: 16 });
        let engine = EvalEngine::new(model, &nest, &layout, cfg, 3);
        // The untransformed nest thrashes; give an incumbent of zero
        // misses so any thrashing candidate is provably worse early.
        let full = engine.estimate_seeded(None, None, 11, None);
        assert!(full.replacement_misses() > 0.0);
        let partial = engine.estimate_seeded(None, None, 11, Some(0.0));
        assert!(
            partial.n_samples < full.n_samples,
            "hopeless candidate must abandon ({} vs {})",
            partial.n_samples,
            full.n_samples
        );
        // Deterministic: same inputs, same partial result.
        assert_eq!(partial, engine.estimate_seeded(None, None, 11, Some(0.0)));
        // And a *good* incumbent never triggers on a good candidate: with
        // no incumbent the estimate equals the plain sampled path.
        assert_eq!(full, engine.estimate_seeded(None, None, 11, None));
    }
}
