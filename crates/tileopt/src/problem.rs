//! The tiling search problem and GA-driven optimiser.

use cme_analysis::rectangular_tiling_legality;
use cme_core::engine::{fold_seed, SEED_SPLIT};
use cme_core::{
    CacheHierarchy, CacheSpec, Estimator, EvalEngine, MissEstimate, SamplingConfig,
    SharedDisplacements,
};
use cme_ga::{run_ga, Domain, GaConfig, GaResult, Objective};
use cme_loopnest::deps::TilingLegality;
use cme_loopnest::{LoopNest, MemoryLayout, TileSizes};
use serde::{Deserialize, Serialize};

/// Objective: estimated replacement misses of the nest tiled with the
/// candidate tile vector (paper §3.1's function `f`) — the per-kernel
/// analysis is computed once (in the shared [`EvalEngine`]) and borrowed
/// by every GA individual.
pub struct TilingObjective<'e> {
    pub estimator: &'e dyn Estimator,
}

impl<'e> TilingObjective<'e> {
    /// Wrap a shared engine (one per search run); `&EvalEngine` coerces.
    pub fn new(estimator: &'e dyn Estimator) -> Self {
        TilingObjective { estimator }
    }

    /// Full estimate for a tile vector (the identity tiling analyses the
    /// original nest). Seeded by folding the raw tile values into the
    /// base seed — trivial or not — so memoised costs are reproducible.
    pub fn estimate(&self, tiles: &TileSizes) -> MissEstimate {
        let engine = self.estimator.engine();
        let effective = (!tiles.is_trivial(engine.nest())).then_some(tiles);
        let seed = fold_seed(engine.seed() ^ SEED_SPLIT, &tiles.0);
        self.estimator.estimate_transformed(None, effective, seed, None)
    }

    /// Estimate of the untransformed nest, seeded identically to
    /// [`cme_core::CmeModel::estimate_nest`] with no tiling — so optimiser
    /// `before` fields equal the canonical baseline every `cme-api`
    /// family reports.
    pub fn estimate_untiled(&self) -> MissEstimate {
        self.estimator.estimate_canonical(None)
    }
}

impl Objective for TilingObjective<'_> {
    fn cost(&self, values: &[i64]) -> f64 {
        self.estimator.cost(values, None)
    }

    fn cost_with_incumbent(&self, values: &[i64], incumbent: Option<f64>) -> f64 {
        self.estimator.cost(values, incumbent)
    }
}

/// Result of a tiling optimisation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TilingOutcome {
    pub tiles: TileSizes,
    /// Estimate for the original (untiled) nest.
    pub before: MissEstimate,
    /// Estimate for the chosen tiling.
    pub after: MissEstimate,
    pub ga: GaSummary,
}

/// Serialisable digest of a GA run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaSummary {
    pub generations: u32,
    pub evaluations: u64,
    pub converged: bool,
    pub best_cost: f64,
}

impl From<&GaResult> for GaSummary {
    fn from(r: &GaResult) -> Self {
        GaSummary {
            generations: r.generations,
            evaluations: r.evaluations,
            converged: r.converged,
            best_cost: r.best_cost,
        }
    }
}

/// GA-driven tile-size selection (paper §3).
///
/// ```
/// use cme_core::CacheSpec;
/// use cme_loopnest::builder::{sub, NestBuilder};
/// use cme_loopnest::MemoryLayout;
/// use cme_tileopt::TilingOptimizer;
///
/// // A 64×64 transpose thrashing a 1 KB cache.
/// let mut nb = NestBuilder::new("t2d");
/// let i = nb.add_loop("i", 1, 64);
/// let j = nb.add_loop("j", 1, 64);
/// let a = nb.array("a", &[64, 64]);
/// let b = nb.array("b", &[64, 64]);
/// nb.read(b, &[sub(i), sub(j)]);
/// nb.write(a, &[sub(j), sub(i)]);
/// let nest = nb.finish().unwrap();
/// let layout = MemoryLayout::contiguous(&nest);
///
/// let out = TilingOptimizer::new(CacheSpec::direct_mapped(1024, 32))
///     .optimize(&nest, &layout)
///     .unwrap();
/// assert!(out.after.replacement_ratio() < out.before.replacement_ratio() / 3.0);
/// ```
pub struct TilingOptimizer {
    /// The cache hierarchy the objective weighs misses against. A
    /// one-level legacy hierarchy reproduces the paper's single-cache
    /// search byte-for-byte.
    pub hierarchy: CacheHierarchy,
    pub sampling: SamplingConfig,
    pub ga: GaConfig,
    /// Optional process-wide displacement store shared across requests
    /// (wired in by the runtime layer; `None` keeps the search fully
    /// self-contained). Results are byte-identical either way.
    pub provider: Option<SharedDisplacements>,
}

impl TilingOptimizer {
    pub fn new(cache: CacheSpec) -> Self {
        TilingOptimizer::for_hierarchy(CacheHierarchy::single(cache))
    }

    /// A hierarchy-aware optimiser: the GA minimises the latency-weighted
    /// replacement cost over all levels.
    pub fn for_hierarchy(hierarchy: CacheHierarchy) -> Self {
        TilingOptimizer {
            hierarchy,
            sampling: SamplingConfig::paper(),
            ga: GaConfig::default(),
            provider: None,
        }
    }

    /// Build the shared evaluation engine for a search over this
    /// configuration.
    pub fn engine(&self, nest: &LoopNest, layout: &MemoryLayout) -> EvalEngine {
        EvalEngine::new_hierarchy_shared(
            &self.hierarchy,
            nest,
            layout,
            self.sampling,
            self.ga.seed,
            self.provider.as_ref().map(SharedDisplacements::provider),
        )
    }

    /// Search near-optimal tile sizes. Errors when rectangular tiling is
    /// illegal for the nest.
    pub fn optimize(
        &self,
        nest: &LoopNest,
        layout: &MemoryLayout,
    ) -> Result<TilingOutcome, String> {
        self.optimize_traced(nest, layout).map(|(outcome, _)| outcome)
    }

    /// As [`Self::optimize`] but also returning the full GA trace (for the
    /// convergence experiments).
    pub fn optimize_traced(
        &self,
        nest: &LoopNest,
        layout: &MemoryLayout,
    ) -> Result<(TilingOutcome, GaResult), String> {
        if let TilingLegality::Illegal { reason } = rectangular_tiling_legality(nest) {
            return Err(format!("tiling `{}` is illegal: {reason}", nest.name));
        }
        let engine = self.engine(nest, layout);
        let objective = TilingObjective::new(&engine);
        let ga = run_ga(&Domain::new(nest.spans()), &objective, &self.ga);
        let tiles = TileSizes(ga.best_values.clone());
        let before = objective.estimate_untiled();
        let after = objective.estimate(&tiles);
        Ok((TilingOutcome { tiles, before, after, ga: GaSummary::from(&ga) }, ga))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_loopnest::builder::{sub, NestBuilder};

    /// Small transpose with heavy replacement misses in a tiny cache.
    fn t2d(n: i64) -> LoopNest {
        let mut nb = NestBuilder::new(format!("t2d_{n}"));
        let i = nb.add_loop("i", 1, n);
        let j = nb.add_loop("j", 1, n);
        let a = nb.array("a", &[n, n]);
        let b = nb.array("b", &[n, n]);
        nb.read(b, &[sub(i), sub(j)]);
        nb.write(a, &[sub(j), sub(i)]);
        nb.finish().unwrap()
    }

    #[test]
    fn ga_tiling_removes_transpose_misses() {
        let nest = t2d(64);
        let layout = MemoryLayout::contiguous(&nest);
        // 1 KB cache, 32 B lines: untiled 64×64 transpose thrashes.
        let opt = TilingOptimizer::new(CacheSpec::direct_mapped(1024, 32));
        let out = opt.optimize(&nest, &layout).expect("legal");
        let before = out.before.replacement_ratio();
        let after = out.after.replacement_ratio();
        assert!(before > 0.2, "untiled transpose must thrash (got {before})");
        assert!(
            after < before / 3.0,
            "tiling must slash replacement misses: {before} -> {after} tiles {}",
            out.tiles
        );
    }

    #[test]
    fn illegal_nest_is_rejected() {
        // x(i,j) = x(i-1,j+1): distance (1,-1) — not fully permutable.
        let mut nb = NestBuilder::new("skew");
        let i = nb.add_loop("i", 2, 10);
        let j = nb.add_loop("j", 1, 9);
        let x = nb.array("x", &[10, 10]);
        nb.read(x, &[sub(i).minus(1), sub(j).plus(1)]);
        nb.write(x, &[sub(i), sub(j)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let opt = TilingOptimizer::new(CacheSpec::direct_mapped(1024, 32));
        assert!(opt.optimize(&nest, &layout).is_err());
    }

    #[test]
    fn objective_is_deterministic() {
        let nest = t2d(32);
        let layout = MemoryLayout::contiguous(&nest);
        let engine = EvalEngine::new(
            cme_core::CmeModel::new(CacheSpec::direct_mapped(512, 32)),
            &nest,
            &layout,
            SamplingConfig::paper(),
            42,
        );
        let obj = TilingObjective::new(&engine);
        assert_eq!(obj.cost(&[8, 8]), obj.cost(&[8, 8]));
        assert_eq!(obj.cost(&[32, 5]), obj.cost(&[32, 5]));
    }
}
