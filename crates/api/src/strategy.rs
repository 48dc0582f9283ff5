//! The polymorphic search-strategy layer: one trait, seven families.
//!
//! Every optimiser in the suite — §3 GA tiling, §4.3 GA padding (plain,
//! then-tile, joint), the interchange extension, the exhaustive oracle,
//! the §5 related-work baselines, the PCOT-style cache-oblivious
//! derivation and Cashman-style latency-based probing — is adapted here
//! to one signature over
//! one problem type, returning one outcome type. Search strategy becomes a
//! *value* (see [`StrategySpec`]): serialisable, selectable per request,
//! and open for extension by implementing [`SearchStrategy`] downstream.

use crate::error::ApiError;
use crate::outcome::{Outcome, Transform};
use crate::problem::Problem;
use crate::request::{BaselineKind, PaddingMode, StrategySpec};
use cme_analysis::rectangular_tiling_legality;
use cme_loopnest::deps::TilingLegality;
use cme_loopnest::TileSizes;
use cme_tileopt::problem::GaSummary;
use cme_tileopt::{
    baselines, exhaustive_search_on, optimize_with_interchange, PaddingOptimizer, TilingOptimizer,
};
use std::time::Instant;

/// A search over the transform space of a [`Problem`], minimising
/// CME-predicted replacement misses.
pub trait SearchStrategy: Sync {
    /// Stable identifier recorded in [`Outcome::strategy`].
    fn name(&self) -> String;

    /// Run the search.
    fn search(&self, problem: &Problem) -> Result<Outcome, ApiError>;
}

/// Resolve a serialisable strategy selector into a runnable strategy.
pub fn build_strategy(spec: &StrategySpec) -> Box<dyn SearchStrategy> {
    match spec {
        StrategySpec::Tiling => Box::new(TilingStrategy),
        StrategySpec::Padding { mode } => Box::new(PaddingStrategy { mode: *mode }),
        StrategySpec::Interchange => Box::new(InterchangeStrategy),
        StrategySpec::Exhaustive { step, max_evals } => {
            Box::new(ExhaustiveStrategy { step: *step, max_evals: *max_evals })
        }
        StrategySpec::Baseline { kind } => Box::new(BaselineStrategy { kind: *kind }),
        StrategySpec::CacheOblivious => Box::new(CacheObliviousStrategy),
        StrategySpec::LatencyBased => Box::new(LatencyBasedStrategy),
    }
}

/// Common outcome scaffolding: stamps identity, timing and telemetry.
struct OutcomeBuilder<'a> {
    problem: &'a Problem,
    strategy: String,
    started: Instant,
}

impl<'a> OutcomeBuilder<'a> {
    fn new(strategy: &dyn SearchStrategy, problem: &'a Problem) -> Self {
        OutcomeBuilder { problem, strategy: strategy.name(), started: Instant::now() }
    }

    fn finish(
        self,
        transform: Transform,
        before: cme_core::MissEstimate,
        after: cme_core::MissEstimate,
        ga: Option<GaSummary>,
        explored: Option<u64>,
    ) -> Outcome {
        Outcome {
            strategy: self.strategy,
            kernel: self.problem.nest.name.clone(),
            cache: self.problem.hierarchy.clone(),
            transform,
            before,
            after,
            ga,
            explored,
            legality: None,
            wall_ms: self.started.elapsed().as_millis() as u64,
        }
    }
}

fn tiling_optimizer(problem: &Problem) -> TilingOptimizer {
    TilingOptimizer {
        hierarchy: problem.hierarchy.clone(),
        sampling: problem.sampling,
        ga: problem.ga,
        provider: problem.displacements.clone(),
    }
}

fn padding_optimizer(problem: &Problem) -> PaddingOptimizer {
    let mut opt = PaddingOptimizer::for_hierarchy(problem.hierarchy.clone());
    opt.sampling = problem.sampling;
    opt.ga = problem.ga;
    opt.provider = problem.displacements.clone();
    opt
}

fn require_tileable(problem: &Problem) -> Result<(), ApiError> {
    if let TilingLegality::Illegal { reason } = rectangular_tiling_legality(&problem.nest) {
        return Err(ApiError::IllegalTransform(format!(
            "tiling `{}` is illegal: {reason}",
            problem.nest.name
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// §3: GA tile-size search
// ---------------------------------------------------------------------------

pub struct TilingStrategy;

impl SearchStrategy for TilingStrategy {
    fn name(&self) -> String {
        StrategySpec::Tiling.name()
    }

    fn search(&self, problem: &Problem) -> Result<Outcome, ApiError> {
        let b = OutcomeBuilder::new(self, problem);
        let out = tiling_optimizer(problem)
            .optimize(&problem.nest, &problem.layout)
            .map_err(ApiError::IllegalTransform)?;
        // `out.before` uses the canonical seeding (TilingObjective::
        // estimate_untiled == Problem::baseline_estimate), so every
        // strategy family reports an identical baseline for the same
        // request and no re-estimation is needed here.
        Ok(b.finish(Transform::tiles(out.tiles), out.before, out.after, Some(out.ga), None))
    }
}

// ---------------------------------------------------------------------------
// §4.3: GA padding search (three modes)
// ---------------------------------------------------------------------------

pub struct PaddingStrategy {
    pub mode: PaddingMode,
}

impl SearchStrategy for PaddingStrategy {
    fn name(&self) -> String {
        StrategySpec::Padding { mode: self.mode }.name()
    }

    fn search(&self, problem: &Problem) -> Result<Outcome, ApiError> {
        // Padding GAs size their search space from rectangular array
        // extents; a triangular nest would be scored against a layout
        // family it never uses.
        problem.require_rectangular("padding search")?;
        let b = OutcomeBuilder::new(self, problem);
        let opt = padding_optimizer(problem);
        // The optimisers' `original`/`before` fields use the canonical
        // seeding (CmeModel::estimate_nest), so they equal
        // Problem::baseline_estimate for this request — reused directly.
        match self.mode {
            PaddingMode::Pad => {
                let out = opt.optimize(&problem.nest);
                let transform = Transform { pads: Some(out.values), ..Transform::default() };
                Ok(b.finish(transform, out.original, out.padded, Some(out.ga), None))
            }
            PaddingMode::PadThenTile => {
                let out =
                    opt.optimize_then_tile(&problem.nest).map_err(ApiError::IllegalTransform)?;
                let tiled = out.tiled.expect("optimize_then_tile always tiles");
                let transform = Transform {
                    pads: Some(out.values),
                    tiles: Some(tiled.tiles),
                    permutation: None,
                };
                Ok(b.finish(transform, out.original, tiled.after, Some(tiled.ga), None))
            }
            PaddingMode::Joint => {
                let out =
                    opt.optimize_joint_full(&problem.nest).map_err(ApiError::IllegalTransform)?;
                let transform =
                    Transform { pads: Some(out.pads), tiles: Some(out.tiles), permutation: None };
                Ok(b.finish(transform, out.before, out.after, Some(out.ga), None))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Extension: legal permutations × GA tiling
// ---------------------------------------------------------------------------

pub struct InterchangeStrategy;

impl SearchStrategy for InterchangeStrategy {
    fn name(&self) -> String {
        StrategySpec::Interchange.name()
    }

    fn search(&self, problem: &Problem) -> Result<Outcome, ApiError> {
        // Permuting loops whose bounds reference outer induction
        // variables is not a plain reorder (the bounds would have to be
        // re-derived); refuse rather than emit an illegal permutation.
        problem.require_rectangular("interchange search")?;
        let b = OutcomeBuilder::new(self, problem);
        // `before` is the *source order* untiled — the interchange search
        // itself reports its best permutation's estimates (each legal
        // permutation gets its own engine: the analysis is per-order).
        let before = problem.baseline_estimate();
        let out = optimize_with_interchange(&tiling_optimizer(problem), &problem.nest)
            .map_err(ApiError::IllegalTransform)?;
        let transform = Transform {
            permutation: Some(out.permutation),
            tiles: Some(out.tiling.tiles),
            pads: None,
        };
        Ok(b.finish(
            transform,
            before,
            out.tiling.after,
            Some(out.tiling.ga),
            Some(out.explored as u64),
        ))
    }
}

// ---------------------------------------------------------------------------
// Ground truth: exhaustive tile sweep
// ---------------------------------------------------------------------------

pub struct ExhaustiveStrategy {
    pub step: i64,
    pub max_evals: u64,
}

impl SearchStrategy for ExhaustiveStrategy {
    fn name(&self) -> String {
        StrategySpec::Exhaustive { step: self.step, max_evals: self.max_evals }.name()
    }

    fn search(&self, problem: &Problem) -> Result<Outcome, ApiError> {
        // The sweep's eval budget and landscape are declared over the
        // rectangular hull; on a triangular space the "ground truth"
        // label would be a misdeclaration.
        problem.require_rectangular("exhaustive tile sweep")?;
        let b = OutcomeBuilder::new(self, problem);
        require_tileable(problem)?;
        // One shared engine: the whole sweep, the baseline and the final
        // estimate borrow the same per-kernel analysis.
        let engine = problem.engine();
        let res =
            exhaustive_search_on(&engine, self.step, self.max_evals).map_err(ApiError::TooLarge)?;
        let before = engine.estimate_canonical(None);
        let after = engine.estimate_canonical(Some(&res.best_tiles));
        let explored = res.landscape.len() as u64;
        Ok(b.finish(Transform::tiles(res.best_tiles), before, after, None, Some(explored)))
    }
}

// ---------------------------------------------------------------------------
// §5 related-work heuristics
// ---------------------------------------------------------------------------

pub struct BaselineStrategy {
    pub kind: BaselineKind,
}

impl SearchStrategy for BaselineStrategy {
    fn name(&self) -> String {
        StrategySpec::Baseline { kind: self.kind }.name()
    }

    fn search(&self, problem: &Problem) -> Result<Outcome, ApiError> {
        let b = OutcomeBuilder::new(self, problem);
        require_tileable(problem)?;
        let tiles: TileSizes = match self.kind {
            BaselineKind::LrwSquare => {
                baselines::lrw_square(&problem.nest, &problem.layout, problem.l1())
            }
            BaselineKind::Tss => {
                baselines::tss_coleman_mckinley(&problem.nest, &problem.layout, problem.l1())
            }
            BaselineKind::FixedFraction { fraction } => {
                if !(fraction > 0.0 && fraction <= 1.0) {
                    return Err(ApiError::BadRequest(format!(
                        "fixed-fraction baseline needs a fraction in (0, 1], got {fraction}"
                    )));
                }
                baselines::fixed_fraction(&problem.nest, problem.l1(), fraction)
            }
        };
        tiles.validate(&problem.nest).map_err(|e| ApiError::IllegalTransform(e.to_string()))?;
        let engine = problem.engine();
        let before = engine.estimate_canonical(None);
        let after = engine.estimate_canonical(Some(&tiles));
        Ok(b.finish(Transform::tiles(tiles), before, after, None, None))
    }
}

// ---------------------------------------------------------------------------
// Cache-oblivious divide and conquer (PCOT-style)
// ---------------------------------------------------------------------------

/// Derives tiles from the nest alone — recursive halving of the longest
/// legal dimension to a machine-independent base case. The request's
/// hierarchy never reaches the derivation (`cache_oblivious_tiles` takes
/// only the nest); it scores the result like any other family, so
/// swapping the hierarchy changes the estimates but not the transform.
/// Dimensions whose carried dependences forbid blocking keep their full
/// span, so no tiling-legality gate is needed: the emitted transform is
/// legal by construction (pinned by the legality-enforcement test).
pub struct CacheObliviousStrategy;

impl SearchStrategy for CacheObliviousStrategy {
    fn name(&self) -> String {
        StrategySpec::CacheOblivious.name()
    }

    fn search(&self, problem: &Problem) -> Result<Outcome, ApiError> {
        let b = OutcomeBuilder::new(self, problem);
        let res = cme_tileopt::cache_oblivious_tiles(&problem.nest);
        res.tiles.validate(&problem.nest).map_err(|e| ApiError::IllegalTransform(e.to_string()))?;
        let engine = problem.engine();
        let before = engine.estimate_canonical(None);
        let after = engine.estimate_canonical(Some(&res.tiles));
        Ok(b.finish(Transform::tiles(res.tiles), before, after, None, Some(res.halvings)))
    }
}

// ---------------------------------------------------------------------------
// Latency-based tiling (Cashman-style miss-ratio probing)
// ---------------------------------------------------------------------------

/// Probes miss-ratio scaling on a budgeted shrunk instance through the
/// exact simulator and fits the knee — O(probes) simulator passes
/// instead of a GA run. `Outcome::explored` records the probe count.
pub struct LatencyBasedStrategy;

impl SearchStrategy for LatencyBasedStrategy {
    fn name(&self) -> String {
        StrategySpec::LatencyBased.name()
    }

    fn search(&self, problem: &Problem) -> Result<Outcome, ApiError> {
        let b = OutcomeBuilder::new(self, problem);
        require_tileable(problem)?;
        let res = cme_tileopt::latency_based_tiles(&problem.nest, &problem.hierarchy);
        res.tiles.validate(&problem.nest).map_err(|e| ApiError::IllegalTransform(e.to_string()))?;
        let engine = problem.engine();
        let before = engine.estimate_canonical(None);
        let after = engine.estimate_canonical(Some(&res.tiles));
        Ok(b.finish(Transform::tiles(res.tiles), before, after, None, Some(res.probes)))
    }
}
