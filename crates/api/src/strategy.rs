//! The search dispatcher: one capability table, one `match`.
//!
//! Every optimiser in the suite — §3 GA tiling, §4.3 GA padding (plain,
//! then-tile, joint), the interchange extension, the exhaustive oracle,
//! the §5 related-work baselines, the PCOT-style cache-oblivious
//! derivation and Cashman-style latency-based probing — runs through
//! [`search`] over one problem type and returns one outcome type. What a
//! family can take is declared once, in [`StrategySpec::needs`]: every
//! capability 400 and tiling-legality 422 is read off that table, before
//! the family's own search starts.

use crate::error::ApiError;
use crate::outcome::{Outcome, Transform};
use crate::problem::Problem;
use crate::request::{BaselineKind, PaddingMode, StrategySpec};
use cme_analysis::legality::tiling_reason;
use cme_analysis::{analyze, summarize, tiling_violation};
use cme_core::MissEstimate;
use cme_loopnest::TileSizes;
use cme_tileopt::{
    baselines, exhaustive_search_on, optimize_with_interchange, PaddingOptimizer, PaddingSpace,
    TilingOptimizer,
};
use std::time::Instant;

/// Every family, once, with the [`StrategySpec::parse_token`] defaults
/// for its parameters — the rows of the capability table.
pub const FAMILIES: [StrategySpec; 11] = [
    StrategySpec::Tiling,
    StrategySpec::Padding { mode: PaddingMode::Pad },
    StrategySpec::Padding { mode: PaddingMode::PadThenTile },
    StrategySpec::Padding { mode: PaddingMode::Joint },
    StrategySpec::Interchange,
    StrategySpec::Exhaustive { step: 1, max_evals: 100_000 },
    StrategySpec::Baseline { kind: BaselineKind::LrwSquare },
    StrategySpec::Baseline { kind: BaselineKind::Tss },
    StrategySpec::Baseline { kind: BaselineKind::FixedFraction { fraction: 0.5 } },
    StrategySpec::CacheOblivious,
    StrategySpec::LatencyBased,
];

/// One row of the capability table: what a family needs from the nest
/// before its search may start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Needs {
    /// The capability name of a family that reasons over whole boxes and
    /// so takes rectangular loop bounds only; an affine (triangular) nest
    /// answers a 400 naming it. `None`: affine bounds are fine.
    pub box_only: Option<&'static str>,
    /// The family emits a rectangular tiling, so a nest whose dependences
    /// forbid one answers a 422 before any search.
    pub tileable: bool,
}

impl StrategySpec {
    /// This family's row of the capability table.
    pub fn needs(&self) -> Needs {
        let (box_only, tileable) = match self {
            StrategySpec::Tiling | StrategySpec::Baseline { .. } | StrategySpec::LatencyBased => {
                (None, true)
            }
            // Blocks only the dimensions no dependence reverses: legal by
            // construction.
            StrategySpec::CacheOblivious => (None, false),
            // Padding GAs size their search space from rectangular array
            // extents; a triangular nest would be scored against a layout
            // family it never uses.
            StrategySpec::Padding { mode: PaddingMode::Pad } => (Some("padding search"), false),
            StrategySpec::Padding { .. } => (Some("padding search"), true),
            // Permuting loops whose bounds reference outer induction
            // variables is not a plain reorder. The search tries every
            // legal order and answers its own 422 when none tiles.
            StrategySpec::Interchange => (Some("interchange search"), false),
            // The sweep's eval budget and landscape are declared over the
            // rectangular hull.
            StrategySpec::Exhaustive { .. } => (Some("exhaustive tile sweep"), true),
        };
        Needs { box_only, tileable }
    }
}

/// The families that take affine bounds, as the box-only 400 suggests
/// them: each name up to its `:`, in table order, without repeats.
fn affine_capable_families() -> String {
    let mut names: Vec<String> = Vec::new();
    for spec in FAMILIES.iter().filter(|spec| spec.needs().box_only.is_none()) {
        let name = spec.name();
        let family = name.split(':').next().unwrap_or(&name).to_string();
        if !names.contains(&family) {
            names.push(family);
        }
    }
    match names.split_last() {
        Some((last, [])) => last.clone(),
        Some((last, rest)) => format!("{} or {last}", rest.join(", ")),
        None => String::new(),
    }
}

/// Run the search `spec` selects over `problem`, minimising CME-predicted
/// replacement misses. Five steps, in order: the box-only gate, one
/// dependence analysis of the nest, the tileable gate on that analysis,
/// the family's search, and one [`Outcome`] whose `legality` digests the
/// same analysis.
pub fn search(spec: &StrategySpec, problem: &Problem) -> Result<Outcome, ApiError> {
    let started = Instant::now();
    let nest = &problem.nest;
    let needs = spec.needs();
    if let (Some(capability), false) = (needs.box_only, nest.is_rectangular()) {
        return Err(ApiError::BadRequest(format!(
            "{}: the {capability} supports rectangular loop bounds only, but this nest has affine \
             (triangular) bounds — use the {} families",
            problem.source,
            affine_capable_families()
        )));
    }
    let analysis = analyze(nest);
    if needs.tileable {
        if let Some(violation) = tiling_violation(&analysis) {
            return Err(ApiError::IllegalTransform(format!(
                "tiling `{}` is illegal: {}",
                nest.name,
                tiling_reason(nest, &violation)
            )));
        }
    }

    let tiler = TilingOptimizer {
        hierarchy: problem.hierarchy.clone(),
        sampling: problem.sampling,
        ga: problem.ga,
        provider: problem.displacements.clone(),
    };
    let padder = PaddingOptimizer {
        hierarchy: problem.hierarchy.clone(),
        space: PaddingSpace::default(),
        sampling: problem.sampling,
        ga: problem.ga,
        provider: problem.displacements.clone(),
    };
    // Families that derive one tile vector score it on one fresh engine.
    let score = |tiles: TileSizes| -> Result<(Transform, MissEstimate, MissEstimate), ApiError> {
        tiles.validate(nest).map_err(|e| ApiError::IllegalTransform(e.to_string()))?;
        let engine = tiler.engine(nest, &problem.layout);
        let before = engine.estimate_canonical(None);
        let after = engine.estimate_canonical(Some(&tiles));
        Ok((Transform::tiles(tiles), before, after))
    };

    // Every optimiser's `before` uses the canonical seeding
    // (`estimate_canonical(None)`), so all families report one identical
    // baseline for the same request.
    let (transform, before, after, ga, explored) = match spec {
        StrategySpec::Tiling => {
            let out = tiler.optimize(nest, &problem.layout).map_err(ApiError::IllegalTransform)?;
            (Transform::tiles(out.tiles), out.before, out.after, Some(out.ga), None)
        }
        StrategySpec::Padding { mode: PaddingMode::Pad } => {
            let out = padder.optimize(nest);
            let transform = Transform { pads: Some(out.values), ..Transform::default() };
            (transform, out.original, out.padded, Some(out.ga), None)
        }
        StrategySpec::Padding { mode: PaddingMode::PadThenTile } => {
            let out = padder.optimize_then_tile(nest).map_err(ApiError::IllegalTransform)?;
            let tiled = out.tiled.expect("optimize_then_tile always tiles");
            let transform =
                Transform { pads: Some(out.values), tiles: Some(tiled.tiles), permutation: None };
            (transform, out.original, tiled.after, Some(tiled.ga), None)
        }
        StrategySpec::Padding { mode: PaddingMode::Joint } => {
            let out = padder.optimize_joint(nest).map_err(ApiError::IllegalTransform)?;
            let transform =
                Transform { pads: Some(out.pads), tiles: Some(out.tiles), permutation: None };
            (transform, out.before, out.after, Some(out.ga), None)
        }
        StrategySpec::Interchange => {
            // `before` is the *source order* untiled; each legal
            // permutation gets its own engine, since the analysis is
            // per order.
            let before = tiler.engine(nest, &problem.layout).estimate_canonical(None);
            let out =
                optimize_with_interchange(&tiler, nest).map_err(ApiError::IllegalTransform)?;
            let transform = Transform {
                permutation: Some(out.permutation),
                tiles: Some(out.tiling.tiles),
                pads: None,
            };
            let explored = Some(out.explored as u64);
            (transform, before, out.tiling.after, Some(out.tiling.ga), explored)
        }
        StrategySpec::Exhaustive { step, max_evals } => {
            // The whole sweep, the baseline and the final estimate borrow
            // one engine.
            let engine = tiler.engine(nest, &problem.layout);
            let res =
                exhaustive_search_on(&engine, *step, *max_evals).map_err(ApiError::TooLarge)?;
            let before = engine.estimate_canonical(None);
            let after = engine.estimate_canonical(Some(&res.best_tiles));
            let explored = Some(res.landscape.len() as u64);
            (Transform::tiles(res.best_tiles), before, after, None, explored)
        }
        StrategySpec::Baseline { kind } => {
            let l1 = problem.hierarchy.l1();
            let tiles = match *kind {
                BaselineKind::LrwSquare => baselines::lrw_square(nest, &problem.layout, l1),
                BaselineKind::Tss => baselines::tss_coleman_mckinley(nest, &problem.layout, l1),
                BaselineKind::FixedFraction { fraction } => {
                    if !(fraction > 0.0 && fraction <= 1.0) {
                        return Err(ApiError::BadRequest(format!(
                            "fixed-fraction baseline needs a fraction in (0, 1], got {fraction}"
                        )));
                    }
                    baselines::fixed_fraction(nest, l1, fraction)
                }
            };
            let (transform, before, after) = score(tiles)?;
            (transform, before, after, None, None)
        }
        // The derivation never reads the request's hierarchy: swapping it
        // changes the scores, not the transform.
        StrategySpec::CacheOblivious => {
            let res = cme_tileopt::cache_oblivious_tiles(nest);
            let (transform, before, after) = score(res.tiles)?;
            (transform, before, after, None, Some(res.halvings))
        }
        // `explored` records the simulator probe count.
        StrategySpec::LatencyBased => {
            let res = cme_tileopt::latency_based_tiles(nest, &problem.hierarchy);
            let (transform, before, after) = score(res.tiles)?;
            (transform, before, after, None, Some(res.probes))
        }
    };
    Ok(Outcome {
        strategy: spec.name(),
        kernel: nest.name.clone(),
        cache: problem.hierarchy.clone(),
        transform,
        before,
        after,
        ga,
        explored,
        legality: Some(summarize(&analysis)),
        wall_ms: started.elapsed().as_millis() as u64,
    })
}
