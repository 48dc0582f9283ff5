//! Exhaustive tile search — the "optimal" the paper compares against
//! (§4.3: "Our technique is compared against the optimal solution
//! (counting replacement misses)"). Only feasible for small loop bounds;
//! the GA-vs-optimal experiments use it as ground truth.

use crate::problem::TilingObjective;
use cme_core::{CacheSpec, CmeModel, EvalEngine, SamplingConfig};
use cme_ga::Objective;
use cme_loopnest::{LoopNest, MemoryLayout, TileSizes};
use rayon::prelude::*;

/// Result of an exhaustive sweep over every tile vector.
#[derive(Debug, Clone)]
pub struct ExhaustiveResult {
    pub best_tiles: TileSizes,
    pub best_cost: f64,
    /// Every (tile vector, cost) evaluated, in lexicographic order.
    pub landscape: Vec<(Vec<i64>, f64)>,
}

/// Evaluate every tile vector in `[1,U_1]×…×[1,U_d]` (or a strided subset
/// via `step`) with a fixed sampling seed and return the optimum, refusing
/// sweeps above `max_evals` evaluations and strides below 1.
pub fn exhaustive_search(
    nest: &LoopNest,
    layout: &MemoryLayout,
    cache: CacheSpec,
    sampling: SamplingConfig,
    step: i64,
    max_evals: u64,
) -> Result<ExhaustiveResult, String> {
    let engine = EvalEngine::new(CmeModel::new(cache), nest, layout, sampling, 0xEE);
    exhaustive_search_on(&engine, step, max_evals)
}

/// As [`exhaustive_search`] on a prebuilt engine — every tile vector in
/// the sweep borrows the same per-kernel analysis, and per-tile seeds
/// derive from the engine's.
pub fn exhaustive_search_on(
    engine: &EvalEngine,
    step: i64,
    max_evals: u64,
) -> Result<ExhaustiveResult, String> {
    if step < 1 {
        return Err(format!("exhaustive sweep stride must be ≥ 1, got {step}"));
    }
    let spans = engine.nest().spans();
    let total: u64 = spans.iter().map(|&s| ((s + step - 1) / step) as u64).product();
    if total > max_evals {
        return Err(format!("exhaustive sweep of {total} tilings exceeds cap {max_evals}"));
    }
    // Enumerate the grid in lexicographic order (odometer with stride,
    // clamped to include the full span), then score it as one
    // order-preserving parallel batch — the sweep's candidate-level
    // parallelism, like a GA generation's.
    let mut grid = Vec::with_capacity(total as usize);
    let mut tiles: Vec<i64> = vec![1; spans.len()];
    'odometer: loop {
        grid.push(tiles.clone());
        let mut d = spans.len();
        loop {
            if d == 0 {
                break 'odometer;
            }
            d -= 1;
            if tiles[d] < spans[d] {
                tiles[d] = (tiles[d] + step).min(spans[d]);
                for t in d + 1..spans.len() {
                    tiles[t] = 1;
                }
                break;
            }
            tiles[d] = spans[d]; // will be reset unless odometer ends
        }
    }
    let objective = TilingObjective::new(engine);
    let costs: Vec<f64> = grid.par_iter().map(|t| objective.cost(t)).collect();
    let landscape: Vec<(Vec<i64>, f64)> = grid.into_iter().zip(costs).collect();
    let (bt, bc) = landscape
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are finite"))
        .expect("nonempty landscape")
        .clone();
    Ok(ExhaustiveResult { best_tiles: TileSizes(bt), best_cost: bc, landscape })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_loopnest::builder::{sub, NestBuilder};

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
    fn sweep_covers_the_grid() {
        let nest = t2d(6);
        let layout = MemoryLayout::contiguous(&nest);
        let res = exhaustive_search(
            &nest,
            &layout,
            CacheSpec::direct_mapped(128, 16),
            SamplingConfig::paper(),
            1,
            10_000,
        )
        .unwrap();
        assert_eq!(res.landscape.len(), 36);
        assert!(res.best_cost <= res.landscape[0].1);
        assert!(res.landscape.iter().any(|(t, _)| t == &vec![6, 6]));
    }

    #[test]
    fn ga_is_near_optimal_vs_exhaustive() {
        // The paper's core claim in miniature: GA ≈ optimum.
        let nest = t2d(16);
        let layout = MemoryLayout::contiguous(&nest);
        let cache = CacheSpec::direct_mapped(256, 32);
        let exact =
            exhaustive_search(&nest, &layout, cache, SamplingConfig::paper(), 1, 10_000).unwrap();
        let opt = crate::problem::TilingOptimizer::new(cache);
        let out = opt.optimize(&nest, &layout).unwrap();
        let volume = (nest.accesses()) as f64;
        let ga_ratio = out.ga.best_cost / volume;
        let opt_ratio = exact.best_cost / volume;
        assert!(
            ga_ratio <= opt_ratio + 0.02,
            "GA replacement ratio {ga_ratio:.4} must be within 2% of optimal {opt_ratio:.4}"
        );
    }
}
