//! Latency-based tile selection (Cashman-style miss-ratio probing).
//!
//! "Latency Based Tiling" observes that the miss ratio of a tiled nest,
//! as a function of the tile size, is flat while one tile's working set
//! fits the cache and climbs steeply past the knee — so the *measured*
//! scaling curve of a cheap probe instance pins the best tile size
//! without searching the full space. This module reproduces that
//! heuristic over the suite's exact LRU simulator ([`cme_cachesim`]):
//!
//! 1. **Shrink** the nest to a probe instance whose total access count
//!    fits [`PROBE_ACCESS_BUDGET`] (halving the largest span until it
//!    does) — the knee position depends on the tile working set versus
//!    the cache, not on the outer trip counts, so the shrunk curve is a
//!    faithful proxy as long as the probe spans still straddle the knee.
//! 2. **Probe** a geometric ladder of square tile sizes on the two
//!    innermost loops, simulating each candidate once per hierarchy
//!    level (access-through levels are independent, so per-level
//!    single-cache simulators are exact) and recording the
//!    latency-weighted replacement cost.
//! 3. **Fit the knee**: pick the largest tile whose probed cost stays
//!    within [`KNEE_SLACK`] of the minimum — the last flat point before
//!    the climb, which maximises tile size (loop overhead, reuse span)
//!    at no measured miss cost.
//!
//! The answer costs O(probes) simulator passes — a handful — instead of
//! a GA run; the probe count is surfaced so outcomes can report it in
//! `explored`.

use cme_cachesim::{CacheGeometry, Simulator};
use cme_core::CacheHierarchy;
use cme_loopnest::trace::for_each_access;
use cme_loopnest::{LoopNest, MemoryLayout, TileSizes};

/// Per-probe access budget: the shrunk instance is halved until its
/// trace (iterations × references) fits this many accesses, bounding
/// every probe's simulation cost independent of the requested problem
/// size.
pub const PROBE_ACCESS_BUDGET: u64 = 262_144;

/// Knee tolerance: the chosen tile is the largest whose probed cost is
/// within this fraction of the cheapest probe.
pub const KNEE_SLACK: f64 = 0.10;

/// What the probe run measured and chose.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyResult {
    /// The chosen rectangular tile sizes (full span = untiled).
    pub tiles: TileSizes,
    /// Number of distinct candidate tilings simulated.
    pub probes: u64,
    /// The measured ladder: `(tile side, weighted replacement cost)` per
    /// probe, in ascending tile order.
    pub ladder: Vec<(i64, f64)>,
}

/// Shrink a nest until its trace fits `budget` accesses: repeatedly
/// halve the largest loop span (keeping `lo`). Subscript ranges over the
/// shrunk box are a subset of the original ranges, so the result is
/// always a valid nest over the same arrays.
pub fn shrink_to_budget(nest: &LoopNest, budget: u64) -> LoopNest {
    let mut probe = nest.clone();
    while probe.accesses() > budget {
        let Some(k) = (0..probe.loops.len())
            .filter(|&k| probe.loops[k].span() >= 2)
            .max_by_key(|&k| (probe.loops[k].span(), std::cmp::Reverse(k)))
        else {
            break;
        };
        let half = (probe.loops[k].span() + 1) / 2;
        probe.loops[k].hi = probe.loops[k].lo + half - 1;
    }
    probe
}

/// Latency-weighted replacement cost of one simulated probe: every
/// hierarchy level observes the full trace independently (access-through
/// semantics), so the cost is Σ per level of replacement misses × that
/// level's miss latency — the simulator-side counterpart of
/// `MissEstimate::weighted_cost`.
fn probe_cost(
    nest: &LoopNest,
    layout: &MemoryLayout,
    tiles: &TileSizes,
    hierarchy: &CacheHierarchy,
) -> f64 {
    let mut sims: Vec<(Simulator, f64)> = hierarchy
        .levels()
        .iter()
        .map(|l| {
            let geo = CacheGeometry { size: l.spec.size, line: l.spec.line, assoc: l.spec.assoc };
            (Simulator::new(geo), l.miss_latency)
        })
        .collect();
    let mut cost = 0.0;
    for_each_access(nest, layout, Some(tiles), |a| {
        for (sim, latency) in &mut sims {
            if sim.access(a.addr) == cme_cachesim::AccessOutcome::ReplacementMiss {
                cost += *latency;
            }
        }
    });
    cost
}

/// Probe miss-ratio scaling and pick tile sizes for the two innermost
/// loops. Deterministic for a fixed nest + hierarchy; the hierarchy is
/// read (this family is latency-*based*, not cache-oblivious), but only
/// O(probes) simulator passes are spent.
pub fn latency_based_tiles(nest: &LoopNest, hierarchy: &CacheHierarchy) -> LatencyResult {
    let spans = nest.spans();
    let d = nest.depth();
    // The loops the ladder tiles: the innermost two (one for depth-1
    // nests) — the same protected band the §5 baselines use.
    let tiled_dims: Vec<usize> = if d >= 2 { vec![d - 2, d - 1] } else { vec![0] };

    let probe = shrink_to_budget(nest, PROBE_ACCESS_BUDGET);
    let probe_layout = MemoryLayout::contiguous(&probe);
    let probe_spans = probe.spans();

    // Geometric ladder up to the largest full span of the tiled band;
    // candidates beyond the probe spans collapse onto the probe-trivial
    // tiling and are deduplicated.
    let max_side = tiled_dims.iter().map(|&k| spans[k]).max().unwrap_or(1);
    let mut ladder_sides: Vec<i64> = Vec::new();
    let mut side = 2i64;
    while side < max_side {
        ladder_sides.push(side);
        side = side.saturating_mul(2);
    }
    ladder_sides.push(max_side);

    let mut seen: Vec<Vec<i64>> = Vec::new();
    let mut ladder: Vec<(i64, f64)> = Vec::new();
    for &t in &ladder_sides {
        let mut probe_tiles = probe_spans.clone();
        for &k in &tiled_dims {
            probe_tiles[k] = t.min(probe_spans[k]);
        }
        if seen.contains(&probe_tiles) {
            // Same probed tiling as an earlier rung (the shrunk instance
            // saturated): reuse its cost, spend no extra simulation.
            let cost = ladder.last().map_or(0.0, |&(_, c)| c);
            ladder.push((t, cost));
            continue;
        }
        let cost = probe_cost(&probe, &probe_layout, &TileSizes(probe_tiles.clone()), hierarchy);
        seen.push(probe_tiles);
        ladder.push((t, cost));
    }

    // Knee fit: the largest rung still within KNEE_SLACK of the minimum.
    let best = ladder.iter().map(|&(_, c)| c).fold(f64::INFINITY, f64::min);
    let chosen = ladder
        .iter()
        .rev()
        .find(|&&(_, c)| c <= best * (1.0 + KNEE_SLACK) + f64::EPSILON)
        .map_or(max_side, |&(t, _)| t);

    let mut tiles = spans.clone();
    for &k in &tiled_dims {
        tiles[k] = chosen.min(spans[k]);
    }
    LatencyResult { tiles: TileSizes(tiles), probes: seen.len() as u64, ladder }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_core::CacheSpec;
    use cme_kernels::linalg::mm;

    #[test]
    fn shrink_respects_the_budget_and_validates() {
        let nest = mm(300).unwrap(); // 27e6 iterations × 4 refs ≫ budget
        let probe = shrink_to_budget(&nest, PROBE_ACCESS_BUDGET);
        assert!(probe.accesses() <= PROBE_ACCESS_BUDGET);
        probe.validate().expect("shrunk nest stays valid");
        // Small nests pass through untouched.
        let tiny = mm(8).unwrap();
        assert_eq!(shrink_to_budget(&tiny, PROBE_ACCESS_BUDGET), tiny);
    }

    #[test]
    fn probing_is_deterministic_and_budgeted() {
        let nest = mm(128).unwrap();
        let hier = CacheHierarchy::single(CacheSpec::paper_8k());
        let a = latency_based_tiles(&nest, &hier);
        let b = latency_based_tiles(&nest, &hier);
        assert_eq!(a, b);
        assert!(a.probes >= 2, "the ladder probed more than one rung");
        assert!(a.probes as usize <= a.ladder.len());
        a.tiles.validate(&nest).expect("chosen tiles must be valid");
    }

    #[test]
    fn small_cache_prefers_smaller_tiles_than_large_cache() {
        let nest = mm(128).unwrap();
        let small = latency_based_tiles(&nest, &CacheHierarchy::single(CacheSpec::paper_8k()));
        let large = latency_based_tiles(&nest, &CacheHierarchy::single(CacheSpec::paper_32k()));
        let inner = nest.depth() - 1;
        assert!(small.tiles.0[inner] <= large.tiles.0[inner], "small {small:?} vs large {large:?}");
        // The knee exists: the small cache really does tile.
        assert!(small.tiles.0[inner] < nest.spans()[inner]);
    }
}
