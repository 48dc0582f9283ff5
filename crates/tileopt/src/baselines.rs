//! Classical tile-size selection baselines (related work, paper §5).
//!
//! The paper explicitly declines a head-to-head comparison ("due to the
//! different limitations of these techniques they cannot be compared with
//! the same benchmarks and same platform on an equal basis"). Because our
//! platform is a simulator + analytical model, we *can* compare on equal
//! footing — these are documented reconstructions of the classical
//! algorithms' tile-size choices, scored by the same CME estimator:
//!
//! * [`lrw_square`] — Lam/Rothberg/Wolf ESS-style: the largest square
//!   tile of the primary (row-crossing) array with no self-interference,
//!   found through the Euclidean sequence of the row stride modulo the
//!   cache size.
//! * [`tss_coleman_mckinley`] — Coleman/McKinley TSS-style: start from
//!   the Euclidean-sequence column heights and maximise the tile width so
//!   the working set stays within the effective cache.
//! * [`fixed_fraction`] — the folklore heuristic: equal tile sizes such
//!   that one tile's working set uses a fixed fraction of the cache.
//!
//! All return a full tile vector (outer untiled loops keep their span).

use cme_core::CacheSpec;
use cme_loopnest::{LoopNest, MemoryLayout, TileSizes};

/// The Euclidean (three-distance) sequence of candidate column heights
/// for a row stride `n` in a cache of `c` elements: the classic LRW/TSS
/// recurrence `a₀ = c, a₁ = n mod c, aₖ₊₁ = aₖ₋₁ mod aₖ`.
pub fn euclidean_heights(cache_elems: i64, row_stride: i64) -> Vec<i64> {
    let mut out = Vec::new();
    let mut a = cache_elems;
    let mut b = row_stride % cache_elems;
    out.push(a);
    while b > 0 {
        out.push(b);
        let r = a % b;
        a = b;
        b = r;
    }
    out
}

/// Pick the array whose innermost-loop traversal crosses rows (the one
/// tiling must protect): the array with the largest stride coefficient on
/// the innermost loops. Returns its row stride in elements.
fn primary_row_stride(nest: &LoopNest, layout: &MemoryLayout) -> i64 {
    let forms = layout.address_forms(nest);
    let es = nest.arrays.first().map_or(4, |a| a.elem_size);
    forms
        .iter()
        .flat_map(|f| f.coeffs.iter().map(|c| c.abs() / es))
        .filter(|&c| c > 1)
        .max()
        .unwrap_or(1)
}

/// LRW-style largest non-self-interfering square tile on the two
/// innermost loops.
pub fn lrw_square(nest: &LoopNest, layout: &MemoryLayout, cache: CacheSpec) -> TileSizes {
    let d = nest.depth();
    let spans = nest.spans();
    let es = nest.arrays.first().map_or(4, |a| a.elem_size);
    let cache_elems = cache.size / es;
    let stride = primary_row_stride(nest, layout);
    // Largest height h in the Euclidean sequence with h ≤ usable square
    // side; width = h (square tiles).
    let side_cap = ((cache_elems as f64).sqrt() as i64).max(1);
    let h = euclidean_heights(cache_elems, stride.max(1))
        .into_iter()
        .filter(|&h| h > 0 && h <= side_cap)
        .max()
        .unwrap_or(1);
    let mut tiles = spans.clone();
    if d >= 2 {
        tiles[d - 1] = h.min(spans[d - 1]);
        tiles[d - 2] = h.min(spans[d - 2]);
    } else {
        tiles[0] = h.min(spans[0]);
    }
    TileSizes(tiles)
}

/// TSS-style: Euclidean column height, width maximised under a working-set
/// bound of the effective cache size (one tile of every referenced array).
pub fn tss_coleman_mckinley(nest: &LoopNest, layout: &MemoryLayout, cache: CacheSpec) -> TileSizes {
    let d = nest.depth();
    let spans = nest.spans();
    let es = nest.arrays.first().map_or(4, |a| a.elem_size);
    let cache_elems = cache.size / es;
    let stride = primary_row_stride(nest, layout);
    let n_arrays = nest.arrays.len().max(1) as i64;
    let mut best = (1i64, 1i64);
    for h in euclidean_heights(cache_elems, stride.max(1)) {
        if h <= 0 || (d >= 2 && h > spans[d - 1]) {
            continue;
        }
        // Width bounded by the working-set rule: n_arrays · h · w ≤ C.
        let w = (cache_elems / (n_arrays * h)).clamp(1, if d >= 2 { spans[d - 2] } else { 1 });
        if h * w > best.0 * best.1 {
            best = (h, w);
        }
    }
    let mut tiles = spans.clone();
    if d >= 2 {
        tiles[d - 1] = best.0.min(spans[d - 1]);
        tiles[d - 2] = best.1.min(spans[d - 2]);
    } else {
        tiles[0] = best.0.min(spans[0]);
    }
    TileSizes(tiles)
}

/// Fixed-fraction heuristic: equal tiles on the two innermost loops using
/// `fraction` of the cache for the combined tile working set.
pub fn fixed_fraction(nest: &LoopNest, cache: CacheSpec, fraction: f64) -> TileSizes {
    let d = nest.depth();
    let spans = nest.spans();
    let es = nest.arrays.first().map_or(4, |a| a.elem_size);
    let budget =
        (cache.size as f64 * fraction / es as f64 / nest.arrays.len().max(1) as f64).max(1.0);
    let side = (budget.sqrt() as i64).max(1);
    let mut tiles = spans.clone();
    if d >= 2 {
        tiles[d - 1] = side.min(spans[d - 1]);
        tiles[d - 2] = side.min(spans[d - 2]);
    } else {
        tiles[0] = side.min(spans[0]);
    }
    TileSizes(tiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_kernels::linalg::mm;

    #[test]
    fn euclidean_sequence_terminates_and_descends() {
        let seq = euclidean_heights(2048, 2000);
        assert_eq!(seq[0], 2048);
        for w in seq.windows(2) {
            assert!(w[1] < w[0] || w[0] == 2048);
        }
        assert!(*seq.last().unwrap() >= 1);
        // gcd tail: sequence for coprime stride ends at 1.
        assert_eq!(*euclidean_heights(16, 7).last().unwrap(), 1);
    }

    #[test]
    fn baselines_produce_valid_tilings() {
        let nest = mm(100).unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let cache = CacheSpec::paper_8k();
        for tiles in [
            lrw_square(&nest, &layout, cache),
            tss_coleman_mckinley(&nest, &layout, cache),
            fixed_fraction(&nest, cache, 0.5),
        ] {
            tiles.validate(&nest).expect("baseline tiling must be valid");
            // Inner loops actually tiled.
            assert!(tiles.0[2] < 100, "{tiles}");
        }
    }

    #[test]
    fn fixed_fraction_scales_with_cache() {
        let nest = mm(1000).unwrap();
        let small = fixed_fraction(&nest, CacheSpec::paper_8k(), 0.5);
        let large = fixed_fraction(&nest, CacheSpec::paper_32k(), 0.5);
        assert!(large.0[2] > small.0[2]);
    }
}
