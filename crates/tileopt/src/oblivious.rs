//! Cache-oblivious tile derivation (PCOT-style divide and conquer).
//!
//! PCOT (Ranasinghe et al.) tiles polyhedral programs by recursively
//! splitting the iteration space in half along its longest *legal*
//! dimension, with a machine-independent base case — the recursion never
//! consults the cache geometry, which is the cache-oblivious contract.
//! This module reproduces that derivation over the suite's rectangular
//! tiling representation: repeatedly halve the longest halvable
//! dimension until one tile's working set fits the fixed base-case
//! footprint, then emit the surviving extents as an ordinary
//! [`TileSizes`] vector so the result is *scored* by the same estimator
//! as every other strategy.
//!
//! Two properties are load-bearing and pinned by tests:
//!
//! * **Parameter-free derivation.** The tile vector is a function of the
//!   nest alone (subscripts, spans, dependences) — never of the request's
//!   [`cme_core::CacheHierarchy`]. Swapping the hierarchy changes the
//!   *scores*, not the *transform*.
//! * **Per-dimension legality.** A dimension is halvable iff no carried
//!   dependence direction vector has `>` at that position: blocking such
//!   a dimension (block loops outermost, original relative order — the
//!   suite's tiling schedule) keeps every realised direction vector
//!   lexicographically positive, because the block-level components of a
//!   `{<, =}` dimension are themselves in `{<, =}`. Dimensions that
//!   carry a `>` keep their full span (one block — never reordered).

use cme_analysis::{analyze, Dir};
use cme_loopnest::{LoopNest, TileSizes};

/// The machine-independent base case: recursion stops once one tile's
/// working set (every referenced array's tile footprint, summed) fits in
/// this many bytes. The constant is half the source paper's 8 KB L1 — a
/// *fixed fraction of the innermost level of the paper's machine*, baked
/// in so the derivation itself stays cache-oblivious.
pub const BASE_CASE_BYTES: i64 = 4096;

/// What the divide-and-conquer derivation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObliviousResult {
    /// The equivalent rectangular tile sizes (full span = untiled).
    pub tiles: TileSizes,
    /// Number of halving steps the recursion performed.
    pub halvings: u64,
    /// Which dimensions were legal to halve (no `>` component in any
    /// carried direction vector).
    pub halvable: Vec<bool>,
}

/// Per-dimension halving legality from the dependence direction vectors:
/// dimension `k` is halvable iff no carried vector has [`Dir::Gt`] at
/// position `k`.
pub fn halvable_dims(nest: &LoopNest) -> Vec<bool> {
    let deps = analyze(nest);
    let mut ok = vec![true; nest.depth()];
    for pair in &deps.pairs {
        for dirs in &pair.carried {
            for (k, d) in dirs.iter().enumerate() {
                if *d == Dir::Gt {
                    ok[k] = false;
                }
            }
        }
    }
    ok
}

/// One tile's working set in bytes under tile sizes `tiles`: for every
/// referenced array, the per-dimension subscript ranges over a single
/// tile (`Σ_k |c_k|·(T_k−1) + 1` elements, clamped to the extent, max
/// over the array's references), multiplied out and weighted by the
/// element size.
pub fn tile_working_set_bytes(nest: &LoopNest, tiles: &[i64]) -> i64 {
    let mut total: i64 = 0;
    for (a, arr) in nest.arrays.iter().enumerate() {
        let mut widths: Vec<i64> = Vec::new();
        for r in 0..nest.refs.len() {
            if nest.refs[r].array.0 != a {
                continue;
            }
            if widths.is_empty() {
                widths = vec![1; arr.rank()];
            }
            for d in 0..arr.rank() {
                let s = nest.subscript(r, d);
                let span: i64 = s
                    .coeffs
                    .iter()
                    .zip(tiles)
                    .map(|(c, t)| c.abs().saturating_mul(t - 1))
                    .fold(0i64, i64::saturating_add);
                widths[d] = widths[d].max((span + 1).min(arr.extents[d]));
            }
        }
        if widths.is_empty() {
            continue; // declared but unreferenced array: not in the working set
        }
        let mut bytes = arr.elem_size;
        for w in widths {
            bytes = bytes.saturating_mul(w);
        }
        total = total.saturating_add(bytes);
    }
    total
}

/// Derive tile sizes by recursive halving: start from the full iteration
/// space and halve the longest halvable dimension (ties to the outermost)
/// until the tile working set fits [`BASE_CASE_BYTES`] or nothing can
/// shrink further. Deterministic, parameter-free, O(d · log span).
pub fn cache_oblivious_tiles(nest: &LoopNest) -> ObliviousResult {
    let halvable = halvable_dims(nest);
    let mut tiles = nest.spans();
    let mut halvings = 0u64;
    while tile_working_set_bytes(nest, &tiles) > BASE_CASE_BYTES {
        // The longest dimension that is legal to halve and still ≥ 2.
        let Some(k) = (0..tiles.len())
            .filter(|&k| halvable[k] && tiles[k] >= 2)
            .max_by_key(|&k| (tiles[k], std::cmp::Reverse(k)))
        else {
            break;
        };
        tiles[k] = (tiles[k] + 1) / 2;
        halvings += 1;
    }
    ObliviousResult { tiles: TileSizes(tiles), halvings, halvable }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_kernels::linalg::mm;
    use cme_loopnest::builder::{sub, NestBuilder};

    #[test]
    fn mm_recursion_reaches_the_base_case() {
        let nest = mm(128).unwrap();
        let res = cache_oblivious_tiles(&nest);
        assert!(res.halvings > 0);
        assert!(res.halvable.iter().all(|&b| b), "MM is fully permutable");
        assert!(tile_working_set_bytes(&nest, &res.tiles.0) <= BASE_CASE_BYTES);
        res.tiles.validate(&nest).expect("derived tiles must be valid");
        // The derivation actually tiled something.
        assert!(res.tiles.0.iter().zip(nest.spans()).any(|(&t, s)| t < s));
    }

    #[test]
    fn derivation_is_a_function_of_the_nest_alone() {
        // Same nest twice: identical result (the function takes nothing
        // else, so this pins determinism rather than parameter-freedom —
        // the hierarchy-swap pin lives in the API-level test).
        let a = cache_oblivious_tiles(&mm(96).unwrap());
        let b = cache_oblivious_tiles(&mm(96).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn gt_dimension_is_never_halved() {
        // a[i][j] = a[i-1][j+1]: σ = (<, >) — j carries a `>` and must
        // keep its full span; i is halvable.
        let n = 64;
        let mut nb = NestBuilder::new("hazard");
        let i = nb.add_loop("i", 2, n);
        let j = nb.add_loop("j", 1, n - 1);
        let a = nb.array("a", &[n + 1, n + 1]);
        nb.read(a, &[sub(i).minus(1), sub(j).plus(1)]);
        nb.write(a, &[sub(i), sub(j)]);
        let nest = nb.finish().unwrap();
        let res = cache_oblivious_tiles(&nest);
        assert_eq!(res.halvable, vec![true, false]);
        assert_eq!(res.tiles.0[1], nest.spans()[1], "illegal dimension keeps its span");
        assert!(res.tiles.0[0] < nest.spans()[0], "legal dimension was halved");
    }

    #[test]
    fn small_nests_stay_untiled() {
        // A nest whose whole working set already fits the base case needs
        // no halving at all.
        let nest = mm(8).unwrap();
        let res = cache_oblivious_tiles(&nest);
        assert_eq!(res.halvings, 0);
        assert!(res.tiles.is_trivial(&nest));
    }
}
