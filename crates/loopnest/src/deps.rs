//! The legality verdict type, loop permutation, and a brute-force
//! tiled-trace oracle.
//!
//! Legality itself is decided by `cme-analysis`
//! (`cme_analysis::rectangular_tiling_legality` and
//! `cme_analysis::permutation_legality`), which derives direction vectors
//! for general affine reference pairs. This module keeps what that crate
//! and its callers share: the [`TilingLegality`] verdict,
//! [`apply_permutation`], and [`brute_force_legality`], which replays a
//! tiny nest's trace in both schedules to check a verdict by exhaustion.

use crate::layout::MemoryLayout;
use crate::nest::LoopNest;

/// Verdict of a legality check (rectangular tiling or a permutation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TilingLegality {
    /// The transform preserves every dependence.
    Legal,
    /// A dependence the transform would reverse was found (or had to be
    /// assumed).
    Illegal { reason: String },
}

impl TilingLegality {
    pub fn is_legal(&self) -> bool {
        matches!(self, TilingLegality::Legal)
    }
}

/// Apply a loop permutation: new level `k` runs old loop `perm[k]`.
/// Subscript coefficients are remapped accordingly. Legality is the
/// caller's responsibility (see `cme_analysis::permutation_legality`).
pub fn apply_permutation(nest: &LoopNest, perm: &[usize]) -> LoopNest {
    let d = nest.depth();
    assert_eq!(perm.len(), d);
    let mut out = nest.clone();
    out.name = format!("{}_perm{:?}", nest.name, perm);
    out.loops = perm.iter().map(|&p| nest.loops[p].clone()).collect();
    // old var p is new var k where perm[k] = p.
    let mut new_of_old = vec![0usize; d];
    for (k, &p) in perm.iter().enumerate() {
        new_of_old[p] = k;
    }
    for r in &mut out.refs {
        for s in &mut r.subscripts {
            let mut coeffs = vec![0i64; d];
            for (old, &c) in s.coeffs.iter().enumerate() {
                coeffs[new_of_old[old]] = c;
            }
            s.coeffs = coeffs;
        }
    }
    out
}

/// Sanity oracle for tests: replay the element-level touches of two
/// references and verify the reported legality on a tiny nest by brute
/// force (every pair of iterations in both schedules).
pub fn brute_force_legality(
    nest: &LoopNest,
    layout: &MemoryLayout,
    tiles: &crate::TileSizes,
) -> bool {
    use crate::trace::collect_trace;
    // A tiling is legal iff for every pair of accesses (a before b in the
    // original order) where one writes the same address the other touches,
    // the tiled order preserves a-before-b.
    let orig = collect_trace(nest, layout, None);
    let tiled = collect_trace(nest, layout, Some(tiles));
    // Map (ref_idx, addr, occurrence#) to tiled position.
    use std::collections::HashMap;
    let mut occ_counter: HashMap<(usize, i64), usize> = HashMap::new();
    let mut tiled_pos: HashMap<(usize, i64, usize), usize> = HashMap::new();
    for (pos, a) in tiled.iter().enumerate() {
        let c = occ_counter.entry((a.ref_idx, a.addr)).or_insert(0);
        tiled_pos.insert((a.ref_idx, a.addr, *c), pos);
        *c += 1;
    }
    occ_counter.clear();
    let mut orig_with_pos: Vec<(usize, usize, i64, bool)> = Vec::new(); // (tiled_pos, ref, addr, write)
    for a in &orig {
        let c = occ_counter.entry((a.ref_idx, a.addr)).or_insert(0);
        let tp = tiled_pos[&(a.ref_idx, a.addr, *c)];
        *c += 1;
        orig_with_pos.push((tp, a.ref_idx, a.addr, nest.refs[a.ref_idx].is_write()));
    }
    for (x, &(tp_a, _, addr_a, w_a)) in orig_with_pos.iter().enumerate() {
        for &(tp_b, _, addr_b, w_b) in &orig_with_pos[x + 1..] {
            if addr_a == addr_b && (w_a || w_b) && tp_a > tp_b {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{sub, NestBuilder};

    /// Matrix multiply `a(i,j) += b(i,k) * c(k,j)`.
    fn mm(n: i64) -> LoopNest {
        let mut nb = NestBuilder::new("mm");
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
    fn apply_permutation_preserves_semantics() {
        // Permuting MM's loops must only reorder the trace.
        let m = mm(4);
        let layout = MemoryLayout::contiguous(&m);
        let p = apply_permutation(&m, &[2, 0, 1]);
        assert!(p.validate().is_ok());
        let layout_p = MemoryLayout::contiguous(&p);
        assert_eq!(layout.bases, layout_p.bases, "same arrays, same layout");
        use crate::trace::collect_trace;
        let mut a = collect_trace(&m, &layout, None);
        let mut b = collect_trace(&p, &layout_p, None);
        assert_eq!(a.len(), b.len());
        a.sort_by_key(|x| (x.ref_idx, x.addr));
        b.sort_by_key(|x| (x.ref_idx, x.addr));
        assert_eq!(a, b, "permutation must be a reordering of the same accesses");
        // Double permutation composes back to the identity.
        let back = apply_permutation(&p, &[1, 2, 0]);
        assert_eq!(back.refs, m.refs);
    }
}
