//! Exact most-recent same-line predecessor search.
//!
//! For a subject access at point `v0` touching line `l0`, and a candidate
//! source reference `B` (uniformly generated with the subject), find the
//! lexicographically greatest iteration `j ≺ v0` with
//! `addr_B(j) ∈ [l0·ls, (l0+1)·ls)` — i.e. the most recent access of `B`
//! to the same memory line.
//!
//! Constant reuse *vectors* cannot express this in general (the most
//! recent source may differ per point when trailing loop variables do not
//! affect the address, or affect it by less than a line), so the
//! classifier searches directly: for each divergence level `s` (deepest
//! first — longer common prefix ⇒ more recent), greedily maximise the
//! remaining coordinates subject to the line window, using relaxed suffix
//! ranges for feasibility pruning and a small back-tracking probe budget
//! for integrality gaps. A found source is verified concretely; probe
//! exhaustion degrades *conservatively* (a farther or missing source can
//! only turn hits into predicted misses, never the reverse).

use cme_loopnest::ExecSpace;
use cme_polyhedra::dioph::{div_ceil, div_floor};
use cme_polyhedra::{AffineForm, Interval};

/// Precomputed relaxed suffix ranges of an address form over a space:
/// `suffix_lo[t]..suffix_hi[t]` bounds `Σ_{r ≥ t} c_r·x_r` over the
/// relaxed per-dimension intervals.
#[derive(Debug, Clone)]
pub struct SuffixRanges {
    pub lo: Vec<i64>,
    pub hi: Vec<i64>,
}

impl SuffixRanges {
    pub fn of(form: &AffineForm, relaxed: &[Interval]) -> Self {
        let m = form.coeffs.len();
        let mut lo = vec![0i64; m + 1];
        let mut hi = vec![0i64; m + 1];
        for t in (0..m).rev() {
            let c = form.coeffs[t];
            let iv = relaxed[t];
            let (a, b) = (c * iv.lo, c * iv.hi);
            lo[t] = lo[t + 1] + a.min(b);
            hi[t] = hi[t + 1] + a.max(b);
        }
        SuffixRanges { lo, hi }
    }
}

/// Probe budget per (source reference, divergence level).
const PROBES: u32 = 4096;

/// Search the most recent `j ≺ v0` with `form(j) ∈ window`, diverging
/// from `v0` exactly at coordinate `s`. On success writes the full
/// coordinate vector into `j` (a caller buffer, overwritten either way)
/// and returns `true`.
pub fn lexmax_at_level(
    space: &ExecSpace,
    form: &AffineForm,
    suffix: &SuffixRanges,
    v0: &[i64],
    window: Interval,
    s: usize,
    j: &mut Vec<i64>,
) -> bool {
    j.clear();
    j.extend_from_slice(v0);
    // Target for Σ_{t ≥ s} c_t j_t.
    let mut target = window.shift(-form.c0);
    for t in 0..s {
        target = target.shift(-form.coeffs[t] * v0[t]);
    }
    let mut probes = PROBES;
    let found = resolve(space, form, suffix, j, s, target, Some(v0[s] - 1), &mut probes);
    debug_assert!(!found || space.contains_v(j), "resolved source must lie in the space");
    debug_assert!(!found || window.contains(form.eval(j)), "resolved source must hit the window");
    found
}

#[allow(clippy::too_many_arguments)]
fn resolve(
    space: &ExecSpace,
    form: &AffineForm,
    suffix: &SuffixRanges,
    j: &mut [i64],
    t: usize,
    target: Interval,
    clamp_hi: Option<i64>,
    probes: &mut u32,
) -> bool {
    let m = form.coeffs.len();
    if t == m {
        return target.contains(0);
    }
    let bounds = space.dim_interval(t, &j[..t]);
    let hi = clamp_hi.map_or(bounds.hi, |h| h.min(bounds.hi));
    if hi < bounds.lo {
        return false;
    }
    let c = form.coeffs[t];
    // Feasibility from the relaxed suffix: c·x ∈ target − suffix(t+1).
    let (mut xlo, mut xhi) = (bounds.lo, hi);
    if c != 0 {
        let flo = target.lo - suffix.hi[t + 1];
        let fhi = target.hi - suffix.lo[t + 1];
        let (a, b) = if c > 0 {
            (div_ceil(flo, c), div_floor(fhi, c))
        } else {
            (div_ceil(fhi, c), div_floor(flo, c))
        };
        xlo = xlo.max(a);
        xhi = xhi.min(b);
    }
    let mut x = xhi;
    while x >= xlo {
        if *probes == 0 {
            return false;
        }
        *probes -= 1;
        j[t] = x;
        if resolve(space, form, suffix, j, t + 1, target.shift(-c * x), None, probes) {
            return true;
        }
        x -= 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_loopnest::builder::{sub, NestBuilder};
    use cme_loopnest::{MemoryLayout, TileSizes};

    /// Brute-force oracle: scan all points before v0 in execution order.
    fn brute_lexmax(
        space: &ExecSpace,
        form: &AffineForm,
        v0: &[i64],
        window: Interval,
    ) -> Option<Vec<i64>> {
        let mut best: Option<Vec<i64>> = None;
        space.for_each_point(|p| {
            if cme_polyhedra::boxes::lex_cmp(p, v0) == std::cmp::Ordering::Less
                && window.contains(form.eval(p))
            {
                best = Some(p.to_vec());
            }
        });
        best
    }

    fn search_all_levels(
        space: &ExecSpace,
        form: &AffineForm,
        v0: &[i64],
        window: Interval,
    ) -> Option<Vec<i64>> {
        let suffix = SuffixRanges::of(form, &space.relaxed_dims());
        let mut j = Vec::new();
        (0..v0.len())
            .rev()
            .find(|&s| lexmax_at_level(space, form, &suffix, v0, window, s, &mut j))?;
        Some(j)
    }

    #[test]
    fn matches_brute_force_untiled() {
        // y(i,t)-style form over a 7x7x7 space: coeffs (28, 4, 0).
        let mut nb = NestBuilder::new("n");
        let _t = nb.add_loop("t", 1, 7);
        let _i = nb.add_loop("i", 1, 7);
        let _j = nb.add_loop("j", 1, 7);
        let x = nb.array("x", &[7, 7]);
        nb.read(x, &[sub(_i), sub(_t)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let space = ExecSpace::untiled(&nest);
        let form = space.lift_form(&layout.address_form(&nest, 0));
        for v0 in [[2, 1, 1], [1, 6, 7], [3, 4, 2], [7, 7, 7], [1, 1, 1]] {
            for line in [0i64, 1, 3, 6] {
                let w = Interval::new(line * 16, line * 16 + 15);
                let got = search_all_levels(&space, &form, &v0, w);
                let want = brute_lexmax(&space, &form, &v0, w);
                assert_eq!(got, want, "v0 {v0:?} line {line}");
            }
        }
    }

    #[test]
    fn matches_brute_force_tiled() {
        let mut nb = NestBuilder::new("n");
        let _i = nb.add_loop("i", 1, 9);
        let _j = nb.add_loop("j", 1, 7);
        let a = nb.array("a", &[9, 7]);
        nb.read(a, &[sub(_i), sub(_j)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let space = ExecSpace::tiled(&nest, &TileSizes(vec![4, 3]));
        let form = space.lift_form(&layout.address_form(&nest, 0));
        let windows: Vec<Interval> = (0..8).map(|l| Interval::new(l * 32, l * 32 + 31)).collect();
        let mut checked = 0;
        space.clone().for_each_point(|v0| {
            for w in &windows {
                let got = search_all_levels(&space, &form, v0, *w);
                let want = brute_lexmax(&space, &form, v0, *w);
                assert_eq!(got, want, "v0 {v0:?} w {w}");
                checked += 1;
            }
        });
        assert!(checked > 100);
    }

    #[test]
    fn matches_brute_force_triangular() {
        // do i = 1,9 / do j = 1,i : a(i,j) — the search must stay inside
        // the triangle, untiled and tiled.
        use cme_loopnest::builder::sub_const;
        let build = || {
            let mut nb = NestBuilder::new("tri");
            let i = nb.add_loop("i", 1, 9);
            let j = nb.add_loop_bounds("j", sub_const(1), sub(i));
            let a = nb.array("a", &[9, 9]);
            nb.read(a, &[sub(i), sub(j)]);
            nb.finish().unwrap()
        };
        let nest = build();
        let layout = MemoryLayout::contiguous(&nest);
        for space in [ExecSpace::untiled(&nest), ExecSpace::tiled(&nest, &TileSizes(vec![4, 3]))] {
            let form = space.lift_form(&layout.address_form(&nest, 0));
            let windows: Vec<Interval> =
                (0..8).map(|l| Interval::new(l * 32, l * 32 + 31)).collect();
            let mut checked = 0;
            space.clone().for_each_point(|v0| {
                for w in &windows {
                    let got = search_all_levels(&space, &form, v0, *w);
                    let want = brute_lexmax(&space, &form, v0, *w);
                    assert_eq!(got, want, "v0 {v0:?} w {w}");
                    checked += 1;
                }
            });
            assert!(checked > 100);
        }
    }

    #[test]
    fn no_predecessor_at_origin() {
        let mut nb = NestBuilder::new("n");
        let _i = nb.add_loop("i", 1, 5);
        let a = nb.array("a", &[5]);
        nb.read(a, &[sub(_i)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let space = ExecSpace::untiled(&nest);
        let form = space.lift_form(&layout.address_form(&nest, 0));
        assert_eq!(search_all_levels(&space, &form, &[1], Interval::new(0, 31)), None);
    }
}
