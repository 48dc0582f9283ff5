//! Explicit Cache Miss Equation objects (paper §2.1, §2.4).
//!
//! The fast classifier never materialises equation systems; this module
//! does, for three purposes:
//!
//! 1. **Inspection/documentation** — the equations are the paper's central
//!    artefact; users can enumerate them and see the §2.4 growth: the
//!    number of compulsory equations scales with the number of convex
//!    regions `n`, replacement equations with `n²` (region pairs).
//! 2. **An explicit solver baseline** — [`classify_explicit`] substitutes
//!    an iteration point into the equations (paper §2.2) and decides
//!    emptiness of each resulting polyhedron with the generic
//!    [`Polyhedron`] machinery. It must agree with the fast classifier;
//!    tests enforce this, and the solver benchmarks quantify the speed
//!    difference (the paper's §2.3 claim).
//! 3. **Point counting** — tiny spaces can count equation solutions
//!    exactly.

use crate::classify::{most_recent_source, Classification};
use crate::model::NestAnalysis;
use crate::reuse::ReuseCandidate;
use cme_polyhedra::boxes::lex_cmp;
use cme_polyhedra::dioph::{div_ceil, div_floor};
use cme_polyhedra::lex::between_open;
use cme_polyhedra::polyhedron::{Constraint, Polyhedron};
use cme_polyhedra::{AffineForm, IntBox, Interval};

/// A compulsory equation: along reuse candidate `cand`, points of region
/// `region` whose source falls outside the iteration space are potential
/// cold misses.
#[derive(Debug, Clone)]
pub struct CompulsoryEq {
    pub subject: usize,
    pub cand: ReuseCandidate,
    pub region: usize,
}

/// A replacement equation: for reuse candidate `cand` with the current
/// point in `cur_region`, interference by reference `interferer` executing
/// in region `j_region` on the reused set. The region *pair*
/// `(cur_region, j_region)` is what gives the paper's n² growth (§2.4).
#[derive(Debug, Clone)]
pub struct ReplacementEq {
    pub subject: usize,
    pub cand: ReuseCandidate,
    pub cur_region: usize,
    pub j_region: usize,
    pub interferer: usize,
}

/// The explicit equation system of one analysed nest.
#[derive(Debug, Clone)]
pub struct CmeEquations {
    pub compulsory: Vec<CompulsoryEq>,
    pub replacement: Vec<ReplacementEq>,
}

impl CmeEquations {
    /// Generate the full system for an analysis.
    pub fn generate(an: &NestAnalysis) -> Self {
        let n_regions = an.space.regions.len();
        let n_refs = an.addr.len();
        let mut compulsory = Vec::new();
        let mut replacement = Vec::new();
        for subject in 0..n_refs {
            for cand in &an.candidates()[subject] {
                for region in 0..n_regions {
                    compulsory.push(CompulsoryEq { subject, cand: cand.clone(), region });
                    for j_region in 0..n_regions {
                        for interferer in 0..n_refs {
                            replacement.push(ReplacementEq {
                                subject,
                                cand: cand.clone(),
                                cur_region: region,
                                j_region,
                                interferer,
                            });
                        }
                    }
                }
            }
        }
        CmeEquations { compulsory, replacement }
    }
}

impl ReplacementEq {
    /// Substitute a concrete current point (paper §2.2) and produce the
    /// resulting polyhedra over `(j_1..j_m, n)` — one per lexicographic
    /// piece of the reuse interval × region × side of the excluded reused
    /// line. The equation "holds" at `v0` iff any polyhedron contains an
    /// integer point.
    pub fn instantiate(&self, an: &NestAnalysis, v0: &[i64]) -> Vec<Polyhedron> {
        let m = an.space.n_v;
        let src: Vec<i64> = v0.iter().zip(&self.cand.rv).map(|(a, b)| a - b).collect();
        if !an.space.regions[self.cur_region].vbox.contains(v0) || !an.space.contains_v(&src) {
            return Vec::new();
        }
        let cache = an.cache;
        let addr0 = an.addr[self.subject].eval(v0);
        let l0 = cache.line_of(addr0);
        // Source must touch the same line for the equation to be active.
        if cache.line_of(an.addr[self.cand.src_ref].eval(&src)) != l0 {
            return Vec::new();
        }
        let s0 = cache.set_of_line(l0);
        let n0 = l0.div_euclid(cache.sets());
        let way = cache.sets() * cache.line;
        let window = Interval::new(s0 * cache.line, s0 * cache.line + cache.line - 1);
        let mut out = Vec::new();
        let form = &an.addr[self.interferer];
        let mut bx = IntBox::new(Vec::new());
        for piece in between_open(&src, v0) {
            // The interfering iterations of *this* equation are those in
            // `j_region`; interference in other regions is covered by the
            // sibling equations of the (cur_region, j_region) family.
            if !piece.clip_to_box(&an.space.regions[self.j_region].vbox, &mut bx) || bx.is_empty() {
                continue;
            }
            let range = form.range_over(&bx);
            let n_min = div_ceil(range.lo - window.hi, way);
            let n_max = div_floor(range.hi - window.lo, way);
            for n_iv in [Interval::new(n_min, n0 - 1), Interval::new(n0 + 1, n_max)] {
                if n_iv.is_empty() {
                    continue;
                }
                // Variables: j_1..j_m, n.
                let mut p = Polyhedron::universe(m + 1);
                for (t, iv) in bx.dims.iter().enumerate() {
                    let x = AffineForm::var(m + 1, t);
                    p.and(Constraint::ge(x.clone(), AffineForm::constant(m + 1, iv.lo)));
                    p.and(Constraint::le(x, AffineForm::constant(m + 1, iv.hi)));
                }
                let nv = AffineForm::var(m + 1, m);
                p.and(Constraint::ge(nv.clone(), AffineForm::constant(m + 1, n_iv.lo)));
                p.and(Constraint::le(nv, AffineForm::constant(m + 1, n_iv.hi)));
                // window.lo ≤ addr(j) − n·way ≤ window.hi
                let mut coeffs = form.coeffs.clone();
                coeffs.push(-way);
                let af = AffineForm::new(coeffs, form.c0);
                p.and(Constraint::ge(af.clone(), AffineForm::constant(m + 1, window.lo)));
                p.and(Constraint::le(af, AffineForm::constant(m + 1, window.hi)));
                out.push(p);
            }
        }
        out
    }
}

/// Classify a point using the explicit polyhedron machinery end to end —
/// the slow, paper-literal path. The reuse source is located by the fast
/// classifier's own most-recent-source search; the interference test
/// then builds the replacement polyhedra concretely and decides emptiness
/// with the generic [`Polyhedron`] solver (direct-mapped caches).
pub fn classify_explicit(
    an: &NestAnalysis,
    _eqs: &CmeEquations,
    v0: &[i64],
    subject: usize,
) -> Classification {
    assert_eq!(an.cache.assoc, 1, "the explicit path models direct-mapped caches");
    let l0 = an.cache.line_of(an.addr[subject].eval(v0));
    let mut engine = an.engine();
    match most_recent_source(an, &mut engine, v0, subject, l0) {
        Some(pos) => explicit_verdict(an, &engine.source, pos, v0, subject, l0),
        None => Classification::Cold,
    }
}

fn explicit_verdict(
    an: &NestAnalysis,
    src: &[i64],
    src_pos: usize,
    v0: &[i64],
    cur_pos: usize,
    l0: i64,
) -> Classification {
    let blocked = endpoint_conflict(an, src, src_pos, v0, cur_pos, l0)
        || explicit_between_conflict(an, src, v0, l0);
    if blocked {
        Classification::Replacement
    } else {
        Classification::Hit
    }
}

/// Build the replacement polyhedra for the interval (src, v0) and test
/// integer emptiness generically.
fn explicit_between_conflict(an: &NestAnalysis, src: &[i64], v0: &[i64], l0: i64) -> bool {
    let cache = an.cache;
    let s0 = cache.set_of_line(l0);
    let n0 = l0.div_euclid(cache.sets());
    let way = cache.sets() * cache.line;
    let window = Interval::new(s0 * cache.line, s0 * cache.line + cache.line - 1);
    let m = an.space.n_v;
    let mut bx = IntBox::new(Vec::new());
    for piece in between_open(src, v0) {
        for region in &an.space.regions {
            if !piece.clip_to_box(&region.vbox, &mut bx) || bx.is_empty() {
                continue;
            }
            for form in &an.addr {
                let range = form.range_over(&bx);
                let n_min = div_ceil(range.lo - window.hi, way);
                let n_max = div_floor(range.hi - window.lo, way);
                for n_iv in [Interval::new(n_min, n0 - 1), Interval::new(n0 + 1, n_max)] {
                    if n_iv.is_empty() {
                        continue;
                    }
                    let mut p = Polyhedron::universe(m + 1);
                    for (t, iv) in bx.dims.iter().enumerate() {
                        let x = AffineForm::var(m + 1, t);
                        p.and(Constraint::ge(x.clone(), AffineForm::constant(m + 1, iv.lo)));
                        p.and(Constraint::le(x, AffineForm::constant(m + 1, iv.hi)));
                    }
                    let nv = AffineForm::var(m + 1, m);
                    p.and(Constraint::ge(nv.clone(), AffineForm::constant(m + 1, n_iv.lo)));
                    p.and(Constraint::le(nv, AffineForm::constant(m + 1, n_iv.hi)));
                    let mut coeffs = form.coeffs.clone();
                    coeffs.push(-way);
                    let af = AffineForm::new(coeffs, form.c0);
                    p.and(Constraint::ge(af.clone(), AffineForm::constant(m + 1, window.lo)));
                    p.and(Constraint::le(af, AffineForm::constant(m + 1, window.hi)));
                    let mut cap = 200_000u64;
                    let hull = bounding_box(&p);
                    if !p.is_empty_int(&hull, &mut cap).unwrap_or(false) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

fn endpoint_conflict(
    an: &NestAnalysis,
    src: &[i64],
    src_pos: usize,
    v0: &[i64],
    cur_pos: usize,
    l0: i64,
) -> bool {
    let cache = an.cache;
    let s0 = cache.set_of_line(l0);
    let same = lex_cmp(src, v0) == std::cmp::Ordering::Equal;
    let check = |v: &[i64], r: usize| {
        let a = an.addr[r].eval(v);
        let l = cache.line_of(a);
        l != l0 && cache.set_of_line(l) == s0
    };
    if same {
        (src_pos + 1..cur_pos).any(|r| check(v0, r))
    } else {
        (src_pos + 1..an.addr.len()).any(|r| check(src, r)) || (0..cur_pos).any(|r| check(v0, r))
    }
}

fn bounding_box(p: &Polyhedron) -> IntBox {
    // Conservative start box; constraints tighten it during propagation.
    IntBox::new(vec![Interval::new(-(1 << 40), 1 << 40); p.n_vars])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CmeModel;
    use crate::CacheSpec;
    use cme_loopnest::builder::{sub, NestBuilder};
    use cme_loopnest::{MemoryLayout, TileSizes};

    fn t2d(n: i64) -> (cme_loopnest::LoopNest, MemoryLayout) {
        let mut nb = NestBuilder::new("t2d");
        let i = nb.add_loop("i", 1, n);
        let j = nb.add_loop("j", 1, n);
        let a = nb.array("a", &[n, n]);
        let b = nb.array("b", &[n, n]);
        nb.read(b, &[sub(i), sub(j)]);
        nb.write(a, &[sub(j), sub(i)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        (nest, layout)
    }

    #[test]
    fn region_scaling_of_equation_counts() {
        let (nest, layout) = t2d(10);
        let model = CmeModel::new(CacheSpec::direct_mapped(128, 16));
        // Tiling both dims with non-dividing tiles: 4 regions.
        let an1 = model.analyze(&nest, &layout, None);
        let an4 = model.analyze(&nest, &layout, Some(&TileSizes(vec![3, 3])));
        let e1 = CmeEquations::generate(&an1);
        let e4 = CmeEquations::generate(&an4);
        assert_eq!(an1.space.regions.len(), 1);
        assert_eq!(an4.space.regions.len(), 4);
        // Per subject & candidate: compulsory ∝ n, replacement ∝ n²·refs.
        // Candidate counts differ between spaces, so compare the ratio per
        // candidate instance instead.
        let cands1: usize = an1.candidates().iter().map(Vec::len).sum();
        let cands4: usize = an4.candidates().iter().map(Vec::len).sum();
        assert_eq!(e1.compulsory.len(), cands1);
        assert_eq!(e4.compulsory.len(), cands4 * 4);
        assert_eq!(e1.replacement.len(), cands1 * 2);
        assert_eq!(e4.replacement.len(), cands4 * 16 * 2);
    }

    #[test]
    fn explicit_classifier_agrees_with_fast_path() {
        let (nest, layout) = t2d(8);
        let model = CmeModel::new(CacheSpec::direct_mapped(128, 16));
        for tiles in [None, Some(TileSizes(vec![3, 3])), Some(TileSizes(vec![4, 2]))] {
            let an = model.analyze(&nest, &layout, tiles.as_ref());
            let eqs = CmeEquations::generate(&an);
            an.space.clone().for_each_point(|v| {
                for r in 0..an.addr.len() {
                    let fast = an.classify(v, r);
                    let slow = classify_explicit(&an, &eqs, v, r);
                    assert_eq!(fast, slow, "point {v:?} ref {r} tiles {tiles:?}");
                }
            });
        }
    }
}
