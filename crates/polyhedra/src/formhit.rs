//! Fast exact decision of `∃ x ∈ Box : F(x) ∈ [A, B]` for an affine form
//! `F` over an integer box.
//!
//! This single predicate answers every CME replacement-equation emptiness
//! question (see `cme-core::interference`): "is there an iteration in this
//! piece of the reuse interval whose access falls into a given cache-set
//! byte window?" — the wrap-around cache variable is simply one more
//! variable with a negative coefficient, passed as [`interval_hit`]'s extra
//! term.
//!
//! The solver is exact (YES and NO answers are both certain) except when a
//! branch-and-bound node budget is exhausted, in which case it returns
//! [`HitResult::MaybeYes`]; callers treat that as a conflict, which can only
//! *over*-estimate misses — the conservative direction. Fallback statistics
//! are tracked so tests can assert the budget is essentially never hit on
//! real kernels.
//!
//! Pipeline per query:
//! 1. **Normalisation** — shift every variable to `[0, R_t]` and reflect
//!    negative coefficients so all coefficients are positive.
//! 2. **Hull test** — intersect the target window with the reachable hull
//!    `[0, Σ c_t·R_t]`.
//! 3. **gcd test** — the form only attains multiples of `g = gcd(c_t)`;
//!    divide through.
//! 4. **Max-gap lemma** — process coefficients in ascending order; a
//!    reachable set with hull width `W` and maximal gap `γ` extended by an
//!    arithmetic progression of step `c` has maximal gap
//!    `max(γ, c − W)` (and `γ` if `c ≤ W`). Any window at least as long as
//!    the final gap bound that lies inside the hull must contain a
//!    reachable value ⇒ certain YES.
//! 5. **Branch-and-bound** — otherwise branch on the *largest* coefficient
//!    (few feasible values) and recurse.

use crate::affine::AffineForm;
use crate::boxes::IntBox;
use crate::dioph::{div_ceil_i128, div_floor_i128, gcd};
use crate::interval::Interval;

/// Answer of a hit query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitResult {
    /// A point certainly exists.
    Yes,
    /// Certainly no point exists.
    No,
    /// Node budget exhausted; treated as YES by miss analysis
    /// (conservative).
    MaybeYes,
}

impl HitResult {
    /// True for `Yes` and `MaybeYes` (the conservative interpretation).
    pub fn as_conservative_bool(self) -> bool {
        !matches!(self, HitResult::No)
    }
}

/// Work budget and statistics for a sequence of queries.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Remaining branch nodes before giving up.
    pub nodes_left: u64,
    /// Total queries answered.
    pub queries: u64,
    /// Queries that exhausted the budget (returned `MaybeYes`).
    pub fallbacks: u64,
    /// Branch nodes expanded in total (across refills).
    pub nodes_used: u64,
    per_query_nodes: u64,
}

impl Budget {
    /// A budget allowing `per_query_nodes` branch nodes per query.
    pub fn new(per_query_nodes: u64) -> Self {
        Budget {
            nodes_left: per_query_nodes,
            queries: 0,
            fallbacks: 0,
            nodes_used: 0,
            per_query_nodes,
        }
    }

    fn refill(&mut self) {
        self.nodes_left = self.per_query_nodes;
        self.queries += 1;
    }

    fn spend(&mut self) -> bool {
        self.nodes_used += 1;
        if self.nodes_left == 0 {
            return false;
        }
        self.nodes_left -= 1;
        true
    }
}

impl Default for Budget {
    fn default() -> Self {
        // Generous default; the gap lemma answers the overwhelming majority
        // of queries without branching at all.
        Budget::new(20_000)
    }
}

/// Normalise a query into `terms` (cleared first): every variable is
/// shifted to `[0, R_t]` and negative coefficients are reflected, leaving
/// `(coefficient > 0, range R_t ≥ 1)` pairs in variable order, `extra`
/// last. Returns the window for `Σ c_t · y_t` (already offset by the
/// constant term), or `None` when the box or window is empty.
fn normalize(
    form: &AffineForm,
    b: &IntBox,
    extra: Option<(i64, Interval)>,
    window: Interval,
    terms: &mut Vec<(i64, i64)>,
) -> Option<Interval> {
    terms.clear();
    if b.is_empty() || extra.is_some_and(|(_, iv)| iv.is_empty()) || window.is_empty() {
        return None;
    }
    let mut c0 = form.c0 as i128;
    for (c, iv) in form.coeffs.iter().zip(&b.dims).map(|(c, iv)| (*c, *iv)).chain(extra) {
        let r = iv.len() as i128 - 1;
        if c == 0 || r == 0 {
            c0 += (c as i128) * (iv.lo as i128);
            continue;
        }
        if c > 0 {
            c0 += (c as i128) * (iv.lo as i128);
            terms.push((c, r as i64));
        } else {
            // Reflect: x = hi - y  =>  c·x = c·hi + (-c)·y.
            c0 += (c as i128) * (iv.hi as i128);
            terms.push((-c, r as i64));
        }
    }
    let lo = (window.lo as i128 - c0).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
    let hi = (window.hi as i128 - c0).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
    Some(Interval::new(lo, hi))
}

/// Max-gap bound for the reachable set of `Σ c_t·y_t` with coefficients
/// processed in ascending order. Returns `(hull_width, gap_bound)`.
fn hull_and_gap(terms_sorted_asc: &[(i64, i64)]) -> (i128, i128) {
    let mut w: i128 = 0;
    let mut gap: i128 = 0;
    for &(c, r) in terms_sorted_asc {
        let c = c as i128;
        if c > w {
            gap = gap.max(c - w);
        }
        w += c * (r as i128);
    }
    (w, gap)
}

/// Decide the normalised query whose terms are `buf[start..]` — always
/// the buffer's tail. The terms are reduced and sorted in place; a branch
/// copies the remaining terms to the tail for each sub-query and truncates
/// them away again, so the buffer ends as long as it started.
fn solve_norm(
    buf: &mut Vec<(i64, i64)>,
    start: usize,
    window: Interval,
    budget: &mut Budget,
) -> HitResult {
    let terms = &mut buf[start..];
    // Constant case.
    if terms.is_empty() {
        return if window.contains(0) { HitResult::Yes } else { HitResult::No };
    }
    // Hull intersection.
    let hull_hi: i128 = terms.iter().map(|&(c, r)| c as i128 * r as i128).sum();
    let wlo = (window.lo as i128).max(0);
    let whi = (window.hi as i128).min(hull_hi);
    if wlo > whi {
        return HitResult::No;
    }
    // gcd reduction.
    let g = terms.iter().fold(0i64, |g, &(c, _)| gcd(g, c));
    debug_assert!(g > 0);
    let wlo_g = div_ceil_i128(wlo, g as i128);
    let whi_g = div_floor_i128(whi, g as i128);
    if wlo_g > whi_g {
        return HitResult::No;
    }
    if g > 1 {
        for t in terms.iter_mut() {
            t.0 /= g;
        }
    }
    // Gap lemma (coefficients ascending).
    terms.sort_unstable_by_key(|&(c, _)| c);
    let (hull_g, gap) = hull_and_gap(terms);
    let clo = wlo_g.max(0);
    let chi = whi_g.min(hull_g);
    if clo > chi {
        return HitResult::No;
    }
    if chi - clo >= gap {
        return HitResult::Yes;
    }
    // Branch on the largest coefficient.
    if !budget.spend() {
        return HitResult::MaybeYes;
    }
    let (c, r) = *terms.last().expect("nonempty");
    let rest = start..buf.len() - 1;
    let rest_hull: i128 = buf[rest.clone()].iter().map(|&(c2, r2)| c2 as i128 * r2 as i128).sum();
    // Feasible values a of this variable: need rest-sum ∈ [clo - c·a, chi - c·a] ∩ [0, rest_hull].
    let a_lo = div_ceil_i128(clo - rest_hull, c as i128).max(0);
    let a_hi = div_floor_i128(chi, c as i128).min(r as i128);
    if a_lo > a_hi {
        return HitResult::No;
    }
    let tail = buf.len();
    let mut saw_maybe = false;
    for a in a_lo..=a_hi {
        let sub_lo = (clo - c as i128 * a).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        let sub_hi = (chi - c as i128 * a).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        buf.extend_from_within(rest.clone());
        let sub = solve_norm(buf, tail, Interval::new(sub_lo, sub_hi), budget);
        buf.truncate(tail);
        match sub {
            HitResult::Yes => return HitResult::Yes,
            HitResult::MaybeYes => saw_maybe = true,
            HitResult::No => {}
        }
    }
    if saw_maybe {
        HitResult::MaybeYes
    } else {
        HitResult::No
    }
}

/// Decide `∃ x ∈ b, y ∈ extra : form(x) + c·y ∈ window`, where the
/// optional `extra = (c, range)` is one more variable appended after the
/// box's — the wrap variable `n` (coefficient `−M`) of a replacement
/// query — so callers never build an extended form or box. `terms` is
/// scratch space for the normalised query; passing the same buffer to
/// every query makes the solver allocation-free once it has grown.
///
/// `Yes`/`No` are exact; `MaybeYes` only occurs when the node budget is
/// exhausted (conservatively treated as a hit by miss analysis).
pub fn interval_hit(
    form: &AffineForm,
    b: &IntBox,
    extra: Option<(i64, Interval)>,
    window: Interval,
    budget: &mut Budget,
    terms: &mut Vec<(i64, i64)>,
) -> HitResult {
    budget.refill();
    let Some(norm_window) = normalize(form, b, extra, window, terms) else {
        return HitResult::No;
    };
    let r = solve_norm(terms, 0, norm_window, budget);
    if r == HitResult::MaybeYes {
        budget.fallbacks += 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumhit::enum_interval_hit;

    /// A query without an extra variable, on a fresh buffer.
    fn hit(f: &AffineForm, b: &IntBox, w: Interval, bud: &mut Budget) -> HitResult {
        interval_hit(f, b, None, w, bud, &mut Vec::new())
    }

    fn bx(ranges: &[(i64, i64)]) -> IntBox {
        IntBox::new(ranges.iter().map(|&(a, b)| Interval::new(a, b)).collect())
    }

    #[test]
    fn constant_form() {
        let f = AffineForm::constant(1, 5);
        let b = bx(&[(0, 10)]);
        let mut bud = Budget::default();
        assert_eq!(hit(&f, &b, Interval::new(5, 5), &mut bud), HitResult::Yes);
        assert_eq!(hit(&f, &b, Interval::new(6, 9), &mut bud), HitResult::No);
    }

    #[test]
    fn single_variable_stride() {
        // F(x) = 4x, x in [0, 100]: hits [18, 21] at x=5 (20), misses [17, 18]?
        // multiples of 4 in [17,18]: none -> No ; in [18,21]: 20 -> Yes.
        let f = AffineForm::new(vec![4], 0);
        let b = bx(&[(0, 100)]);
        let mut bud = Budget::default();
        assert_eq!(hit(&f, &b, Interval::new(18, 21), &mut bud), HitResult::Yes);
        assert_eq!(hit(&f, &b, Interval::new(17, 18), &mut bud), HitResult::No);
        // Out of hull.
        assert_eq!(hit(&f, &b, Interval::new(401, 500), &mut bud), HitResult::No);
    }

    #[test]
    fn negative_coefficients_reflect() {
        // F(x, y) = -3x + 2y + 1, x in [1,4], y in [0,5]: range [-11, 8].
        let f = AffineForm::new(vec![-3, 2], 1);
        let b = bx(&[(1, 4), (0, 5)]);
        let mut bud = Budget::default();
        for a in -15..12 {
            let want = enum_interval_hit(&f, &b, Interval::new(a, a + 1));
            let got = hit(&f, &b, Interval::new(a, a + 1), &mut bud);
            assert_eq!(got.as_conservative_bool(), want, "window [{}, {}]", a, a + 1);
            assert_ne!(got, HitResult::MaybeYes);
        }
    }

    #[test]
    fn cache_like_query() {
        // Typical replacement query: addr = 4*i + 4000*j - 8192*n,
        // i in [0,999], j in [0,9], n in [-10, 10]; window = one 32-byte
        // line-set window [s*32, s*32+31].
        let f = AffineForm::new(vec![4, 4000, -8192], 0);
        let b = bx(&[(0, 999), (0, 9), (-10, 10)]);
        let mut bud = Budget::default();
        for s in 0..256 {
            let w = Interval::new(s * 32, s * 32 + 31);
            let got = hit(&f, &b, w, &mut bud);
            // gcd is 4; every 32-byte window contains multiples of 4 and
            // i-steps of 4 are dense: must be Yes.
            assert_eq!(got, HitResult::Yes, "set {s}");
        }
        assert_eq!(bud.fallbacks, 0);
    }

    #[test]
    fn agrees_with_enumeration_on_random_cases() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
        for case in 0..500 {
            let n = rng.gen_range(1..=4usize);
            let coeffs: Vec<i64> = (0..n).map(|_| rng.gen_range(-40..=40i64)).collect();
            let c0 = rng.gen_range(-50..=50);
            let f = AffineForm::new(coeffs, c0);
            let dims: Vec<Interval> = (0..n)
                .map(|_| {
                    let lo = rng.gen_range(-6..=6i64);
                    Interval::new(lo, lo + rng.gen_range(0..=7i64))
                })
                .collect();
            let b = IntBox::new(dims);
            let wlo = rng.gen_range(-200..=200i64);
            let w = Interval::new(wlo, wlo + rng.gen_range(0..=10i64));
            let want = enum_interval_hit(&f, &b, w);
            let mut bud = Budget::default();
            let got = hit(&f, &b, w, &mut bud);
            assert_ne!(got, HitResult::MaybeYes, "case {case} fell back");
            assert_eq!(got == HitResult::Yes, want, "case {case}: f={f} box={b:?} w={w}");
        }
    }

    #[test]
    fn budget_exhaustion_is_conservative() {
        // A pathological instance forced to branch with a zero budget must
        // return MaybeYes, never a wrong No.
        let f = AffineForm::new(vec![1000, 999], 0);
        let b = bx(&[(0, 30), (0, 30)]);
        let mut bud = Budget::new(0);
        let r = hit(&f, &b, Interval::new(1, 2), &mut bud);
        assert_eq!(r, HitResult::MaybeYes);
        assert_eq!(bud.fallbacks, 1);
    }

    #[test]
    fn empty_box_or_window() {
        let f = AffineForm::new(vec![1], 0);
        let mut bud = Budget::default();
        assert_eq!(
            hit(&f, &IntBox::new(vec![Interval::empty()]), Interval::new(0, 10), &mut bud),
            HitResult::No
        );
        assert_eq!(hit(&f, &bx(&[(0, 5)]), Interval::empty(), &mut bud), HitResult::No);
    }
}
