//! Classic dependence tests for general affine reference pairs.
//!
//! For an ordered pair of references `(src, dst)` to one array, a
//! dependence exists from the `src` access at iteration `i` to the `dst`
//! access at iteration `j` when both touch the same array element and
//! `i` executes before `j` (either `i` lexicographically precedes `j`, or
//! `i = j` and `src` precedes `dst` in the loop body). The per-level
//! **direction vector** `σ` records, for each loop `k`, whether
//! `i_k < j_k` (`<`), `i_k = j_k` (`=`) or `i_k > j_k` (`>`).
//!
//! Directions are enumerated hierarchically (Burke/Cytron): starting from
//! the unrefined pattern `(*, …, *)`, each level is split into `<`/`=`/`>`
//! and infeasible subtrees are pruned. A pattern is tested with, in order:
//!
//! 1. the **GCD test** per subscript dimension (a linear Diophantine
//!    divisibility check, merging `i_k = j_k` under `=` directions);
//! 2. **Banerjee bounds** with direction constraints — the subscript
//!    difference is bounded over the constrained `(i_k, j_k)` region by
//!    evaluating at the region's vertices (exact for affine forms);
//! 3. an **exact integer test** on the full 2·depth-variable polyhedron
//!    (subscript equalities + direction inequalities) at leaf patterns,
//!    so recorded direction vectors are exact, not approximate.
//!
//! When the exact test's node budget is exhausted the pattern is assumed
//! feasible (sound: we may over-report, never under-report dependences)
//! and the analysis is flagged.

use cme_loopnest::LoopNest;
use cme_polyhedra::polyhedron::{Constraint, Polyhedron};
use cme_polyhedra::{AffineForm, IntBox, Interval};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Node budget for one exact integer feasibility query.
pub const NODE_BUDGET: u64 = 200_000;

/// One component of a direction vector: how the source iteration relates
/// to the destination iteration at one loop level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Dir {
    /// `i_k < j_k`: the source iteration is earlier in this loop.
    Lt,
    /// `i_k = j_k`.
    Eq,
    /// `i_k > j_k`: the source iteration is later in this loop.
    Gt,
}

impl Dir {
    /// The conventional one-character rendering: `<`, `=` or `>`.
    pub fn symbol(self) -> &'static str {
        match self {
            Dir::Lt => "<",
            Dir::Eq => "=",
            Dir::Gt => ">",
        }
    }
}

/// Render a direction vector the way the literature writes it: `(<, =, >)`.
pub fn render_dirs(dirs: &[Dir]) -> String {
    let parts: Vec<&str> = dirs.iter().map(|d| d.symbol()).collect();
    format!("({})", parts.join(", "))
}

/// All dependences between one ordered reference pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairDeps {
    /// Source reference index (the earlier access) into `nest.refs`.
    pub src: usize,
    /// Destination reference index (the later access).
    pub dst: usize,
    /// Lexicographically positive direction vectors of loop-carried
    /// dependences, sorted (`Lt < Eq < Gt` componentwise).
    pub carried: Vec<Vec<Dir>>,
    /// True iff a same-iteration (all-`=`) dependence exists; only
    /// recorded when `src` precedes `dst` in the loop body.
    pub loop_independent: bool,
    /// True iff some direction vector of this pair was *assumed* (exact
    /// test budget exhausted) rather than proven.
    pub budget_exhausted: bool,
}

/// The dependence structure of a whole nest.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DependenceAnalysis {
    /// Pairs with at least one dependence, sorted by `(src, dst)`.
    pub pairs: Vec<PairDeps>,
    /// True iff any pair's verdict relied on an exhausted search budget.
    pub budget_exhausted: bool,
}

impl DependenceAnalysis {
    /// Total number of loop-carried direction vectors across all pairs.
    pub fn carried_count(&self) -> u64 {
        self.pairs.iter().map(|p| p.carried.len() as u64).sum()
    }

    /// Total number of loop-independent dependences.
    pub fn loop_independent_count(&self) -> u64 {
        self.pairs.iter().filter(|p| p.loop_independent).count() as u64
    }
}

/// How sharp a feasibility answer is needed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Precision {
    /// Approximate tests only (pruning interior refinement nodes).
    Approximate,
    /// Approximate tests plus the exact integer test (leaf patterns).
    Exact,
}

/// Compute the dependence structure of `nest`: for every ordered pair of
/// references to the same array with at least one write, the exact set of
/// loop-carried direction vectors plus the loop-independent bit.
///
/// Read-read pairs are skipped (they are reuse, not dependence), and the
/// all-`=` pattern of a reference with itself is the same access, not a
/// dependence.
pub fn analyze(nest: &LoopNest) -> DependenceAnalysis {
    let mut out = DependenceAnalysis::default();
    for (src, r1) in nest.refs.iter().enumerate() {
        for (dst, r2) in nest.refs.iter().enumerate() {
            if r1.array != r2.array || (!r1.is_write() && !r2.is_write()) {
                continue;
            }
            let mut carried = BTreeSet::new();
            let mut loop_independent = false;
            let mut budget_exhausted = false;
            let mut pattern: Vec<Option<Dir>> = vec![None; nest.depth()];
            refine(
                nest,
                (src, dst),
                &mut pattern,
                0,
                &mut carried,
                &mut loop_independent,
                &mut budget_exhausted,
            );
            out.budget_exhausted |= budget_exhausted;
            if carried.is_empty() && !loop_independent {
                continue;
            }
            out.pairs.push(PairDeps {
                src,
                dst,
                carried: carried.into_iter().collect(),
                loop_independent,
                budget_exhausted,
            });
        }
    }
    out
}

/// Hierarchical direction refinement. Only lexicographically non-negative
/// patterns are visited: while the prefix is all-`=`, the `>` branch is
/// skipped (a lex-negative vector for `(src, dst)` is a lex-positive one
/// for `(dst, src)` and is found when that pair is processed).
fn refine(
    nest: &LoopNest,
    pair: (usize, usize),
    pattern: &mut Vec<Option<Dir>>,
    pos: usize,
    carried: &mut BTreeSet<Vec<Dir>>,
    loop_independent: &mut bool,
    budget_exhausted: &mut bool,
) {
    let d = pattern.len();
    if pos == d {
        if !feasible(nest, pair, pattern, Precision::Exact, budget_exhausted) {
            return;
        }
        let dirs: Vec<Dir> = pattern.iter().map(|o| o.unwrap_or(Dir::Eq)).collect();
        if dirs.iter().all(|&s| s == Dir::Eq) {
            // Same iteration: a dependence only when the source access
            // executes first within the body.
            if pair.0 < pair.1 {
                *loop_independent = true;
            }
        } else {
            carried.insert(dirs);
        }
        return;
    }
    if !feasible(nest, pair, pattern, Precision::Approximate, budget_exhausted) {
        return;
    }
    let prefix_all_eq = pattern[..pos].iter().all(|&s| s == Some(Dir::Eq));
    for dir in [Dir::Lt, Dir::Eq, Dir::Gt] {
        if dir == Dir::Gt && prefix_all_eq {
            continue; // would begin a lex-negative vector
        }
        pattern[pos] = Some(dir);
        refine(nest, pair, pattern, pos + 1, carried, loop_independent, budget_exhausted);
    }
    pattern[pos] = None;
}

/// Can the pattern be satisfied by some iteration pair `(i, j)` touching
/// the same element? `Approximate` may answer `true` spuriously (it only
/// prunes); `Exact` is decisive unless the node budget runs out, in which
/// case it answers `true` and sets the flag (conservative).
fn feasible(
    nest: &LoopNest,
    (src, dst): (usize, usize),
    pattern: &[Option<Dir>],
    precision: Precision,
    budget_exhausted: &mut bool,
) -> bool {
    let r1 = &nest.refs[src];
    let r2 = &nest.refs[dst];
    for (s1, s2) in r1.subscripts.iter().zip(&r2.subscripts) {
        if !gcd_test(s1, s2, pattern) {
            return false;
        }
        if !banerjee_test(nest, s1, s2, pattern) {
            return false;
        }
    }
    // A `<` or `>` direction needs at least two iterations at that level.
    for (l, p) in pattern.iter().enumerate() {
        if matches!(p, Some(Dir::Lt) | Some(Dir::Gt)) && nest.loops[l].span() < 2 {
            return false;
        }
    }
    if precision == Precision::Approximate {
        return true;
    }
    match exact_test(nest, (src, dst), pattern) {
        Some(empty) => !empty,
        None => {
            *budget_exhausted = true;
            true
        }
    }
}

/// GCD test on one subscript dimension: the Diophantine equation
/// `Σ c1_k·i_k − Σ c2_k·j_k = k2 − k1` has integer solutions only if
/// `gcd(coefficients)` divides the right-hand side. Under an `=`
/// direction, `i_k` and `j_k` merge into one variable with coefficient
/// `c1_k − c2_k`.
fn gcd_test(s1: &AffineForm, s2: &AffineForm, pattern: &[Option<Dir>]) -> bool {
    let rhs = s2.c0 - s1.c0;
    let mut g: i64 = 0;
    for (k, (&c1, &c2)) in s1.coeffs.iter().zip(&s2.coeffs).enumerate() {
        if pattern[k] == Some(Dir::Eq) {
            g = gcd(g, c1 - c2);
        } else {
            g = gcd(g, c1);
            g = gcd(g, c2);
        }
    }
    if g == 0 {
        rhs == 0
    } else {
        rhs % g == 0
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Banerjee bounds with direction constraints on one subscript dimension:
/// bound `s1(i) − s2(j)` over the region the pattern admits and test
/// whether the interval straddles zero. Per level the contribution
/// `c1_k·i_k − c2_k·j_k` is linear over a convex `(i_k, j_k)` region —
/// a segment (`=`), triangle (`<`/`>`) or box (`*`) — so its extrema sit
/// at the region's vertices.
fn banerjee_test(
    nest: &LoopNest,
    s1: &AffineForm,
    s2: &AffineForm,
    pattern: &[Option<Dir>],
) -> bool {
    let mut lo: i128 = (s1.c0 - s2.c0) as i128;
    let mut hi = lo;
    for (k, (&c1, &c2)) in s1.coeffs.iter().zip(&s2.coeffs).enumerate() {
        let (a, b) = (c1 as i128, -(c2 as i128));
        let (l, h) = (nest.loops[k].lo as i128, nest.loops[k].hi as i128);
        let minmax = |verts: &[(i128, i128)]| {
            verts
                .iter()
                .map(|&(i, j)| a * i + b * j)
                .fold((i128::MAX, i128::MIN), |(mn, mx), v| (mn.min(v), mx.max(v)))
        };
        let (vmin, vmax) = match pattern[k] {
            Some(Dir::Eq) => minmax(&[(l, l), (h, h)]),
            Some(Dir::Lt) => {
                if h <= l {
                    return false; // no pair with i_k < j_k
                }
                minmax(&[(l, l + 1), (l, h), (h - 1, h)])
            }
            Some(Dir::Gt) => {
                if h <= l {
                    return false;
                }
                minmax(&[(l + 1, l), (h, l), (h, h - 1)])
            }
            None => minmax(&[(l, l), (l, h), (h, l), (h, h)]),
        };
        lo += vmin;
        hi += vmax;
    }
    lo <= 0 && 0 <= hi
}

/// Exact integer feasibility of the pattern: build the polyhedron over
/// `(i_0..i_{d-1}, j_0..j_{d-1})` — loop bounds twice, subscript
/// equalities `s1(i) = s2(j)`, direction inequalities — and ask for an
/// integer point. `Some(empty)` is decisive, `None` means budget out.
fn exact_test(
    nest: &LoopNest,
    (src, dst): (usize, usize),
    pattern: &[Option<Dir>],
) -> Option<bool> {
    let d = nest.depth();
    let n = 2 * d;
    let window = IntBox::new(
        nest.loops.iter().chain(nest.loops.iter()).map(|l| Interval::new(l.lo, l.hi)).collect(),
    );
    let mut p = Polyhedron::from_box(&window);
    let (r1, r2) = (&nest.refs[src], &nest.refs[dst]);
    for (s1, s2) in r1.subscripts.iter().zip(&r2.subscripts) {
        let mut coeffs = vec![0i64; n];
        coeffs[..d].copy_from_slice(&s1.coeffs);
        for (k, &c2) in s2.coeffs.iter().enumerate() {
            coeffs[d + k] = -c2;
        }
        p.and_eq0(AffineForm::new(coeffs, s1.c0 - s2.c0));
    }
    for (k, pat) in pattern.iter().enumerate() {
        let mut diff = vec![0i64; n]; // j_k − i_k
        diff[d + k] = 1;
        diff[k] = -1;
        match pat {
            Some(Dir::Eq) => {
                p.and_eq0(AffineForm::new(diff, 0));
            }
            Some(Dir::Lt) => {
                p.and(Constraint::ge0(AffineForm::new(diff, -1)));
            }
            Some(Dir::Gt) => {
                p.and(Constraint::ge0(AffineForm::new(diff.iter().map(|c| -c).collect(), -1)));
            }
            None => {}
        }
    }
    let mut cap = NODE_BUDGET;
    p.is_empty_int(&window, &mut cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_loopnest::array::{ArrayDecl, ArrayId};
    use cme_loopnest::nest::LoopDef;
    use cme_loopnest::refs::MemRef;

    fn form(c: Vec<i64>, c0: i64) -> AffineForm {
        AffineForm::new(c, c0)
    }

    /// x(i,j) = x(i-1,j+1): flow dependence with distance (1,-1), i.e.
    /// direction vector (<, >).
    fn skewed(n: i64) -> LoopNest {
        LoopNest {
            name: "skew".into(),
            loops: vec![LoopDef::new("i", 2, n), LoopDef::new("j", 1, n - 1)],
            arrays: vec![ArrayDecl::real4("x", &[n, n])],
            refs: vec![
                MemRef::read(ArrayId(0), vec![form(vec![1, 0], -1), form(vec![0, 1], 1)]),
                MemRef::write(ArrayId(0), vec![form(vec![1, 0], 0), form(vec![0, 1], 0)]),
            ],
        }
    }

    #[test]
    fn skewed_recurrence_directions() {
        let a = analyze(&skewed(8));
        assert!(!a.budget_exhausted);
        // Flow: write x(i,j) at (i,j) is read as x(i'-1, j'+1) at
        // (i+1, j-1) — source earlier in i, later in j: (<, >).
        let flow = a.pairs.iter().find(|p| (p.src, p.dst) == (1, 0)).expect("write→read pair");
        assert_eq!(flow.carried, vec![vec![Dir::Lt, Dir::Gt]]);
        assert!(!flow.loop_independent);
        // The read→write direction is lex-negative (the write touching
        // the read's element is always an *earlier* iteration), so the
        // (0, 1) pair carries nothing and is not recorded; same-iteration
        // overlap is impossible (i-1 = i has no solution).
        assert_eq!(a.pairs.len(), 1, "{:?}", a.pairs);
    }

    /// x(i,j) = x(i,j-1): distance (0,1) — direction (=, <).
    #[test]
    fn forward_recurrence_directions() {
        let n = 8;
        let nest = LoopNest {
            name: "fwd".into(),
            loops: vec![LoopDef::new("i", 1, n), LoopDef::new("j", 2, n)],
            arrays: vec![ArrayDecl::real4("x", &[n, n])],
            refs: vec![
                MemRef::read(ArrayId(0), vec![form(vec![1, 0], 0), form(vec![0, 1], -1)]),
                MemRef::write(ArrayId(0), vec![form(vec![1, 0], 0), form(vec![0, 1], 0)]),
            ],
        };
        let a = analyze(&nest);
        let flow = a.pairs.iter().find(|p| (p.src, p.dst) == (1, 0)).expect("write→read pair");
        assert_eq!(flow.carried, vec![vec![Dir::Eq, Dir::Lt]]);
    }

    /// A non-uniform pair with provably disjoint footprints: the GCD test
    /// alone kills `2i = 2j' + 1`.
    #[test]
    fn gcd_test_separates_odd_even() {
        let n = 8;
        let nest = LoopNest {
            name: "oddeven".into(),
            loops: vec![LoopDef::new("i", 1, n)],
            arrays: vec![ArrayDecl::real4("x", &[2 * n + 2])],
            refs: vec![
                MemRef::read(ArrayId(0), vec![form(vec![2], 1)]),
                MemRef::write(ArrayId(0), vec![form(vec![2], 0)]),
            ],
        };
        let a = analyze(&nest);
        assert!(a.pairs.is_empty(), "{:?}", a.pairs);
    }

    /// Banerjee bounds separate shifted windows: x(i) vs x(i+n) never
    /// overlap within one window of n iterations.
    #[test]
    fn banerjee_separates_shifted_windows() {
        let n = 8;
        let nest = LoopNest {
            name: "shifted".into(),
            loops: vec![LoopDef::new("i", 1, n)],
            arrays: vec![ArrayDecl::real4("x", &[2 * n])],
            refs: vec![
                MemRef::read(ArrayId(0), vec![form(vec![1], 0)]),
                MemRef::write(ArrayId(0), vec![form(vec![1], n)]),
            ],
        };
        let a = analyze(&nest);
        assert!(a.pairs.is_empty(), "{:?}", a.pairs);
    }

    #[test]
    fn same_iteration_same_access_is_not_a_dependence() {
        // A lone write x(i): the (0,0) write-write pair has no carried
        // direction and all-`=` is the access itself.
        let n = 6;
        let nest = LoopNest {
            name: "lone".into(),
            loops: vec![LoopDef::new("i", 1, n)],
            arrays: vec![ArrayDecl::real4("x", &[n])],
            refs: vec![MemRef::write(ArrayId(0), vec![form(vec![1], 0)])],
        };
        let a = analyze(&nest);
        assert!(a.pairs.is_empty(), "{:?}", a.pairs);
    }

    #[test]
    fn render_is_the_literature_form() {
        assert_eq!(render_dirs(&[Dir::Lt, Dir::Eq, Dir::Gt]), "(<, =, >)");
    }
}
