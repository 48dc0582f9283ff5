//! Transform legality decided from direction vectors.
//!
//! * **Rectangular tiling** (tile every loop, hoist all block loops
//!   outermost, Fig. 3(b) of the paper) is legal exactly when the nest is
//!   *fully permutable*: no loop-carried direction vector contains a `>`
//!   component.
//! * A **loop permutation** is legal when every loop-carried direction
//!   vector, reordered by the permutation, stays lexicographically
//!   positive (loop-independent dependences are preserved by any
//!   permutation of a perfect nest).
//!
//! The verdict type ([`TilingLegality`]) lives in `cme_loopnest::deps`,
//! next to the brute-force tiled-trace oracle that checks it. Reason
//! strings follow the repo's ref-indexed wording convention:
//! ``ref N (`array`): …``.

use crate::dependence::{analyze, render_dirs, DependenceAnalysis, Dir};
use cme_loopnest::deps::TilingLegality;
use cme_loopnest::LoopNest;
use serde::{Deserialize, Serialize};

/// A dependence that rules a transform out: the offending pair and its
/// direction vector (in original loop order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Source reference index.
    pub src: usize,
    /// Destination reference index.
    pub dst: usize,
    /// The loop-carried direction vector that the transform would break.
    pub dirs: Vec<Dir>,
}

/// The first dependence (in pair order) that makes rectangular tiling
/// illegal: a carried direction vector with a `>` component.
pub fn tiling_violation(analysis: &DependenceAnalysis) -> Option<Violation> {
    for pair in &analysis.pairs {
        for dirs in &pair.carried {
            if dirs.contains(&Dir::Gt) {
                return Some(Violation { src: pair.src, dst: pair.dst, dirs: dirs.clone() });
            }
        }
    }
    None
}

/// The first dependence reversed by `perm` (new level `k` executes old
/// loop `perm[k]`): a carried direction vector whose reordering is
/// lexicographically negative.
pub fn permutation_violation(analysis: &DependenceAnalysis, perm: &[usize]) -> Option<Violation> {
    for pair in &analysis.pairs {
        for dirs in &pair.carried {
            let reordered: Vec<Dir> = perm.iter().map(|&p| dirs[p]).collect();
            let lex_positive =
                reordered.iter().find(|&&s| s != Dir::Eq).is_some_and(|&first| first == Dir::Lt);
            if !lex_positive {
                return Some(Violation { src: pair.src, dst: pair.dst, dirs: dirs.clone() });
            }
        }
    }
    None
}

/// Decide whether rectangular tiling (any tile sizes, block loops
/// outermost) preserves all data dependences of the nest.
pub fn rectangular_tiling_legality(nest: &LoopNest) -> TilingLegality {
    let analysis = analyze(nest);
    match tiling_violation(&analysis) {
        None => TilingLegality::Legal,
        Some(v) => TilingLegality::Illegal { reason: tiling_reason(nest, &v) },
    }
}

/// Decide whether permuting the loops by `perm` (new level `k` executes
/// old loop `perm[k]`) preserves all dependences.
pub fn permutation_legality(nest: &LoopNest, perm: &[usize]) -> TilingLegality {
    let d = nest.depth();
    assert_eq!(perm.len(), d, "permutation arity");
    {
        let mut seen = vec![false; d];
        for &p in perm {
            assert!(p < d && !seen[p], "not a permutation");
            seen[p] = true;
        }
    }
    let analysis = analyze(nest);
    match permutation_violation(&analysis, perm) {
        None => TilingLegality::Legal,
        Some(v) => TilingLegality::Illegal { reason: permutation_reason(nest, &v, perm) },
    }
}

/// Ref-indexed reason for an illegal rectangular tiling.
pub fn tiling_reason(nest: &LoopNest, v: &Violation) -> String {
    let array = &nest.array(nest.refs[v.src].array).name;
    format!(
        "ref {} (`{array}`): dependence from ref {} (`{array}`) has direction vector {}; \
         a `>` component forbids rectangular tiling",
        v.dst,
        v.src,
        render_dirs(&v.dirs)
    )
}

/// Ref-indexed reason for an illegal permutation.
pub fn permutation_reason(nest: &LoopNest, v: &Violation, perm: &[usize]) -> String {
    let array = &nest.array(nest.refs[v.src].array).name;
    format!(
        "ref {} (`{array}`): dependence from ref {} (`{array}`) with direction vector {} \
         is reversed by permutation {perm:?}",
        v.dst,
        v.src,
        render_dirs(&v.dirs)
    )
}

/// A compact, serialisable legality digest for outcomes and lint reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LegalitySummary {
    /// True iff rectangular tiling (block loops outermost) is legal.
    pub rectangular_tiling: bool,
    /// Number of loop-carried direction vectors across all pairs.
    pub carried_dependences: u64,
    /// Number of same-iteration (loop-independent) dependences.
    pub loop_independent_dependences: u64,
    /// True iff some verdict relied on an exhausted search budget
    /// (conservatively assumed dependent).
    pub budget_exhausted: bool,
}

/// Digest an already-computed analysis.
pub fn summarize(analysis: &DependenceAnalysis) -> LegalitySummary {
    LegalitySummary {
        rectangular_tiling: tiling_violation(analysis).is_none(),
        carried_dependences: analysis.carried_count(),
        loop_independent_dependences: analysis.loop_independent_count(),
        budget_exhausted: analysis.budget_exhausted,
    }
}

/// Analyze `nest` and digest the result in one call.
pub fn legality_summary(nest: &LoopNest) -> LegalitySummary {
    summarize(&analyze(nest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_loopnest::array::{ArrayDecl, ArrayId};
    use cme_loopnest::nest::LoopDef;
    use cme_loopnest::refs::MemRef;
    use cme_polyhedra::AffineForm;

    fn form(c: Vec<i64>, c0: i64) -> AffineForm {
        AffineForm::new(c, c0)
    }

    /// x(i,j) = x(i-1,j+1): carried (<, >) — tiling illegal.
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
    fn skewed_tiling_illegal_with_ref_indexed_reason() {
        match rectangular_tiling_legality(&skewed(8)) {
            TilingLegality::Illegal { reason } => {
                // Pin the ref-indexed wording convention (PR-5 style).
                assert_eq!(
                    reason,
                    "ref 0 (`x`): dependence from ref 1 (`x`) has direction vector (<, >); \
                     a `>` component forbids rectangular tiling"
                );
            }
            TilingLegality::Legal => panic!("skewed recurrence must be illegal to tile"),
        }
    }

    #[test]
    fn skewed_interchange_illegal_with_ref_indexed_reason() {
        assert!(permutation_legality(&skewed(8), &[0, 1]).is_legal());
        match permutation_legality(&skewed(8), &[1, 0]) {
            TilingLegality::Illegal { reason } => {
                assert_eq!(
                    reason,
                    "ref 0 (`x`): dependence from ref 1 (`x`) with direction vector (<, >) \
                     is reversed by permutation [1, 0]"
                );
            }
            TilingLegality::Legal => panic!("swapping a (<, >) dependence must be illegal"),
        }
    }

    #[test]
    fn summary_counts() {
        let s = legality_summary(&skewed(8));
        assert!(!s.rectangular_tiling);
        assert_eq!(s.carried_dependences, 1);
        assert_eq!(s.loop_independent_dependences, 0);
        assert!(!s.budget_exhausted);
    }
}
