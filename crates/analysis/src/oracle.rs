//! Brute-force dependence oracle: enumerate every iteration pair.
//!
//! On a shrunk iteration space this computes the *exact* dependence
//! structure of the nest's bounding box (`LoopNest::iter_box`) by
//! replaying it. For a triangular nest that box over-approximates the
//! trapezoid the nest really runs, just as the static tests do, so there
//! the two are not independent. For each ordered reference pair it
//! buckets iterations by the array element they touch and records the
//! componentwise direction of every (earlier, later) iteration pair on a
//! shared element. The static tests in [`crate::dependence`] are
//! differential-tested against this oracle across the whole kernel
//! registry, and proptests assert the static verdicts are never
//! *unsoundly* permissive (see `tests/` in this crate).

use crate::dependence::{DependenceAnalysis, Dir, PairDeps};
use cme_loopnest::LoopNest;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// Exact dependence structure by exhaustive enumeration. Intended for
/// shrunk nests: cost is `O(iterations²)` per reference pair in the worst
/// case (element bucketing makes the common case near-linear).
pub fn oracle_analyze(nest: &LoopNest) -> DependenceAnalysis {
    let points: Vec<Vec<i64>> = nest.iter_box().iter_points().collect();
    let mut out = DependenceAnalysis::default();
    for (src, r1) in nest.refs.iter().enumerate() {
        for (dst, r2) in nest.refs.iter().enumerate() {
            if r1.array != r2.array || (!r1.is_write() && !r2.is_write()) {
                continue;
            }
            // Bucket the source access's element coordinates.
            let mut by_element: HashMap<Vec<i64>, Vec<usize>> = HashMap::new();
            for (idx, p) in points.iter().enumerate() {
                let coords: Vec<i64> = r1.subscripts.iter().map(|s| s.eval(p)).collect();
                by_element.entry(coords).or_default().push(idx);
            }
            let mut carried = BTreeSet::new();
            let mut loop_independent = false;
            for (j_idx, pj) in points.iter().enumerate() {
                let coords: Vec<i64> = r2.subscripts.iter().map(|s| s.eval(pj)).collect();
                let Some(bucket) = by_element.get(&coords) else { continue };
                for &i_idx in bucket {
                    match i_idx.cmp(&j_idx) {
                        // Iteration points enumerate in lexicographic
                        // order, so index order is execution order.
                        Ordering::Less => {
                            let pi = &points[i_idx];
                            let dirs: Vec<Dir> = pi
                                .iter()
                                .zip(pj)
                                .map(|(a, b)| match a.cmp(b) {
                                    Ordering::Less => Dir::Lt,
                                    Ordering::Equal => Dir::Eq,
                                    Ordering::Greater => Dir::Gt,
                                })
                                .collect();
                            carried.insert(dirs);
                        }
                        Ordering::Equal => {
                            if src < dst {
                                loop_independent = true;
                            }
                        }
                        Ordering::Greater => {} // belongs to the (dst, src) pair
                    }
                }
            }
            if carried.is_empty() && !loop_independent {
                continue;
            }
            out.pairs.push(PairDeps {
                src,
                dst,
                carried: carried.into_iter().collect(),
                loop_independent,
                budget_exhausted: false,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependence::analyze;
    use cme_loopnest::array::{ArrayDecl, ArrayId};
    use cme_loopnest::nest::{LoopDef, LoopNest};
    use cme_loopnest::refs::MemRef;
    use cme_polyhedra::AffineForm;

    #[test]
    fn oracle_matches_static_on_a_skewed_recurrence() {
        let n = 7;
        let nest = LoopNest {
            name: "skew".into(),
            loops: vec![LoopDef::new("i", 2, n), LoopDef::new("j", 1, n - 1)],
            arrays: vec![ArrayDecl::real4("x", &[n, n])],
            refs: vec![
                MemRef::read(
                    ArrayId(0),
                    vec![AffineForm::new(vec![1, 0], -1), AffineForm::new(vec![0, 1], 1)],
                ),
                MemRef::write(
                    ArrayId(0),
                    vec![AffineForm::new(vec![1, 0], 0), AffineForm::new(vec![0, 1], 0)],
                ),
            ],
        };
        assert_eq!(oracle_analyze(&nest), analyze(&nest));
    }
}
