//! Extension: combined loop interchange + tiling search.
//!
//! The paper fixes the loop order and searches tile sizes. Tiling already
//! subsumes much of interchange's power (a tile size of 1 effectively
//! demotes a loop), but an explicit order search can still win when the
//! best traversal differs from the source order. Since legality and
//! analysis machinery are already in place, the extension enumerates the
//! (≤ d!) *legal* permutations and runs the §3 GA tile search on each,
//! keeping the best — an ablation of how much headroom interchange adds
//! on the Table 1 kernels.

use crate::problem::{TilingOptimizer, TilingOutcome};
use cme_analysis::permutation_legality;
use cme_loopnest::deps::apply_permutation;
use cme_loopnest::{LoopNest, MemoryLayout};
use serde::{Deserialize, Serialize};

/// Outcome of the interchange + tiling search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterchangeOutcome {
    /// Winning permutation (new level `k` runs old loop `perm[k]`).
    pub permutation: Vec<usize>,
    /// Tiling outcome on the permuted nest.
    pub tiling: TilingOutcome,
    /// Number of legal permutations explored.
    pub explored: usize,
}

fn permutations(d: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..d).collect();
    fn rec(k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k == cur.len() {
            out.push(cur.clone());
            return;
        }
        for i in k..cur.len() {
            cur.swap(k, i);
            rec(k + 1, cur, out);
            cur.swap(k, i);
        }
    }
    rec(0, &mut cur, &mut out);
    out
}

/// Search legal permutations × GA tile sizes; returns the best by
/// estimated replacement misses. Errors when not even the identity order
/// admits rectangular tiling.
pub fn optimize_with_interchange(
    opt: &TilingOptimizer,
    nest: &LoopNest,
) -> Result<InterchangeOutcome, String> {
    let d = nest.depth();
    let mut best: Option<InterchangeOutcome> = None;
    let mut explored = 0;
    for perm in permutations(d) {
        if !permutation_legality(nest, &perm).is_legal() {
            continue;
        }
        let permuted = apply_permutation(nest, &perm);
        let layout = MemoryLayout::contiguous(&permuted);
        let Ok(outcome) = opt.optimize(&permuted, &layout) else {
            continue;
        };
        explored += 1;
        let better = match &best {
            None => true,
            Some(b) => outcome.ga.best_cost < b.tiling.ga.best_cost,
        };
        if better {
            best = Some(InterchangeOutcome { permutation: perm, tiling: outcome, explored: 0 });
        }
    }
    match best {
        Some(mut b) => {
            b.explored = explored;
            Ok(b)
        }
        None => Err(format!("no legal permutation of `{}` admits rectangular tiling", nest.name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_core::CacheSpec;

    #[test]
    fn permutation_enumeration() {
        assert_eq!(permutations(1), vec![vec![0]]);
        assert_eq!(permutations(3).len(), 6);
        let p4 = permutations(4);
        assert_eq!(p4.len(), 24);
        let unique: std::collections::HashSet<_> = p4.iter().collect();
        assert_eq!(unique.len(), 24);
    }

    #[test]
    fn interchange_never_worse_than_identity() {
        let nest = cme_kernels::transposes::t2d(64).unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let opt = TilingOptimizer::new(CacheSpec::direct_mapped(1024, 32));
        let identity = opt.optimize(&nest, &layout).unwrap();
        let inter = optimize_with_interchange(&opt, &nest).unwrap();
        assert_eq!(inter.explored, 2, "both orders of a transpose are legal");
        assert!(
            inter.tiling.ga.best_cost <= identity.ga.best_cost,
            "interchange explores a superset"
        );
    }

    #[test]
    fn tshift_gains_permutations_over_uniform_checker() {
        // TSHIFT's read a(j,i) / write a(i,j+n) pair is non-uniform: a
        // uniform-distance checker would reject it outright (zero legal
        // permutations), while the dependence analysis proves the column
        // bands disjoint, so both loop orders are explored.
        let nest = cme_kernels::transposes::tshift(48).unwrap();
        let opt = TilingOptimizer::new(CacheSpec::direct_mapped(1024, 32));
        let out = optimize_with_interchange(&opt, &nest).unwrap();
        assert_eq!(out.explored, 2, "dependence-free 2-deep nest: both orders legal");
    }

    #[test]
    fn recurrence_restricts_permutations() {
        // VPENTA2 carries x(i,j-1): loops (j,i); swapping to (i,j) keeps
        // the distance lex-positive, so both orders are legal.
        let nest = cme_kernels::nas::vpenta2(32).unwrap();
        let opt = TilingOptimizer::new(CacheSpec::direct_mapped(1024, 32));
        let out = optimize_with_interchange(&opt, &nest).unwrap();
        assert!(out.explored >= 1);
    }
}
