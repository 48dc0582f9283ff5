//! Differential suite: the static dependence tests (GCD → Banerjee →
//! exact polyhedron) against the brute-force enumeration oracle, across
//! the *entire* kernel registry at shrunk problem sizes.
//!
//! This is the load-bearing correctness argument for the analysis crate:
//! on every registry nest the static pipeline must reproduce the exact
//! dependence structure — same pairs, same direction vectors, same
//! loop-independent flags — without ever falling back to its budget
//! escape hatch. Legality verdicts (rectangular tiling and every loop
//! permutation) must then agree as a corollary.

use cme_analysis::{
    analyze, oracle_analyze, permutation_violation, tiling_violation, DependenceAnalysis,
};

/// Shrunk problem size: big enough to exercise boundary behaviour
/// (stencil halos, skewed recurrences), small enough that exhaustive
/// enumeration stays instant.
const SHRUNK: i64 = 8;

fn permutations(d: usize) -> Vec<Vec<usize>> {
    if d == 1 {
        return vec![vec![0]];
    }
    let mut out = Vec::new();
    for p in permutations(d - 1) {
        for pos in 0..=p.len() {
            let mut q = p.clone();
            q.insert(pos, d - 1);
            out.push(q);
        }
    }
    out
}

fn pretty(a: &DependenceAnalysis) -> String {
    let mut s = String::new();
    for p in &a.pairs {
        s.push_str(&format!(
            "  {} -> {} carried {:?} loop_independent {}\n",
            p.src, p.dst, p.carried, p.loop_independent
        ));
    }
    s
}

#[test]
fn static_analysis_matches_the_oracle_on_every_registry_kernel() {
    for spec in cme_kernels::all_kernels() {
        let nest = (spec.build)(SHRUNK).unwrap();
        let fast = analyze(&nest);
        let slow = oracle_analyze(&nest);
        assert!(
            !fast.budget_exhausted,
            "{}: analysis fell back to the budget escape hatch at a shrunk size",
            spec.name
        );
        assert_eq!(
            fast,
            slow,
            "{}: static analysis disagrees with the enumeration oracle\nstatic:\n{}oracle:\n{}",
            spec.name,
            pretty(&fast),
            pretty(&slow)
        );
    }
}

#[test]
fn legality_verdicts_agree_for_tiling_and_every_permutation() {
    for spec in cme_kernels::all_kernels() {
        let nest = (spec.build)(SHRUNK).unwrap();
        let fast = analyze(&nest);
        let slow = oracle_analyze(&nest);
        assert_eq!(
            tiling_violation(&fast).is_none(),
            tiling_violation(&slow).is_none(),
            "{}: rectangular-tiling verdict differs",
            spec.name
        );
        for perm in permutations(nest.depth()) {
            assert_eq!(
                permutation_violation(&fast, &perm).is_none(),
                permutation_violation(&slow, &perm).is_none(),
                "{}: permutation {:?} verdict differs",
                spec.name,
                perm
            );
        }
    }
}

/// Spot-check that the differential suite is not vacuous: the registry
/// must contain kernels with carried dependences (ADI), loop-independent
/// dependences (MM), and a dependence-free non-uniform pair (TSHIFT).
#[test]
fn registry_covers_the_interesting_dependence_shapes() {
    let shape = |name: &str| {
        let spec = cme_kernels::kernel_by_name(name).unwrap();
        let a = oracle_analyze(&(spec.build)(SHRUNK).unwrap());
        (a.carried_count(), a.loop_independent_count())
    };
    let (adi_carried, _) = shape("ADI");
    assert!(adi_carried > 0, "ADI should carry dependences");
    let (_, mm_indep) = shape("MM");
    assert!(mm_indep > 0, "MM should have loop-independent dependences");
    assert_eq!(shape("TSHIFT"), (0, 0), "TSHIFT's non-uniform pair is dependence-free");
}
