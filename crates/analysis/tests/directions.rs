//! Direction vectors for the classic kernels, pinned by hand.
//!
//! These are the textbook results: MM's reduction is carried by the
//! innermost loop only (fully permutable, freely tileable), ADI's sweep
//! carries a dependence at the outer level, the out-of-place stencils and
//! transposes have no dependences at all, and TSHIFT — a non-uniform
//! pair no distance-vector solve can relate — is proven dependence-free.

use cme_analysis::{analyze, rectangular_tiling_legality, render_dirs, Dir};

fn build(name: &str, n: i64) -> cme_loopnest::LoopNest {
    (cme_kernels::kernel_by_name(name).unwrap().build)(n).unwrap()
}

#[test]
fn mm_reduction_is_carried_only_by_the_innermost_loop() {
    let a = analyze(&build("MM", 8));
    assert!(!a.pairs.is_empty(), "MM has the a[i][j] reduction pair");
    for p in &a.pairs {
        for dirs in &p.carried {
            assert_eq!(
                dirs,
                &vec![Dir::Eq, Dir::Eq, Dir::Lt],
                "MM carried direction must be (=, =, <), got ({})",
                render_dirs(dirs)
            );
        }
    }
    // (=, =, <) stays lex-positive under any permutation: fully tileable.
    assert!(rectangular_tiling_legality(&build("MM", 8)).is_legal());
}

#[test]
fn adi_sweep_is_carried_at_the_outer_level() {
    let a = analyze(&build("ADI", 8));
    let carried: Vec<&Vec<Dir>> = a.pairs.iter().flat_map(|p| p.carried.iter()).collect();
    assert!(
        carried.iter().any(|d| d.as_slice() == [Dir::Lt, Dir::Eq]),
        "ADI's x(i-1) recurrence should be carried at level 0 with (<, =), got {:?}",
        carried.iter().map(|d| render_dirs(d)).collect::<Vec<_>>()
    );
    // (<, =) survives rectangular tiling (no `>` component) …
    assert!(rectangular_tiling_legality(&build("ADI", 8)).is_legal());
}

#[test]
fn out_of_place_kernels_have_no_dependences() {
    for name in ["JACOBI3D", "T2D"] {
        let a = analyze(&build(name, 8));
        assert!(
            a.pairs.is_empty(),
            "{name} reads and writes distinct arrays; expected no dependence pairs, got {}",
            a.pairs.len()
        );
    }
}

#[test]
fn tshift_non_uniform_pair_is_proven_dependence_free() {
    let nest = build("TSHIFT", 8);
    // The read a(j, i) and write a(i, j+n) touch the same array with a
    // non-uniform subscript pair; the Banerjee/exact pipeline proves the
    // column bands disjoint.
    let a = analyze(&nest);
    assert!(a.pairs.is_empty(), "TSHIFT bands are disjoint: no dependences");
    assert!(rectangular_tiling_legality(&nest).is_legal());
}

#[test]
fn every_registry_kernel_is_tileable_except_trsolve() {
    for spec in cme_kernels::all_kernels() {
        let legal = rectangular_tiling_legality(&build(spec.name, 8)).is_legal();
        // TRSOLVE's refusal is conservative: the analysis reasons over
        // the bounding box, where the read b(j) also reaches j > i.
        assert_eq!(legal, spec.name != "TRSOLVE", "{}: tiling verdict", spec.name);
    }
}
