//! Ground-truth validation: the CME classifier must reproduce the exact
//! cache simulator on uniform-reference kernels — per reference, cold and
//! replacement counts, for direct-mapped and set-associative caches,
//! untiled and tiled.
//!
//! This is the strongest property of the whole model: the paper's
//! evaluation trusts CMEs (validated in prior literature); here the
//! equivalence is machine-checked.

use cme_cachesim::{simulate_nest, CacheGeometry};
use cme_core::{CacheSpec, CmeModel};
use cme_kernels::{linalg, stencils, transposes};
use cme_loopnest::builder::{sub, NestBuilder};
use cme_loopnest::{LoopNest, MemoryLayout, TileSizes};

fn check(
    nest: &LoopNest,
    layout: &MemoryLayout,
    tiles: Option<&TileSizes>,
    size: i64,
    line: i64,
    assoc: i64,
) {
    let spec = CacheSpec { size, line, assoc };
    let geo = CacheGeometry { size, line, assoc };
    let model = CmeModel::new(spec);
    let an = model.analyze(nest, layout, tiles);
    let cme = an.exhaustive();
    let sim = simulate_nest(nest, layout, tiles, geo);
    assert_eq!(
        cme.solver.fallbacks, 0,
        "{}: solver fell back; validation requires exact answers",
        nest.name
    );
    for (r, (c, s)) in cme.per_ref.iter().zip(&sim.per_ref).enumerate() {
        assert_eq!(c.points, s.accesses, "{} ref {r}: access counts", nest.name);
        assert_eq!(
            (c.cold, c.replacement),
            (s.cold, s.replacement),
            "{} ref {r} (cache {size}B/{line}B/{assoc}-way, tiles {tiles:?}): CME vs simulator",
            nest.name
        );
    }
}

fn check_all_caches(nest: &LoopNest, tiles: Option<&TileSizes>) {
    let layout = MemoryLayout::contiguous(nest);
    for (size, line) in [(128, 16), (256, 32), (512, 32)] {
        for assoc in [1, 2] {
            check(nest, &layout, tiles, size, line, assoc);
        }
    }
}

#[test]
fn t2d_untiled_matches_simulator() {
    check_all_caches(&transposes::t2d(12).unwrap(), None);
}

#[test]
fn t2d_tiled_matches_simulator() {
    let nest = transposes::t2d(12).unwrap();
    for tiles in [vec![4, 4], vec![3, 5], vec![5, 12], vec![1, 12], vec![12, 12]] {
        check_all_caches(&nest, Some(&TileSizes(tiles)));
    }
}

#[test]
fn t3d_small_matches_simulator() {
    check_all_caches(&transposes::t3djik(6).unwrap(), None);
    check_all_caches(&transposes::t3djik(6).unwrap(), Some(&TileSizes(vec![2, 3, 6])));
    check_all_caches(&transposes::t3dikj(6).unwrap(), None);
    check_all_caches(&transposes::t3dikj(6).unwrap(), Some(&TileSizes(vec![4, 2, 2])));
}

#[test]
fn mm_matches_simulator() {
    let nest = linalg::mm(8).unwrap();
    check_all_caches(&nest, None);
    for tiles in [vec![2, 2, 8], vec![3, 3, 3], vec![8, 1, 4]] {
        check_all_caches(&nest, Some(&TileSizes(tiles)));
    }
}

#[test]
fn jacobi_matches_simulator() {
    let nest = stencils::jacobi3d(8).unwrap();
    check_all_caches(&nest, None);
    check_all_caches(&nest, Some(&TileSizes(vec![3, 2, 4])));
}

#[test]
fn adi_matches_simulator() {
    let nest = stencils::adi(12).unwrap();
    check_all_caches(&nest, None);
    check_all_caches(&nest, Some(&TileSizes(vec![4, 5])));
}

#[test]
fn matmul_matches_simulator() {
    let nest = linalg::matmul(7).unwrap();
    check_all_caches(&nest, None);
    check_all_caches(&nest, Some(&TileSizes(vec![3, 3, 3])));
}

#[test]
fn padded_layouts_match_simulator() {
    // Padding changes bases and strides; the model must track both.
    let nest = transposes::t2d(12).unwrap();
    let inter = vec![16, 48];
    let intra = vec![vec![3, 0], vec![0, 2]];
    let layout = MemoryLayout::with_padding(&nest, &inter, &intra);
    for assoc in [1, 2] {
        check(&nest, &layout, None, 256, 32, assoc);
        check(&nest, &layout, Some(&TileSizes(vec![5, 3])), 256, 32, assoc);
    }
}

#[test]
fn four_way_associative_matches() {
    let nest = linalg::mm(6).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    check(&nest, &layout, None, 256, 32, 4);
    check(&nest, &layout, Some(&TileSizes(vec![2, 3, 4])), 256, 32, 4);
}

/// A strided/reversed-subscript kernel in the style of the BIHAR passes.
#[test]
fn strided_and_reversed_match_simulator() {
    let mut nb = NestBuilder::new("strided");
    let j = nb.add_loop("j", 1, 6);
    let k = nb.add_loop("k", 1, 8);
    let cc = nb.array("cc", &[12, 8]);
    let ch = nb.array("ch", &[8, 6]);
    nb.read(cc, &[sub(j).times(2).minus(1), sub(k)]);
    nb.read(cc, &[sub(j).times(2), sub(k)]);
    nb.write(ch, &[sub(k), sub(j)]);
    let nest = nb.finish().unwrap();
    check_all_caches(&nest, None);
    check_all_caches(&nest, Some(&TileSizes(vec![2, 3])));
}

/// Aliased-array ping-pong: the conflict-miss stress case.
#[test]
fn aliased_arrays_match_simulator() {
    let mut nb = NestBuilder::new("alias");
    let i = nb.add_loop("i", 1, 32);
    let j = nb.add_loop("j", 1, 8);
    let x = nb.array("x", &[32, 8]);
    let y = nb.array("y", &[32, 8]);
    nb.read(x, &[sub(i), sub(j)]);
    nb.read(y, &[sub(i), sub(j)]);
    nb.write(y, &[sub(i), sub(j)]);
    let nest = nb.finish().unwrap();
    // 1 KB cache: x and y (1 KB each) alias exactly.
    let layout = MemoryLayout::contiguous(&nest);
    for assoc in [1, 2] {
        check(&nest, &layout, None, 1024, 32, assoc);
        check(&nest, &layout, Some(&TileSizes(vec![8, 8])), 1024, 32, assoc);
    }
}
