//! The checker against the tiled-trace oracle: `brute_force_legality`
//! replays a tiny nest in original and tiled order and reports whether
//! every dependent pair of accesses kept its order.

use cme_analysis::rectangular_tiling_legality;
use cme_loopnest::builder::{sub, NestBuilder};
use cme_loopnest::deps::brute_force_legality;
use cme_loopnest::{LoopNest, MemoryLayout, TileSizes};

/// Small enough for pairwise replay; even, because DRADBG asserts an
/// even size.
const SIZE: i64 = 6;

fn replays_in_order(nest: &LoopNest, tile: i64) -> bool {
    let tiles = TileSizes(vec![tile; nest.depth()]);
    tiles.validate(nest).unwrap_or_else(|e| panic!("{}: tiles {tiles}: {e}", nest.name));
    brute_force_legality(nest, &MemoryLayout::contiguous(nest), &tiles)
}

#[test]
fn every_tileable_registry_kernel_keeps_its_dependences_when_tiled() {
    for spec in cme_kernels::all_kernels() {
        let nest = (spec.build)(SIZE).unwrap();
        if !rectangular_tiling_legality(&nest).is_legal() {
            continue;
        }
        for tile in [2, 3] {
            assert!(
                replays_in_order(&nest, tile),
                "{}: tile {tile} reorders a dependence",
                spec.name
            );
        }
    }
}

#[test]
fn skewed_recurrence_is_illegal_to_the_checker_and_the_oracle() {
    // x(i,j) = x(i-1,j+1): distance (1, -1), direction (<, >).
    let mut nb = NestBuilder::new("skew");
    let i = nb.add_loop("i", 2, SIZE);
    let j = nb.add_loop("j", 1, SIZE - 1);
    let x = nb.array("x", &[SIZE, SIZE]);
    nb.read(x, &[sub(i).minus(1), sub(j).plus(1)]);
    nb.write(x, &[sub(i), sub(j)]);
    let nest = nb.finish().unwrap();
    assert!(!rectangular_tiling_legality(&nest).is_legal());
    for tile in [2, 3] {
        assert!(!replays_in_order(&nest, tile), "tile {tile} must reorder the recurrence");
    }
}
