//! Bring your own kernel: build a nest with the DSL, check tiling
//! legality, tune it, and inspect the equations.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use cme_suite::analysis::rectangular_tiling_legality;
use cme_suite::cme::equations::CmeEquations;
use cme_suite::cme::{CacheSpec, CmeModel};
use cme_suite::loopnest::builder::{sub, NestBuilder};
use cme_suite::loopnest::{display, MemoryLayout};
use cme_suite::tileopt::TilingOptimizer;

fn main() {
    // A blurred-copy kernel: out(i,j) = in(i,j) + in(i+1,j) + in(i,j+1).
    let n = 256;
    let mut nb = NestBuilder::new("blur");
    let i = nb.add_loop("i", 1, n - 1);
    let j = nb.add_loop("j", 1, n - 1);
    let input = nb.array("in", &[n, n]);
    let output = nb.array("out", &[n, n]);
    nb.read(input, &[sub(i), sub(j)]);
    nb.read(input, &[sub(i).plus(1), sub(j)]);
    nb.read(input, &[sub(i), sub(j).plus(1)]);
    nb.write(output, &[sub(i), sub(j)]);
    let nest = nb.finish().expect("valid kernel");
    println!("{}", display::render(&nest));

    // Is rectangular tiling legal? (No loop-carried dependences here.)
    let legality = rectangular_tiling_legality(&nest);
    println!("tiling legality: {legality:?}");

    // Inspect the equation system the analysis builds.
    let cache = CacheSpec::paper_8k();
    let model = CmeModel::new(cache);
    let layout = MemoryLayout::contiguous(&nest);
    let analysis = model.analyze(&nest, &layout, None);
    let eqs = CmeEquations::generate(&analysis);
    println!(
        "CME system (untiled): {} compulsory equations, {} replacement equations",
        eqs.compulsory.len(),
        eqs.replacement.len()
    );

    // Tune with tiling alone. Note: at n = 256 the two arrays are exact
    // multiples of the cache size, so in(i,j) and out(i,j) alias — a
    // conflict that tiling cannot remove (the paper's §4.3 situation).
    let out = TilingOptimizer::new(cache).optimize(&nest, &layout).expect("legal");
    println!(
        "tiling alone: replacement ratio {:.2}% → {:.2}% with tiles {}",
        out.before.replacement_ratio() * 100.0,
        out.after.replacement_ratio() * 100.0,
        out.tiles
    );

    // The tiled space has up to 2^d convex regions (§2.4).
    let tiled = model.analyze(&nest, &layout, Some(&out.tiles));
    let teqs = CmeEquations::generate(&tiled);
    println!(
        "CME system (tiled): {} regions; {} compulsory, {} replacement equations",
        tiled.space.regions.len(),
        teqs.compulsory.len(),
        teqs.replacement.len()
    );

    // Joint padding + tiling (the paper's future-work extension) fixes the
    // alignment conflict *and* blocks the remaining capacity misses.
    // Custom kernels go through the same unified API as registry kernels:
    // the nest IR is serde-able, so the whole request survives the wire.
    use cme_suite::api::{NestSource, OptimizeRequest, PaddingMode, Session, StrategySpec};
    let request = OptimizeRequest::new(
        NestSource::Inline(nest),
        StrategySpec::Padding { mode: PaddingMode::Joint },
    )
    .with_cache(cache);
    let joint = Session::default().run(&request).expect("legal");
    println!(
        "joint padding+tiling: replacement ratio {:.2}% with pads {:?} and tiles {}",
        joint.after.replacement_ratio() * 100.0,
        joint.transform.pads.as_ref().expect("joint search pads"),
        joint.transform.tiles.as_ref().expect("joint search tiles")
    );
}
