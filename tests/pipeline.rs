//! End-to-end integration: kernels → CME analysis → GA optimisation →
//! verification of the *transformed program* with the exact simulator.
//! This closes the loop the paper could not: the chosen tiling is
//! executed (trace-simulated) and must actually deliver the predicted
//! miss reduction.

use cme_suite::cachesim::{simulate_nest, CacheGeometry};
use cme_suite::cme::{CacheSpec, CmeModel, SamplingConfig};
use cme_suite::ga::GaConfig;
use cme_suite::kernels::{linalg, transposes};
use cme_suite::loopnest::{MemoryLayout, TileSizes};
use cme_suite::tileopt::{PaddingOptimizer, TilingOptimizer};

/// Simulated replacement ratio of a (possibly tiled) schedule.
fn sim_repl(
    nest: &cme_suite::loopnest::LoopNest,
    layout: &MemoryLayout,
    tiles: Option<&TileSizes>,
    geo: CacheGeometry,
) -> f64 {
    simulate_nest(nest, layout, tiles, geo).replacement_ratio()
}

#[test]
fn ga_tiling_verified_by_simulator_t2d() {
    let nest = transposes::t2d(128).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    let cache = CacheSpec::paper_8k();
    let geo = CacheGeometry::paper_8k();
    let out = TilingOptimizer::new(cache).optimize(&nest, &layout).expect("legal");
    let before = sim_repl(&nest, &layout, None, geo);
    let after = sim_repl(&nest, &layout, Some(&out.tiles), geo);
    assert!(before > 0.30, "untiled T2D_128 must thrash ({before})");
    assert!(
        after < 0.05,
        "GA tiling must remove replacement misses in the real schedule ({after})"
    );
    // The model's estimate of the tiled schedule must be accurate.
    assert!(
        (out.after.replacement_ratio() - after).abs() < 0.05,
        "estimate {} vs simulated {after}",
        out.after.replacement_ratio()
    );
}

#[test]
fn ga_tiling_verified_by_simulator_mm() {
    let nest = linalg::mm(96).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    let cache = CacheSpec::paper_8k();
    let geo = CacheGeometry::paper_8k();
    let mut opt = TilingOptimizer::new(cache);
    opt.ga = GaConfig { seed: 5, ..GaConfig::default() };
    let out = opt.optimize(&nest, &layout).expect("legal");
    let before = sim_repl(&nest, &layout, None, geo);
    let after = sim_repl(&nest, &layout, Some(&out.tiles), geo);
    assert!(before > 0.10, "untiled MM_96 has capacity misses ({before})");
    assert!(
        after < before / 2.0,
        "tiling must at least halve replacement misses ({before} -> {after})"
    );
}

#[test]
fn padding_pipeline_verified_by_simulator() {
    // Two aliased arrays; padding must fix them in the real trace.
    use cme_suite::loopnest::builder::{sub, NestBuilder};
    let n = 2048i64; // 8 KB arrays: alias exactly in the 8 KB cache
    let mut nb = NestBuilder::new("alias");
    let i = nb.add_loop("i", 1, n);
    let x = nb.array("x", &[n]);
    let y = nb.array("y", &[n]);
    nb.read(x, &[sub(i)]);
    nb.read(y, &[sub(i)]);
    nb.write(x, &[sub(i)]);
    let nest = nb.finish().unwrap();
    let cache = CacheSpec::paper_8k();
    let geo = CacheGeometry::paper_8k();
    let opt = PaddingOptimizer::new(cache);
    let out = opt.optimize(&nest);
    let padded_layout = opt.space.layout_for(&nest, cache.line, &out.values);
    let before = sim_repl(&nest, &MemoryLayout::contiguous(&nest), None, geo);
    let after = sim_repl(&nest, &padded_layout, None, geo);
    assert!(before > 0.6, "aliased streams ping-pong ({before})");
    assert!(after < 0.01, "padding removes the conflicts in the real trace ({after})");
}

#[test]
fn estimates_track_simulator_across_tilings() {
    let nest = transposes::t3djik(24).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    let cache = CacheSpec::direct_mapped(2048, 32);
    let geo = CacheGeometry { size: 2048, line: 32, assoc: 1 };
    let model = CmeModel::new(cache);
    for tiles in [
        None,
        Some(TileSizes(vec![8, 8, 8])),
        Some(TileSizes(vec![24, 4, 2])),
        Some(TileSizes(vec![5, 24, 3])),
    ] {
        let est =
            model.analyze(&nest, &layout, tiles.as_ref()).estimate(&SamplingConfig::paper(), 3);
        let sim = sim_repl(&nest, &layout, tiles.as_ref(), geo);
        assert!(
            (est.replacement_ratio() - sim).abs() <= 0.06,
            "tiles {tiles:?}: estimate {:.3} vs simulator {sim:.3}",
            est.replacement_ratio()
        );
    }
}

#[test]
fn full_figure_config_set_builds_and_validates() {
    for cfg in cme_suite::kernels::figure_configs() {
        if cfg.size <= 200 {
            let nest = cfg.build().unwrap();
            nest.validate().unwrap_or_else(|e| panic!("{}: {e}", cfg.sized_name));
            assert!(
                cme_suite::analysis::rectangular_tiling_legality(&nest).is_legal(),
                "{} must be tileable",
                cfg.sized_name
            );
        }
    }
}
