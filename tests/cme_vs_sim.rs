//! Differential test suite: the CME estimator vs the trace-driven cache
//! simulator (`cme-cachesim`), the correctness oracle for the whole
//! evaluation engine.
//!
//! For each small kernel (the paper's matmul, a transpose, one stencil),
//! cache geometry (direct-mapped and 2-way LRU) and schedule (untiled and
//! one tiling), the sampled CME estimate must land within the sampling
//! confidence-interval half-width plus a fixed model slack of the exact
//! simulated ratio.
//!
//! **Slack rationale** (`MODEL_SLACK`): the CME classifier is a *model*,
//! not a simulator — reuse candidates are truncated
//! (`MAX_CANDIDATES_PER_REF`), wide-support reuse is conservatively
//! dropped, and interference queries fall back conservatively when the
//! solver budget runs out. Each approximation can only misclassify in the
//! pessimistic direction (hit → miss), so the estimate may sit slightly
//! above the simulated truth even at zero sampling error. Measured
//! deviations across this matrix peak at 0.0069 (MM, 2-way, total-miss
//! metric); 0.05 leaves an order-of-magnitude headroom without masking a
//! real regression. The CI half-width covers sampling noise on top.

use cme_suite::cachesim::{simulate_nest, simulate_nest_hierarchy, CacheGeometry, LevelGeometry};
use cme_suite::cme::{CacheHierarchy, CacheSpec, CmeModel, EvalEngine, SamplingConfig};
use cme_suite::kernels::{linalg, stencils, transposes};
use cme_suite::loopnest::{LoopNest, MemoryLayout, TileSizes};

/// Fixed allowance for the model's conservative approximations, on top of
/// the sampling CI half-width (see module docs).
const MODEL_SLACK: f64 = 0.05;

/// Matched (model spec, simulator geometry) pairs: identical parameters,
/// two crates. Two geometries per the differential-suite contract.
fn geometries() -> Vec<(&'static str, CacheSpec, CacheGeometry)> {
    vec![
        ("1k-direct", CacheSpec::direct_mapped(1024, 32), CacheGeometry::direct_mapped(1024, 32)),
        (
            "2k-2way",
            CacheSpec { size: 2048, line: 32, assoc: 2 },
            CacheGeometry::direct_mapped(2048, 32).with_assoc(2),
        ),
    ]
}

/// Small kernels: big enough that the 164-point sample is a genuine
/// sample (volume > 164), small enough to trace-simulate exactly.
fn kernels() -> Vec<LoopNest> {
    vec![linalg::mm(14).unwrap(), transposes::t2d(28).unwrap(), stencils::jacobi3d(10).unwrap()]
}

/// Tile each loop to roughly a third of its span — an arbitrary but
/// deterministic non-trivial tiling.
fn thirds(nest: &LoopNest) -> TileSizes {
    TileSizes(nest.spans().iter().map(|s| (s / 3).max(1)).collect())
}

fn check(nest: &LoopNest, tiles: Option<&TileSizes>, label: &str) -> Vec<String> {
    let layout = MemoryLayout::contiguous(nest);
    let cfg = SamplingConfig::paper();
    let mut failures = Vec::new();
    for (geo_name, spec, geo) in geometries() {
        let sim = simulate_nest(nest, &layout, tiles, geo);
        let est = CmeModel::new(spec).estimate_nest(nest, &layout, tiles, &cfg, 0xD1FF);
        assert!(
            est.n_samples >= cfg.sample_size().min(est.volume),
            "{label}/{geo_name}: sample starved"
        );
        let tol = est.replacement_ci_half_width() + MODEL_SLACK;
        let d_repl = (est.replacement_ratio() - sim.replacement_ratio()).abs();
        let d_total = (est.miss_ratio() - sim.miss_ratio()).abs();
        for (metric, d) in [("replacement", d_repl), ("total", d_total)] {
            if d > tol {
                failures.push(format!(
                    "{label}/{geo_name}/{metric}: |est − sim| = {d:.4} > tol {tol:.4} \
                     (est repl {:.4} total {:.4}, sim repl {:.4} total {:.4})",
                    est.replacement_ratio(),
                    est.miss_ratio(),
                    sim.replacement_ratio(),
                    sim.miss_ratio(),
                ));
            }
        }
    }
    failures
}

#[test]
fn cme_matches_simulator_untiled() {
    let mut failures = Vec::new();
    for nest in kernels() {
        failures.extend(check(&nest, None, &format!("{}/untiled", nest.name)));
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn cme_matches_simulator_tiled() {
    let mut failures = Vec::new();
    for nest in kernels() {
        let tiles = thirds(&nest);
        failures.extend(check(&nest, Some(&tiles), &format!("{}/tiled{}", nest.name, tiles)));
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

// ---------------------------------------------------------------------------
// Hierarchy differential suite: per-level CME vs the inclusive two-level
// trace simulator.
// ---------------------------------------------------------------------------

/// Two-level configurations with *nested* geometries (equal line size,
/// outer sets a multiple of inner sets, outer ways ≥ inner ways): there
/// the inclusive simulator's per-level miss streams equal the standalone
/// per-level simulations that the independent per-level CME analysis
/// models, so the single-level tolerance carries over unchanged.
fn hierarchies() -> Vec<(&'static str, CacheHierarchy, Vec<LevelGeometry>)> {
    let mk = |l1: CacheSpec, lat1: f64, l2: CacheSpec, lat2: f64| {
        let geo = |s: CacheSpec| CacheGeometry { size: s.size, line: s.line, assoc: s.assoc };
        (
            CacheHierarchy::two_level(l1, lat1, l2, lat2),
            vec![LevelGeometry::new(geo(l1), lat1), LevelGeometry::new(geo(l2), lat2)],
        )
    };
    let (h1, g1) = mk(
        CacheSpec::direct_mapped(1024, 32),
        10.0,
        CacheSpec { size: 8192, line: 32, assoc: 2 },
        80.0,
    );
    let (h2, g2) = mk(
        CacheSpec { size: 2048, line: 32, assoc: 2 },
        12.0,
        CacheSpec { size: 16384, line: 32, assoc: 4 },
        90.0,
    );
    vec![("1k-dm+8k-2way", h1, g1), ("2k-2way+16k-4way", h2, g2)]
}

fn check_hierarchy(nest: &LoopNest, tiles: Option<&TileSizes>, label: &str) -> Vec<String> {
    let layout = MemoryLayout::contiguous(nest);
    let cfg = SamplingConfig::paper();
    let mut failures = Vec::new();
    for (geo_name, hier, levels) in hierarchies() {
        let sim = simulate_nest_hierarchy(nest, &layout, tiles, &levels);
        let engine = EvalEngine::new_hierarchy(&hier, nest, &layout, cfg, 0xD1FF);
        let est = engine.estimate_canonical(tiles);
        let est_levels = est.levels.as_ref().expect("hierarchy estimate has a breakdown");
        assert_eq!(est_levels.len(), sim.levels.len(), "{label}/{geo_name}: level count");
        let tol = est.replacement_ci_half_width() + MODEL_SLACK;
        for (k, (est_level, sim_level)) in est_levels.iter().zip(&sim.levels).enumerate() {
            let d_repl = (est_level.replacement_ratio() - sim_level.replacement_ratio()).abs();
            let d_total = (est_level.miss_ratio() - sim_level.miss_ratio()).abs();
            for (metric, d) in [("replacement", d_repl), ("total", d_total)] {
                if d > tol {
                    failures.push(format!(
                        "{label}/{geo_name}/L{}/{metric}: |est − sim| = {d:.4} > tol {tol:.4} \
                         (est repl {:.4} total {:.4}, sim repl {:.4} total {:.4})",
                        k + 1,
                        est_level.replacement_ratio(),
                        est_level.miss_ratio(),
                        sim_level.replacement_ratio(),
                        sim_level.miss_ratio(),
                    ));
                }
            }
        }
        // The weighted costs must agree once per-level ratios do: compare
        // them normalised to per-access cost, with the same tolerance
        // scaled by the total latency weight.
        let accesses = sim.levels[0].totals().accesses as f64;
        let lat_sum: f64 = levels.iter().map(|l| l.miss_latency).sum();
        let d_cost = (est.weighted_cost() - sim.weighted_cost()).abs() / accesses;
        if d_cost > tol * lat_sum {
            failures.push(format!(
                "{label}/{geo_name}/weighted: |est − sim| = {d_cost:.4}/access > tol {:.4} \
                 (est {:.1}, sim {:.1})",
                tol * lat_sum,
                est.weighted_cost(),
                sim.weighted_cost(),
            ));
        }
    }
    failures
}

#[test]
fn hierarchy_cme_matches_two_level_simulator_untiled() {
    let mut failures = Vec::new();
    for nest in kernels() {
        failures.extend(check_hierarchy(&nest, None, &format!("{}/untiled", nest.name)));
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn hierarchy_cme_matches_two_level_simulator_tiled() {
    let mut failures = Vec::new();
    for nest in kernels() {
        let tiles = thirds(&nest);
        failures.extend(check_hierarchy(
            &nest,
            Some(&tiles),
            &format!("{}/tiled{}", nest.name, tiles),
        ));
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// A single-level request through the hierarchy-aware engine must equal
/// the legacy `CmeModel` path bit-for-bit — the back-compat contract the
/// golden snapshots pin at the API layer, checked here at the model
/// layer.
#[test]
fn single_level_hierarchy_is_byte_identical_to_legacy_model() {
    let cfg = SamplingConfig::paper();
    for nest in kernels() {
        let layout = MemoryLayout::contiguous(&nest);
        for (geo_name, spec, _) in geometries() {
            for tiles in [None, Some(thirds(&nest))] {
                let legacy =
                    CmeModel::new(spec).estimate_nest(&nest, &layout, tiles.as_ref(), &cfg, 0xD1FF);
                let hier = EvalEngine::new_hierarchy(&spec.into(), &nest, &layout, cfg, 0xD1FF)
                    .estimate_canonical(tiles.as_ref());
                assert_eq!(legacy, hier, "{}/{geo_name}/{tiles:?}", nest.name);
            }
        }
    }
}

/// The exhaustive (every-point) CME classification — no sampling noise —
/// must sit within the model slack alone of the simulator.
#[test]
fn exhaustive_cme_matches_simulator() {
    let nest = transposes::t2d(20).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    let mut failures = Vec::new();
    for (geo_name, spec, geo) in geometries() {
        let sim = simulate_nest(&nest, &layout, None, geo);
        let rep = CmeModel::new(spec).analyze(&nest, &layout, None).exhaustive();
        let d = (rep.replacement_ratio() - sim.replacement_ratio()).abs();
        if d > MODEL_SLACK {
            failures.push(format!(
                "{geo_name}: exhaustive |cme − sim| = {d:.4} (cme {:.4}, sim {:.4})",
                rep.replacement_ratio(),
                sim.replacement_ratio()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
