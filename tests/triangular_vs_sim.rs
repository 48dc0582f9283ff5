//! Differential suite for triangular iteration spaces: the sampled CME
//! estimator vs the trace-driven cache simulator on the three triangular
//! registry kernels (TRMM, TRSOLVE, TTRANS), untiled and tiled, single
//! level and two-level hierarchy.
//!
//! This is the pin for the affine-bounds generalisation: the simulator
//! enumerates the trapezoidal space exactly (`for_each_access` rides on
//! the shape-filtered `for_each_point`), so any error in hull handling,
//! rejection sampling, or shape-exact volumes shows up as an
//! estimate/simulation gap. Tolerance contract is the same as
//! `cme_vs_sim.rs`: sampling CI half-width plus `MODEL_SLACK` (see that
//! suite's module docs for the slack rationale).

use cme_suite::cachesim::{simulate_nest, simulate_nest_hierarchy, CacheGeometry, LevelGeometry};
use cme_suite::cme::{CacheHierarchy, CacheSpec, CmeModel, EvalEngine, SamplingConfig};
use cme_suite::kernels::triangular;
use cme_suite::loopnest::{LoopNest, MemoryLayout, TileSizes};

/// Fixed allowance for the model's conservative approximations, on top of
/// the sampling CI half-width (see `cme_vs_sim.rs`).
const MODEL_SLACK: f64 = 0.05;

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

/// Triangular kernels sized so the shape volume exceeds the 164-point
/// sample (a genuine sample) while staying cheap to trace exactly.
fn kernels() -> Vec<LoopNest> {
    vec![
        triangular::trmm(12).unwrap(),
        triangular::trsolve(40).unwrap(),
        triangular::ttrans(40).unwrap(),
    ]
}

/// Tile each loop to roughly a third of its hull span — deterministic,
/// non-trivial, and never larger than the hull.
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
fn triangular_cme_matches_simulator_untiled() {
    let mut failures = Vec::new();
    for nest in kernels() {
        failures.extend(check(&nest, None, &format!("{}/untiled", nest.name)));
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn triangular_cme_matches_simulator_tiled() {
    let mut failures = Vec::new();
    for nest in kernels() {
        let tiles = thirds(&nest);
        failures.extend(check(&nest, Some(&tiles), &format!("{}/tiled{}", nest.name, tiles)));
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// Two-level hierarchy differential, same nested-geometry contract as
/// `cme_vs_sim.rs`.
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
    vec![("1k-dm+8k-2way", h1, g1)]
}

#[test]
fn triangular_hierarchy_cme_matches_two_level_simulator() {
    let cfg = SamplingConfig::paper();
    let mut failures = Vec::new();
    for nest in kernels() {
        let layout = MemoryLayout::contiguous(&nest);
        for tiles in [None, Some(thirds(&nest))] {
            let label = match &tiles {
                Some(t) => format!("{}/tiled{t}", nest.name),
                None => format!("{}/untiled", nest.name),
            };
            for (geo_name, hier, levels) in hierarchies() {
                let sim = simulate_nest_hierarchy(&nest, &layout, tiles.as_ref(), &levels);
                // The simulator's L1 access count is the ground truth for
                // the trapezoidal enumeration: it must equal the nest's
                // shape-exact prediction exactly, not approximately.
                assert_eq!(
                    sim.levels[0].totals().accesses,
                    nest.accesses(),
                    "{label}: simulated access count vs shape-exact prediction"
                );
                let engine = EvalEngine::new_hierarchy(&hier, &nest, &layout, cfg, 0xD1FF);
                let est = engine.estimate_canonical(tiles.as_ref());
                let est_levels = est.levels.as_ref().expect("hierarchy estimate has a breakdown");
                assert_eq!(est_levels.len(), sim.levels.len(), "{label}/{geo_name}: level count");
                let tol = est.replacement_ci_half_width() + MODEL_SLACK;
                for (k, (est_level, sim_level)) in est_levels.iter().zip(&sim.levels).enumerate() {
                    let d_repl =
                        (est_level.replacement_ratio() - sim_level.replacement_ratio()).abs();
                    let d_total = (est_level.miss_ratio() - sim_level.miss_ratio()).abs();
                    for (metric, d) in [("replacement", d_repl), ("total", d_total)] {
                        if d > tol {
                            failures.push(format!(
                                "{label}/{geo_name}/L{}/{metric}: |est − sim| = {d:.4} > tol \
                                 {tol:.4}",
                                k + 1,
                            ));
                        }
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The exhaustive (every-point) CME classification over a trapezoidal
/// space — no sampling noise — must sit within the model slack alone of
/// the simulator.
#[test]
fn exhaustive_cme_matches_simulator_on_triangular_space() {
    let mut failures = Vec::new();
    for nest in [triangular::ttrans(24).unwrap(), triangular::trsolve(24).unwrap()] {
        let layout = MemoryLayout::contiguous(&nest);
        for (geo_name, spec, geo) in geometries() {
            let sim = simulate_nest(&nest, &layout, None, geo);
            let rep = CmeModel::new(spec).analyze(&nest, &layout, None).exhaustive();
            let d = (rep.replacement_ratio() - sim.replacement_ratio()).abs();
            if d > MODEL_SLACK {
                failures.push(format!(
                    "{}/{geo_name}: exhaustive |cme − sim| = {d:.4} (cme {:.4}, sim {:.4})",
                    nest.name,
                    rep.replacement_ratio(),
                    sim.replacement_ratio()
                ));
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
