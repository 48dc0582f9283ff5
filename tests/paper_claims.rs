//! The paper's qualitative claims, as executable assertions. These are
//! the shape-level checks EXPERIMENTS.md reports numerically.

use cme_suite::cme::{CacheSpec, SamplingConfig};
use cme_suite::ga::{run_ga, Domain, GaConfig};
use cme_suite::kernels::paper::ga_params;
use cme_suite::loopnest::MemoryLayout;
use cme_suite::tileopt::{PaddingOptimizer, TilingOptimizer};

/// §6: "the proposed loop tiling technique practically removes all
/// capacity misses for all the loops that have been analyzed" — checked
/// on one capacity-dominated kernel per family at reduced size.
#[test]
fn tiling_removes_capacity_misses() {
    let cache = CacheSpec::paper_8k();
    // Note: T2D at N=200 is a threshold case — one sweep's working set
    // (≈225 lines) just fits the 256-line cache, so the untiled kernel
    // barely misses; N=100 thrashes (Fig. 8).
    let cases: Vec<(&str, i64)> = vec![
        ("T2D", 100),
        ("T3DJIK", 48),
        ("MATMUL", 100),
        ("MM", 100),
        ("DPSSB", 32),
        ("DRADFG1", 32),
    ];
    for (name, n) in cases {
        let spec = cme_suite::kernels::kernel_by_name(name).unwrap();
        let nest = (spec.build)(n).unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let out = TilingOptimizer::new(cache).optimize(&nest, &layout).expect("legal");
        let before = out.before.replacement_ratio();
        let after = out.after.replacement_ratio();
        assert!(
            before > 0.10,
            "{name}_{n}: expected capacity misses before tiling, got {before:.3}"
        );
        assert!(
            after < 0.05,
            "{name}_{n}: replacement ratio after tiling must be <5%, got {after:.3}"
        );
    }
}

/// §4.3/Table 3: the conflict kernels stay high after tiling alone and
/// drop to ≈0 after padding + tiling.
#[test]
fn conflict_kernels_need_padding() {
    let cache = CacheSpec::paper_8k();
    for name in ["ADD", "VPENTA1"] {
        let spec = cme_suite::kernels::kernel_by_name(name).unwrap();
        // Reduced sizes that keep the alias structure (multiples of 8 KB).
        let n = if name == "ADD" { 16 } else { 64 };
        let nest = (spec.build)(n).unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let tiled = TilingOptimizer::new(cache).optimize(&nest, &layout).expect("legal");
        assert!(
            tiled.after.replacement_ratio() > 0.10,
            "{name}: tiling alone must NOT fix alignment conflicts (got {:.3})",
            tiled.after.replacement_ratio()
        );
        let out = PaddingOptimizer::new(cache).optimize_then_tile(&nest).expect("legal");
        let fixed = out.tiled.unwrap().after.replacement_ratio();
        assert!(fixed < 0.05, "{name}: padding+tiling must remove the misses (got {fixed:.3})");
    }
}

/// §3.3: the GA parameters are exactly the paper's, and the generation
/// count respects Fig. 7 on a real problem.
#[test]
fn ga_parameters_match_paper() {
    let cfg = GaConfig::default();
    assert_eq!(cfg.population, ga_params::POPULATION);
    assert_eq!(cfg.crossover_prob, ga_params::CROSSOVER_PROB);
    assert_eq!(cfg.mutation_prob, ga_params::MUTATION_PROB);
    assert_eq!(cfg.min_generations, ga_params::MIN_GENERATIONS);
    assert_eq!(cfg.max_generations, ga_params::MAX_GENERATIONS);
    assert_eq!(cfg.convergence_margin, ga_params::CONVERGENCE_MARGIN);

    let nest = cme_suite::kernels::transposes::t2d(64).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    let out = TilingOptimizer::new(CacheSpec::direct_mapped(1024, 32))
        .optimize(&nest, &layout)
        .expect("legal");
    assert!((15..=25).contains(&out.ga.generations), "Fig. 7 bounds: {}", out.ga.generations);
}

/// §2.3: the sampling design reproduces the 164-point constant and the
/// estimator honours its confidence interval on a real kernel.
#[test]
fn sampling_matches_paper_design() {
    assert_eq!(SamplingConfig::paper().sample_size(), 164);
    let nest = cme_suite::kernels::transposes::t2d(100).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    let model = cme_suite::cme::CmeModel::new(CacheSpec::paper_8k());
    let an = model.analyze(&nest, &layout, None);
    let exact = an.exhaustive();
    let exact_ratio = {
        let t = exact.totals();
        t.misses() as f64 / t.points as f64
    };
    let mut covered = 0;
    let trials = 40;
    for seed in 0..trials {
        let est = an.estimate(&SamplingConfig::paper(), seed);
        if (est.miss_ratio() - exact_ratio).abs() <= 0.05 {
            covered += 1;
        }
    }
    // Design target is ~90%; require a comfortable majority to keep the
    // test robust.
    assert!(covered * 10 >= trials * 8, "CI coverage too low: {covered}/{trials}");
}

/// The GA is a genuine optimiser: on a deceptive multi-modal function it
/// beats the best random individual of the same evaluation budget.
#[test]
fn ga_beats_random_search() {
    let domain = Domain::new(vec![256, 256]);
    // Two valleys; global optimum at (200, 40).
    let f = |v: &[i64]| {
        let a = ((v[0] - 200) * (v[0] - 200) + (v[1] - 40) * (v[1] - 40)) as f64;
        let b = 500.0 + ((v[0] - 40) * (v[0] - 40) + (v[1] - 200) * (v[1] - 200)) as f64;
        a.min(b)
    };
    let ga = run_ga(&domain, &f, &GaConfig { seed: 21, ..GaConfig::default() });
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let mut best_random = f64::INFINITY;
    for _ in 0..ga.evaluations {
        let v = [rng.gen_range(1..=256i64), rng.gen_range(1..=256i64)];
        best_random = best_random.min(f(&v));
    }
    assert!(
        ga.best_cost <= best_random,
        "GA {} must beat random search {best_random} at equal budget",
        ga.best_cost
    );
}
