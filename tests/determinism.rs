//! Reproducibility: every stage of the pipeline must be bit-deterministic
//! for a fixed seed, regardless of Rayon thread scheduling — estimates,
//! GA trajectories, padding searches and reports.

use cme_suite::cme::{CacheSpec, CmeModel, SamplingConfig};
use cme_suite::ga::{run_ga, Domain, GaConfig};
use cme_suite::kernels::linalg::mm;
use cme_suite::loopnest::{MemoryLayout, TileSizes};
use cme_suite::tileopt::{PaddingOptimizer, TilingOptimizer};

#[test]
fn estimates_are_deterministic() {
    let nest = mm(200).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    let model = CmeModel::new(CacheSpec::paper_8k());
    for tiles in [None, Some(TileSizes(vec![40, 20, 10]))] {
        let a =
            model.analyze(&nest, &layout, tiles.as_ref()).estimate(&SamplingConfig::paper(), 77);
        let b =
            model.analyze(&nest, &layout, tiles.as_ref()).estimate(&SamplingConfig::paper(), 77);
        assert_eq!(serde_json_eq(&a), serde_json_eq(&b), "estimate must be reproducible");
    }
}

#[test]
fn ga_trajectory_is_deterministic() {
    let domain = Domain::new(vec![300, 300]);
    let f = |v: &[i64]| ((v[0] - 123) * (v[0] - 123) + (v[1] - 7) * (v[1] - 7)) as f64;
    let cfg = GaConfig { seed: 31337, ..GaConfig::default() };
    let a = run_ga(&domain, &f, &cfg);
    let b = run_ga(&domain, &f, &cfg);
    assert_eq!(a.best_values, b.best_values);
    assert_eq!(a.generations, b.generations);
    assert_eq!(a.evaluations, b.evaluations);
    let ha: Vec<_> = a.history.iter().map(|h| (h.best.to_bits(), h.average.to_bits())).collect();
    let hb: Vec<_> = b.history.iter().map(|h| (h.best.to_bits(), h.average.to_bits())).collect();
    assert_eq!(ha, hb, "full per-generation history must match");
}

#[test]
fn tiling_outcome_is_deterministic() {
    let nest = mm(128).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    let mut opt = TilingOptimizer::new(CacheSpec::paper_8k());
    opt.ga = GaConfig { seed: 7, ..GaConfig::default() };
    let a = opt.optimize(&nest, &layout).unwrap();
    let b = opt.optimize(&nest, &layout).unwrap();
    assert_eq!(a.tiles, b.tiles);
    assert_eq!(a.ga.best_cost.to_bits(), b.ga.best_cost.to_bits());
    assert_eq!(a.ga.evaluations, b.ga.evaluations);
}

#[test]
fn padding_outcome_is_deterministic() {
    let nest = cme_suite::kernels::nas::vpenta2(64).unwrap();
    let mut opt = PaddingOptimizer::new(CacheSpec::paper_8k());
    opt.ga = GaConfig { seed: 99, ..GaConfig::default() };
    let a = opt.optimize(&nest);
    let b = opt.optimize(&nest);
    assert_eq!(a.values, b.values);
    assert_eq!(a.padded.replacement_ratio().to_bits(), b.padded.replacement_ratio().to_bits());
}

/// Early-abandon sampling is an approximation, but a *deterministic* one:
/// the abandoned-prefix schedule depends only on seeds and configuration,
/// and the incumbent handed to each generation is frozen before the batch
/// starts — so repeated runs (under any thread schedule) are identical.
#[test]
fn early_abandon_search_is_deterministic() {
    use cme_suite::cme::EarlyAbandonConfig;
    let nest = mm(96).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    let mut opt = TilingOptimizer::new(CacheSpec::paper_8k());
    opt.sampling =
        SamplingConfig::paper().with_early_abandon(EarlyAbandonConfig { check_every: 16 });
    opt.ga = GaConfig { seed: 21, ..GaConfig::default() };
    let a = opt.optimize(&nest, &layout).unwrap();
    let b = opt.optimize(&nest, &layout).unwrap();
    assert_eq!(a.tiles, b.tiles);
    assert_eq!(a.ga.best_cost.to_bits(), b.ga.best_cost.to_bits());
    assert_eq!(a.ga.evaluations, b.ga.evaluations);
    assert_eq!(serde_json_eq(&a.after), serde_json_eq(&b.after));
    // The reported before/after estimates always sample fully: they must
    // equal the default configuration's estimates bit-for-bit even though
    // the search itself abandoned candidates.
    let mut full = TilingOptimizer::new(CacheSpec::paper_8k());
    full.ga = GaConfig { seed: 21, ..GaConfig::default() };
    let f = full.optimize(&nest, &layout).unwrap();
    assert_eq!(serde_json_eq(&a.before), serde_json_eq(&f.before));
}

/// `Session::run_batch` is bit-identical to sequential runs even with
/// early abandonment enabled (the knob travels inside the request).
#[test]
fn api_batch_with_early_abandon_matches_sequential() {
    use cme_suite::api::{NestSource, OptimizeRequest, Session, StrategySpec};
    use cme_suite::cme::EarlyAbandonConfig;
    let sampling =
        SamplingConfig::paper().with_early_abandon(EarlyAbandonConfig { check_every: 32 });
    let reqs: Vec<OptimizeRequest> = (0..3)
        .map(|k| {
            OptimizeRequest::new(NestSource::kernel_sized("T2D", 48), StrategySpec::Tiling)
                .with_seed(100 + k)
                .with_sampling(sampling)
        })
        .collect();
    let parallel = Session::builder().parallel(true).build();
    let sequential = Session::builder().parallel(false).build();
    let pa = parallel.run_batch(&reqs);
    let sq = sequential.run_batch(&reqs);
    for (p, s) in pa.iter().zip(&sq) {
        let p = p.as_ref().unwrap().without_timing();
        let s = s.as_ref().unwrap().without_timing();
        assert_eq!(serde_json_eq(&p), serde_json_eq(&s));
    }
}

fn serde_json_eq<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serialise")
}
