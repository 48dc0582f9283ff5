//! Criterion bench: one complete GA tile-size search (§3.3: "every loop
//! nest took between 15 minutes and 4 hours on a SUN Ultra-60"; this
//! measures our equivalent).

use cme_core::CacheSpec;
use cme_ga::{run_ga, Domain, GaConfig};
use cme_loopnest::MemoryLayout;
use cme_tileopt::TilingOptimizer;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_ga(c: &mut Criterion) {
    // Pure GA machinery on a cheap objective.
    c.bench_function("ga/machinery_quadratic_3vars", |b| {
        let domain = Domain::new(vec![512, 512, 512]);
        let obj = |v: &[i64]| v.iter().map(|x| ((x - 100) * (x - 100)) as f64).sum();
        b.iter(|| run_ga(black_box(&domain), &obj, &GaConfig::default()).best_cost)
    });

    // Full tile-size search on MM_100 (the paper's per-nest compile step).
    let nest = cme_kernels::linalg::mm(100).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    c.bench_function("ga/full_tiling_search_mm100_8k", |b| {
        let opt = TilingOptimizer::new(CacheSpec::paper_8k());
        b.iter(|| opt.optimize(black_box(&nest), &layout).unwrap().ga.best_cost)
    });
}

criterion_group!(benches, bench_ga);
criterion_main!(benches);
