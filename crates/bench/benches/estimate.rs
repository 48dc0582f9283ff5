//! Criterion bench: one full 164-point sampled estimate — the GA's
//! objective evaluation (paper §2.3/§3.3: 450 of these per nest).

use cme_core::{CacheSpec, CmeModel, SamplingConfig};
use cme_loopnest::{MemoryLayout, TileSizes};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_estimate(c: &mut Criterion) {
    let model = CmeModel::new(CacheSpec::paper_8k());

    for (name, size) in [("MM", 500i64), ("T2D", 2000), ("DPSSB", 48)] {
        let spec = cme_kernels::kernel_by_name(name).unwrap();
        let nest = (spec.build)(size).unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        c.bench_function(&format!("estimate/{name}_{size}/untiled_164pts"), |b| {
            b.iter(|| {
                let an = model.analyze(black_box(&nest), &layout, None);
                an.estimate(&SamplingConfig::paper(), 1).replacement_misses()
            })
        });
        let tiles = TileSizes(nest.spans().iter().map(|s| (s / 9).max(1)).collect());
        c.bench_function(&format!("estimate/{name}_{size}/tiled_164pts"), |b| {
            b.iter(|| {
                let an = model.analyze(black_box(&nest), &layout, Some(&tiles));
                an.estimate(&SamplingConfig::paper(), 1).replacement_misses()
            })
        });
    }
}

criterion_group!(benches, bench_estimate);
criterion_main!(benches);
