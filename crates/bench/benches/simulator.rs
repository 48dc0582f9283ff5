//! Criterion bench: ground-truth trace simulation throughput.

use cme_cachesim::{simulate_nest, CacheGeometry};
use cme_loopnest::{MemoryLayout, TileSizes};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_simulator(c: &mut Criterion) {
    let nest = cme_kernels::linalg::mm(64).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    let geo = CacheGeometry::paper_8k();
    let accesses = nest.accesses();

    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Elements(accesses));
    g.bench_function("mm64_untiled", |b| {
        b.iter(|| simulate_nest(black_box(&nest), &layout, None, geo).replacement_ratio())
    });
    let tiles = TileSizes(vec![16, 16, 16]);
    g.bench_function("mm64_tiled16", |b| {
        b.iter(|| simulate_nest(black_box(&nest), &layout, Some(&tiles), geo).replacement_ratio())
    });
    g.bench_function("mm64_2way", |b| {
        b.iter(|| {
            simulate_nest(black_box(&nest), &layout, None, geo.with_assoc(2)).replacement_ratio()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
