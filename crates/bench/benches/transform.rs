//! Criterion bench: analysis construction — tiled execution-space
//! building (§2.4 multi-region) and full `analyze` (address lifting +
//! reuse candidates + suffix tables).

use cme_core::{CacheSpec, CmeModel};
use cme_loopnest::{ExecSpace, MemoryLayout, TileSizes};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_transform(c: &mut Criterion) {
    let nest = cme_kernels::linalg::mm(500).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    let tiles = TileSizes(vec![37, 22, 41]); // non-dividing: 8 regions

    c.bench_function("transform/tiled_space_mm500", |b| {
        b.iter(|| ExecSpace::tiled(black_box(&nest), &tiles).regions.len())
    });

    let model = CmeModel::new(CacheSpec::paper_8k());
    c.bench_function("transform/analyze_untiled_mm500", |b| {
        b.iter(|| model.analyze(black_box(&nest), &layout, None).addr.len())
    });
    c.bench_function("transform/analyze_tiled_mm500", |b| {
        b.iter(|| model.analyze(black_box(&nest), &layout, Some(&tiles)).addr.len())
    });

    let add = cme_kernels::nas::add(64).unwrap();
    let add_layout = MemoryLayout::contiguous(&add);
    let add_tiles = TileSizes(vec![13, 9, 21, 3]); // 4-deep: 16 regions
    c.bench_function("transform/analyze_tiled_add64_4d", |b| {
        b.iter(|| model.analyze(black_box(&add), &add_layout, Some(&add_tiles)).space.regions.len())
    });
}

criterion_group!(benches, bench_transform);
criterion_main!(benches);
