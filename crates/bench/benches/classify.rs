//! Criterion bench: per-point CME classification (the inner loop of the
//! whole system) on MM at paper scale, untiled and tiled.

use cme_core::classify::classify_point;
use cme_core::{CacheSpec, Classification, CmeModel};
use cme_loopnest::{MemoryLayout, TileSizes};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_classify(c: &mut Criterion) {
    let nest = cme_kernels::linalg::mm(500).unwrap();
    let layout = MemoryLayout::contiguous(&nest);
    let model = CmeModel::new(CacheSpec::paper_8k());

    let untiled = model.analyze(&nest, &layout, None);
    let points: Vec<Vec<i64>> = (0..64u64)
        .map(|k| untiled.space.point_at_global_rank(k * 1_951_234 % untiled.space.volume()))
        .collect();
    c.bench_function("classify/mm500_untiled_64pts_4refs", |b| {
        b.iter(|| {
            let mut engine = untiled.engine();
            let mut misses = 0u32;
            let mut c = [Classification::Hit];
            for p in &points {
                for r in 0..4 {
                    classify_point(&untiled, &mut engine, black_box(p), r, &mut c);
                    if c[0] != Classification::Hit {
                        misses += 1;
                    }
                }
            }
            misses
        })
    });

    let tiles = TileSizes(vec![50, 20, 40]);
    let tiled = model.analyze(&nest, &layout, Some(&tiles));
    let tpoints: Vec<Vec<i64>> = (0..64u64)
        .map(|k| tiled.space.point_at_global_rank(k * 1_951_234 % tiled.space.volume()))
        .collect();
    c.bench_function("classify/mm500_tiled_64pts_4refs", |b| {
        b.iter(|| {
            let mut engine = tiled.engine();
            let mut misses = 0u32;
            let mut c = [Classification::Hit];
            for p in &tpoints {
                for r in 0..4 {
                    classify_point(&tiled, &mut engine, black_box(p), r, &mut c);
                    if c[0] != Classification::Hit {
                        misses += 1;
                    }
                }
            }
            misses
        })
    });
}

criterion_group!(benches, bench_classify);
criterion_main!(benches);
