//! Criterion bench: the interval-hit solver vs brute-force enumeration
//! on cache-shaped queries (§2.3's solver performance claim at micro
//! scale).

use cme_polyhedra::enumhit::enum_interval_hit;
use cme_polyhedra::formhit::{interval_hit, Budget};
use cme_polyhedra::{AffineForm, IntBox, Interval};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A realistic replacement-polyhedron query: 2-D piece of an MM-like
/// interval plus the cache wrap variable.
fn cache_query() -> (AffineForm, IntBox, Vec<Interval>) {
    let form = AffineForm::new(vec![4, 2000, -8192], 64);
    let bx =
        IntBox::new(vec![Interval::new(0, 499), Interval::new(0, 499), Interval::new(-40, 140)]);
    let windows = (0..64).map(|s| Interval::new(s * 32, s * 32 + 31)).collect();
    (form, bx, windows)
}

fn small_query() -> (AffineForm, IntBox, Vec<Interval>) {
    let form = AffineForm::new(vec![4, 72, -512], 0);
    let bx = IntBox::new(vec![Interval::new(0, 15), Interval::new(0, 11), Interval::new(-4, 12)]);
    let windows = (0..16).map(|s| Interval::new(s * 16, s * 16 + 15)).collect();
    (form, bx, windows)
}

fn bench_formhit(c: &mut Criterion) {
    let (form, bx, windows) = cache_query();
    c.bench_function("formhit/interval_hit/mm_scale_64sets", |b| {
        let mut budget = Budget::default();
        let mut terms = Vec::new();
        b.iter(|| {
            let mut hits = 0;
            for w in &windows {
                if interval_hit(black_box(&form), black_box(&bx), None, *w, &mut budget, &mut terms)
                    .as_conservative_bool()
                {
                    hits += 1;
                }
            }
            hits
        })
    });

    let (sform, sbx, swindows) = small_query();
    c.bench_function("formhit/interval_hit/small_16sets", |b| {
        let mut budget = Budget::default();
        let mut terms = Vec::new();
        b.iter(|| {
            let mut hits = 0;
            for w in &swindows {
                if interval_hit(
                    black_box(&sform),
                    black_box(&sbx),
                    None,
                    *w,
                    &mut budget,
                    &mut terms,
                )
                .as_conservative_bool()
                {
                    hits += 1;
                }
            }
            hits
        })
    });
    c.bench_function("formhit/enumeration/small_16sets", |b| {
        b.iter(|| {
            let mut hits = 0;
            for w in &swindows {
                if enum_interval_hit(black_box(&sform), black_box(&sbx), *w) {
                    hits += 1;
                }
            }
            hits
        })
    });
}

criterion_group!(benches, bench_formhit);
criterion_main!(benches);
