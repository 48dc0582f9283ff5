//! Property tests for the cache-hierarchy extension.
//!
//! Two invariants the latency-weighted objective is built on:
//!
//! 1. **Legacy equivalence** — a one-level hierarchy's weighted cost is
//!    the legacy single-cache estimate *bit-for-bit* (same sampled
//!    points, same classification, `miss_latency = 1` is an exact f64
//!    no-op). This is what keeps every pre-hierarchy request, golden
//!    snapshot and service cache key stable.
//!
//! 2. **Levels are independent** — classifying a hierarchy shares the
//!    sample, the source search and the interference walk between the
//!    levels of one line size, yet each level's slice of the estimate
//!    (per-reference figures *and* solver statistics) equals the
//!    one-level estimate of that geometry.
//!
//! 3. **Latency monotonicity on traces** — inserting a larger *nested*
//!    outer level (same line size, sets a multiple of the inner sets,
//!    ways ≥ inner ways) while splitting the inner level's miss latency
//!    with it never increases the weighted cost of a fixed tiling on a
//!    fixed trace. Nesting gives per-set LRU stack inclusion, so the
//!    outer level's misses are a subset of the inner level's on every
//!    access; each miss's cost goes from `M` to `α·M` (+ `(1−α)·M` only
//!    when the outer level misses too), so per access the cost can only
//!    shrink. The inclusive simulator is the oracle here — the CME side
//!    is covered by the differential suite in `cme_vs_sim.rs`.

use cme_suite::cachesim::{simulate_nest_hierarchy, CacheGeometry, LevelGeometry};
use cme_suite::cme::CacheSpec;
use cme_suite::cme::{CacheHierarchy, CacheLevel, CmeModel, EvalEngine, SamplingConfig};
use cme_suite::kernels::all_kernels;
use cme_suite::loopnest::{LoopNest, MemoryLayout, TileSizes};
use proptest::prelude::*;

/// The transpose kernel: dense conflict behaviour in tiny caches, cheap
/// to trace-simulate at property-test volume.
fn t2d(n: i64) -> LoopNest {
    use cme_suite::loopnest::builder::{sub, NestBuilder};
    let mut nb = NestBuilder::new(format!("t2d_{n}"));
    let i = nb.add_loop("i", 1, n);
    let j = nb.add_loop("j", 1, n);
    let a = nb.array("a", &[n, n]);
    let b = nb.array("b", &[n, n]);
    nb.read(b, &[sub(i), sub(j)]);
    nb.write(a, &[sub(j), sub(i)]);
    nb.finish().unwrap()
}

/// A hierarchy of `geoms.len()` levels from `(line, assoc, sets)` index
/// triples, with level `twin` forced onto level `twin − 1`'s line so that
/// at least two levels share one line size.
fn hierarchy_of(geoms: &[(usize, usize, u32)], twin: usize) -> CacheHierarchy {
    let lines = [16i64, 32, 64];
    let assocs = [1i64, 2, 4];
    let mut line_idx: Vec<usize> = geoms.iter().map(|g| g.0).collect();
    line_idx[twin] = line_idx[twin - 1];
    let levels = geoms
        .iter()
        .zip(line_idx)
        .enumerate()
        .map(|(k, (&(_, a, sets_pow), l))| {
            let (line, assoc) = (lines[l], assocs[a]);
            let spec = CacheSpec { size: (1i64 << sets_pow) * line * assoc, line, assoc };
            CacheLevel::new(spec, (1 + 9 * k) as f64)
        })
        .collect();
    CacheHierarchy::new(levels).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every level's slice of a multi-level estimate is the one-level
    /// estimate of that geometry: canonical and padded-layout sampled
    /// estimates, and exhaustive reports on tiny spaces.
    #[test]
    fn each_level_slice_equals_its_one_level_estimate(
        kernel in 0usize..64,
        exact in any::<bool>(),
        size_pick in 0i64..4,
        geoms in prop::collection::vec((0usize..3, 0usize..3, 1u32..6), 2..=3),
        twin_pick in 0usize..2,
        tile_picks in prop::collection::vec(1i64..1000, 4),
        pads in prop::collection::vec((0i64..16, 0i64..3), 8),
        seed in 0u64..1000,
    ) {
        // Any registry kernel can be drawn; TRMM (triangular) is drawn
        // as often as the rest together.
        let kernels = all_kernels();
        let spec = if kernel % 2 == 0 {
            cme_suite::kernels::kernel_by_name("TRMM").unwrap()
        } else {
            kernels[(kernel / 2) % kernels.len()]
        };
        // Even sizes (some kernels need them): exact spaces hold at most
        // the 164-point sample, sampled ones more.
        let size = 2 * match (spec.depth, exact) {
            (2, true) => 2 + size_pick,
            (2, false) => 8 + size_pick,
            (3, true) => 1 + size_pick.min(1),
            (3, false) => 4 + size_pick,
            (_, true) => 1,
            (_, false) => 2 + size_pick.min(1),
        };
        let nest = (spec.build)(size).unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let h = hierarchy_of(&geoms, 1 + twin_pick % (geoms.len() - 1));
        let cfg = SamplingConfig::paper();
        let tiles = TileSizes(
            nest.spans().iter().zip(&tile_picks).map(|(&s, &p)| 1 + p % s).collect(),
        );
        let padded = MemoryLayout::with_padding(
            &nest,
            &pads.iter().cycle().take(nest.arrays.len()).map(|p| 4 * p.0).collect::<Vec<_>>(),
            &nest
                .arrays
                .iter()
                .zip(pads.iter().cycle())
                .map(|(a, p)| {
                    let mut intra = vec![0i64; a.extents.len()];
                    intra[0] = p.1;
                    intra
                })
                .collect::<Vec<_>>(),
        );

        let multi = EvalEngine::new_hierarchy(&h, &nest, &layout, cfg, seed);
        let canonical = multi.estimate_canonical(Some(&tiles));
        let seeded = multi.estimate_seeded(Some(&padded), Some(&tiles), seed ^ 0x5EED, None);
        let tiny = nest.spans().iter().product::<i64>() <= 64;
        let report = tiny.then(|| multi.exhaustive_report(Some(&tiles)));
        prop_assert_eq!(canonical.exact, exact, "{} at size {}", spec.name, size);
        for (k, level) in h.levels().iter().enumerate() {
            let one = EvalEngine::new(CmeModel::new(level.spec), &nest, &layout, cfg, seed);
            let want = one.estimate_canonical(Some(&tiles));
            let got = &canonical.levels.as_ref().unwrap()[k];
            prop_assert_eq!(got.cache, level.spec);
            prop_assert_eq!(&got.per_ref, &want.per_ref, "canonical L{} of {}", k + 1, spec.name);
            prop_assert_eq!(got.solver, want.solver, "canonical L{} solver", k + 1);

            let want = one.estimate_seeded(Some(&padded), Some(&tiles), seed ^ 0x5EED, None);
            let got = &seeded.levels.as_ref().unwrap()[k];
            prop_assert_eq!(&got.per_ref, &want.per_ref, "padded L{} of {}", k + 1, spec.name);
            prop_assert_eq!(got.solver, want.solver, "padded L{} solver", k + 1);

            if let Some(report) = &report {
                let want = one.exhaustive_report(Some(&tiles));
                let got = &report.levels.as_ref().unwrap()[k];
                prop_assert_eq!(&got.per_ref, &want.per_ref, "exhaustive L{}", k + 1);
                prop_assert_eq!(got.solver, want.solver, "exhaustive L{} solver", k + 1);
            }
        }
    }

    /// One-level hierarchy ⇒ weighted cost ≡ legacy estimate, bitwise.
    #[test]
    fn one_level_weighted_cost_is_byte_identical_to_legacy(
        n in 8i64..24,
        sets_pow in 3u32..6,
        assoc in 1i64..3,
        seed in 0u64..1000,
        tile_i in 1i64..8,
        tile_j in 1i64..8,
    ) {
        let nest = t2d(n);
        let layout = MemoryLayout::contiguous(&nest);
        let spec = CacheSpec { size: (1 << sets_pow) * 32 * assoc, line: 32, assoc };
        let cfg = SamplingConfig::paper();
        let tiles = TileSizes(vec![tile_i.min(n), tile_j.min(n)]);

        let legacy = CmeModel::new(spec)
            .estimate_nest(&nest, &layout, Some(&tiles), &cfg, seed);
        let engine = EvalEngine::new_hierarchy(
            &CacheHierarchy::single(spec), &nest, &layout, cfg, seed);
        let hier = engine.estimate_canonical(Some(&tiles));

        prop_assert!(hier.levels.is_none(), "legacy hierarchies carry no breakdown");
        prop_assert_eq!(
            hier.weighted_cost().to_bits(),
            legacy.replacement_misses().to_bits(),
            "weighted cost must be the legacy objective bit-for-bit"
        );
        prop_assert_eq!(hier, legacy);
    }

    /// Adding a larger nested outer level — splitting the miss latency
    /// with it — never increases the weighted cost of a fixed tiling on
    /// a fixed trace.
    #[test]
    fn nested_outer_level_never_increases_weighted_trace_cost(
        n in 6i64..18,
        sets1_pow in 2u32..5,
        ways1 in 1i64..3,
        sets_mult in 1i64..5,
        ways_mult in 1i64..4,
        memory_latency_tenths in 10u32..2000,
        split_percent in 1u32..100,
        tile_i in 1i64..8,
        tile_j in 1i64..8,
    ) {
        let nest = t2d(n);
        let layout = MemoryLayout::contiguous(&nest);
        let tiles = TileSizes(vec![tile_i.min(n), tile_j.min(n)]);

        let line = 32i64;
        let sets1 = 1i64 << sets1_pow;
        let l1 = CacheGeometry { size: sets1 * ways1 * line, line, assoc: ways1 };
        // Nested outer level: sets a multiple, ways no smaller.
        let (sets2, ways2) = (sets1 * sets_mult, ways1 * ways_mult);
        let l2 = CacheGeometry { size: sets2 * ways2 * line, line, assoc: ways2 };

        let memory = memory_latency_tenths as f64 / 10.0;
        let alpha = split_percent as f64 / 100.0;

        let single = simulate_nest_hierarchy(
            &nest, &layout, Some(&tiles),
            &[LevelGeometry::new(l1, memory)],
        );
        let two = simulate_nest_hierarchy(
            &nest, &layout, Some(&tiles),
            &[
                LevelGeometry::new(l1, alpha * memory),
                LevelGeometry::new(l2, (1.0 - alpha) * memory),
            ],
        );

        // The nested outer level leaves L1's stream untouched …
        prop_assert_eq!(&two.levels[0], &single.levels[0]);
        // … filters misses (inclusion) …
        prop_assert!(
            two.levels[1].totals().replacement <= two.levels[0].totals().replacement
        );
        // … and therefore can only lower the weighted cost.
        prop_assert!(
            two.weighted_cost() <= single.weighted_cost() * (1.0 + 1e-12) + 1e-9,
            "adding a nested outer level increased the cost: {} -> {}",
            single.weighted_cost(),
            two.weighted_cost()
        );
    }
}
