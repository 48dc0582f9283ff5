//! The classification kernel allocates nothing once its engine is warm.
//!
//! A counting global allocator tallies the bytes each thread allocates.
//! Every case classifies a fixed list of (point, reference) pairs twice
//! on one interference engine: the first pass may grow the engine's
//! scratch buffers, the second must not allocate a single byte. The cases
//! cover a set-associative cache (distinct-line counting), a
//! direct-mapped one, a triangular space (shape-refined boxes and
//! prefix-dependent bounds in the source search), and two- and
//! three-level engines whose levels share one walk.
//!
//! This file is its own test binary with one test, so no other test's
//! allocations share the counter's thread.

use cme_core::classify::classify_point;
use cme_core::interference::InterferenceEngine;
use cme_core::{CacheHierarchy, CacheSpec, Classification, CmeModel};
use cme_loopnest::{MemoryLayout, TileSizes};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every method forwards to the system allocator unchanged and
// only adds a thread-local tally.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

#[test]
fn warm_classification_allocates_nothing() {
    let dm = |size| CacheSpec::direct_mapped(size, 32);
    let ways = |size, assoc| CacheSpec { size, line: 32, assoc };
    let l1l2: Vec<CacheSpec> =
        CacheHierarchy::l1l2_default().levels().iter().map(|l| l.spec).collect();
    let cases = [
        ("MM", 48, vec![ways(2048, 2)], vec![16, 8, 12]),
        ("T2D", 64, vec![dm(1024)], vec![16, 8]),
        ("TRMM", 32, vec![dm(1024)], vec![8, 8, 8]),
        // Multi-level passes: one walk serves every level of a line size.
        ("T3DJIK", 32, l1l2, vec![8, 8, 8]),
        ("TRMM", 32, vec![dm(512), ways(2048, 2), ways(8192, 4)], vec![8, 8, 8]),
    ];
    let mut branched = false;
    let mut outer_branched = false;
    for (kernel, size, levels, tiles) in cases {
        let spec = cme_kernels::kernel_by_name(kernel).expect("registry kernel");
        let nest = (spec.build)(size).unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        let an = CmeModel::new(levels[0]).analyze(&nest, &layout, Some(&TileSizes(tiles)));
        // A fixed spread of in-space points, every reference at each.
        let volume = an.space.volume();
        let points: Vec<Vec<i64>> = (0..97u64)
            .map(|k| an.space.point_at_global_rank(k * 7919 % volume))
            .filter(|v| an.space.contains_v(v))
            .collect();
        assert!(points.len() > 40, "{kernel}: too few in-shape points");
        let mut engine = InterferenceEngine::new(&levels, an.solver_nodes);
        let mut verdicts = vec![Classification::Hit; levels.len()];
        let mut classify_all = || {
            for v in &points {
                for r in 0..an.addr.len() {
                    classify_point(&an, &mut engine, v, r, &mut verdicts);
                    std::hint::black_box(&verdicts);
                }
            }
        };
        classify_all();
        let before = allocated();
        classify_all();
        let bytes = allocated() - before;
        let depth = levels.len();
        assert_eq!(bytes, 0, "{kernel} ({depth} levels): the warm pass allocated {bytes} bytes");
        branched |= engine.levels().iter().any(|l| l.budget.nodes_used > 0);
        outer_branched |= engine.levels()[1..].iter().any(|l| l.budget.nodes_used > 0);
    }
    assert!(branched, "no case reached the solver's branch path");
    assert!(outer_branched, "no outer level reached the solver's branch path");
}
