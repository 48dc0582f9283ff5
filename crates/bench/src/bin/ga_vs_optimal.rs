//! §4.3: "Our technique is compared against the optimal solution
//! (counting replacement misses)". On kernels small enough for an
//! exhaustive sweep of every tile vector, compare the GA's tiling with
//! the true optimum.

use cme_core::SamplingConfig;
use cme_ga::GaConfig;
use cme_loopnest::MemoryLayout;
use cme_tileopt::{exhaustive_search, TilingOptimizer};
use rayon::prelude::*;

fn main() {
    println!("GA vs exhaustive optimum (replacement-miss objective, 8KB cache unless noted)\n");
    // (kernel, size, cache bytes) — exhaustive cost is |U|^d evaluations.
    let cases = [
        ("T2D", 48i64, 2048i64),
        ("T2D", 64, 4096),
        ("ADI", 32, 1024),
        ("MM", 14, 1024),
        ("VPENTA2", 48, 2048),
    ];
    let rows: Vec<Vec<String>> = cases
        .par_iter()
        .map(|&(name, n, cache_bytes)| {
            let spec = cme_kernels::kernel_by_name(name).expect("kernel");
            let nest = (spec.build)(n);
            let layout = MemoryLayout::contiguous(&nest);
            let cache = cme_core::CacheSpec::direct_mapped(cache_bytes, 32);
            let exact =
                exhaustive_search(&nest, &layout, cache, SamplingConfig::paper(), 1, 3_000_000)
                    .expect("sweep within cap");
            let mut opt = TilingOptimizer::new(cache);
            opt.ga = GaConfig { seed: cme_bench::seed_for(&nest.name), ..GaConfig::default() };
            let out = opt.optimize(&nest, &layout).expect("legal");
            let accesses = nest.accesses() as f64;
            vec![
                format!("{name}_{n} ({}B)", cache_bytes),
                format!("{:.3}%", exact.best_cost / accesses * 100.0),
                format!("{}", exact.best_tiles),
                format!("{:.3}%", out.ga.best_cost / accesses * 100.0),
                format!("{}", out.tiles),
                format!("{:.3}%", (out.ga.best_cost - exact.best_cost).max(0.0) / accesses * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        cme_bench::format_table(
            &["case", "optimal repl%", "optimal tiles", "GA repl%", "GA tiles", "gap"],
            &rows
        )
    );
    println!("(gap = GA − optimal replacement ratio; near-optimal means gap ≈ 0)");
}
