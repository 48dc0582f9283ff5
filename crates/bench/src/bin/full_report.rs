//! Regenerate `EXPERIMENTS.md`: run every table/figure experiment and
//! write paper-vs-measured records. Usage:
//!
//! ```text
//! cargo run --release -p cme-bench --bin full_report [output-path]
//! ```

use cme_bench::*;
use cme_kernels::paper;
use cme_loopnest::MemoryLayout;
use std::fmt::Write as _;

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "EXPERIMENTS.md".into());
    let mut md = String::new();
    let w = &mut md;

    writeln!(w, "# EXPERIMENTS — paper vs. measured\n").unwrap();
    writeln!(
        w,
        "Regenerated by `cargo run --release -p cme-bench --bin full_report`.\n\n\
         Reproduction of: Abella, González, Llosa, Vera, *Near-Optimal Loop Tiling by\n\
         means of Cache Miss Equations and Genetic Algorithms*, ICPPW'02.\n\n\
         Caches: 8 KB / 32 KB direct-mapped, 32-byte lines (§4.1). Miss ratios are\n\
         CME-estimated with the paper's 164-point sampling; kernels are the\n\
         reconstructions documented in the `cme-kernels` crate, so absolute values need not\n\
         match the paper — the before/after *shape* is the reproduction target.\n\
         Paper numbers are shown in parentheses. `n/a` marks rows the paper does\n\
         not report.\n"
    )
    .unwrap();

    // ---------------- Table 2 ----------------
    writeln!(w, "## Table 2 — miss ratios before/after tiling (8 KB)\n").unwrap();
    let mut rows = Vec::new();
    for row in paper::TABLE2 {
        let spec = cme_kernels::kernel_by_name(row.kernel).expect("kernel");
        let cfg = spec
            .configs()
            .into_iter()
            .find(|c| c.size == row.size)
            .unwrap_or_else(|| spec.configs()[0].clone());
        let rep = run_tiling(&cfg, cache_8k());
        rows.push(vec![
            format!("{} N={}", row.kernel, row.size),
            format!("{:.1} ({:.1})", rep.total_before_pct, row.no_tiling_total),
            format!("{:.1} ({:.1})", rep.repl_before_pct, row.no_tiling_repl),
            format!("{:.1} ({:.1})", rep.total_after_pct, row.tiling_total),
            format!("{:.1} ({:.1})", rep.repl_after_pct, row.tiling_repl),
            rep.tiles.map(|t| t.to_string()).unwrap_or_default(),
        ]);
    }
    writeln!(
        w,
        "{}",
        format_table(
            &[
                "kernel",
                "total% no-til",
                "repl% no-til",
                "total% tiled",
                "repl% tiled",
                "chosen tiles"
            ],
            &rows
        )
    )
    .unwrap();

    // ---------------- Figures 8 & 9 ----------------
    let fig8 = sweep_figure(cache_8k());
    let fig9 = sweep_figure(cache_32k());
    for (figname, reports, cachename) in [("Figure 8", &fig8, "8 KB"), ("Figure 9", &fig9, "32 KB")]
    {
        writeln!(w, "## {figname} — replacement miss ratio, NO-tiling vs tiling ({cachename})\n")
            .unwrap();
        let rows: Vec<Vec<String>> = reports
            .iter()
            .map(|r| {
                vec![
                    r.kernel.clone(),
                    format!("{:.1}", r.repl_before_pct),
                    format!("{:.1}", r.repl_after_pct),
                    r.tiles.as_ref().map(|t| t.to_string()).unwrap_or_default(),
                    format!("{}", r.ga_generations),
                ]
            })
            .collect();
        writeln!(
            w,
            "{}",
            format_table(&["kernel", "repl% NO tiling", "repl% tiling", "tiles", "GA gens"], &rows)
        )
        .unwrap();
    }

    // ---------------- Table 3 ----------------
    writeln!(w, "## Table 3 — original / padding / padding+tiling replacement ratios\n").unwrap();
    for (cache, prows, label) in
        [(cache_8k(), paper::TABLE3_8K, "8 KB"), (cache_32k(), paper::TABLE3_32K, "32 KB")]
    {
        let meas = run_table3(cache, prows);
        let rows: Vec<Vec<String>> = meas
            .iter()
            .zip(prows)
            .map(|(m, p)| {
                vec![
                    m.label.clone(),
                    format!("{:.1} ({:.1})", m.original_pct, p.original),
                    format!("{:.1} ({:.1})", m.padding_pct, p.padding),
                    format!("{:.1} ({:.1})", m.padding_tiling_pct, p.padding_tiling),
                ]
            })
            .collect();
        writeln!(w, "**{label}**\n").unwrap();
        writeln!(
            w,
            "{}",
            format_table(&["kernel", "original%", "padding%", "padding+tiling%"], &rows)
        )
        .unwrap();
    }

    // ---------------- Table 4 ----------------
    writeln!(w, "## Table 4 — % of kernels below replacement-ratio thresholds after tiling\n")
        .unwrap();
    let mut rows = Vec::new();
    for (reports, paper_row) in [(&fig8, &paper::TABLE4[0]), (&fig9, &paper::TABLE4[1])] {
        let (p1, p2, p5) = table4_fractions(reports, paper_row.cache_kb);
        rows.push(vec![
            format!("{} KB", paper_row.cache_kb),
            format!("{p1:.1} ({:.1})", paper_row.below_1pct),
            format!("{p2:.1} ({:.1})", paper_row.below_2pct),
            format!("{p5:.1} ({:.1})", paper_row.below_5pct),
        ]);
    }
    writeln!(w, "{}", format_table(&["cache", "<1%", "<2%", "<5%"], &rows)).unwrap();

    // ---------------- Headlines ----------------
    writeln!(w, "## Headline claims (§1, §6)\n").unwrap();
    let mm = cme_kernels::kernel_by_name("MM").unwrap();
    let mut best_factor: f64 = 0.0;
    for cfg in mm.configs() {
        let r = run_tiling(&cfg, cache_8k());
        best_factor = best_factor.max(r.total_before_pct / r.total_after_pct.max(1e-9));
    }
    writeln!(
        w,
        "* MM total-miss-ratio reduction factor: measured up to **{best_factor:.1}x** \
         (paper: \"as significant as a factor of 7\").",
    )
    .unwrap();
    let t3 = cme_kernels::kernel_by_name("T3DJIK").unwrap();
    let cfg = t3.configs().into_iter().find(|c| c.size == 100).unwrap();
    let r = run_tiling(&cfg, cache_8k());
    writeln!(
        w,
        "* T3DJIK N=100 replacement ratio: **{:.1}% → {:.1}%** (paper: {:.1}% → {:.1}%).",
        r.repl_before_pct,
        r.repl_after_pct,
        paper::headline::T3DJIK_BEFORE,
        paper::headline::T3DJIK_AFTER
    )
    .unwrap();
    let dp = cme_kernels::kernel_by_name("DPSSB").unwrap();
    let r = run_tiling(&dp.configs()[0], cache_8k());
    writeln!(
        w,
        "* DPSSB replacement ratio: **{:.1}% → {:.1}%** (paper: {:.1}% → {:.2}%).\n",
        r.repl_before_pct,
        r.repl_after_pct,
        paper::headline::DPSSB_BEFORE,
        paper::headline::DPSSB_AFTER
    )
    .unwrap();

    // ---------------- GA convergence ----------------
    writeln!(w, "## §3.3 — GA convergence\n").unwrap();
    let gens: Vec<u32> = fig8.iter().map(|r| r.ga_generations).collect();
    let evals: Vec<u64> = fig8.iter().map(|r| r.ga_evaluations).collect();
    let conv = fig8.iter().filter(|r| r.ga_converged).count();
    writeln!(
        w,
        "Across the 27 kernel configurations (8 KB): generations min {} / mean {:.1} / max {} \
         (paper: 15–25); distinct objective evaluations min {} / mean {:.0} / max {} \
         (paper budget: 450 including duplicates; our evaluations are memoised); \
         {}/{} runs stopped by the 2% convergence criterion, the rest by the generation cap.\n",
        gens.iter().min().unwrap(),
        gens.iter().sum::<u32>() as f64 / gens.len() as f64,
        gens.iter().max().unwrap(),
        evals.iter().min().unwrap(),
        evals.iter().sum::<u64>() as f64 / evals.len() as f64,
        evals.iter().max().unwrap(),
        conv,
        fig8.len()
    )
    .unwrap();

    // ---------------- Sampling (small) ----------------
    writeln!(w, "## §2.3 — sampling (164 points)\n").unwrap();
    writeln!(
        w,
        "`n = ⌈z²·p(1−p)/h²⌉` with z = 1.28, h = 0.05 gives **{} points**, matching the \
         paper's 164 (note the paper's \"90% confidence\" corresponds to the one-sided \
         normal quantile). See `cargo run --release -p cme-bench --bin sampling_accuracy` \
         for the full accuracy/coverage study (CI coverage ≈ 99% on the evaluated \
         kernels; worst observed error ≈ the design half-width).\n",
        cme_core::SamplingConfig::paper().sample_size()
    )
    .unwrap();

    // ---------------- GA vs optimal (one case inline) ----------------
    writeln!(w, "## §4.3 — GA vs exhaustive optimum (sample)\n").unwrap();
    {
        let nest = cme_kernels::transposes::t2d(48);
        let layout = MemoryLayout::contiguous(&nest);
        let cache = cme_core::CacheSpec::direct_mapped(2048, 32);
        let exact = cme_tileopt::exhaustive_search(
            &nest,
            &layout,
            cache,
            cme_core::SamplingConfig::paper(),
            1,
            1_000_000,
        )
        .expect("sweep within cap");
        let opt = cme_tileopt::TilingOptimizer::new(cache);
        let out = opt.optimize(&nest, &layout).expect("legal");
        let acc = nest.accesses() as f64;
        writeln!(
            w,
            "T2D N=48, 2 KB cache, full 48×48 tile sweep: optimal replacement ratio \
             {:.3}% at tiles {}; GA found {:.3}% at tiles {}. \
             Run `--bin ga_vs_optimal` for the full set.\n",
            exact.best_cost / acc * 100.0,
            exact.best_tiles,
            out.ga.best_cost / acc * 100.0,
            out.tiles
        )
        .unwrap();
    }

    writeln!(w, "## Reproduction notes\n").unwrap();
    writeln!(
        w,
        "* Kernel sources are reconstructions (see the `cme-kernels` crate docs); \
         T3DIKJ/ADI/JACOBI3D differ \
         most from the paper's absolute numbers but preserve the qualitative shape.\n\
         * Our padding search eliminates the alignment conflicts completely (paper's \
         intermediate padding column remains high for ADD/VPENTA1), because the \
         reconstructed kernels' conflicts are pure base-alignment — the padding+tiling \
         end state matches the paper (≈ 0%).\n\
         * The CME classifier is validated point-for-point against an exact LRU \
         simulator (`crates/core/tests/validate.rs`, property tests in \
         `crates/core/tests/prop.rs`).\n\
         * Solver speed-up vs the generic explicit-polyhedron path: run \
         `--bin solver_speedup` (the paper's 20× was measured against a \
         vertex-enumeration method we do not reimplement verbatim).\n"
    )
    .unwrap();

    std::fs::write(&path, md).expect("write EXPERIMENTS.md");
    println!("wrote {path}");
}
