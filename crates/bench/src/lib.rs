#![forbid(unsafe_code)]
//! Experiment harness regenerating the paper's tables and figures.
//!
//! Each experiment is one function in [`experiments`] that returns a
//! [`Section`]: a title and a Markdown body holding the measured numbers
//! next to the paper's. [`EXPERIMENTS`] names them all; the `experiments`
//! binary prints sections by name, and `experiments report` writes
//! `EXPERIMENTS.md` from the same sections ([`report`]), so the report
//! and a single experiment cannot print different numbers. The
//! `eval_throughput` and `serve_throughput` binaries are the CI
//! performance gates, and `benches/` holds the criterion micro-benches.

pub mod experiments;

pub use experiments::{experiment, report, Experiment, Section, Sweeps, EXPERIMENTS, REPORT};

use cme_core::CacheSpec;
use cme_ga::GaConfig;
use cme_kernels::paper::Table3Row;
use cme_kernels::KernelConfig;
use cme_loopnest::{LoopNest, MemoryLayout};
use cme_tileopt::{KernelReport, TilingOptimizer};
use rayon::prelude::*;

/// Deterministic GA seed per kernel name so runs are reproducible but
/// kernels are independent.
pub fn seed_for(name: &str) -> u64 {
    name.bytes().fold(0xA5A5_5A5A_0123_4567u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64))
}

/// Registry kernel `name` at problem size `n`, with its contiguous
/// layout.
pub(crate) fn kernel(name: &str, n: i64) -> (LoopNest, MemoryLayout) {
    let spec = cme_kernels::kernel_by_name(name).expect("registry kernel");
    let nest = (spec.build)(n).unwrap_or_else(|e| panic!("{name} {n}: {e}"));
    let layout = MemoryLayout::contiguous(&nest);
    (nest, layout)
}

/// The paper's GA tile search on `cache`, seeded for the nest `name`
/// with [`seed_for`].
pub(crate) fn tiling_optimizer(cache: CacheSpec, name: &str) -> TilingOptimizer {
    let mut opt = TilingOptimizer::new(cache);
    opt.ga = GaConfig { seed: seed_for(name), ..GaConfig::default() };
    opt
}

/// Run the before/after-tiling experiment for one kernel configuration.
pub(crate) fn run_tiling(cfg: &KernelConfig, cache: CacheSpec) -> KernelReport {
    let nest = cfg.build().expect("figure configurations build");
    let layout = MemoryLayout::contiguous(&nest);
    let out = tiling_optimizer(cache, &cfg.sized_name)
        .optimize(&nest, &layout)
        .unwrap_or_else(|e| panic!("{}: {e}", cfg.sized_name));
    KernelReport {
        kernel: cfg.sized_name.clone(),
        cache_kb: cache.size / 1024,
        total_before_pct: out.before.miss_ratio() * 100.0,
        repl_before_pct: out.before.replacement_ratio() * 100.0,
        total_after_pct: out.after.miss_ratio() * 100.0,
        repl_after_pct: out.after.replacement_ratio() * 100.0,
        tiles: Some(out.tiles),
        ga_generations: out.ga.generations,
        ga_evaluations: out.ga.evaluations,
        ga_converged: out.ga.converged,
    }
}

/// The Fig. 8 / Fig. 9 sweep: every figure configuration, in parallel.
pub(crate) fn sweep_figure(cache: CacheSpec) -> Vec<KernelReport> {
    let configs = cme_kernels::figure_configs();
    configs.par_iter().map(|cfg| run_tiling(cfg, cache)).collect()
}

/// Table 4 row: the percentage of reports with a post-tiling replacement
/// ratio below 1%, 2% and 5%, leaving out the kernels of the `table3`
/// rows for the same cache.
pub(crate) fn table4_fractions(reports: &[KernelReport], table3: &[Table3Row]) -> (f64, f64, f64) {
    let in_table3 = |r: &KernelReport| {
        table3.iter().any(|row| match row.size {
            Some(size) => r.kernel == format!("{}_{size}", row.kernel),
            None => r.kernel == row.kernel,
        })
    };
    let rows: Vec<&KernelReport> = reports.iter().filter(|r| !in_table3(r)).collect();
    let n = rows.len().max(1) as f64;
    let frac = |thr: f64| rows.iter().filter(|r| r.repl_after_pct < thr).count() as f64 / n * 100.0;
    (frac(1.0), frac(2.0), frac(5.0))
}

/// Markdown/console table formatting helper.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut s = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            s.push_str(&format!(" {c:>w$} |"));
        }
        s
    };
    out.push_str(&fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &widths));
    out.push('\n');
    out.push_str(&fmt_row(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(), &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_is_stable_and_distinct() {
        assert_eq!(seed_for("MM_500"), seed_for("MM_500"));
        assert_ne!(seed_for("MM_500"), seed_for("MM_2000"));
    }

    #[test]
    fn table4_excludes_table3_kernels() {
        let mk = |name: &str, repl: f64| KernelReport {
            kernel: name.into(),
            cache_kb: 8,
            total_before_pct: 0.0,
            repl_before_pct: 0.0,
            total_after_pct: 0.0,
            repl_after_pct: repl,
            tiles: None,
            ga_generations: 0,
            ga_evaluations: 0,
            ga_converged: true,
        };
        let reports = vec![mk("MM_500", 0.5), mk("ADD", 60.0), mk("T2D_100", 3.0)];
        let (p1, p2, p5) = table4_fractions(&reports, cme_kernels::paper::TABLE3_8K);
        // ADD excluded: of the two remaining, one < 1%, one < 5%.
        assert_eq!(p1, 50.0);
        assert_eq!(p2, 50.0);
        assert_eq!(p5, 100.0);
    }

    #[test]
    fn format_table_aligns() {
        let t = format_table(&["a", "bb"], &[vec!["1".into(), "22".into()]]);
        assert!(t.contains("| a | bb |"));
        assert!(t.contains("| 1 | 22 |"));
    }
}
