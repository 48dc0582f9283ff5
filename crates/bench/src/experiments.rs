//! The paper's evaluation, one function per table, figure or study.
//!
//! Every experiment returns a [`Section`]. [`EXPERIMENTS`] names them,
//! and [`report`] assembles `EXPERIMENTS.md` from the sections listed in
//! [`REPORT`], so a table printed on its own and the same table in the
//! report come from one computation. Paper values appear in parentheses.

use crate::{format_table, kernel, seed_for, sweep_figure, table4_fractions, tiling_optimizer};
use cme_cachesim::{simulate_nest, CacheGeometry};
use cme_core::equations::{classify_explicit, CmeEquations};
use cme_core::{CacheSpec, CmeModel, SamplingConfig};
use cme_ga::GaConfig;
use cme_kernels::paper::{self, headline, Table3Row};
use cme_loopnest::{LoopNest, MemoryLayout, TileSizes};
use cme_tileopt::baselines::{fixed_fraction, lrw_square, tss_coleman_mckinley};
use cme_tileopt::{exhaustive_search, optimize_with_interchange, KernelReport, PaddingOptimizer};
use rayon::prelude::*;
use std::cell::OnceCell;
use std::time::Instant;

/// One experiment's output: a title and a Markdown body whose tables come
/// from [`format_table`]. The console and the report print the same body.
pub struct Section {
    pub title: &'static str,
    pub body: String,
}

impl Section {
    /// The console form: the title, a blank line, the body.
    pub fn console(&self) -> String {
        format!("{}\n\n{}", self.title, self.body)
    }

    /// The report form: the title as a second-level heading.
    fn markdown(&self) -> String {
        format!("## {}\n\n{}\n", self.title, self.body)
    }
}

/// The figure sweeps of one process. Figs. 8 and 9, Tables 2 and 4, the
/// headline claims, the convergence study and the baselines' GA column
/// all read them; each cache's sweep runs at most once, on first use.
#[derive(Default)]
pub struct Sweeps {
    kb8: OnceCell<Vec<KernelReport>>,
    kb32: OnceCell<Vec<KernelReport>>,
}

impl Sweeps {
    /// Every figure configuration tiled for the 8 KB cache (Fig. 8).
    pub fn fig8(&self) -> &[KernelReport] {
        self.kb8.get_or_init(|| sweep_figure(CacheSpec::paper_8k()))
    }

    /// Every figure configuration tiled for the 32 KB cache (Fig. 9).
    pub fn fig9(&self) -> &[KernelReport] {
        self.kb32.get_or_init(|| sweep_figure(CacheSpec::paper_32k()))
    }

    /// The Fig. 8 report of one figure configuration, e.g. `"MM_500"`.
    fn fig8_kernel(&self, name: &str) -> &KernelReport {
        self.fig8().iter().find(|r| r.kernel == name).expect("a figure configuration")
    }
}

/// An experiment: the shared sweeps in, one section out.
pub type Experiment = fn(&Sweeps) -> Section;

/// Every experiment, by the name the `experiments` binary takes.
pub const EXPERIMENTS: [(&str, Experiment); 16] = [
    ("ablation_ga", ablation_ga),
    ("ablation_sampling", ablation_sampling),
    ("assoc_sweep", assoc_sweep),
    ("baselines", baselines),
    ("convergence", convergence),
    ("fig8", fig8),
    ("fig9", fig9),
    ("ga_vs_optimal", ga_vs_optimal),
    ("interchange_study", interchange_study),
    ("kernels_inventory", kernels_inventory),
    ("mm_headline", mm_headline),
    ("sampling_accuracy", sampling_accuracy),
    ("solver_speedup", solver_speedup),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
];

/// The experiment registered as `name`.
pub fn experiment(name: &str) -> Option<Experiment> {
    EXPERIMENTS.iter().find(|(n, _)| *n == name).map(|&(_, run)| run)
}

/// The sections of `EXPERIMENTS.md`, in order. The §2.3 sampling note,
/// which runs no experiment, goes in before `ga_vs_optimal`.
pub const REPORT: [&str; 8] =
    ["table2", "fig8", "fig9", "table3", "table4", "mm_headline", "convergence", "ga_vs_optimal"];

const INTRO: &str = "# EXPERIMENTS — paper vs. measured

Regenerated by `cargo run --release -p cme-bench --bin experiments -- report`.
Each section is also printed on its own by `experiments NAME`.

Reproduction of: Abella, González, Llosa, Vera, *Near-Optimal Loop Tiling by
means of Cache Miss Equations and Genetic Algorithms*, ICPPW'02.

Caches: 8 KB / 32 KB direct-mapped, 32-byte lines (§4.1). Miss ratios are
CME-estimated with the paper's 164-point sampling; kernels are the
reconstructions documented in the `cme-kernels` crate, so absolute values need not
match the paper — the before/after *shape* is the reproduction target.
Paper numbers are shown in parentheses.

";

const NOTES: &str = "## Reproduction notes

* Kernel sources are reconstructions (see the `cme-kernels` crate docs); T3DIKJ/ADI/JACOBI3D differ \
most from the paper's absolute numbers but preserve the qualitative shape.
* Our padding search removes nearly all of ADD's and VPENTA1/2's conflicts (the paper's \
intermediate padding column remains high for ADD/VPENTA1), because the reconstructed kernels' \
conflicts are pure base-alignment — the padding+tiling end state matches the paper (≈ 0%).
* The CME classifier is validated point-for-point against an exact LRU simulator \
(`crates/core/tests/validate.rs`, property tests in `crates/core/tests/prop.rs`).
* Solver speed-up vs the generic explicit-polyhedron path: run `experiments solver_speedup` (the \
paper's 20× was measured against a vertex-enumeration method we do not reimplement verbatim).
";

/// `EXPERIMENTS.md`: the introduction, the [`REPORT`] sections and the
/// reproduction notes.
pub fn report(sweeps: &Sweeps) -> String {
    let mut md = String::from(INTRO);
    for name in REPORT {
        if name == "ga_vs_optimal" {
            md.push_str(&format!(
                "## §2.3 — sampling (164 points)\n\n`n = ⌈z²·p(1−p)/h²⌉` with z = 1.28, h = 0.05 \
                 gives **{} points**, matching the paper's 164 (the paper's \"90% confidence\" \
                 is the one-sided normal quantile). `experiments sampling_accuracy` measures \
                 the estimate's error and interval coverage.\n\n",
                SamplingConfig::paper().sample_size()
            ));
        }
        let run = experiment(name).expect("report sections are registered");
        md.push_str(&run(sweeps).markdown());
    }
    md + NOTES
}

/// Table 2: miss ratios before/after tiling for four kernels.
fn table2(sweeps: &Sweeps) -> Section {
    let rows: Vec<Vec<String>> = paper::TABLE2
        .iter()
        .map(|row| {
            let rep = sweeps.fig8_kernel(&format!("{}_{}", row.kernel, row.size));
            vec![
                format!("{} N={}", row.kernel, row.size),
                format!("{:.1} ({:.1})", rep.total_before_pct, row.no_tiling_total),
                format!("{:.1} ({:.1})", rep.repl_before_pct, row.no_tiling_repl),
                format!("{:.1} ({:.1})", rep.total_after_pct, row.tiling_total),
                format!("{:.1} ({:.1})", rep.repl_after_pct, row.tiling_repl),
                rep.tiles.as_ref().map(|t| t.to_string()).unwrap_or_default(),
            ]
        })
        .collect();
    let header =
        ["kernel", "total% no-tiling", "repl% no-tiling", "total% tiling", "repl% tiling", "tiles"];
    Section {
        title: "Table 2 — miss ratio before/after GA tiling (8KB direct-mapped, 32B lines)",
        body: format_table(&header, &rows),
    }
}

/// Figure 8: replacement miss ratio before and after tiling, 8 KB.
fn fig8(sweeps: &Sweeps) -> Section {
    figure("Figure 8 — replacement miss ratio, NO-tiling vs tiling (8KB cache)", sweeps.fig8())
}

/// Figure 9: replacement miss ratio before and after tiling, 32 KB.
fn fig9(sweeps: &Sweeps) -> Section {
    figure("Figure 9 — replacement miss ratio, NO-tiling vs tiling (32KB cache)", sweeps.fig9())
}

fn figure(title: &'static str, reports: &[KernelReport]) -> Section {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                format!("{:.1}", r.repl_before_pct),
                format!("{:.1}", r.repl_after_pct),
                r.tiles.as_ref().map(|t| t.to_string()).unwrap_or_default(),
                format!("{}g/{}e", r.ga_generations, r.ga_evaluations),
            ]
        })
        .collect();
    let header = ["kernel", "repl% NO tiling", "repl% tiling", "tiles", "GA"];
    Section { title, body: format_table(&header, &rows) }
}

/// Table 3: the conflict-dominated kernels — original, after GA padding,
/// after padding + tiling — on both caches.
fn table3(_: &Sweeps) -> Section {
    let header = ["kernel", "original%", "padding%", "padding+tiling%"];
    let mut body = String::new();
    for (label, cache, rows) in [
        ("8KB", CacheSpec::paper_8k(), paper::TABLE3_8K),
        ("32KB", CacheSpec::paper_32k(), paper::TABLE3_32K),
    ] {
        let rows: Vec<Vec<String>> = rows.par_iter().map(|row| table3_row(cache, row)).collect();
        body += &format!("**{label} cache**\n\n{}\n", format_table(&header, &rows));
    }
    body.pop();
    Section {
        title: "Table 3 — replacement miss ratio: original / padding / padding+tiling", body
    }
}

fn table3_row(cache: CacheSpec, row: &Table3Row) -> Vec<String> {
    let spec = cme_kernels::kernel_by_name(row.kernel).expect("registry kernel");
    let (nest, _) = kernel(row.kernel, row.size.unwrap_or(spec.default_size));
    let mut opt = PaddingOptimizer::new(cache);
    opt.ga = GaConfig { seed: seed_for(&nest.name), ..GaConfig::default() };
    let out = opt.optimize_then_tile(&nest).expect("legal");
    let tiled = out.tiled.as_ref().expect("pipeline output");
    vec![
        match row.size {
            Some(s) => format!("{} {s}", row.kernel),
            None => row.kernel.to_string(),
        },
        format!("{:.1} ({:.1})", out.original.replacement_ratio() * 100.0, row.original),
        format!("{:.1} ({:.1})", out.padded.replacement_ratio() * 100.0, row.padding),
        format!("{:.1} ({:.1})", tiled.after.replacement_ratio() * 100.0, row.padding_tiling),
    ]
}

/// Table 4: share of kernels (Table 3 kernels excluded) whose
/// post-tiling replacement ratio is below 1%, 2% and 5%.
fn table4(sweeps: &Sweeps) -> Section {
    let rows: Vec<Vec<String>> = [
        (sweeps.fig8(), paper::TABLE3_8K, &paper::TABLE4[0]),
        (sweeps.fig9(), paper::TABLE3_32K, &paper::TABLE4[1]),
    ]
    .into_iter()
    .map(|(reports, table3, paper)| {
        let (p1, p2, p5) = table4_fractions(reports, table3);
        vec![
            format!("{}KB", paper.cache_kb),
            format!("{p1:.1} ({:.1})", paper.below_1pct),
            format!("{p2:.1} ({:.1})", paper.below_2pct),
            format!("{p5:.1} ({:.1})", paper.below_5pct),
        ]
    })
    .collect();
    Section {
        title: "Table 4 — replacement miss ratios after tiling (excluding Table 3 kernels)",
        body: format_table(&["cache", "<1%", "<2%", "<5%"], &rows),
    }
}

/// Headline claims (§1, §6): MM's miss ratio drops by up to ~7×,
/// T3DJIK N=100 goes 36.7% → 0.6%, DPSSB 55.5% → 1.25%.
fn mm_headline(sweeps: &Sweeps) -> Section {
    let rows: Vec<Vec<String>> = ["MM_100", "MM_500", "MM_2000"]
        .into_iter()
        .map(|name| {
            let r = sweeps.fig8_kernel(name);
            let factor = r.total_before_pct / r.total_after_pct.max(1e-9);
            vec![
                r.kernel.clone(),
                format!("{:.1}", r.total_before_pct),
                format!("{:.1}", r.total_after_pct),
                format!("{factor:.1}x"),
                format!("(paper: up to {:.0}x)", headline::MM_MISS_RATIO_FACTOR),
            ]
        })
        .collect();
    let header = ["kernel", "total miss% before", "total miss% after", "factor", "paper"];
    let (t3, dp) = (sweeps.fig8_kernel("T3DJIK_100"), sweeps.fig8_kernel("DPSSB"));
    Section {
        title: "Headline claims (8KB direct-mapped cache)",
        body: format!(
            "{}\n* T3DJIK N=100: repl {:.1}% -> {:.1}% (paper: {:.1}% -> {:.1}%)\n\
             * DPSSB: repl {:.1}% -> {:.1}% (paper: {:.1}% -> {:.2}%)\n",
            format_table(&header, &rows),
            t3.repl_before_pct,
            t3.repl_after_pct,
            headline::T3DJIK_BEFORE,
            headline::T3DJIK_AFTER,
            dp.repl_before_pct,
            dp.repl_after_pct,
            headline::DPSSB_BEFORE,
            headline::DPSSB_AFTER
        ),
    }
}

/// §3.3: the GA converges in 15–25 generations and needs on the order of
/// 450 objective evaluations per nest. Panics when a run leaves Fig. 7's
/// 15–25 generation band.
fn convergence(sweeps: &Sweeps) -> Section {
    let reports = sweeps.fig8();
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let stop = if r.ga_converged { "2% criterion" } else { "generation cap" };
            vec![
                r.kernel.clone(),
                r.ga_generations.to_string(),
                r.ga_evaluations.to_string(),
                stop.into(),
            ]
        })
        .collect();
    let gens: Vec<u32> = reports.iter().map(|r| r.ga_generations).collect();
    let evals: Vec<u64> = reports.iter().map(|r| r.ga_evaluations).collect();
    assert!(gens.iter().all(|g| (15..=25).contains(g)), "Fig. 7 bounds violated: {gens:?}");
    let converged = reports.iter().filter(|r| r.ga_converged).count();
    Section {
        title: "GA convergence study (8KB cache) — paper §3.3",
        body: format!(
            "> \"near-optimal results in most cases after 15 generations ... between 15 and 25\"\n\
             > \"the required 450 evaluations (15 iterations of the GA x 30 individuals)\"\n\n\
             {}\n* generations: min {} / mean {:.1} / max {} (paper: 15..25)\n\
             * distinct evaluations: min {} / mean {:.0} / max {} \
             (paper budget: 450 incl. duplicates)\n\
             * stopped by the 2% convergence criterion: {converged}/{} kernels\n",
            format_table(&["kernel", "generations", "distinct evals", "stopped by"], &rows),
            gens.iter().min().expect("figure configurations"),
            gens.iter().sum::<u32>() as f64 / gens.len() as f64,
            gens.iter().max().expect("figure configurations"),
            evals.iter().min().expect("figure configurations"),
            evals.iter().sum::<u64>() as f64 / evals.len() as f64,
            evals.iter().max().expect("figure configurations"),
            reports.len()
        ),
    }
}

/// §4.3: on kernels small enough to sweep every tile vector, the GA's
/// tiling against the true optimum.
fn ga_vs_optimal(_: &Sweeps) -> Section {
    // (kernel, size, cache bytes) — exhaustive cost is |U|^d evaluations.
    let cases = [
        ("T2D", 48, 2048),
        ("T2D", 64, 4096),
        ("ADI", 32, 1024),
        ("MM", 14, 1024),
        ("VPENTA2", 48, 2048),
    ];
    let rows: Vec<Vec<String>> = cases
        .par_iter()
        .map(|&(name, n, cache_bytes)| {
            let (nest, layout) = kernel(name, n);
            let cache = CacheSpec::direct_mapped(cache_bytes, 32);
            let exact =
                exhaustive_search(&nest, &layout, cache, SamplingConfig::paper(), 1, 3_000_000)
                    .expect("sweep within cap");
            let out = tiling_optimizer(cache, &nest.name).optimize(&nest, &layout).expect("legal");
            let pct = |cost: f64| format!("{:.3}%", cost / nest.accesses() as f64 * 100.0);
            vec![
                format!("{name}_{n} ({cache_bytes}B)"),
                pct(exact.best_cost),
                exact.best_tiles.to_string(),
                pct(out.ga.best_cost),
                out.tiles.to_string(),
                pct((out.ga.best_cost - exact.best_cost).max(0.0)),
            ]
        })
        .collect();
    let header = ["case", "optimal repl%", "optimal tiles", "GA repl%", "GA tiles", "gap"];
    Section {
        title: "GA vs exhaustive optimum (replacement-miss objective, 8KB cache unless noted)",
        body: format!(
            "{}\ngap = GA − optimal replacement ratio; near-optimal means gap ≈ 0.\n",
            format_table(&header, &rows)
        ),
    }
}

/// Table 1: the evaluated kernels.
fn kernels_inventory(_: &Sweeps) -> Section {
    let rows: Vec<Vec<String>> = cme_kernels::all_kernels()
        .iter()
        .map(|k| {
            vec![
                k.name.to_string(),
                k.program.to_string(),
                k.depth.to_string(),
                if k.sizes.is_empty() {
                    format!("fixed n={}", k.default_size)
                } else {
                    format!("{:?}", k.sizes)
                },
                k.description.to_string(),
            ]
        })
        .collect();
    Section {
        title: "Table 1 — evaluated kernels (reconstructions; see the cme-kernels crate docs)",
        body: format_table(&["kernel", "program", "loops", "sizes", "description"], &rows),
    }
}

/// Ablation of the §3.3 GA parameters (population 30, crossover 0.9,
/// mutation 0.001, 15–25 generations) on the MM_200 tile search.
fn ablation_ga(_: &Sweeps) -> Section {
    let (nest, layout) = kernel("MM", 200);
    let accesses = nest.accesses() as f64;
    let base = GaConfig::default();
    let variants = [
        ("paper (pop30 pc.9 pm.001)", base),
        ("pop 10", GaConfig { population: 10, ..base }),
        ("pop 60", GaConfig { population: 60, ..base }),
        ("pc 0.5", GaConfig { crossover_prob: 0.5, ..base }),
        ("pc 1.0", GaConfig { crossover_prob: 1.0, ..base }),
        ("pm 0 (no mutation)", GaConfig { mutation_prob: 0.0, ..base }),
        ("pm 0.01", GaConfig { mutation_prob: 0.01, ..base }),
        ("pm 0.05", GaConfig { mutation_prob: 0.05, ..base }),
        ("gens 5..10", GaConfig { min_generations: 5, max_generations: 10, ..base }),
        ("gens 40..60", GaConfig { min_generations: 40, max_generations: 60, ..base }),
        ("margin 10%", GaConfig { convergence_margin: 0.10, ..base }),
    ];
    let rows: Vec<Vec<String>> = variants
        .par_iter()
        .map(|(label, cfg)| {
            let runs: Vec<(f64, u64, u32)> = [1u64, 2, 3]
                .into_iter()
                .map(|seed| {
                    let mut opt = cme_tileopt::TilingOptimizer::new(CacheSpec::paper_8k());
                    opt.ga = GaConfig { seed, ..*cfg };
                    let out = opt.optimize(&nest, &layout).expect("legal");
                    (out.ga.best_cost / accesses * 100.0, out.ga.evaluations, out.ga.generations)
                })
                .collect();
            let worst = runs.iter().map(|r| r.0).fold(0.0f64, f64::max);
            vec![
                label.to_string(),
                format!("{:.2}", runs.iter().map(|r| r.0).sum::<f64>() / 3.0),
                format!("{worst:.2}"),
                format!("{:.0}", runs.iter().map(|r| r.1).sum::<u64>() as f64 / 3.0),
                format!("{:.0}", runs.iter().map(|r| r.2).sum::<u32>() as f64 / 3.0),
            ]
        })
        .collect();
    let header = ["variant", "mean best repl%", "worst repl%", "mean evals", "mean gens"];
    Section {
        title: "GA parameter ablation on MM_200 (8KB cache), 3 seeds each",
        body: format_table(&header, &rows),
    }
}

/// Ablation of the §2.3 sample size: error against exhaustive analysis
/// and time per estimate for budgets around the paper's 164 points.
fn ablation_sampling(_: &Sweeps) -> Section {
    let model = CmeModel::new(CacheSpec::paper_8k());
    let mut rows = Vec::new();
    for (name, n) in [("T2D", 100), ("MM", 48), ("DPSSB", 24)] {
        let (nest, layout) = kernel(name, n);
        let an = model.analyze(&nest, &layout, None);
        let exact = an.exhaustive().miss_ratio();
        for budget in [41, 82, 164, 328, 656] {
            let cfg = SamplingConfig::fixed(budget);
            let t0 = Instant::now();
            let errs: Vec<f64> = (0..100u64)
                .map(|seed| (an.estimate(&cfg, seed).miss_ratio() - exact).abs())
                .collect();
            let elapsed = t0.elapsed() / 100;
            rows.push(vec![
                format!("{name}_{n}"),
                budget.to_string(),
                format!("{:.2}", errs.iter().sum::<f64>() / 100.0 * 100.0),
                format!("{:.2}", errs.iter().fold(0.0f64, |a, &e| a.max(e)) * 100.0),
                format!("{elapsed:.1?}"),
            ]);
        }
    }
    let header = ["kernel", "points", "mean |err| %", "max |err| %", "time/estimate"];
    Section {
        title: "Sampling budget ablation (error vs exhaustive analysis; 100 seeds each)",
        body: format!(
            "{}\nThe paper's 164-point design sits at the knee: ~1% mean error, sub-ms estimates.\n",
            format_table(&header, &rows)
        ),
    }
}

/// §2.3: 164 sampled points give a miss-ratio interval of half-width 0.05
/// at the paper's "90% confidence" — accuracy against exhaustive
/// analysis, and how often ±0.05 around the estimate covers the truth.
fn sampling_accuracy(_: &Sweeps) -> Section {
    let model = CmeModel::new(CacheSpec::paper_8k());
    let cases = [("T2D", 100), ("MM", 40), ("MATMUL", 40), ("JACOBI3D", 40), ("DPSSB", 24)];
    let mut rows = Vec::new();
    let mut worst_err: f64 = 0.0;
    let mut coverages = Vec::new();
    for (name, n) in cases {
        let (nest, layout) = kernel(name, n);
        let an = model.analyze(&nest, &layout, None);
        let exact = an.exhaustive().miss_ratio();
        let seeds: Vec<u64> = (0..200).collect();
        let estimates: Vec<f64> = seeds
            .par_iter()
            .map(|&s| an.estimate(&SamplingConfig::paper(), s).miss_ratio())
            .collect();
        let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        let max_err = estimates.iter().map(|e| (e - exact).abs()).fold(0.0f64, f64::max);
        let covered = estimates.iter().filter(|e| (*e - exact).abs() <= 0.05).count();
        let coverage = covered as f64 / estimates.len() as f64 * 100.0;
        coverages.push(coverage);
        worst_err = worst_err.max(max_err);
        rows.push(vec![
            format!("{name}_{n}"),
            format!("{:.2}", exact * 100.0),
            format!("{:.2}", mean * 100.0),
            format!("{:.2}", max_err * 100.0),
            format!("{coverage:.1}%"),
        ]);
    }
    let header = ["kernel", "exact miss%", "mean est%", "max |err|%", "CI coverage (±5%)"];
    Section {
        title: "Sampling accuracy (164 points, z=1.28, half-width 0.05) vs exhaustive analysis",
        body: format!(
            "{}\n* worst absolute error across all seeds/kernels: {:.2}%\n\
             * mean CI coverage: {:.1}% (target ≥ ~90%)\n\
             * sample-size formula: n = ceil(z^2*p(1-p)/h^2) = {} points (paper: 164)\n",
            format_table(&header, &rows),
            worst_err * 100.0,
            coverages.iter().sum::<f64>() / coverages.len() as f64,
            SamplingConfig::paper().sample_size()
        ),
    }
}

/// §2.3: the specialised CME solver against generic polyhedron solving
/// ("an average speed-up of 20 over a method based on identifying the
/// vertices of the polyhedra"). Both classify the same sampled points and
/// must agree; the explicit path stands in for the vertex method.
fn solver_speedup(_: &Sweeps) -> Section {
    let model = CmeModel::new(CacheSpec::paper_8k());
    let cases = [
        ("T2D", 100, None),
        ("T2D", 100, Some(TileSizes(vec![30, 40]))),
        ("MM", 60, None),
        ("MM", 60, Some(TileSizes(vec![20, 15, 60]))),
        ("DPSSB", 24, None),
    ];
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for (name, n, tiles) in cases {
        let (nest, layout) = kernel(name, n);
        let an = model.analyze(&nest, &layout, tiles.as_ref());
        let eqs = CmeEquations::generate(&an);
        let vol = an.space.volume();
        let points: Vec<Vec<i64>> =
            (0..200).map(|k| an.space.point_at_global_rank(k * (vol / 200).max(1) % vol)).collect();
        let time = |classify: &dyn Fn(&[i64], usize) -> _| {
            let t0 = Instant::now();
            let out: Vec<_> =
                points.iter().flat_map(|p| (0..an.addr.len()).map(|r| classify(p, r))).collect();
            (t0.elapsed(), out)
        };
        let (fast, fast_out) = time(&|p, r| an.classify(p, r));
        let (slow, slow_out) = time(&|p, r| classify_explicit(&an, &eqs, p, r));
        assert_eq!(fast_out, slow_out, "classifiers must agree");
        let ratio = slow.as_secs_f64() / fast.as_secs_f64();
        ratios.push(ratio);
        rows.push(vec![
            match &tiles {
                Some(t) => format!("{name}_{n} tiled {t}"),
                None => format!("{name}_{n}"),
            },
            format!("{fast:.2?}"),
            format!("{slow:.2?}"),
            format!("{ratio:.1}x"),
        ]);
    }
    let geo = ratios.iter().product::<f64>().powf(1.0 / ratios.len() as f64);
    Section {
        title: "Solver speed-up: fast CME path vs explicit polyhedron solving",
        body: format!(
            "{}\nGeometric-mean speed-up: {geo:.1}x (paper reports ~20x over a vertex-based \
             method).\n",
            format_table(&["case", "fast path", "explicit path", "speed-up"], &rows)
        ),
    }
}

/// Extension: total miss ratios on set-associative caches (§2.2 defines
/// the k-way behaviour; the evaluation is direct-mapped), checked against
/// the exact simulator. Kernels whose same-array references are all
/// uniformly generated must match it exactly; DPSSB's non-uniform pair
/// may only be conservative (model ≥ simulator), the documented CME
/// limitation.
fn assoc_sweep(_: &Sweeps) -> Section {
    // (name, size, exact match expected)
    let cases = [
        ("T2D", 64, true),
        ("MM", 32, true),
        ("VPENTA2", 64, true),
        ("ADI", 64, true),
        ("DPSSB", 16, false),
    ];
    let rows: Vec<Vec<String>> = cases
        .par_iter()
        .map(|&(name, n, exact)| {
            let (nest, layout) = kernel(name, n);
            let mut row = vec![format!("{name}_{n}{}", if exact { "" } else { " (conservative)" })];
            for assoc in [1, 2, 4, 8] {
                let model = CmeModel::new(CacheSpec { size: 8192, line: 32, assoc });
                let rep = model.analyze(&nest, &layout, None).exhaustive();
                let geometry = CacheGeometry { size: 8192, line: 32, assoc };
                let sim = simulate_nest(&nest, &layout, None, geometry);
                let (c, s) = (rep.miss_ratio() * 100.0, sim.miss_ratio() * 100.0);
                if exact {
                    assert!((c - s).abs() < 1e-9, "{name}_{n} assoc {assoc}: CME {c} != sim {s}");
                } else {
                    assert!(c >= s - 1e-9, "{name}_{n} assoc {assoc}: CME {c} must be ≥ sim {s}");
                }
                row.push(format!("{c:.2} ({s:.2})"));
            }
            row
        })
        .collect();
    Section {
        title: "Total miss ratio vs associativity (8KB, 32B lines): CME (simulator)",
        body: format!(
            "{}\nHigher associativity removes conflict misses; capacity misses remain.\n",
            format_table(&["kernel", "1-way", "2-way", "4-way", "8-way"], &rows)
        ),
    }
}

/// Replacement ratio of `nest` under `tiles` (untiled when trivial),
/// sampled with a fixed seed so every heuristic is scored alike.
fn repl_pct(model: &CmeModel, nest: &LoopNest, layout: &MemoryLayout, tiles: &TileSizes) -> f64 {
    let tiles = (!tiles.is_trivial(nest)).then_some(tiles);
    model.analyze(nest, layout, tiles).estimate(&SamplingConfig::paper(), 11).replacement_ratio()
        * 100.0
}

/// Extension (§5 declined it): the GA's tilings (Fig. 8's) against
/// classical tile-size heuristics on the same kernels, model and cache.
fn baselines(sweeps: &Sweeps) -> Section {
    let cache = CacheSpec::paper_8k();
    let model = CmeModel::new(cache);
    let mut rows: Vec<Vec<String>> = cme_kernels::figure_configs()
        .par_iter()
        .map(|cfg| {
            let nest = cfg.build().expect("figure configurations build");
            let layout = MemoryLayout::contiguous(&nest);
            let scores = [
                repl_pct(&model, &nest, &layout, &TileSizes::trivial(&nest)),
                repl_pct(&model, &nest, &layout, &lrw_square(&nest, &layout, cache)),
                repl_pct(&model, &nest, &layout, &tss_coleman_mckinley(&nest, &layout, cache)),
                repl_pct(&model, &nest, &layout, &fixed_fraction(&nest, cache, 0.5)),
            ];
            std::iter::once(cfg.sized_name.clone())
                .chain(scores.iter().map(|s| format!("{s:.1}")))
                .collect()
        })
        .collect();
    for (row, ga) in rows.iter_mut().zip(sweeps.fig8()) {
        row.push(format!("{:.1}", ga.repl_after_pct));
    }
    // How often the GA matches or beats each baseline, on the printed
    // one-decimal values.
    let cell = |row: &[String], col: usize| row[col].parse::<f64>().unwrap_or(f64::NAN);
    let wins = |col: usize| rows.iter().filter(|row| cell(row, 5) <= cell(row, col) + 0.1).count();
    let total = rows.len();
    Section {
        title: "Baseline comparison — replacement miss ratio (%) after tiling, 8KB cache",
        body: format!(
            "{}\nCME+GA matches-or-beats: LRW {}/{total}, TSS {}/{total}, fixed {}/{total}\n",
            format_table(&["kernel", "untiled", "LRW", "TSS", "fixed 1/2", "CME+GA"], &rows),
            wins(2),
            wins(3),
            wins(4)
        ),
    }
}

/// Extension: does searching the loop order as well as the tile sizes buy
/// anything once near-optimal tiling is in place? (The paper fixes the
/// source order; size-1 tiles emulate most of interchange's effect.)
fn interchange_study(_: &Sweeps) -> Section {
    let cases = [
        ("T2D", 500),
        ("T3DJIK", 100),
        ("T3DIKJ", 100),
        ("MM", 100),
        ("MATMUL", 100),
        ("DPSSB", 48),
        ("DRADBG1", 48),
        ("VPENTA2", 128),
    ];
    let rows: Vec<Vec<String>> = cases
        .par_iter()
        .map(|&(name, n)| {
            let (nest, layout) = kernel(name, n);
            let opt = tiling_optimizer(CacheSpec::paper_8k(), &nest.name);
            let identity = opt.optimize(&nest, &layout).expect("legal");
            let inter = optimize_with_interchange(&opt, &nest).expect("legal");
            let accesses = nest.accesses() as f64;
            vec![
                format!("{name}_{n}"),
                format!("{:.2}", identity.ga.best_cost / accesses * 100.0),
                format!("{:.2}", inter.tiling.ga.best_cost / accesses * 100.0),
                format!("{:?}", inter.permutation),
                inter.explored.to_string(),
            ]
        })
        .collect();
    let header =
        ["kernel", "tiling repl%", "interchange+tiling repl%", "best order", "legal orders"];
    Section {
        title: "Loop interchange + tiling vs tiling alone (8KB cache)",
        body: format!(
            "{}\nOrder [0,1,..] is the source order; tiling alone already captures most of the \
             benefit.\n",
            format_table(&header, &rows)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_cover_the_report() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate experiment name in {names:?}");
        for name in [
            "ablation_ga",
            "ablation_sampling",
            "assoc_sweep",
            "baselines",
            "convergence",
            "fig8",
            "fig9",
            "ga_vs_optimal",
            "interchange_study",
            "kernels_inventory",
            "mm_headline",
            "sampling_accuracy",
            "solver_speedup",
            "table2",
            "table3",
            "table4",
        ] {
            assert!(experiment(name).is_some(), "`{name}` is not registered");
        }
        for name in REPORT {
            assert!(experiment(name).is_some(), "the report's `{name}` is not registered");
        }
    }
}
