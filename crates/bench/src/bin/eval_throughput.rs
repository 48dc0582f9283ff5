//! Evaluation-engine throughput: cold-path candidate evaluations per
//! second on the paper's matmul request (MM at its default size, 8 KB
//! paper cache, 164-point sampling), three ways:
//!
//! * **from_scratch** — the pre-PR evaluation path: a full
//!   `CmeModel::analyze` per candidate, eagerly materialising the
//!   explicit reuse candidates (as the old `analyze` did), then the
//!   sampled estimate;
//! * **engine** — the shared [`EvalEngine`]: per-kernel analysis computed
//!   once, candidates borrow it (byte-identical results);
//! * **engine_early_abandon** — the engine with the `SamplingConfig::
//!   early_abandon` knob on and an incumbent frozen for the batch, the
//!   GA's actual search regime (approximate costs for hopeless
//!   candidates, deterministic, reported before/after estimates
//!   unaffected).
//!
//! Each arm scores its candidates through one parallel batch, the way
//! the GA scores a generation.
//!
//! Writes `BENCH_eval.json` (skipped with `--no-write`, the CI smoke
//! mode). The candidate count is the first positional argument
//! (default 150).
//!
//! With `--assert-baseline` the run additionally reads the recorded
//! `BENCH_eval.json` and **fails** (exit 1) when the cold-path engine
//! throughput drops more than the tolerance below the recorded
//! `engine.evals_per_sec` figure — the CI bench-regression gate.
//! `--tolerance FRAC` adjusts the allowed drop (default 0.30).
//!
//! ```text
//! cargo run --release -p cme-bench --bin eval_throughput [N] [--no-write] \
//!     [--assert-baseline] [--tolerance FRAC]
//! ```

use cme_core::engine::{fold_seed, SEED_SPLIT};
use cme_core::{CacheSpec, CmeModel, EarlyAbandonConfig, EvalEngine, SamplingConfig};
use cme_loopnest::{MemoryLayout, TileSizes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::time::Instant;

struct Arm {
    label: &'static str,
    evals: usize,
    wall_s: f64,
}

impl Arm {
    fn eps(&self) -> f64 {
        self.evals as f64 / self.wall_s
    }

    fn json(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("evaluations".into(), serde::Value::UInt(self.evals as u64)),
            ("wall_ms".into(), serde::Value::Float(self.wall_s * 1e3)),
            ("evals_per_sec".into(), serde::Value::Float(self.eps())),
            ("ms_per_eval".into(), serde::Value::Float(self.wall_s * 1e3 / self.evals as f64)),
        ])
    }
}

fn main() {
    let mut n: usize = 150;
    let mut write = true;
    let mut assert_baseline = false;
    let mut tolerance = 0.30f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--no-write" => write = false,
            "--assert-baseline" => assert_baseline = true,
            "--tolerance" => {
                let v = args.next().expect("--tolerance needs a value");
                tolerance = v.parse().expect("tolerance fraction");
                assert!((0.0..1.0).contains(&tolerance), "tolerance must be in [0, 1)");
            }
            other => n = other.parse().expect("candidate count"),
        }
    }

    let spec = cme_kernels::kernel_by_name("MM").expect("MM kernel");
    let nest = spec.build_default().expect("MM builds at its default size");
    let layout = MemoryLayout::contiguous(&nest);
    let model = CmeModel::new(CacheSpec::paper_8k());
    let sampling = SamplingConfig::paper();
    let seed = 0xCE11u64;

    // Distinct pseudo-random candidates, the mix a GA generation sees.
    let spans = nest.spans();
    let mut rng = StdRng::seed_from_u64(7);
    let cands: Vec<Vec<i64>> =
        (0..n).map(|_| spans.iter().map(|&s| rng.gen_range(1..=s)).collect()).collect();

    // Every arm scores its candidates as one order-preserving parallel
    // batch, as a GA generation does, and sums the costs in candidate
    // order so the sums are bit-reproducible.

    // Pre-PR path: from-scratch analysis per candidate. The old
    // `analyze` built the explicit reuse candidates eagerly; force the
    // (now lazy) lift to reproduce its cost faithfully.
    let t0 = Instant::now();
    let scratch_costs: Vec<f64> = cands
        .par_iter()
        .map(|v| {
            let tiles = TileSizes(v.clone());
            let eff = (!tiles.is_trivial(&nest)).then_some(&tiles);
            let an = model.analyze(&nest, &layout, eff);
            std::hint::black_box(an.candidates().len());
            let h = fold_seed(seed ^ SEED_SPLIT, v);
            an.estimate(&sampling, h).replacement_misses()
        })
        .collect();
    let scratch = Arm { label: "from_scratch", evals: n, wall_s: t0.elapsed().as_secs_f64() };

    // Engine path (identical costs, shared analysis).
    let t0 = Instant::now();
    let engine = EvalEngine::new(model, &nest, &layout, sampling, seed);
    let engine_costs: Vec<f64> = cands.par_iter().map(|v| engine.cost(v, None)).collect();
    let engined = Arm { label: "engine", evals: n, wall_s: t0.elapsed().as_secs_f64() };
    let check_scratch: f64 = scratch_costs.iter().sum();
    let check_engine: f64 = engine_costs.iter().sum();
    assert_eq!(
        check_scratch.to_bits(),
        check_engine.to_bits(),
        "engine must be byte-identical to the from-scratch path"
    );

    // Engine + early abandonment. The GA freezes its incumbent per
    // generation; here the whole batch is one generation whose incumbent
    // is the best full cost among the candidates.
    let incumbent = engine_costs.iter().copied().reduce(f64::min);
    let abandoning = sampling.with_early_abandon(EarlyAbandonConfig { check_every: 32 });
    let t0 = Instant::now();
    let engine_ea = EvalEngine::new(model, &nest, &layout, abandoning, seed);
    let abandon_costs: Vec<f64> = cands.par_iter().map(|v| engine_ea.cost(v, incumbent)).collect();
    std::hint::black_box(abandon_costs);
    let abandon =
        Arm { label: "engine_early_abandon", evals: n, wall_s: t0.elapsed().as_secs_f64() };

    // Strategy-family arms: the same MM request answered by the GA
    // (tiling), the cache-oblivious halving and the latency-based probe
    // ladder — evals-to-answer and wall time per family. The tournament
    // claim this pins: the latency-based family reaches its answer with
    // at least 10x fewer evaluations than the GA and in less wall time.
    let families = family_arms();

    let speedup = engined.eps() / scratch.eps();
    let speedup_ea = abandon.eps() / scratch.eps();
    for arm in [&scratch, &engined, &abandon] {
        println!(
            "{:>22}: {:8.1} evals/s ({:.3} ms/eval)",
            arm.label,
            arm.eps(),
            arm.wall_s * 1e3 / arm.evals as f64
        );
    }
    println!("engine speedup {speedup:.2}x, with early abandon {speedup_ea:.2}x");

    let doc = serde::Value::Object(vec![
        ("bench".into(), serde::Value::Str("eval_throughput".into())),
        ("kernel".into(), serde::Value::Str(nest.name.clone())),
        ("cache".into(), serde::Value::Str("paper 8 KB direct-mapped, 32 B lines".into())),
        ("sampling".into(), serde::Value::Str("paper 164-point".into())),
        ("candidates".into(), serde::Value::UInt(n as u64)),
        ("from_scratch".into(), scratch.json()),
        ("engine".into(), engined.json()),
        ("engine_early_abandon".into(), abandon.json()),
        ("families".into(), families),
        ("engine_speedup".into(), serde::Value::Float(speedup)),
        ("early_abandon_speedup".into(), serde::Value::Float(speedup_ea)),
        (
            "note".into(),
            serde::Value::Str(
                "engine arm is byte-identical to from_scratch (asserted); early-abandon arm is \
                 the deterministic approximate search mode"
                    .into(),
            ),
        ),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("serialise") + "\n";
    if assert_baseline {
        assert_against_baseline(engined.eps(), tolerance);
    }
    if write {
        std::fs::write("BENCH_eval.json", &json).expect("write BENCH_eval.json");
        println!("wrote BENCH_eval.json");
    }
}

/// The per-family evals-to-answer arms: one `Session::run` per tiling
/// family on the paper's MM request. Returns the JSON section written
/// into `BENCH_eval.json` and asserts the latency-based family's
/// efficiency claim (≥ 10x fewer evaluations than the GA, less wall
/// time).
fn family_arms() -> serde::Value {
    use cme_api::{NestSource, OptimizeRequest, Session, StrategySpec};

    let session = Session::default();
    let specs: [(&str, StrategySpec); 3] = [
        ("ga", StrategySpec::Tiling),
        ("oblivious", StrategySpec::CacheOblivious),
        ("latency", StrategySpec::LatencyBased),
    ];
    let mut section = Vec::new();
    let mut ga_evals = 0u64;
    let mut ga_wall = 0u64;
    let mut latency_evals = 0u64;
    let mut latency_wall = 0u64;
    for (label, spec) in specs {
        let req = OptimizeRequest::new(NestSource::kernel("MM"), spec).with_seed(7);
        let out = session.run(&req).expect(label);
        // Evals-to-answer: GA fitness evaluations, probe-ladder probes,
        // or one closed-form derivation (cache-oblivious).
        let evals = out.ga.as_ref().map(|ga| ga.evaluations).or(out.explored).unwrap_or(1);
        match label {
            "ga" => (ga_evals, ga_wall) = (evals, out.wall_ms),
            "latency" => (latency_evals, latency_wall) = (evals, out.wall_ms),
            _ => {}
        }
        println!(
            "family {label:>10}: {evals:>6} evals to answer, {:>6} ms, cost {:.1}",
            out.wall_ms,
            out.after.weighted_cost()
        );
        section.push((
            label.to_string(),
            serde::Value::Object(vec![
                ("evals_to_answer".into(), serde::Value::UInt(evals)),
                ("wall_ms".into(), serde::Value::UInt(out.wall_ms)),
                ("weighted_cost".into(), serde::Value::Float(out.after.weighted_cost())),
            ]),
        ));
    }
    assert!(
        latency_evals * 10 <= ga_evals,
        "latency-based family must answer with >= 10x fewer evaluations than the GA \
         ({latency_evals} probes vs {ga_evals} GA evaluations)"
    );
    assert!(
        latency_wall < ga_wall.max(1),
        "latency-based family must answer faster than the GA ({latency_wall} ms vs {ga_wall} ms)"
    );
    serde::Value::Object(section)
}

/// The CI bench-regression gate: compare the cold-path engine throughput
/// of this run against the figure recorded in `BENCH_eval.json` and exit
/// non-zero when it regressed by more than `tolerance`. An *improved*
/// figure always passes (the recorded baseline is refreshed by the next
/// full `eval_throughput` run, not by the gate).
fn assert_against_baseline(current_eps: f64, tolerance: f64) {
    let raw = std::fs::read_to_string("BENCH_eval.json")
        .expect("--assert-baseline needs a recorded BENCH_eval.json in the working directory");
    let doc: serde::Value = serde_json::from_str(&raw).expect("BENCH_eval.json parses");
    let recorded = doc
        .get("engine")
        .and_then(|arm| arm.get("evals_per_sec"))
        .and_then(|v| match v {
            serde::Value::Float(f) => Some(*f),
            serde::Value::Int(i) => Some(*i as f64),
            serde::Value::UInt(u) => Some(*u as f64),
            _ => None,
        })
        .expect("BENCH_eval.json records engine.evals_per_sec");
    let floor = recorded * (1.0 - tolerance);
    if current_eps < floor {
        eprintln!(
            "bench regression: cold-path engine throughput {current_eps:.1} evals/s is below \
             {floor:.1} ({:.0}% of the recorded {recorded:.1})",
            (1.0 - tolerance) * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "baseline OK: {current_eps:.1} evals/s vs recorded {recorded:.1} \
         (floor {floor:.1}, tolerance {tolerance})"
    );
}
