//! Answer checks. A served answer is correct when it is byte-identical,
//! timing stripped, to a fresh in-process answer for the same request,
//! and when the exact simulator run over the transformed execution
//! agrees with every estimate it carries.

use crate::gen::Typed;
use cme_api::cme::{CacheHierarchy, MissEstimate};
use cme_api::{AnalyzeOutcome, CompareOutcome, LintOutcome, Outcome, Session, Transform};
use cme_cachesim::{simulate_nest_hierarchy, CacheGeometry, HierarchyReport, LevelGeometry};
use cme_loopnest::{LoopNest, MemoryLayout, TileSizes};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Allowance for the model's conservative approximations on top of the
/// sampling CI half-width — the slack `tests/cme_vs_sim.rs` uses.
pub const MODEL_SLACK: f64 = 0.05;

/// The outcome of checking one distinct served answer.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Why the answer is wrong; `None` when it passed.
    pub failure: Option<String>,
    /// `(after + 1) / (before + 1)` of the answer's weighted cost, by the
    /// model and by the simulator (`None` for answers without a
    /// before/after pair).
    pub est_ratio: Option<f64>,
    pub sim_ratio: Option<f64>,
}

/// Fresh in-process reference answers, memoised per request, plus the
/// simulator's untransformed costs.
pub struct Checker {
    session: Session,
    references: HashMap<String, Result<String, String>>,
    untiled: HashMap<String, HierarchyReport>,
    /// Accesses simulated and time spent simulating, for the cachesim
    /// layer's throughput.
    pub sim_accesses: u64,
    pub sim_time: Duration,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            session: Session::default(),
            references: HashMap::new(),
            untiled: HashMap::new(),
            sim_accesses: 0,
            sim_time: Duration::ZERO,
        }
    }
}

fn to_json<T: serde::Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}

fn parse<T: serde::Deserialize>(body: &str) -> Result<T, String> {
    serde_json::from_str(body).map_err(|e| format!("unparsable answer: {e}"))
}

/// The timing-stripped canonical bytes of an answer body.
pub fn normalise(typed: &Typed, body: &str) -> Result<String, String> {
    match typed {
        Typed::Optimize(_) => to_json(&parse::<Outcome>(body)?.without_timing()),
        Typed::Compare(_) => to_json(&parse::<CompareOutcome>(body)?.without_timing()),
        Typed::Lint(_) => to_json(&parse::<LintOutcome>(body)?.without_timing()),
        Typed::Analyze(_) => to_json(&parse::<AnalyzeOutcome>(body)?.without_timing()),
    }
}

impl Checker {
    /// The reference answer's timing-stripped bytes, computed once per
    /// distinct request by a fresh [`Session`].
    pub fn reference(&mut self, typed: &Typed) -> Result<String, String> {
        let key = typed.answer_key();
        if let Some(r) = self.references.get(&key) {
            return r.clone();
        }
        let fresh = match typed {
            Typed::Optimize(r) => self.session.run(r).map(|o| to_json(&o.without_timing())),
            Typed::Compare(r) => self.session.compare(r).map(|o| to_json(&o.without_timing())),
            Typed::Lint(r) => self.session.lint(r).map(|o| to_json(&o.without_timing())),
            Typed::Analyze(r) => self.session.analyze(r).map(|o| to_json(&o.without_timing())),
        };
        let fresh = fresh.unwrap_or_else(|e| Err(format!("reference run failed: {e}")));
        self.references.insert(key, fresh.clone());
        fresh
    }

    /// Check one served `200` body for `typed`.
    pub fn check(&mut self, typed: &Typed, body: &str) -> Verdict {
        let mut verdict = Verdict::default();
        let served = match normalise(typed, body) {
            Ok(s) => s,
            Err(e) => {
                verdict.failure = Some(e);
                return verdict;
            }
        };
        match self.reference(typed) {
            Ok(want) if want == served => {}
            Ok(_) => {
                verdict.failure = Some("answer differs from a fresh in-process run".into());
                return verdict;
            }
            Err(e) => {
                verdict.failure = Some(e);
                return verdict;
            }
        }
        if let Err(e) = self.simulate(typed, &served, &mut verdict) {
            verdict.failure = Some(e);
        }
        verdict
    }

    fn simulate(&mut self, typed: &Typed, served: &str, v: &mut Verdict) -> Result<(), String> {
        match typed {
            Typed::Optimize(r) => {
                let out: Outcome = parse(served)?;
                let nest = r.nest.resolve().map_err(|e| e.to_string())?;
                self.check_outcome(&nest, &r.cache, &out, v)
            }
            Typed::Compare(r) => {
                let out: CompareOutcome = parse(served)?;
                let nest = r.base.nest.resolve().map_err(|e| e.to_string())?;
                let mut best = Verdict::default();
                for (k, entry) in out.entries.iter().enumerate() {
                    let mut each = Verdict::default();
                    self.check_outcome(&nest, &r.base.cache, &entry.outcome, &mut each)
                        .map_err(|e| format!("entry `{}`: {e}", entry.outcome.strategy))?;
                    if k == 0 {
                        best = each;
                    }
                }
                v.est_ratio = best.est_ratio;
                v.sim_ratio = best.sim_ratio;
                Ok(())
            }
            Typed::Analyze(r) => {
                let out: AnalyzeOutcome = parse(served)?;
                let nest = r.nest.resolve().map_err(|e| e.to_string())?;
                let est = out.estimate.as_ref().ok_or("analyze answer has no estimate")?;
                self.agree(&nest, &r.cache, out.tiles.as_ref(), est).map(|_| ())
            }
            Typed::Lint(_) => Ok(()),
        }
    }

    fn check_outcome(
        &mut self,
        nest: &LoopNest,
        cache: &CacheHierarchy,
        out: &Outcome,
        v: &mut Verdict,
    ) -> Result<(), String> {
        let Transform { permutation: None, pads: None, tiles } = &out.transform else {
            return Err("only tiling transforms are simulated".into());
        };
        let after = self.agree(nest, cache, tiles.as_ref(), &out.after)?;
        let before_key = format!("{} {}", nest.name, to_json(cache)?);
        if !self.untiled.contains_key(&before_key) {
            let report = self.run_sim(nest, cache, None);
            self.untiled.insert(before_key.clone(), report);
        }
        let before = &self.untiled[&before_key];
        v.est_ratio = Some((out.after.weighted_cost() + 1.0) / (out.before.weighted_cost() + 1.0));
        v.sim_ratio = Some((after.weighted_cost() + 1.0) / (before.weighted_cost() + 1.0));
        Ok(())
    }

    fn run_sim(
        &mut self,
        nest: &LoopNest,
        cache: &CacheHierarchy,
        tiles: Option<&TileSizes>,
    ) -> HierarchyReport {
        let levels: Vec<LevelGeometry> = cache
            .levels()
            .iter()
            .map(|l| {
                let geo =
                    CacheGeometry { size: l.spec.size, line: l.spec.line, assoc: l.spec.assoc };
                LevelGeometry::new(geo, l.miss_latency)
            })
            .collect();
        let started = Instant::now();
        let report = simulate_nest_hierarchy(nest, &MemoryLayout::contiguous(nest), tiles, &levels);
        self.sim_time += started.elapsed();
        self.sim_accesses += report.l1().totals().accesses;
        report
    }

    /// Simulate the transformed execution and require every level's
    /// replacement and total miss ratio to lie within the estimate's CI
    /// half-width plus [`MODEL_SLACK`].
    fn agree(
        &mut self,
        nest: &LoopNest,
        cache: &CacheHierarchy,
        tiles: Option<&TileSizes>,
        est: &MissEstimate,
    ) -> Result<HierarchyReport, String> {
        let sim = self.run_sim(nest, cache, tiles);
        let tol = est.replacement_ci_half_width() + MODEL_SLACK;
        let est_levels: Vec<(f64, f64)> = match &est.levels {
            Some(levels) => {
                levels.iter().map(|l| (l.replacement_ratio(), l.miss_ratio())).collect()
            }
            None => vec![(est.replacement_ratio(), est.miss_ratio())],
        };
        if est_levels.len() != sim.levels.len() {
            return Err("estimate and simulation disagree on the level count".into());
        }
        for (k, ((est_repl, est_total), level)) in est_levels.iter().zip(&sim.levels).enumerate() {
            for (metric, e, s) in [
                ("replacement", est_repl, level.replacement_ratio()),
                ("total", est_total, level.miss_ratio()),
            ] {
                let d = (e - s).abs();
                if d > tol {
                    return Err(format!(
                        "L{} {metric} miss ratio: estimate {e:.4} vs simulator {s:.4}, \
                         deviation {d:.4} > tolerance {tol:.4} (tiles {tiles:?})",
                        k + 1
                    ));
                }
            }
        }
        Ok(sim)
    }
}
