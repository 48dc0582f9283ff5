//! Exhaustive and sampled miss estimation.

use crate::classify::{classify_point, Classification};
use crate::interference::{InterferenceEngine, LevelState};
use crate::model::NestAnalysis;
use crate::sampling::SamplingConfig;
use crate::CacheSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Exact per-reference counts (exhaustive analysis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counts {
    pub points: u64,
    pub cold: u64,
    pub replacement: u64,
}

impl Counts {
    pub fn hits(&self) -> u64 {
        self.points - self.cold - self.replacement
    }

    pub fn misses(&self) -> u64 {
        self.cold + self.replacement
    }

    fn add(&mut self, c: Classification) {
        self.points += 1;
        match c {
            Classification::Hit => {}
            Classification::Cold => self.cold += 1,
            Classification::Replacement => self.replacement += 1,
        }
    }

    fn merge(&mut self, o: &Counts) {
        self.points += o.points;
        self.cold += o.cold;
        self.replacement += o.replacement;
    }
}

/// Aggregated solver statistics for one analysis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverStats {
    pub queries: u64,
    pub fallbacks: u64,
    pub nodes: u64,
    pub assoc_fallbacks: u64,
}

/// Fold per-reference exact counts into one total — the one place the
/// aggregation lives, shared by the top-level report and its per-level
/// slices so the two can never diverge.
fn totals_of(per_ref: &[Counts]) -> Counts {
    let mut t = Counts::default();
    for c in per_ref {
        t.merge(c);
    }
    t
}

/// Mean of a per-reference statistic (all references weighted equally —
/// each executes once per iteration); 0 for an empty reference list.
/// Shared by [`MissEstimate`] and [`LevelEstimate`] so the top-level
/// figures and the per-level breakdown always use the same formula.
fn mean_over(per_ref: &[RefEstimate], f: impl Fn(&RefEstimate) -> f64) -> f64 {
    if per_ref.is_empty() {
        return 0.0;
    }
    per_ref.iter().map(f).sum::<f64>() / per_ref.len() as f64
}

/// Estimated absolute replacement misses of a reference list over a
/// space of `volume` iterations (paper §3.1's `f`).
fn replacement_misses_of(per_ref: &[RefEstimate], volume: u64) -> f64 {
    mean_over(per_ref, |r| r.p_repl) * (volume as f64) * per_ref.len() as f64
}

/// Per-level slice of an exhaustive hierarchy analysis: the exact counts
/// of one cache level, tagged with its geometry and miss latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelReport {
    pub cache: crate::CacheSpec,
    pub miss_latency: f64,
    pub per_ref: Vec<Counts>,
    pub solver: SolverStats,
}

impl LevelReport {
    pub fn totals(&self) -> Counts {
        totals_of(&self.per_ref)
    }
}

/// Result of an exhaustive (every-point) analysis.
///
/// The top-level fields always describe the innermost (L1) cache level;
/// `levels` carries the full per-level breakdown when the analysis ran
/// over a non-legacy [`crate::CacheHierarchy`] (and is absent — also from
/// the serialised form — for the legacy single-level model, keeping the
/// pre-hierarchy wire format byte-identical).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissReport {
    pub per_ref: Vec<Counts>,
    pub solver: SolverStats,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub levels: Option<Vec<LevelReport>>,
}

impl MissReport {
    pub fn totals(&self) -> Counts {
        totals_of(&self.per_ref)
    }

    pub fn miss_ratio(&self) -> f64 {
        let t = self.totals();
        if t.points == 0 {
            0.0
        } else {
            t.misses() as f64 / t.points as f64
        }
    }

    pub fn replacement_ratio(&self) -> f64 {
        let t = self.totals();
        if t.points == 0 {
            0.0
        } else {
            t.replacement as f64 / t.points as f64
        }
    }

    /// Latency-weighted replacement cost: Σ per level of replacement
    /// misses × miss latency. Without a per-level breakdown this is the
    /// legacy replacement-miss count (one cost unit per miss).
    pub fn weighted_cost(&self) -> f64 {
        match &self.levels {
            None => self.totals().replacement as f64,
            Some(levels) => {
                levels.iter().map(|l| l.totals().replacement as f64 * l.miss_latency).sum()
            }
        }
    }
}

/// Per-reference sampled estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefEstimate {
    /// Estimated probability that an access of this reference is a cold
    /// miss / replacement miss.
    pub p_cold: f64,
    pub p_repl: f64,
    /// CI half-width for the miss probabilities.
    pub half_width: f64,
}

/// Per-level slice of a sampled hierarchy estimate: the per-reference
/// probabilities of one cache level, tagged with its geometry and miss
/// latency. Every level of one estimate classifies the *same* sampled
/// iteration points, so slices are directly comparable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelEstimate {
    pub cache: crate::CacheSpec,
    pub miss_latency: f64,
    pub per_ref: Vec<RefEstimate>,
    pub solver: SolverStats,
}

impl LevelEstimate {
    /// This level's total miss ratio estimate.
    pub fn miss_ratio(&self) -> f64 {
        mean_over(&self.per_ref, |r| r.p_cold + r.p_repl)
    }

    /// This level's replacement miss ratio estimate.
    pub fn replacement_ratio(&self) -> f64 {
        mean_over(&self.per_ref, |r| r.p_repl)
    }

    /// This level's estimated absolute replacement misses over a space of
    /// `volume` iterations.
    pub fn replacement_misses(&self, volume: u64) -> f64 {
        replacement_misses_of(&self.per_ref, volume)
    }
}

/// Result of a sampled analysis (paper §2.3).
///
/// The top-level fields always describe the innermost (L1) cache level;
/// `levels` carries the full per-level breakdown when the estimate was
/// computed over a non-legacy [`crate::CacheHierarchy`] (and is absent —
/// also from the serialised form — for the legacy single-level model,
/// keeping the pre-hierarchy wire format byte-identical).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissEstimate {
    /// Points sampled (equals the space volume when `exact`).
    pub n_samples: u64,
    /// Iteration-space volume.
    pub volume: u64,
    /// True when the space was smaller than the requested sample and the
    /// analysis is exhaustive.
    pub exact: bool,
    pub per_ref: Vec<RefEstimate>,
    pub solver: SolverStats,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub levels: Option<Vec<LevelEstimate>>,
}

impl MissEstimate {
    /// Overall miss ratio estimate (all references weighted equally — each
    /// executes once per iteration).
    pub fn miss_ratio(&self) -> f64 {
        mean_over(&self.per_ref, |r| r.p_cold + r.p_repl)
    }

    /// Overall replacement miss ratio estimate — the paper's metric.
    pub fn replacement_ratio(&self) -> f64 {
        mean_over(&self.per_ref, |r| r.p_repl)
    }

    /// Overall cold (compulsory) miss ratio estimate.
    pub fn cold_ratio(&self) -> f64 {
        mean_over(&self.per_ref, |r| r.p_cold)
    }

    /// Estimated absolute number of replacement misses — the GA's
    /// objective function value (`f` of paper §3.1) for the legacy
    /// single-level model. Always the innermost level's count; for the
    /// hierarchy-aware objective use [`Self::weighted_cost`].
    pub fn replacement_misses(&self) -> f64 {
        replacement_misses_of(&self.per_ref, self.volume)
    }

    /// The latency-weighted objective: Σ per level of estimated
    /// replacement misses × miss latency. Without a per-level breakdown
    /// (legacy single-level model) this is exactly
    /// [`Self::replacement_misses`] — bit-for-bit, which is what keeps
    /// hierarchy-aware searches byte-identical on legacy requests.
    pub fn weighted_cost(&self) -> f64 {
        match &self.levels {
            None => self.replacement_misses(),
            Some(levels) => {
                levels.iter().map(|l| l.replacement_misses(self.volume) * l.miss_latency).sum()
            }
        }
    }

    /// Conservative CI half-width for the overall replacement ratio
    /// (average of the per-reference half-widths). References are
    /// analysed at the same sampled iterations, so their errors are
    /// correlated; this average does not model that correlation.
    pub fn replacement_ci_half_width(&self) -> f64 {
        if self.per_ref.is_empty() {
            return 0.0;
        }
        self.per_ref.iter().map(|r| r.half_width).sum::<f64>() / self.per_ref.len() as f64
    }
}

/// One classification pass over a set of points for every cache level
/// of one line size: the levels share each point's source search and
/// interference walk, and tally their verdicts separately.
struct Pass<'a> {
    an: &'a NestAnalysis,
    engine: InterferenceEngine,
    /// The verdicts of the current (point, reference) pair, per level.
    verdicts: Vec<Classification>,
    /// Counts per level, per reference.
    counts: Vec<Vec<Counts>>,
}

impl<'a> Pass<'a> {
    fn new(an: &'a NestAnalysis, levels: &[CacheSpec]) -> Self {
        Pass {
            an,
            engine: InterferenceEngine::new(levels, an.solver_nodes),
            verdicts: vec![Classification::Hit; levels.len()],
            counts: vec![vec![Counts::default(); an.addr.len()]; levels.len()],
        }
    }

    /// Classify every reference at analysis point `v`.
    fn point(&mut self, v: &[i64]) {
        for r in 0..self.an.addr.len() {
            classify_point(self.an, &mut self.engine, v, r, &mut self.verdicts);
            for (counts, &c) in self.counts.iter_mut().zip(&self.verdicts) {
                counts[r].add(c);
            }
        }
    }

    /// Per level: the per-reference counts and the solver statistics.
    fn finish(self) -> Vec<(Vec<Counts>, SolverStats)> {
        self.counts.into_iter().zip(self.engine.levels.iter().map(LevelState::stats)).collect()
    }
}

/// A sampled estimate from `n` classified points of a space of `volume`.
fn estimate_of(
    counts: &[Counts],
    solver: SolverStats,
    cfg: &SamplingConfig,
    n: u64,
    volume: u64,
) -> MissEstimate {
    let per_ref = counts
        .iter()
        .map(|c| {
            let p_cold = c.cold as f64 / n as f64;
            let p_repl = c.replacement as f64 / n as f64;
            RefEstimate { p_cold, p_repl, half_width: cfg.ci_half_width(p_cold + p_repl, n) }
        })
        .collect();
    MissEstimate { n_samples: n, volume, exact: false, per_ref, solver, levels: None }
}

/// The estimate of a space small enough to classify whole: exact
/// probabilities, no confidence interval.
fn exact_estimate(rep: MissReport, volume: u64) -> MissEstimate {
    let ratio = |k: u64, c: &Counts| if c.points == 0 { 0.0 } else { k as f64 / c.points as f64 };
    let per_ref = rep
        .per_ref
        .iter()
        .map(|c| RefEstimate {
            p_cold: ratio(c.cold, c),
            p_repl: ratio(c.replacement, c),
            half_width: 0.0,
        })
        .collect();
    MissEstimate {
        n_samples: volume,
        volume,
        exact: true,
        per_ref,
        solver: rep.solver,
        levels: None,
    }
}

/// Sampled estimate that may stop early against an incumbent (early-
/// abandon sequential sampling — the `SamplingConfig::early_abandon`
/// knob) for the analysis' own cache. `incumbent_misses` is the best
/// replacement-miss count seen so far by the surrounding search.
///
/// The sampled point set is the same as [`sampled`]'s for the same seed,
/// but points are classified *sequentially in sorted rank order*, and
/// every `check_every` points the candidate's CI lower bound on
/// replacement misses is compared against the incumbent's CI upper bound:
/// once the candidate provably (at the configured confidence) cannot beat
/// the incumbent, the remaining points are abandoned and the partial
/// estimate is returned (`n_samples` records how many points were
/// actually classified). Deterministic: the rank sequence and check
/// schedule depend only on the seed and configuration.
///
/// With the knob disabled or no incumbent available this is exactly
/// [`sampled`].
pub fn sampled_vs_incumbent(
    an: &NestAnalysis,
    cfg: &SamplingConfig,
    seed: u64,
    incumbent_misses: Option<f64>,
) -> MissEstimate {
    let full = || one_level(sampled(an, &[an.cache], cfg, seed));
    let (Some(abandon), Some(incumbent)) = (cfg.early_abandon, incumbent_misses) else {
        return full();
    };
    let volume = an.space.shape_volume();
    let want = cfg.sample_size();
    let n_refs = an.addr.len();
    if volume <= want || !incumbent.is_finite() || n_refs == 0 {
        return full();
    }
    // Same rank set as `sampled`, in sorted order so the sequential
    // prefix is independent of the draw-set's iteration order.
    let mut ranks = draw_space_ranks(&an.space, want, seed);
    ranks.sort_unstable();
    // The incumbent's CI upper bound, reconstructed from its point
    // estimate at the full sample size (misses → ratio → +half-width).
    let scale = (volume as f64) * n_refs as f64;
    let r_inc = (incumbent / scale).clamp(0.0, 1.0);
    let upper = (r_inc + cfg.ci_half_width(r_inc, want)) * scale;
    let check_every = abandon.check_every.max(1);
    let mut pass = Pass::new(an, &[an.cache]);
    let mut done = 0u64;
    for &rank in &ranks {
        pass.point(&an.space.point_at_global_rank(rank));
        done += 1;
        if done.is_multiple_of(check_every) && done < want {
            let repl_total: u64 = pass.counts[0].iter().map(|c| c.replacement).sum();
            let p = repl_total as f64 / (done * n_refs as u64) as f64;
            let lower = (p - cfg.ci_half_width(p, done)) * scale;
            if lower > upper {
                break; // provably cannot beat the incumbent
            }
        }
    }
    let (counts, solver) = one_level(pass.finish());
    estimate_of(&counts, solver, cfg, done, volume)
}

/// The one result of a one-level pass.
pub(crate) fn one_level<T>(mut per_level: Vec<T>) -> T {
    debug_assert_eq!(per_level.len(), 1);
    per_level.pop().expect("a one-level pass yields one result")
}

/// Draw `want` distinct point ranks in `[0, volume)` — the shared sample
/// set of [`sampled`] and [`sampled_vs_incumbent`] for a given seed.
fn draw_ranks(volume: u64, want: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ranks = std::collections::HashSet::with_capacity(want as usize);
    while (ranks.len() as u64) < want {
        ranks.insert(rng.gen_range(0..volume));
    }
    ranks.into_iter().collect()
}

/// Rejection-sampling counterpart of [`draw_ranks`] for triangular
/// spaces: draw distinct *hull* ranks, keep the ones whose point lies in
/// the shape, until `want` are accepted. Callers guarantee the shape
/// holds more than `want` points (otherwise the exhaustive path runs), so
/// the loop terminates. Deterministic for a fixed seed.
fn draw_shape_ranks(space: &cme_loopnest::ExecSpace, want: u64, seed: u64) -> Vec<u64> {
    let volume = space.volume();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tried = std::collections::HashSet::with_capacity(2 * want as usize);
    let mut accepted = Vec::with_capacity(want as usize);
    while (accepted.len() as u64) < want {
        let r = rng.gen_range(0..volume);
        if tried.insert(r) && space.contains_v(&space.point_at_global_rank(r)) {
            accepted.push(r);
        }
    }
    accepted
}

/// The sample-rank set for a (possibly triangular) space: plain distinct
/// ranks on rectangular spaces (byte-identical to the historical
/// behaviour), rejection sampling against the shape otherwise.
fn draw_space_ranks(space: &cme_loopnest::ExecSpace, want: u64, seed: u64) -> Vec<u64> {
    if space.shape.is_some() {
        draw_shape_ranks(space, want, seed)
    } else {
        draw_ranks(space.volume(), want, seed)
    }
}

/// Exhaustively classify every (point, reference) pair for each of
/// `levels` (which share the analysis' line size) in one pass; one report
/// per level, in order.
pub fn exhaustive(an: &NestAnalysis, levels: &[CacheSpec]) -> Vec<MissReport> {
    let mut pass = Pass::new(an, levels);
    an.space.for_each_point(|v| pass.point(v));
    pass.finish()
        .into_iter()
        .map(|(per_ref, solver)| MissReport { per_ref, solver, levels: None })
        .collect()
}

/// Sampled estimate with the given configuration and RNG seed for each of
/// `levels` (which share the analysis' line size); one estimate per
/// level, in order, every level classifying the same points.
///
/// Sampling is simple random sampling *without replacement* over the
/// global point ranks (deterministic: the sample set depends only on the
/// seed). The sample is classified sequentially in one pass — callers
/// parallelise across candidates instead, so one estimate never spawns
/// threads of its own.
pub fn sampled(
    an: &NestAnalysis,
    levels: &[CacheSpec],
    cfg: &SamplingConfig,
    seed: u64,
) -> Vec<MissEstimate> {
    // Exact iteration count: hull volume for rectangular spaces, the
    // triangular shape's count otherwise (the hull rank bijection is
    // still what the sampler draws from — see `draw_space_ranks`).
    let volume = an.space.shape_volume();
    let want = cfg.sample_size();
    if volume <= want {
        return exhaustive(an, levels).into_iter().map(|rep| exact_estimate(rep, volume)).collect();
    }
    let mut pass = Pass::new(an, levels);
    for rank in draw_space_ranks(&an.space, want, seed) {
        pass.point(&an.space.point_at_global_rank(rank));
    }
    pass.finish()
        .into_iter()
        .map(|(counts, solver)| estimate_of(&counts, solver, cfg, want, volume))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CmeModel;
    use crate::CacheSpec;
    use cme_loopnest::builder::{sub, NestBuilder};
    use cme_loopnest::MemoryLayout;

    fn stream_nest(n: i64) -> (cme_loopnest::LoopNest, MemoryLayout) {
        let mut nb = NestBuilder::new("stream");
        let i = nb.add_loop("i", 1, n);
        let x = nb.array("x", &[n]);
        nb.read(x, &[sub(i)]);
        let nest = nb.finish().unwrap();
        let layout = MemoryLayout::contiguous(&nest);
        (nest, layout)
    }

    #[test]
    fn exhaustive_stream_counts() {
        let (nest, layout) = stream_nest(64);
        let model = CmeModel::new(CacheSpec::direct_mapped(256, 32));
        let an = model.analyze(&nest, &layout, None);
        let rep = an.exhaustive();
        assert_eq!(rep.per_ref[0].points, 64);
        assert_eq!(rep.per_ref[0].cold, 8);
        assert_eq!(rep.per_ref[0].replacement, 0);
        assert!((rep.miss_ratio() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn small_space_estimate_is_exact() {
        let (nest, layout) = stream_nest(64);
        let model = CmeModel::new(CacheSpec::direct_mapped(256, 32));
        let an = model.analyze(&nest, &layout, None);
        let est = an.estimate(&SamplingConfig::paper(), 1);
        assert!(est.exact);
        assert!((est.miss_ratio() - 0.125).abs() < 1e-12);
        assert_eq!(est.n_samples, 64);
    }

    #[test]
    fn sampled_estimate_close_to_exhaustive() {
        let (nest, layout) = stream_nest(4096);
        let model = CmeModel::new(CacheSpec::direct_mapped(256, 32));
        let an = model.analyze(&nest, &layout, None);
        let exact = an.exhaustive().miss_ratio();
        let est = an.estimate(&SamplingConfig::paper(), 42);
        assert!(!est.exact);
        assert_eq!(est.n_samples, 164);
        assert!(
            (est.miss_ratio() - exact).abs() < 0.1,
            "estimate {} vs exact {exact}",
            est.miss_ratio()
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let (nest, layout) = stream_nest(4096);
        let model = CmeModel::new(CacheSpec::direct_mapped(256, 32));
        let an = model.analyze(&nest, &layout, None);
        let a = an.estimate(&SamplingConfig::paper(), 7);
        let b = an.estimate(&SamplingConfig::paper(), 7);
        assert_eq!(a.miss_ratio(), b.miss_ratio());
        let c = an.estimate(&SamplingConfig::paper(), 8);
        // Different seed may (and here does) sample different points;
        // ratios may coincide for a stream, so just check determinism ran.
        assert_eq!(c.n_samples, 164);
    }
}
