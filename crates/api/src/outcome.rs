//! The unified outcome type every strategy returns.

use cme_analysis::{Diagnostic, LegalitySummary};
use cme_core::{CacheHierarchy, MissEstimate, MissReport};
use cme_loopnest::TileSizes;
use cme_tileopt::problem::GaSummary;
use serde::{Deserialize, Serialize};

/// The transformation a search chose, in application order: permute the
/// loops, pad the layout, tile the (permuted) nest. Unset components mean
/// "leave unchanged", so every strategy family fits one shape.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transform {
    /// Loop permutation (new level `k` runs old loop `permutation[k]`).
    pub permutation: Option<Vec<usize>>,
    /// Raw padding parameters (1-based GA values: one inter-array pad per
    /// array, then one intra-array pad per array when searched); decode
    /// with [`cme_tileopt::PaddingSpace::layout_for`].
    pub pads: Option<Vec<i64>>,
    /// Tile sizes, outermost loop first.
    pub tiles: Option<TileSizes>,
}

impl Transform {
    pub fn tiles(tiles: TileSizes) -> Self {
        Transform { tiles: Some(tiles), ..Transform::default() }
    }

    /// True when the search chose to change nothing.
    pub fn is_identity(&self) -> bool {
        self.permutation.is_none() && self.pads.is_none() && self.tiles.is_none()
    }
}

/// What [`crate::search`] produced: the chosen transform, the CME
/// estimates on both sides of it, and the search telemetry.
///
/// `PartialEq` compares every field *including* `wall_ms`; two outcomes
/// of the same deterministic request differ only there, so compare
/// [`Self::without_timing`] forms (tests and caches must never compare
/// raw outcomes, or they inherit wall-clock flakiness).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Strategy identifier (see [`crate::StrategySpec::name`]).
    pub strategy: String,
    /// Nest name (kernel registry name or inline nest name).
    pub kernel: String,
    /// The cache hierarchy the search ran against (serialised as a bare
    /// cache object when it is a one-level legacy hierarchy).
    pub cache: CacheHierarchy,
    pub transform: Transform,
    /// Estimate for the original nest and layout.
    pub before: MissEstimate,
    /// Estimate after applying [`Self::transform`].
    pub after: MissEstimate,
    /// GA telemetry, when the strategy ran one.
    pub ga: Option<GaSummary>,
    /// Candidates explored beyond the GA: legal permutations tried
    /// (interchange) or tile vectors evaluated (exhaustive).
    pub explored: Option<u64>,
    /// Dependence-analysis digest of the *original* nest (carried /
    /// loop-independent dependence counts, tiling legality), from the
    /// same analysis [`crate::search`] gates on; absent in pre-analysis
    /// outcomes.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub legality: Option<LegalitySummary>,
    /// Wall-clock time of the search in milliseconds.
    pub wall_ms: u64,
}

impl Outcome {
    /// Replacement-miss improvement in ratio points (positive = better).
    pub fn replacement_gain(&self) -> f64 {
        self.before.replacement_ratio() - self.after.replacement_ratio()
    }

    /// A copy with the wall-clock field zeroed — everything else is
    /// deterministic for a fixed request, so this is the canonical form
    /// for comparisons and caching.
    pub fn without_timing(&self) -> Outcome {
        Outcome { wall_ms: 0, ..self.clone() }
    }
}

/// One ranked tournament entrant: the family's full outcome plus the
/// ranking key, spelled out so wire clients need no recomputation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareEntry {
    /// The family's outcome — strategy name, transform, `before`/`after`
    /// estimates (the `before` is byte-identical across entries: every
    /// family reports the same canonical baseline), per-family `wall_ms`.
    pub outcome: Outcome,
    /// The ranking key: `outcome.after.weighted_cost()` (Σ level
    /// replacement misses × miss latency after the transform).
    pub weighted_cost: f64,
}

/// Result of a [`crate::CompareRequest`]: every family's outcome, ranked
/// best-first by the latency-weighted objective. As with [`Outcome`],
/// compare [`Self::without_timing`] forms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareOutcome {
    pub kernel: String,
    pub cache: CacheHierarchy,
    /// Entrants ranked by ascending `weighted_cost` (ties keep request
    /// order — the ranking is deterministic).
    pub entries: Vec<CompareEntry>,
    /// Index **into the request's `strategies` array** of the winning
    /// family (`entries[0]`'s position in the original line-up).
    pub winner: usize,
    /// Wall-clock time of the whole tournament in milliseconds.
    pub wall_ms: u64,
}

impl CompareOutcome {
    /// Rank per-family outcomes (in request order) into a tournament:
    /// ascending `after.weighted_cost()`, ties broken by request order
    /// (NaN cannot occur — weighted costs are finite sums of finite
    /// non-negative terms). `winner` is the best entrant's index in the
    /// input order. `outcomes` must be non-empty: compare requests with
    /// no strategies are rejected before execution.
    pub fn rank(outcomes: Vec<Outcome>, wall_ms: u64) -> CompareOutcome {
        let kernel = outcomes[0].kernel.clone();
        let cache = outcomes[0].cache.clone();
        let costs: Vec<f64> = outcomes.iter().map(|o| o.after.weighted_cost()).collect();
        let mut order: Vec<usize> = (0..outcomes.len()).collect();
        order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]).then(a.cmp(&b)));
        let winner = order[0];
        let entries = order
            .into_iter()
            .map(|k| CompareEntry { outcome: outcomes[k].clone(), weighted_cost: costs[k] })
            .collect();
        CompareOutcome { kernel, cache, entries, winner, wall_ms }
    }

    /// A copy with every wall-clock field zeroed (the tournament's and
    /// each entrant's) — the canonical form for comparisons and caching.
    pub fn without_timing(&self) -> CompareOutcome {
        CompareOutcome {
            entries: self
                .entries
                .iter()
                .map(|e| CompareEntry {
                    outcome: e.outcome.without_timing(),
                    weighted_cost: e.weighted_cost,
                })
                .collect(),
            wall_ms: 0,
            ..self.clone()
        }
    }

    /// The winning entrant (entries are never empty: compare requests
    /// with no strategies are rejected before execution).
    pub fn best(&self) -> &CompareEntry {
        &self.entries[0]
    }
}

/// Result of an [`crate::AnalyzeRequest`]: no search, just the model.
/// As with [`Outcome`], compare [`Self::without_timing`] forms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeOutcome {
    pub kernel: String,
    pub cache: CacheHierarchy,
    /// The tiling that was analysed (None = original nest).
    pub tiles: Option<TileSizes>,
    /// Sampled estimate (absent when exhaustive classification was
    /// requested instead).
    pub estimate: Option<MissEstimate>,
    /// Exact per-reference counts (present iff the request set
    /// `exhaustive`).
    pub exact: Option<MissReport>,
    pub wall_ms: u64,
}

impl AnalyzeOutcome {
    /// Total miss ratio from whichever analysis ran.
    pub fn miss_ratio(&self) -> f64 {
        match (&self.exact, &self.estimate) {
            (Some(report), _) => report.miss_ratio(),
            (None, Some(est)) => est.miss_ratio(),
            (None, None) => 0.0,
        }
    }

    /// Replacement miss ratio from whichever analysis ran.
    pub fn replacement_ratio(&self) -> f64 {
        match (&self.exact, &self.estimate) {
            (Some(report), _) => report.replacement_ratio(),
            (None, Some(est)) => est.replacement_ratio(),
            (None, None) => 0.0,
        }
    }

    pub fn without_timing(&self) -> AnalyzeOutcome {
        AnalyzeOutcome { wall_ms: 0, ..self.clone() }
    }
}

/// Result of a [`crate::LintRequest`]: the legality digest and the
/// structured diagnostics, in report order. As with [`Outcome`], compare
/// [`Self::without_timing`] forms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LintOutcome {
    pub kernel: String,
    pub cache: CacheHierarchy,
    /// Dependence-analysis digest of the nest.
    pub legality: LegalitySummary,
    /// Structured diagnostics (stable codes, ref-indexed messages).
    pub diagnostics: Vec<Diagnostic>,
    pub wall_ms: u64,
}

impl LintOutcome {
    pub fn without_timing(&self) -> LintOutcome {
        LintOutcome { wall_ms: 0, ..self.clone() }
    }
}
