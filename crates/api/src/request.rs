//! Serde-able request types: everything needed to reproduce a search.
//!
//! A request is a *value*: it round-trips losslessly through JSON, so it
//! can be logged, queued, shipped to a service and replayed byte-for-byte
//! (every optimiser in the suite is deterministic for a fixed seed).

use crate::error::ApiError;
use cme_core::{CacheHierarchy, SamplingConfig};
use cme_ga::GaConfig;
use cme_loopnest::{LoopNest, TileSizes};
use serde::{Deserialize, Serialize};

/// Where the loop nest comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NestSource {
    /// A Table 1 kernel by registry name, optionally at an explicit
    /// problem size (`None` ⇒ the kernel's default size).
    Kernel { name: String, size: Option<i64> },
    /// A fully inlined nest specification (the IR is itself serde-able).
    Inline(LoopNest),
}

impl NestSource {
    /// Shorthand for a registry kernel at its default size.
    pub fn kernel(name: impl Into<String>) -> Self {
        NestSource::Kernel { name: name.into(), size: None }
    }

    /// Shorthand for a registry kernel at an explicit size.
    pub fn kernel_sized(name: impl Into<String>, size: i64) -> Self {
        NestSource::Kernel { name: name.into(), size: Some(size) }
    }

    /// Shorthand for an inline nest (validated on [`Self::resolve`], not
    /// here — so a `NestSource` can carry a not-yet-valid nest across the
    /// wire and fail with the full request context).
    pub fn inline(nest: LoopNest) -> Self {
        NestSource::Inline(nest)
    }

    /// The error-message context for this source — ``kernel `X` `` or
    /// ``inline nest `X` `` — which every nest-related rejection leads
    /// with (the convention documented on [`ApiError`]).
    pub fn label(&self) -> String {
        match self {
            NestSource::Kernel { name, .. } => format!("kernel `{name}`"),
            NestSource::Inline(nest) => format!("inline nest `{}`", nest.name),
        }
    }

    /// Build the concrete nest this source describes.
    pub fn resolve(&self) -> Result<LoopNest, ApiError> {
        match self {
            NestSource::Kernel { name, size } => {
                let spec = cme_kernels::kernel_by_name(name)
                    .ok_or_else(|| ApiError::UnknownKernel(name.clone()))?;
                let n = size.unwrap_or(spec.default_size);
                if n < 1 {
                    return Err(ApiError::BadRequest(format!(
                        "kernel `{name}`: size must be ≥ 1, got {n}"
                    )));
                }
                (spec.build)(n).map_err(|e| ApiError::BadRequest(format!("kernel `{name}`: {e}")))
            }
            NestSource::Inline(nest) => {
                nest.validate().map_err(|e| {
                    ApiError::BadRequest(format!("inline nest `{}`: {e}", nest.name))
                })?;
                Ok(nest.clone())
            }
        }
    }
}

/// Which padding search variant to run (paper §4.3 / Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PaddingMode {
    /// Padding parameters only.
    Pad,
    /// Table 3's sequential pipeline: padding first, then tiling on the
    /// padded layout.
    PadThenTile,
    /// Joint padding + tiling in a single GA (the paper's future work).
    Joint,
}

/// Which §5 related-work heuristic to score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Lam/Rothberg/Wolf-style largest non-self-interfering square.
    LrwSquare,
    /// Coleman/McKinley TSS-style Euclidean-sequence selection.
    Tss,
    /// Folklore fixed cache-fraction tiles.
    FixedFraction { fraction: f64 },
}

/// The wire `estimator` field's vocabulary. `"cme"` — the paper's sampled
/// CME classifier (§2.3) — is the only value; any other string, including
/// the removed `"lattice"`, fails to parse.
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EstimatorSpec {
    #[default]
    cme,
}

/// Which search to run over the transform space — the strategy selector
/// [`crate::search`] dispatches on. What each family needs from the nest
/// is its row of the capability table, [`StrategySpec::needs`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StrategySpec {
    /// §3: GA tile-size search.
    Tiling,
    /// §4.3: GA padding search in one of three modes.
    Padding { mode: PaddingMode },
    /// Extension: legal loop permutations × GA tile search.
    Interchange,
    /// Ground truth: sweep every tile vector (stride `step`), refusing
    /// sweeps above `max_evals` objective evaluations.
    Exhaustive { step: i64, max_evals: u64 },
    /// §5 related-work heuristic, scored by the same estimator.
    Baseline { kind: BaselineKind },
    /// PCOT-style cache-oblivious divide and conquer: derive tiles by
    /// halving the longest legal dimension to a machine-independent base
    /// case. The derivation never reads the request's cache — the
    /// hierarchy only *scores* the result.
    CacheOblivious,
    /// Cashman-style latency-based tiling: probe miss-ratio scaling on a
    /// budgeted shrunk instance through the exact simulator and fit the
    /// knee — O(probes) instead of a GA run.
    LatencyBased,
}

impl StrategySpec {
    /// Stable human-readable identifier (also recorded in the outcome).
    pub fn name(&self) -> String {
        match self {
            StrategySpec::Tiling => "tiling".into(),
            StrategySpec::Padding { mode: PaddingMode::Pad } => "padding".into(),
            StrategySpec::Padding { mode: PaddingMode::PadThenTile } => "padding:then-tile".into(),
            StrategySpec::Padding { mode: PaddingMode::Joint } => "padding:joint".into(),
            StrategySpec::Interchange => "interchange".into(),
            StrategySpec::Exhaustive { .. } => "exhaustive".into(),
            StrategySpec::Baseline { kind: BaselineKind::LrwSquare } => "baseline:lrw".into(),
            StrategySpec::Baseline { kind: BaselineKind::Tss } => "baseline:tss".into(),
            StrategySpec::Baseline { kind: BaselineKind::FixedFraction { .. } } => {
                "baseline:fixed-fraction".into()
            }
            StrategySpec::CacheOblivious => "oblivious".into(),
            StrategySpec::LatencyBased => "latency".into(),
        }
    }

    /// Parse a tournament token (the CLI `--strategies` vocabulary, also
    /// accepted as strings in the wire `strategies` array of a compare
    /// request): `ga`/`tiling`, `oblivious`, `latency`, `interchange`,
    /// `padding[:then-tile|:joint]`, `baseline:lrw|tss|fixed-fraction`,
    /// and `exhaustive` (paper-scale defaults: step 1, 100 000 evals).
    pub fn parse_token(s: &str) -> Result<StrategySpec, ApiError> {
        let name = match s {
            "ga" => "tiling",
            "cache-oblivious" => "oblivious",
            "latency-based" => "latency",
            other => other,
        };
        crate::strategy::FAMILIES.into_iter().find(|spec| spec.name() == name).ok_or_else(|| {
            ApiError::BadRequest(format!(
                "unknown strategy token `{s}` (expected one of ga, tiling, oblivious, \
                 latency, interchange, padding, padding:then-tile, padding:joint, exhaustive, \
                 baseline:lrw, baseline:tss, baseline:fixed-fraction)"
            ))
        })
    }
}

/// One complete optimisation request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeRequest {
    pub nest: NestSource,
    /// The cache hierarchy to optimise for. A bare single-level cache
    /// object (`{"size", "line", "assoc"}`) parses as a one-level legacy
    /// hierarchy, and a legacy hierarchy serialises back to the bare
    /// form — the pre-hierarchy wire format is unchanged in both
    /// directions.
    pub cache: CacheHierarchy,
    pub sampling: SamplingConfig,
    /// GA parameters, including the seed every stochastic stage derives
    /// from. Strategies that do not run a GA (exhaustive, baselines) still
    /// use `ga.seed` for their sampling seeds.
    pub ga: GaConfig,
    pub strategy: StrategySpec,
    /// Optional, and `"cme"` when present: absent and spelled-out forms
    /// score identically and share one canonical cache key.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub estimator: Option<EstimatorSpec>,
}

impl OptimizeRequest {
    /// A request with the paper's defaults: 8 KB direct-mapped cache,
    /// 164-point sampling, the §3.3 GA configuration.
    pub fn new(nest: NestSource, strategy: StrategySpec) -> Self {
        OptimizeRequest {
            nest,
            cache: CacheHierarchy::single(cme_core::CacheSpec::paper_8k()),
            sampling: SamplingConfig::paper(),
            ga: GaConfig::default(),
            strategy,
            estimator: None,
        }
    }

    /// The effective `estimator` value.
    pub fn estimator(&self) -> EstimatorSpec {
        self.estimator.unwrap_or_default()
    }

    /// Set the cache: accepts a bare [`cme_core::CacheSpec`] (one legacy
    /// level) or a full [`CacheHierarchy`].
    pub fn with_cache(mut self, cache: impl Into<CacheHierarchy>) -> Self {
        self.cache = cache.into();
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.ga.seed = seed;
        self
    }

    pub fn with_sampling(mut self, sampling: SamplingConfig) -> Self {
        self.sampling = sampling;
        self
    }
}

/// A pure analysis request: estimate (or exactly classify) a nest's miss
/// behaviour under an optional explicit tiling — no search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeRequest {
    pub nest: NestSource,
    /// Cache hierarchy to analyse against (same back-compat rule as
    /// [`OptimizeRequest::cache`]: a bare cache object is a one-level
    /// legacy hierarchy).
    pub cache: CacheHierarchy,
    pub sampling: SamplingConfig,
    /// Sampling seed.
    pub seed: u64,
    /// Analyse this tiling instead of the original nest.
    pub tiles: Option<TileSizes>,
    /// Classify every iteration point instead of sampling.
    pub exhaustive: bool,
}

impl AnalyzeRequest {
    pub fn new(nest: NestSource) -> Self {
        AnalyzeRequest {
            nest,
            cache: CacheHierarchy::single(cme_core::CacheSpec::paper_8k()),
            sampling: SamplingConfig::paper(),
            seed: 0xCE11,
            tiles: None,
            exhaustive: false,
        }
    }
}

/// A lint request: run the static dependence analysis and kernel lints
/// over a nest — no miss estimation, no search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LintRequest {
    pub nest: NestSource,
    /// Cache hierarchy the footprint lints compare against (same
    /// back-compat rule as [`OptimizeRequest::cache`]: a bare cache
    /// object is a one-level legacy hierarchy).
    pub cache: CacheHierarchy,
}

impl LintRequest {
    /// Lint against the paper's 8 KB direct-mapped cache.
    pub fn new(nest: NestSource) -> Self {
        LintRequest { nest, cache: CacheHierarchy::single(cme_core::CacheSpec::paper_8k()) }
    }

    /// Set the cache: accepts a bare [`cme_core::CacheSpec`] or a full
    /// [`CacheHierarchy`].
    pub fn with_cache(mut self, cache: impl Into<CacheHierarchy>) -> Self {
        self.cache = cache.into();
        self
    }
}

/// A strategy tournament: run several families over one base request and
/// rank them by the shared latency-weighted objective. Every entry is
/// scored by the same estimator against the same canonical `before`, so
/// cross-family gains are directly comparable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareRequest {
    /// The request every family runs: nest, cache, sampling, GA config.
    /// Its own `strategy` field is ignored — `strategies` below selects
    /// the entrants.
    pub base: OptimizeRequest,
    /// The families to race, in request order (at least one). The serve
    /// layer additionally accepts [`StrategySpec::parse_token`] strings
    /// like `"ga"` / `"oblivious"` in this array.
    pub strategies: Vec<StrategySpec>,
}

impl CompareRequest {
    /// A tournament over [`Self::default_strategies`].
    pub fn new(base: OptimizeRequest) -> Self {
        CompareRequest { base, strategies: CompareRequest::default_strategies() }
    }

    /// The default line-up: GA tiling vs cache-oblivious vs latency-based
    /// vs the LRW baseline.
    pub fn default_strategies() -> Vec<StrategySpec> {
        vec![
            StrategySpec::Tiling,
            StrategySpec::CacheOblivious,
            StrategySpec::LatencyBased,
            StrategySpec::Baseline { kind: BaselineKind::LrwSquare },
        ]
    }

    /// Replace the line-up (builder style, mirrors the other requests).
    pub fn with_strategies(mut self, strategies: Vec<StrategySpec>) -> Self {
        self.strategies = strategies;
        self
    }

    /// The per-family optimize request for entrant `k`.
    pub fn entrant(&self, k: usize) -> OptimizeRequest {
        OptimizeRequest { strategy: self.strategies[k].clone(), ..self.base.clone() }
    }

    /// Every entrant's optimize request, in line-up order; an empty
    /// line-up is a bad request.
    pub fn entrants(&self) -> Result<Vec<OptimizeRequest>, ApiError> {
        if self.strategies.is_empty() {
            return Err(ApiError::BadRequest("compare request needs at least one strategy".into()));
        }
        Ok((0..self.strategies.len()).map(|k| self.entrant(k)).collect())
    }
}
