//! cme-runtime — process-wide evaluation state for the serve layer.
//!
//! The engine layers below (`cme-core`, `cme-tileopt`, `cme-api`) are
//! deliberately per-request: build an engine, run a search, drop it.
//! This crate owns everything whose natural lifetime is the *process*:
//!
//! * [`Memo`] — the one bounded, shard-locked memo type, with the hit,
//!   miss and eviction counters `/metrics` reports ([`CacheStats`]).
//!   Every cache below is one.
//! * [`DisplacementCache`] — the engine's per-request Diophantine memo
//!   promoted to a process-wide store, plugged into every engine through
//!   the [`cme_core::DisplacementProvider`] seam.
//! * [`Singleflight`] — in-flight coalescing: identical canonical
//!   request keys arriving concurrently share one computation.
//! * [`TieredOutcomeCache`] — the hot outcome memo backed by an
//!   optional append-only on-disk layer ([`DiskTier`]), versioned by a
//!   schema fingerprint and flushed every 32 entries and on shutdown.
//! * the `/lint` and `/compare` memos, sized from the outcome entry
//!   count.
//!
//! [`Runtime`] bundles them plus a [`cme_api::Session`] wired to the
//! displacement store; the serve router drives requests through it.
//! Nothing here changes what a request answers — every tier stores
//! timing-stripped values and byte-identity with all tiers disabled is
//! pinned by tests — only how often the process recomputes.

#![forbid(unsafe_code)]

pub mod displacement;
pub mod flight;
pub mod lru;
pub mod memo;
pub mod outcome;
pub mod persist;

pub use displacement::DisplacementCache;
pub use flight::{FlightResult, FlightStats, Singleflight};
pub use lru::Lru;
pub use memo::{CacheStats, Memo, Stored};
pub use outcome::{
    canonical_compare_key, canonical_key, canonical_lint_key, Tier, TieredOutcomeCache,
};
pub use persist::{schema_fingerprint, DiskStats, DiskTier};

use cme_api::{
    ApiError, CompareOutcome, CompareRequest, LintOutcome, LintRequest, OptimizeRequest, Outcome,
    Session,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Sizing and persistence knobs for a [`Runtime`]. Entry counts are per
/// cache; 0 disables that cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Hot-tier outcome cache entries. The `/lint` memo gets the same
    /// count and the `/compare` memo a quarter of it, at most 256 (see
    /// [`Runtime::new`]).
    pub outcome_entries: usize,
    /// Process-wide displacement store entries.
    pub displacement_entries: usize,
    /// Directory for the persistent outcome tier; `None` = memory only.
    pub cache_dir: Option<PathBuf>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            outcome_entries: 1024,
            // Displacement sets average ~230 vectors, ~5 KB stored flat,
            // over the registry kernels at their default sizes. They are
            // shared across every request touching the same array
            // shapes, so the default store is deeper than the outcome
            // caches.
            displacement_entries: 4096,
            cache_dir: None,
        }
    }
}

/// How an optimize request was answered, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Served from the hot outcome tier.
    CacheHot,
    /// Served from the persistent tier (and promoted).
    CacheDisk,
    /// Computed by this call (flight leader).
    Computed,
    /// Joined a concurrent identical computation.
    Coalesced,
    /// The joined flight's leader panicked.
    LeaderFailed,
}

/// Why [`Runtime::optimize`] failed: a request-level API error (maps to
/// the usual 4xx statuses) or a panicked flight leader (a server fault —
/// 500).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    Api(ApiError),
    LeaderFailed,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Api(e) => e.fmt(f),
            RuntimeError::LeaderFailed => {
                write!(f, "internal error: the coalesced computation for this request failed")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ApiError> for RuntimeError {
    fn from(e: ApiError) -> Self {
        RuntimeError::Api(e)
    }
}

/// The process-wide evaluation state: one per server process, shared by
/// every worker. All methods take `&self`.
pub struct Runtime {
    session: Session,
    displacements: Arc<DisplacementCache>,
    outcomes: TieredOutcomeCache,
    lints: Memo<String, LintOutcome>,
    compares: Memo<String, CompareOutcome>,
    flights: Singleflight<Result<Outcome, ApiError>>,
}

impl Runtime {
    /// Build every memo from `config`. The `/lint` memo holds as many
    /// entries as the outcome cache. Tournaments are much larger values,
    /// so the `/compare` memo holds a quarter as many, at most 256,
    /// which keeps its footprint comparable; 0 still disables both.
    pub fn new(config: &RuntimeConfig) -> Self {
        let n = config.outcome_entries;
        let displacements = Arc::new(DisplacementCache::new(config.displacement_entries));
        let session =
            Session::builder().displacement_provider(Arc::clone(&displacements) as _).build();
        Runtime {
            session,
            displacements,
            outcomes: TieredOutcomeCache::new(n, config.cache_dir.as_deref().map(DiskTier::new)),
            lints: Memo::new(n),
            compares: Memo::new(match n {
                0 => 0,
                n => (n / 4).clamp(1, 256),
            }),
            flights: Singleflight::new(),
        }
    }

    /// The session every request runs through (its engines share the
    /// displacement store).
    pub fn session(&self) -> &Session {
        &self.session
    }

    pub fn displacements(&self) -> &DisplacementCache {
        &self.displacements
    }

    pub fn outcomes(&self) -> &TieredOutcomeCache {
        &self.outcomes
    }

    pub fn lints(&self) -> &Memo<String, LintOutcome> {
        &self.lints
    }

    pub fn compares(&self) -> &Memo<String, CompareOutcome> {
        &self.compares
    }

    pub fn flights(&self) -> &Singleflight<Result<Outcome, ApiError>> {
        &self.flights
    }

    /// Answer an optimize request through every tier: outcome cache
    /// (hot, then disk), then a coalesced computation. The outcome is
    /// the timing-stripped form; callers re-stamp `wall_ms`.
    pub fn optimize(&self, req: &OptimizeRequest) -> (Result<Outcome, RuntimeError>, Resolution) {
        let key = canonical_key(req);
        if let Some((hit, tier)) = self.outcomes.get_tiered(&key) {
            let how = match tier {
                Tier::Hot => Resolution::CacheHot,
                Tier::Disk => Resolution::CacheDisk,
            };
            return (Ok(hit), how);
        }
        match self.flights.run(&key, || self.session.run(req)) {
            FlightResult::Led(result) => {
                if let Ok(out) = &result {
                    self.outcomes.insert(key, out);
                }
                (
                    result.map(|out| out.without_timing()).map_err(RuntimeError::Api),
                    Resolution::Computed,
                )
            }
            FlightResult::Joined(result) => (
                result.map(|out| out.without_timing()).map_err(RuntimeError::Api),
                Resolution::Coalesced,
            ),
            FlightResult::LeaderFailed => {
                (Err(RuntimeError::LeaderFailed), Resolution::LeaderFailed)
            }
        }
    }

    /// Answer a lint request through the lint memo-cache.
    pub fn lint(&self, req: &LintRequest) -> (Result<LintOutcome, ApiError>, bool) {
        let key = canonical_lint_key(req);
        if let Some(hit) = self.lints.get(&key) {
            return (Ok(hit), true);
        }
        let result = self.session.lint(req);
        if let Ok(out) = &result {
            self.lints.insert(key, out);
        }
        (result.map(|out| out.without_timing()), false)
    }

    /// Answer a compare request: whole-tournament memo first, then
    /// per-family reuse of the outcome cache — only the families the
    /// outcome cache cannot answer are recomputed (as one parallel
    /// batch), and their fresh outcomes feed the outcome cache back, so
    /// a tournament also warms `/optimize` and vice versa. The outcome
    /// is timing-stripped; callers re-stamp `wall_ms`.
    pub fn compare(&self, req: &CompareRequest) -> (Result<CompareOutcome, ApiError>, bool) {
        let key = canonical_compare_key(req);
        if let Some(hit) = self.compares.get(&key) {
            return (Ok(hit), true);
        }
        if req.strategies.is_empty() {
            return (
                Err(ApiError::BadRequest("compare request needs at least one strategy".into())),
                false,
            );
        }
        let entrants: Vec<OptimizeRequest> =
            (0..req.strategies.len()).map(|k| req.entrant(k)).collect();
        let entrant_keys: Vec<String> = entrants.iter().map(canonical_key).collect();
        let mut outcomes: Vec<Option<Outcome>> =
            entrant_keys.iter().map(|k| self.outcomes.get(k)).collect();
        let missing: Vec<usize> = (0..outcomes.len()).filter(|&i| outcomes[i].is_none()).collect();
        let fresh: Vec<OptimizeRequest> = missing.iter().map(|&i| entrants[i].clone()).collect();
        for (&i, result) in missing.iter().zip(self.session.run_batch(&fresh)) {
            match result {
                Ok(out) => {
                    self.outcomes.insert(entrant_keys[i].clone(), &out);
                    outcomes[i] = Some(out.without_timing());
                }
                Err(e) => return (Err(e), false),
            }
        }
        let ranked = CompareOutcome::rank(outcomes.into_iter().flatten().collect(), 0);
        self.compares.insert(key, &ranked);
        (Ok(ranked), false)
    }

    /// Flush the persistent outcome tier (no-op without one); returns
    /// entries written.
    pub fn flush(&self) -> usize {
        self.outcomes.flush()
    }
}
