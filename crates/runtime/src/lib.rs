//! cme-runtime — process-wide evaluation state for the serve layer.
//!
//! The engine layers below (`cme-core`, `cme-tileopt`, `cme-api`) are
//! deliberately per-request: build an engine, run a search, drop it.
//! This crate owns everything whose natural lifetime is the *process*:
//!
//! * [`Memo`] — the one bounded, shard-locked memo type, with the hit,
//!   miss and eviction counters and the byte footprint `/metrics`
//!   reports ([`CacheStats`]). Every cache below is one.
//! * [`DisplacementCache`] — the engine's per-request Diophantine memo
//!   promoted to a process-wide store, plugged into every engine through
//!   the [`cme_core::DisplacementProvider`] seam.
//! * [`Singleflight`] — in-flight coalescing: identical canonical
//!   request keys arriving concurrently share one computation.
//! * [`TieredOutcomeCache`] — the hot outcome memo backed by an
//!   optional append-only on-disk layer ([`DiskTier`]), versioned by a
//!   schema fingerprint and flushed every 32 entries and on shutdown.
//! * the `/lint` and `/compare` memos, sized from the outcome entry
//!   count, and the request-body alias in front of all three
//!   ([`BodyAliases`]).
//!
//! [`Runtime`] bundles them plus a [`cme_api::Session`] wired to the
//! displacement store; the serve router drives requests through it.
//! Nothing here changes what a request answers — every answer memo
//! stores the timing-stripped answer as its served JSON text
//! ([`Encoded`]), encoded once, and byte-identity with all tiers
//! disabled is pinned by tests — only how often the process recomputes
//! and re-encodes.

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
pub use memo::{CacheStats, Footprint, Memo, Stored};
pub use outcome::{
    canonical_compare_key, canonical_key, canonical_lint_key, Answer, BodyAliases, BodyKey,
    BodyView, Encoded, Route, Tier, TieredOutcomeCache, MAX_ALIASED_BODY,
};
pub use persist::{schema_fingerprint, DiskStats, DiskTier};

use cme_api::{
    ApiError, CompareOutcome, CompareRequest, LintOutcome, LintRequest, OptimizeRequest, Outcome,
    Session,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Sizing and persistence knobs for a [`Runtime`]. Entry counts are per
/// cache; 0 disables that cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Hot-tier outcome cache entries. The `/lint` memo and the
    /// request-body alias get the same count and the `/compare` memo a
    /// quarter of it, at most 256 (see [`Runtime::new`]).
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

/// Why a [`Runtime`] route failed: a request-level API error (maps to
/// the usual 4xx statuses), a panicked flight leader or an answer that
/// could not be encoded (server faults — 500).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    Api(ApiError),
    LeaderFailed,
    Encode(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Api(e) => e.fmt(f),
            RuntimeError::LeaderFailed => {
                write!(f, "internal error: the coalesced computation for this request failed")
            }
            RuntimeError::Encode(e) => write!(f, "response serialisation failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ApiError> for RuntimeError {
    fn from(e: ApiError) -> Self {
        RuntimeError::Api(e)
    }
}

impl From<serde_json::Error> for RuntimeError {
    fn from(e: serde_json::Error) -> Self {
        RuntimeError::Encode(e.to_string())
    }
}

/// The process-wide evaluation state: one per server process, shared by
/// every worker. All methods take `&self`.
pub struct Runtime {
    session: Session,
    displacements: Arc<DisplacementCache>,
    outcomes: TieredOutcomeCache,
    lints: Memo<String, Encoded<LintOutcome>>,
    compares: Memo<String, Encoded<CompareOutcome>>,
    aliases: BodyAliases,
    flights: Singleflight<Result<Encoded<Outcome>, RuntimeError>>,
}

impl Runtime {
    /// Build every memo from `config`. The `/lint` memo and the
    /// request-body alias hold as many entries as the outcome cache.
    /// Tournaments are much larger values, so the `/compare` memo holds a
    /// quarter as many, at most 256, which keeps its footprint
    /// comparable; 0 still disables all four.
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
            aliases: Memo::new(n),
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

    pub fn lints(&self) -> &Memo<String, Encoded<LintOutcome>> {
        &self.lints
    }

    pub fn compares(&self) -> &Memo<String, Encoded<CompareOutcome>> {
        &self.compares
    }

    pub fn aliases(&self) -> &BodyAliases {
        &self.aliases
    }

    pub fn flights(&self) -> &Singleflight<Result<Encoded<Outcome>, RuntimeError>> {
        &self.flights
    }

    /// The canonical key a body sent to `route` parsed to, if a memo
    /// answered it before and the alias is still held. Bodies over
    /// [`MAX_ALIASED_BODY`] are not looked up.
    fn aliased(&self, route: Route, body: &[u8]) -> Option<Arc<str>> {
        if body.len() > MAX_ALIASED_BODY {
            return None;
        }
        self.aliases.get(&(route, body) as &dyn BodyView)
    }

    /// Remember that `body` parses to `key`, after a memo answered it.
    fn alias(&self, route: Route, body: Option<&[u8]>, key: &str) {
        if let Some(body) = body.filter(|body| body.len() <= MAX_ALIASED_BODY) {
            self.aliases.insert(BodyKey::new(route, body), &Arc::from(key));
        }
    }

    /// Answer an `/optimize` body from the memo without parsing it: the
    /// alias gives its canonical key, the outcome tiers the answer.
    /// `None` when either is gone — the caller then parses the body.
    pub fn recall_optimize(&self, body: &[u8]) -> Option<(Encoded<Outcome>, Resolution)> {
        let key = self.aliased(Route::Optimize, body)?;
        self.outcomes.lookup(&key).map(|(hit, tier)| (hit, tier.into()))
    }

    /// [`Self::recall_optimize`] for `/lint`.
    pub fn recall_lint(&self, body: &[u8]) -> Option<Encoded<LintOutcome>> {
        self.lints.get_stored(&*self.aliased(Route::Lint, body)?)
    }

    /// [`Self::recall_optimize`] for `/compare`.
    pub fn recall_compare(&self, body: &[u8]) -> Option<Encoded<CompareOutcome>> {
        self.compares.get_stored(&*self.aliased(Route::Compare, body)?)
    }

    /// Answer an optimize request through every tier: outcome cache
    /// (hot, then disk), then a coalesced computation. The answer is the
    /// stored text; callers re-stamp `wall_ms`. `body`, the bytes `req`
    /// was parsed from, is aliased to the request's key when a memo
    /// answers, so its byte-identical repeats can be recalled.
    pub fn optimize(
        &self,
        req: &OptimizeRequest,
        body: Option<&[u8]>,
    ) -> (Result<Encoded<Outcome>, RuntimeError>, Resolution) {
        let key = canonical_key(req);
        if let Some((hit, tier)) = self.outcomes.lookup(&key) {
            self.alias(Route::Optimize, body, &key);
            return (Ok(hit), tier.into());
        }
        let compute = || Ok(Encoded::new(&self.session.run(req)?)?);
        match self.flights.run(&key, compute) {
            FlightResult::Led(result) => {
                if let Ok(out) = &result {
                    self.outcomes.insert_encoded(key, out.clone());
                }
                (result, Resolution::Computed)
            }
            FlightResult::Joined(result) => (result, Resolution::Coalesced),
            FlightResult::LeaderFailed => {
                (Err(RuntimeError::LeaderFailed), Resolution::LeaderFailed)
            }
        }
    }

    /// Answer a lint request through the lint memo-cache; `body` as for
    /// [`Self::optimize`].
    pub fn lint(
        &self,
        req: &LintRequest,
        body: Option<&[u8]>,
    ) -> (Result<Encoded<LintOutcome>, RuntimeError>, bool) {
        let key = canonical_lint_key(req);
        if let Some(hit) = self.lints.get_stored(&key) {
            self.alias(Route::Lint, body, &key);
            return (Ok(hit), true);
        }
        let result = self
            .session
            .lint(req)
            .map_err(RuntimeError::from)
            .and_then(|out| Ok(Encoded::new(&out)?));
        if let Ok(out) = &result {
            self.lints.insert_stored(key, out.clone());
        }
        (result, false)
    }

    /// Answer a slice of optimize requests, in request order: look each
    /// one up in the outcome cache (both tiers), deduplicate the misses by
    /// canonical key, run them as one parallel `Session::run_batch`, and
    /// cache every success. Duplicates share one search's answer. Hits
    /// are decoded from the stored text (`wall_ms` 0) and fresh outcomes
    /// carry their search time.
    pub fn optimize_batch(&self, reqs: &[OptimizeRequest]) -> Vec<Result<Outcome, ApiError>> {
        let keys: Vec<String> = reqs.iter().map(canonical_key).collect();
        // Per slot: `Ok` holds a cache hit, `Err(u)` points at `fresh[u]`,
        // the one run of that slot's key.
        let mut slots: Vec<Result<Outcome, usize>> = Vec::with_capacity(reqs.len());
        let mut fresh: Vec<OptimizeRequest> = Vec::new();
        let mut fresh_keys: Vec<&str> = Vec::new();
        let mut miss_of: HashMap<&str, usize> = HashMap::new();
        for (req, key) in reqs.iter().zip(&keys) {
            slots.push(self.outcomes.get(key).ok_or_else(|| {
                *miss_of.entry(key).or_insert_with(|| {
                    fresh.push(req.clone());
                    fresh_keys.push(key);
                    fresh.len() - 1
                })
            }));
        }
        let results = self.session.run_batch(&fresh);
        for (key, result) in fresh_keys.iter().zip(&results) {
            if let Ok(out) = result {
                self.outcomes.insert((*key).to_string(), out);
            }
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Ok(hit) => Ok(hit),
                // `run_batch` answers every request, so the lookup always
                // succeeds; a handler still must not panic.
                Err(u) => results.get(u).cloned().unwrap_or_else(|| {
                    Err(ApiError::BadRequest("internal: batch slot left unfilled".into()))
                }),
            })
            .collect()
    }

    /// Answer a compare request: the whole-tournament memo first, then
    /// every entrant through [`Self::optimize_batch`] — a tournament warms
    /// `/optimize` and vice versa — and the first failure in line-up
    /// order, or else the ranking. The answer is the stored text; callers
    /// re-stamp `wall_ms`. `body` as for [`Self::optimize`].
    pub fn compare(
        &self,
        req: &CompareRequest,
        body: Option<&[u8]>,
    ) -> (Result<Encoded<CompareOutcome>, RuntimeError>, bool) {
        let key = canonical_compare_key(req);
        if let Some(hit) = self.compares.get_stored(&key) {
            self.alias(Route::Compare, body, &key);
            return (Ok(hit), true);
        }
        let ranked = req.entrants().map_err(RuntimeError::from).and_then(|entrants| {
            let outcomes = self
                .optimize_batch(&entrants)
                .into_iter()
                .map(|result| result.map(|out| out.without_timing()))
                .collect::<Result<_, _>>()?;
            Ok(Encoded::new(&CompareOutcome::rank(outcomes, 0))?)
        });
        if let Ok(ranked) = &ranked {
            self.compares.insert_stored(key, ranked.clone());
        }
        (ranked, false)
    }

    /// Flush the persistent outcome tier (no-op without one); returns
    /// entries written.
    pub fn flush(&self) -> usize {
        self.outcomes.flush()
    }
}

impl From<Tier> for Resolution {
    fn from(tier: Tier) -> Self {
        match tier {
            Tier::Hot => Resolution::CacheHot,
            Tier::Disk => Resolution::CacheDisk,
        }
    }
}
