//! The outcome, lint and compare memos, keyed by the *canonical*
//! serialisation of a parsed request.
//!
//! Canonical means the key is produced by re-serialising the **parsed**
//! request, so two JSON bodies that differ in object key order,
//! whitespace, or spelled-out default fields collapse onto one entry.
//! Values are stored timing-stripped ([`Outcome::without_timing`] and its
//! lint and compare counterparts) — the cached form is the canonical
//! comparison form, and a hit is byte-identical to a fresh run modulo
//! `wall_ms`, which the service layer re-stamps with the (near-zero)
//! time the lookup took. Every search in the suite is deterministic for
//! a fixed request, which is what makes memoisation sound in the first
//! place.
//!
//! [`TieredOutcomeCache`] fronts the hot outcome [`Memo`] with an optional
//! persistent layer ([`DiskTier`]): misses fall through to disk, disk
//! hits are promoted back into the hot tier, inserts feed both.

use crate::memo::{CacheStats, Memo, Stored};
use crate::persist::{DiskStats, DiskTier};
use cme_api::{CompareOutcome, CompareRequest, LintOutcome, LintRequest, OptimizeRequest, Outcome};

/// The cache key for a request: its serialised form after parsing, which
/// normalises field order and defaults. (Serialisation of a parsed
/// request cannot fail; the debug form is a defensive fallback, not a
/// second key space.)
pub fn canonical_key(req: &OptimizeRequest) -> String {
    // A spelled-out `estimator` (only ever `"cme"`) collapses onto the
    // field-absent form: same behaviour ⇒ same entry. The common absent
    // case serialises without a clone.
    if req.estimator.is_some() {
        let mut r = req.clone();
        r.estimator = None;
        return serde_json::to_string(&r).unwrap_or_else(|_| format!("unserialisable:{r:?}"));
    }
    serde_json::to_string(req).unwrap_or_else(|_| format!("unserialisable:{req:?}"))
}

/// The cache key for a lint request (same canonicalisation rule).
pub fn canonical_lint_key(req: &LintRequest) -> String {
    serde_json::to_string(req).unwrap_or_else(|_| format!("unserialisable:{req:?}"))
}

/// The cache key for a compare request. Two extra normalisations on top
/// of the canonical-serialisation rule: the base request's own
/// `strategy` field is pinned to a fixed value (the tournament ignores
/// it — `strategies` selects the entrants), and a spelled-out
/// `estimator` collapses onto the field-absent form, both so requests
/// that answer identically share one entry.
pub fn canonical_compare_key(req: &CompareRequest) -> String {
    let mut r = req.clone();
    r.base.strategy = cme_api::StrategySpec::Tiling;
    r.base.estimator = None;
    serde_json::to_string(&r).unwrap_or_else(|_| format!("unserialisable:{r:?}"))
}

/// Each answer type is memoised in its timing-stripped form and handed
/// back as a clone of it.
macro_rules! stored_without_timing {
    ($($t:ty),*) => {$(
        impl Stored for $t {
            type Value = $t;

            fn store(value: &$t) -> $t {
                value.without_timing()
            }

            fn load(&self) -> $t {
                self.clone()
            }
        }
    )*};
}

stored_without_timing!(Outcome, LintOutcome, CompareOutcome);

/// Which tier answered a [`TieredOutcomeCache::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Hot,
    Disk,
}

/// The hot outcome memo backed by an optional persistent layer. All
/// reads and writes keep the timing-stripped invariant of the tiers
/// below.
pub struct TieredOutcomeCache {
    hot: Memo<String, Outcome>,
    disk: Option<DiskTier>,
}

impl TieredOutcomeCache {
    /// A hot tier of `capacity` entries, backed by `disk` when given.
    pub fn new(capacity: usize, disk: Option<DiskTier>) -> Self {
        TieredOutcomeCache { hot: Memo::new(capacity), disk }
    }

    /// Look up a key across the tiers; a disk hit is promoted into the
    /// hot tier so the next lookup stays in memory.
    pub fn get_tiered(&self, key: &str) -> Option<(Outcome, Tier)> {
        if let Some(out) = self.hot.get(key) {
            return Some((out, Tier::Hot));
        }
        let out = self.disk.as_ref()?.get(key)?;
        self.hot.insert(key.to_string(), &out);
        Some((out, Tier::Disk))
    }

    /// Tier-blind lookup (the common call site).
    pub fn get(&self, key: &str) -> Option<Outcome> {
        self.get_tiered(key).map(|(out, _)| out)
    }

    /// Store in the hot tier and (when configured) queue for disk.
    pub fn insert(&self, key: String, outcome: &Outcome) {
        if let Some(disk) = &self.disk {
            disk.insert(&key, outcome);
        }
        self.hot.insert(key, outcome);
    }

    /// Flush the persistent layer (no-op without one); returns entries
    /// written.
    pub fn flush(&self) -> usize {
        self.disk.as_ref().map_or(0, DiskTier::flush)
    }

    /// Hot-tier telemetry (a disk hit counts as a hot miss plus a
    /// `disk.hits`).
    pub fn stats(&self) -> CacheStats {
        self.hot.stats()
    }

    /// Persistent-layer telemetry, when configured.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(DiskTier::stats)
    }
}

#[cfg(test)]
mod key_tests {
    use super::{canonical_compare_key, canonical_key};
    use cme_api::{CompareRequest, EstimatorSpec, NestSource, OptimizeRequest, StrategySpec};

    #[test]
    fn canonical_key_covers_the_estimator_field() {
        let base = OptimizeRequest::new(NestSource::kernel_sized("T2D", 32), StrategySpec::Tiling);
        let spelled = OptimizeRequest { estimator: Some(EstimatorSpec::cme), ..base.clone() };

        // A spelled-out `"cme"` collapses onto the field-absent key —
        // same behaviour, one cache entry.
        assert_eq!(canonical_key(&base), canonical_key(&spelled));
        assert!(!canonical_key(&base).contains("estimator"));
    }

    #[test]
    fn compare_key_ignores_the_base_strategy_and_collapses_the_estimator() {
        let base = OptimizeRequest::new(NestSource::kernel_sized("T2D", 32), StrategySpec::Tiling);
        let tournament = CompareRequest::new(base.clone());

        // The base request's own strategy is ignored by the tournament,
        // so spelling a different one must not split the cache entry.
        let mut other = tournament.clone();
        other.base.strategy = StrategySpec::Interchange;
        assert_eq!(canonical_compare_key(&tournament), canonical_compare_key(&other));

        // Estimator canonicalisation matches the optimize-key rule.
        let mut spelled = tournament.clone();
        spelled.base.estimator = Some(EstimatorSpec::cme);
        assert_eq!(canonical_compare_key(&tournament), canonical_compare_key(&spelled));
        assert!(!canonical_compare_key(&spelled).contains("estimator"));

        // A different line-up is a different tournament.
        let solo = tournament.clone().with_strategies(vec![StrategySpec::Tiling]);
        assert_ne!(canonical_compare_key(&tournament), canonical_compare_key(&solo));
    }
}
