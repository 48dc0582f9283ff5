//! The outcome memo-caches, keyed by the *canonical* serialisation of a
//! parsed request.
//!
//! Canonical means the key is produced by re-serialising the **parsed**
//! request, so two JSON bodies that differ in object key order,
//! whitespace, or spelled-out default fields collapse onto one entry.
//! Values are stored timing-stripped ([`Outcome::without_timing`]) — the
//! cached form is the canonical comparison form, and a hit is
//! byte-identical to a fresh run modulo `wall_ms`, which the service
//! layer re-stamps with the (near-zero) time the lookup took. Every
//! search in the suite is deterministic for a fixed request, which is
//! what makes memoisation sound in the first place.
//!
//! [`TieredOutcomeCache`] fronts the hot sharded LRU with an optional
//! persistent layer ([`DiskTier`]): misses fall through to disk, disk
//! hits are promoted back into the hot tier, inserts feed both.

use crate::lru::Lru;
use crate::persist::{DiskStats, DiskTier};
use cme_api::{CompareOutcome, CompareRequest, LintOutcome, LintRequest, OptimizeRequest, Outcome};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// Thread-safe LRU over independently locked [`Lru`] shards, plus hit
/// and eviction telemetry for `/metrics`. Capacity 0 disables caching
/// (lookups miss, inserts drop).
pub struct OutcomeCache {
    shards: Vec<Mutex<Lru>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl OutcomeCache {
    pub fn new(capacity: usize) -> Self {
        // Shard only when each shard stays big enough (≥ 32 entries) that
        // hot keys colliding on one shard cannot thrash a near-empty
        // cache; small capacities get a single shard. The remainder is
        // spread over the first shards so per-shard capacities sum to
        // exactly `capacity` — the configured bound is a hard ceiling.
        let shard_count = (capacity / 32).clamp(1, 8);
        let (base, rem) = (capacity / shard_count, capacity % shard_count);
        OutcomeCache {
            shards: (0..shard_count)
                .map(|i| Mutex::new(Lru::new(base + usize::from(i < rem))))
                .collect(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> MutexGuard<'_, Lru> {
        // DefaultHasher::new() is unkeyed, so shard placement is stable
        // across runs (replay-friendly).
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let i = (h.finish() % self.shards.len() as u64) as usize;
        self.shards[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a timing-stripped outcome, counting the hit or miss.
    pub fn get(&self, key: &str) -> Option<Outcome> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let found = self.shard(key).get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store the timing-stripped form of `outcome` under `key`.
    pub fn insert(&self, key: String, outcome: &Outcome) {
        if self.capacity == 0 {
            return;
        }
        if self.shard(&key).insert(key.clone(), outcome.without_timing()) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// Which tier answered a [`TieredOutcomeCache::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Hot,
    Disk,
}

/// The hot sharded LRU backed by an optional persistent layer. All
/// reads and writes keep the timing-stripped invariant of the tiers
/// below.
pub struct TieredOutcomeCache {
    hot: OutcomeCache,
    disk: Option<DiskTier>,
}

impl TieredOutcomeCache {
    /// Memory-only (the pre-runtime behaviour).
    pub fn new(capacity: usize) -> Self {
        TieredOutcomeCache { hot: OutcomeCache::new(capacity), disk: None }
    }

    /// Hot tier backed by a persistent layer.
    pub fn with_disk(capacity: usize, disk: DiskTier) -> Self {
        TieredOutcomeCache { hot: OutcomeCache::new(capacity), disk: Some(disk) }
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

    /// Persistent-layer telemetry, when configured.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(DiskTier::stats)
    }

    pub fn len(&self) -> usize {
        self.hot.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.hot.capacity()
    }

    /// Hot-tier hits (disk hits count as hot misses plus `disk.hits`).
    pub fn hits(&self) -> u64 {
        self.hot.hits()
    }

    pub fn misses(&self) -> u64 {
        self.hot.misses()
    }

    pub fn evictions(&self) -> u64 {
        self.hot.evictions()
    }
}

/// The `/lint` memo-cache: one mutex around an [`Lru`] of timing-stripped
/// [`LintOutcome`]s. Lints are dependence analysis only — orders of
/// magnitude cheaper than a search — so a single shard suffices; the
/// telemetry mirrors [`OutcomeCache`] for `/metrics`. Capacity 0
/// disables caching.
pub struct LintCache {
    lru: Mutex<Lru<String, LintOutcome>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl LintCache {
    pub fn new(capacity: usize) -> Self {
        LintCache {
            lru: Mutex::new(Lru::new(capacity.max(1))),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru<String, LintOutcome>> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a timing-stripped lint outcome, counting the hit or miss.
    pub fn get(&self, key: &str) -> Option<LintOutcome> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let found = self.lock().get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store the timing-stripped form of `outcome` under `key`.
    pub fn insert(&self, key: String, outcome: &LintOutcome) {
        if self.capacity == 0 {
            return;
        }
        if self.lock().insert(key, outcome.without_timing()) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// The `/compare` memo-cache: one mutex around an [`Lru`] of
/// timing-stripped [`CompareOutcome`]s. Tournaments are few and large,
/// so a single shard suffices; the telemetry mirrors [`OutcomeCache`]
/// for `/metrics`. Capacity 0 disables caching.
pub struct CompareCache {
    lru: Mutex<Lru<String, CompareOutcome>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CompareCache {
    pub fn new(capacity: usize) -> Self {
        CompareCache {
            lru: Mutex::new(Lru::new(capacity.max(1))),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru<String, CompareOutcome>> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a timing-stripped tournament, counting the hit or miss.
    pub fn get(&self, key: &str) -> Option<CompareOutcome> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let found = self.lock().get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store the timing-stripped form of `outcome` under `key`.
    pub fn insert(&self, key: String, outcome: &CompareOutcome) {
        if self.capacity == 0 {
            return;
        }
        if self.lock().insert(key, outcome.without_timing()) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
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
