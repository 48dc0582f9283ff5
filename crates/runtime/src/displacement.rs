//! The process-wide displacement cache: the engine's per-request
//! `(coeffs, base-delta, line)` memo promoted to a bounded, shard-locked
//! global store.
//!
//! [`cme_core::reuse::original_displacements`] — the Diophantine half of
//! reuse-candidate generation — is a pure function of the
//! [`DisplacementKey`] (address coefficients, base-address delta, line
//! size, loop spans), so its results can be shared across requests,
//! worker threads and cache levels without any effect on outcomes:
//! byte-identity with the cache disabled is pinned by tests. Engines
//! still keep their per-request memo (no spans in the key, zero
//! contention within a request); this store only sees each distinct key
//! once per request, on the engine's local miss.
//!
//! Sharding and bounds mirror the outcome cache: per-shard LRUs whose
//! capacities sum exactly to the configured bound, shard placement by
//! the unkeyed `DefaultHasher` (stable across runs). Capacity 0 disables
//! the store (every lookup computes).
//!
//! Each set is stored flat — one boxed slice of equal-width vectors laid
//! end to end — and expanded into a fresh `Vec<Vec<i64>>` on a hit, so a
//! retained entry costs one allocation rather than one per vector.

use crate::lru::Lru;
use cme_core::{DisplacementKey, DisplacementProvider};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

type Shard = Lru<DisplacementKey, FlatSet>;

/// One displacement set, stored flat: `count` vectors of `width` values.
struct FlatSet {
    width: usize,
    count: usize,
    values: Box<[i64]>,
}

impl FlatSet {
    fn of(set: &[Vec<i64>]) -> Self {
        let width = set.first().map_or(0, Vec::len);
        debug_assert!(set.iter().all(|v| v.len() == width), "displacements share one width");
        FlatSet { width, count: set.len(), values: set.iter().flatten().copied().collect() }
    }

    fn expand(&self) -> Vec<Vec<i64>> {
        (0..self.count)
            .map(|i| self.values[i * self.width..(i + 1) * self.width].to_vec())
            .collect()
    }
}

/// Counters snapshot for `/metrics` (`displacement_cache` section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisplacementStats {
    pub entries: usize,
    pub capacity: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// Bounded sharded store of displacement sets, shared by every engine
/// the serve runtime builds. Implements [`DisplacementProvider`], the
/// seam `cme_core::EvalEngine` consults on local-memo misses.
pub struct DisplacementCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl DisplacementCache {
    pub fn new(capacity: usize) -> Self {
        // Same sharding rule as the outcome cache: shard only when each
        // shard keeps ≥ 32 entries, and spread the remainder so per-shard
        // capacities sum to exactly `capacity`.
        let shard_count = (capacity / 32).clamp(1, 8);
        let (base, rem) = (capacity / shard_count, capacity % shard_count);
        DisplacementCache {
            shards: (0..shard_count)
                .map(|i| Mutex::new(Lru::new(base + usize::from(i < rem))))
                .collect(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &DisplacementKey) -> MutexGuard<'_, Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let i = (h.finish() % self.shards.len() as u64) as usize;
        self.shards[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    pub fn stats(&self) -> DisplacementStats {
        DisplacementStats {
            entries: self.len(),
            capacity: self.capacity,
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
        }
    }
}

impl DisplacementProvider for DisplacementCache {
    /// Serve `key` from the store or compute (outside any lock) and
    /// retain the result. Every call returns its own copy of the set.
    /// Two threads racing on the same key compute the same deterministic
    /// value; whichever inserts first wins and both return equal sets.
    fn get_or_compute(
        &self,
        key: &DisplacementKey,
        compute: &mut dyn FnMut() -> Vec<Vec<i64>>,
    ) -> Arc<Vec<Vec<i64>>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(compute());
        }
        if let Some(hit) = self.shard(key).get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::new(hit.expand());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = compute();
        let mut shard = self.shard(key);
        // A concurrent request may have inserted the (identical) value
        // while we computed; keep the stored copy then.
        if shard.get(key).is_none() && shard.insert(key.clone(), FlatSet::of(&fresh)) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Arc::new(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(delta: i64) -> DisplacementKey {
        DisplacementKey { coeffs: vec![1, 64], delta, line: 32, spans: vec![64, 64] }
    }

    fn get(
        cache: &DisplacementCache,
        k: &DisplacementKey,
        computed: &mut u32,
    ) -> Arc<Vec<Vec<i64>>> {
        cache.get_or_compute(k, &mut || {
            *computed += 1;
            vec![vec![k.delta]]
        })
    }

    #[test]
    fn second_lookup_hits_without_recomputing() {
        let cache = DisplacementCache::new(64);
        let k = key(3);
        let set = vec![vec![1, 0], vec![0, -2], vec![3, 4]];
        let mut computed = 0;
        let mut lookup = || {
            cache.get_or_compute(&k, &mut || {
                computed += 1;
                set.clone()
            })
        };
        let (a, b) = (lookup(), lookup());
        assert_eq!(computed, 1, "one computation for two lookups");
        assert_eq!(*a, set);
        assert_eq!(*b, set, "the hit expands to an equal set");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn empty_and_zero_width_sets_round_trip() {
        for set in [Vec::new(), vec![Vec::new()]] {
            assert_eq!(FlatSet::of(&set).expand(), set);
        }
    }

    #[test]
    fn distinct_spans_are_distinct_keys() {
        // The per-engine memo omits spans (fixed per engine); the global
        // store must not — different iteration spaces may share
        // coefficients and deltas yet have different displacement sets.
        let cache = DisplacementCache::new(64);
        let mut computed = 0;
        let a = key(0);
        let mut b = key(0);
        b.spans = vec![32, 32];
        get(&cache, &a, &mut computed);
        get(&cache, &b, &mut computed);
        assert_eq!(computed, 2, "span variants must not alias");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_is_a_hard_ceiling_with_eviction_telemetry() {
        for capacity in [8usize, 13, 100] {
            let cache = DisplacementCache::new(capacity);
            let mut computed = 0;
            for d in 0..200 {
                get(&cache, &key(d), &mut computed);
            }
            assert!(cache.len() <= capacity, "len {} > capacity {capacity}", cache.len());
            assert!(cache.evictions() >= 200 - capacity as u64);
        }
    }

    #[test]
    fn zero_capacity_disables_the_store() {
        let cache = DisplacementCache::new(0);
        let mut computed = 0;
        get(&cache, &key(1), &mut computed);
        get(&cache, &key(1), &mut computed);
        assert_eq!(computed, 2, "disabled store always computes");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.hits(), 0);
    }
}
