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
//! The store is a [`Memo`], so sharding, bounds and counters are the
//! same as for the outcome caches; capacity 0 disables it (every lookup
//! computes).
//!
//! Each set is stored flat — one boxed slice of equal-width vectors laid
//! end to end — and expanded into a fresh `Vec<Vec<i64>>` on a hit, so a
//! retained entry costs one allocation rather than one per vector.

use crate::memo::{Footprint, Memo, Stored};
use cme_core::{DisplacementKey, DisplacementProvider};
use std::sync::Arc;

/// One displacement set, stored flat: `count` vectors of `width` values.
pub struct FlatSet {
    width: usize,
    count: usize,
    values: Box<[i64]>,
}

impl Stored for FlatSet {
    type Value = Vec<Vec<i64>>;

    fn store(set: &Vec<Vec<i64>>) -> Option<Self> {
        let width = set.first().map_or(0, Vec::len);
        debug_assert!(set.iter().all(|v| v.len() == width), "displacements share one width");
        Some(FlatSet { width, count: set.len(), values: set.iter().flatten().copied().collect() })
    }

    fn load(&self) -> Option<Vec<Vec<i64>>> {
        Some(
            (0..self.count)
                .map(|i| self.values[i * self.width..(i + 1) * self.width].to_vec())
                .collect(),
        )
    }
}

impl Footprint for FlatSet {
    fn footprint(&self) -> usize {
        std::mem::size_of_val(&*self.values)
    }
}

impl Footprint for DisplacementKey {
    fn footprint(&self) -> usize {
        std::mem::size_of_val(&*self.coeffs) + std::mem::size_of_val(&*self.spans)
    }
}

/// Bounded sharded store of displacement sets, shared by every engine
/// the serve runtime builds. Implements [`DisplacementProvider`], the
/// seam `cme_core::EvalEngine` consults on local-memo misses.
pub type DisplacementCache = Memo<DisplacementKey, FlatSet>;

impl DisplacementProvider for DisplacementCache {
    /// Serve `key` from the store or compute (outside any lock) and
    /// retain the result. Every call returns its own copy of the set.
    /// Two threads racing on the same key compute the same deterministic
    /// value, so whichever inserts last stores an equal set.
    fn get_or_compute(
        &self,
        key: &DisplacementKey,
        compute: &mut dyn FnMut() -> Vec<Vec<i64>>,
    ) -> Arc<Vec<Vec<i64>>> {
        if let Some(hit) = self.get(key) {
            return Arc::new(hit);
        }
        let fresh = compute();
        self.insert(key.clone(), &fresh);
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
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn empty_and_zero_width_sets_round_trip() {
        for set in [Vec::new(), vec![Vec::new()]] {
            assert_eq!(FlatSet::store(&set).and_then(|flat| flat.load()), Some(set));
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
        assert_eq!(cache.stats().entries, 2);
    }
}
