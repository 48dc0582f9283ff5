//! The one concurrent memo every runtime cache is built from: [`Lru`]
//! shards behind their own locks, plus hit, miss and eviction counters
//! for `/metrics`.
//!
//! Sharding: a memo shards only when each shard keeps ≥ 32 entries, so
//! hot keys colliding on one shard cannot thrash a near-empty cache —
//! `(capacity / 32).clamp(1, 8)` shards whose capacities sum to exactly
//! `capacity`, so the configured bound is a hard ceiling. Keys are placed
//! by the unkeyed `DefaultHasher`, which is stable across runs
//! (replay-friendly). Eviction is per shard. Capacity 0 disables the
//! memo: lookups miss and inserts drop.
//!
//! What a memo keeps is decided once per value type by [`Stored`]:
//! outcomes are kept timing-stripped, displacement sets flat.

use crate::lru::Lru;
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The form a [`Memo`] keeps a value in.
pub trait Stored {
    /// What callers insert and get back.
    type Value;
    /// The stored form of `value`.
    fn store(value: &Self::Value) -> Self;
    /// The caller's copy of a stored value.
    fn load(&self) -> Self::Value;
}

/// A memo's counters, as `/metrics` renders them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub entries: usize,
    pub capacity: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// Thread-safe sharded LRU memo from `K` to the stored form `S`.
pub struct Memo<K, S> {
    shards: Box<[Mutex<Lru<K, S>>]>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, S: Stored> Memo<K, S> {
    pub fn new(capacity: usize) -> Self {
        let shard_count = (capacity / 32).clamp(1, 8);
        let (base, rem) = (capacity / shard_count, capacity % shard_count);
        Memo {
            shards: (0..shard_count)
                .map(|i| Mutex::new(Lru::new(base + usize::from(i < rem))))
                .collect(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> MutexGuard<'_, Lru<K, S>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let i = (h.finish() % self.shards.len() as u64) as usize;
        self.shards[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up `key`, counting the hit or miss.
    pub fn get<Q>(&self, key: &Q) -> Option<S::Value>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let found = match self.capacity {
            0 => None,
            _ => self.shard(key).get(key).map(S::load),
        };
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Store `value` under `key`, replacing any earlier entry.
    pub fn insert(&self, key: K, value: &S::Value) {
        if self.capacity == 0 {
            return;
        }
        let stored = S::store(value);
        if self.shard(&key).insert(key, stored) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
                .sum(),
            capacity: self.capacity,
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Stored for u64 {
        type Value = u64;
        fn store(value: &u64) -> u64 {
            *value
        }
        fn load(&self) -> u64 {
            *self
        }
    }

    #[test]
    fn capacity_is_a_hard_ceiling_with_eviction_telemetry() {
        for capacity in [8usize, 13, 100] {
            let memo: Memo<u64, u64> = Memo::new(capacity);
            for k in 0..200 {
                memo.insert(k, &k);
            }
            let stats = memo.stats();
            assert!(stats.entries <= capacity, "{} entries > capacity {capacity}", stats.entries);
            assert!(stats.evictions >= 200 - capacity as u64);
        }
    }

    #[test]
    fn zero_capacity_disables_the_store() {
        let memo: Memo<u64, u64> = Memo::new(0);
        memo.insert(1, &1);
        assert_eq!(memo.get(&1), None, "a disabled memo never answers");
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.capacity, stats.hits, stats.misses), (0, 0, 0, 1));
    }
}
