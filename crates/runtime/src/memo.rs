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
//! answers are kept as their timing-stripped JSON text, displacement sets
//! flat, body aliases as the canonical key they parse to.

use crate::lru::Lru;
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The form a [`Memo`] keeps a value in.
pub trait Stored: Sized {
    /// What callers insert and get back.
    type Value;
    /// The stored form of `value`; `None` when it has none, and the
    /// value is then not memoised.
    fn store(value: &Self::Value) -> Option<Self>;
    /// The caller's copy of a stored value; `None` when it cannot be read
    /// back, which [`Memo::get`] counts as a miss.
    fn load(&self) -> Option<Self::Value>;
}

/// Heap bytes a key or a stored value holds, for the `bytes` of a
/// `/metrics` cache section. Allocator and table overhead are left out.
pub trait Footprint {
    fn footprint(&self) -> usize;
}

impl Footprint for String {
    fn footprint(&self) -> usize {
        self.len()
    }
}

impl Footprint for Arc<str> {
    fn footprint(&self) -> usize {
        self.len()
    }
}

/// A memo's counters, as `/metrics` renders them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub entries: usize,
    pub capacity: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Heap bytes held: every key twice (the lookup table and the recency
    /// list each own a copy) plus every stored value.
    pub bytes: usize,
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

    /// Look up `key` and read the value back, counting the hit or miss.
    pub fn get<Q>(&self, key: &Q) -> Option<S::Value>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.lookup(key, S::load)
    }

    /// Look up `key` and hand back the stored form itself, counting the
    /// hit or miss.
    pub fn get_stored<Q>(&self, key: &Q) -> Option<S>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        S: Clone,
    {
        self.lookup(key, |stored| Some(stored.clone()))
    }

    fn lookup<Q, T>(&self, key: &Q, read: impl FnOnce(&S) -> Option<T>) -> Option<T>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let found = match self.capacity {
            0 => None,
            _ => self.shard(key).get(key).and_then(read),
        };
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Store `value` under `key`, replacing any earlier entry.
    pub fn insert(&self, key: K, value: &S::Value) {
        if let Some(stored) = S::store(value) {
            self.insert_stored(key, stored);
        }
    }

    /// Store an already stored form under `key`, replacing any earlier
    /// entry.
    pub fn insert_stored(&self, key: K, stored: S) {
        if self.capacity == 0 {
            return;
        }
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

    /// The counters, plus entries and bytes summed over the shards (one
    /// shard locked at a time).
    pub fn stats(&self) -> CacheStats
    where
        K: Footprint,
        S: Footprint,
    {
        let (mut entries, mut bytes) = (0, 0);
        for shard in self.shards.iter() {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            entries += shard.len();
            bytes += shard.iter().map(|(k, s)| 2 * k.footprint() + s.footprint()).sum::<usize>();
        }
        CacheStats {
            entries,
            capacity: self.capacity,
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Stored for u64 {
        type Value = u64;
        fn store(value: &u64) -> Option<u64> {
            Some(*value)
        }
        fn load(&self) -> Option<u64> {
            Some(*self)
        }
    }

    impl Footprint for u64 {
        fn footprint(&self) -> usize {
            8
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
        assert_eq!(stats.bytes, 0);
    }

    #[test]
    fn bytes_count_each_key_twice_and_each_value_once() {
        let memo: Memo<String, u64> = Memo::new(64);
        memo.insert("abc".to_string(), &1);
        memo.insert("de".to_string(), &2);
        assert_eq!(memo.stats().bytes, 2 * (3 + 2) + 2 * 8);
        memo.insert("abc".to_string(), &3);
        assert_eq!(memo.stats().bytes, 2 * (3 + 2) + 2 * 8, "a refresh replaces, never adds");
    }
}
