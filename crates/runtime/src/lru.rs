//! The one bounded-map primitive every runtime tier builds on: a plain
//! single-threaded LRU, generic over key and value. `HashMap` for
//! lookup, an index-linked list through a slab of entries for recency
//! order; both `get` and `insert` are O(1).
//!
//! Shard-level locking, telemetry and policy live in [`crate::Memo`] —
//! this type is deliberately policy-free so one implementation (and one
//! test suite) backs every cache.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A single-threaded LRU map (one shard of a [`crate::Memo`]).
pub struct Lru<K, V> {
    map: HashMap<K, usize>,
    entries: Vec<Entry<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    pub fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.entries[i].prev, self.entries[i].next);
        match prev {
            NIL => self.head = next,
            p => self.entries[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.entries[i].prev = NIL;
        self.entries[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.entries[h].prev = i,
        }
        self.head = i;
    }

    /// Look up and mark most-recently-used.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = *self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(&self.entries[i].value)
    }

    /// Insert or refresh; returns `true` when a least-recently-used entry
    /// was evicted to make room.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.entries[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return false;
        }
        // The single clone point for a fresh key: the map and the slab
        // each need an owned copy, so one clone per new-key insert is the
        // floor — both branches below only *move* their copy.
        let slab_key = key.clone();
        let mut evicted = false;
        let i = if self.map.len() >= self.capacity {
            // Reuse the LRU slot in place of allocating a new one; the
            // displaced key comes *out* of the slot (no re-clone) just to
            // unmap it.
            let i = self.tail;
            self.unlink(i);
            let old = std::mem::replace(&mut self.entries[i].key, slab_key);
            self.map.remove(&old);
            self.entries[i].value = value;
            evicted = true;
            i
        } else {
            self.entries.push(Entry { key: slab_key, value, prev: NIL, next: NIL });
            self.entries.len() - 1
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Every entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|e| (&e.key, &e.value))
    }

    /// Keys in recency order, most recent first (test/diagnostic helper).
    pub fn keys_by_recency(&self) -> Vec<&K> {
        let mut keys = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            keys.push(&self.entries[i].key);
            i = self.entries[i].next;
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recency(lru: &Lru<String, u32>) -> Vec<&str> {
        lru.keys_by_recency().into_iter().map(String::as_str).collect()
    }

    #[test]
    fn evicts_least_recently_used_not_least_recently_inserted() {
        let mut lru: Lru<String, u32> = Lru::new(3);
        for (k, v) in [("a", 1u32), ("b", 2), ("c", 3)] {
            assert!(!lru.insert(k.into(), v));
        }
        // Touch `a`: recency becomes a, c, b.
        assert!(lru.get("a").is_some());
        assert_eq!(recency(&lru), ["a", "c", "b"]);
        // A fourth insert must evict `b`, the LRU — not `a`, the oldest.
        assert!(lru.insert("d".into(), 4));
        assert_eq!(lru.len(), 3);
        assert!(lru.get("b").is_none());
        assert_eq!(recency(&lru), ["d", "a", "c"]);
        // Re-inserting an existing key refreshes, never evicts.
        assert!(!lru.insert("c".into(), 33));
        assert_eq!(recency(&lru), ["c", "d", "a"]);
        assert_eq!(lru.get("c"), Some(&33));
    }

    /// A key that counts clones, so the insert paths can be audited.
    struct CountedKey {
        id: u64,
        clones: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl std::hash::Hash for CountedKey {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            self.id.hash(state);
        }
    }

    impl PartialEq for CountedKey {
        fn eq(&self, other: &Self) -> bool {
            self.id == other.id
        }
    }

    impl Eq for CountedKey {}

    impl Clone for CountedKey {
        fn clone(&self) -> Self {
            self.clones.set(self.clones.get() + 1);
            CountedKey { id: self.id, clones: std::rc::Rc::clone(&self.clones) }
        }
    }

    #[test]
    fn insert_clones_the_key_exactly_once_on_every_path() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let key = |id: u64| CountedKey { id, clones: std::rc::Rc::clone(&clones) };

        let mut lru: Lru<CountedKey, u64> = Lru::new(2);
        // Growth path: map + slab each own a copy — one clone.
        assert!(!lru.insert(key(1), 10));
        assert_eq!(clones.get(), 1);
        assert!(!lru.insert(key(2), 20));
        assert_eq!(clones.get(), 2);
        // Eviction path: the displaced key moves out of the slot and the
        // new key moves in — still exactly one clone, no re-clone of
        // either key.
        assert!(lru.insert(key(3), 30));
        assert_eq!(clones.get(), 3);
        // Refresh path: the key already lives in the map — zero clones
        // (constructing the argument key above is not a clone).
        assert!(!lru.insert(key(3), 33));
        assert_eq!(clones.get(), 3, "refreshing an existing key must not clone");
        assert_eq!(lru.get(&key(3)), Some(&33));
        assert_eq!(clones.get(), 3, "get never clones");
    }

    /// Reference model: a `HashMap` for values plus a `VecDeque` in
    /// recency order (front = most recent). O(n) everywhere — obviously
    /// correct, and exactly what the slab/linked-list `Lru` must match.
    struct ModelLru {
        map: std::collections::HashMap<u64, u64>,
        recency: std::collections::VecDeque<u64>,
        capacity: usize,
    }

    impl ModelLru {
        fn new(capacity: usize) -> Self {
            ModelLru {
                map: std::collections::HashMap::new(),
                recency: std::collections::VecDeque::new(),
                capacity: capacity.max(1),
            }
        }

        fn touch(&mut self, key: u64) {
            self.recency.retain(|&k| k != key);
            self.recency.push_front(key);
        }

        fn get(&mut self, key: u64) -> Option<u64> {
            let v = *self.map.get(&key)?;
            self.touch(key);
            Some(v)
        }

        fn insert(&mut self, key: u64, value: u64) -> bool {
            if self.map.insert(key, value).is_some() {
                self.touch(key);
                return false;
            }
            let mut evicted = false;
            if self.map.len() > self.capacity {
                let lru = self.recency.pop_back().expect("over capacity ⇒ nonempty");
                self.map.remove(&lru);
                evicted = true;
            }
            self.recency.push_front(key);
            evicted
        }
    }

    #[test]
    fn model_based_random_trace_matches_the_reference() {
        // Deterministic xorshift so failures replay; small key universes
        // force constant collision/refresh/eviction traffic.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (capacity, universe) in [(1usize, 3u64), (2, 3), (3, 8), (7, 10), (16, 12), (8, 64)] {
            let mut lru: Lru<u64, u64> = Lru::new(capacity);
            let mut model = ModelLru::new(capacity);
            for step in 0..4_000u64 {
                let r = next();
                let key = r % universe;
                if r & 1 == 0 {
                    let got = lru.get(&key).copied();
                    let want = model.get(key);
                    assert_eq!(got, want, "get({key}) diverged at step {step} (cap {capacity})");
                } else {
                    let value = step;
                    let evicted = lru.insert(key, value);
                    let model_evicted = model.insert(key, value);
                    assert_eq!(
                        evicted, model_evicted,
                        "insert({key}) eviction diverged at step {step} (cap {capacity})"
                    );
                }
                assert_eq!(lru.len(), model.map.len(), "len diverged at step {step}");
                let order: Vec<u64> = lru.keys_by_recency().into_iter().copied().collect();
                let want: Vec<u64> = model.recency.iter().copied().collect();
                assert_eq!(order, want, "recency order diverged at step {step} (cap {capacity})");
            }
        }
    }

    #[test]
    fn non_string_keys_work() {
        let mut lru: Lru<(i64, i64), &'static str> = Lru::new(2);
        lru.insert((1, 2), "x");
        lru.insert((3, 4), "y");
        assert_eq!(lru.get(&(1, 2)), Some(&"x"));
        assert!(lru.insert((5, 6), "z"), "capacity 2 must evict");
        assert!(lru.get(&(3, 4)).is_none(), "(3,4) was the LRU");
        assert_eq!(lru.len(), 2);
    }
}
