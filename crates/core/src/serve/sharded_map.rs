//! A striped concurrent map with hit/miss accounting.
//!
//! The serving path looks the same few shapes up on every request from
//! every worker thread, so a single global `Mutex<HashMap>` would become
//! the one serialization point in an otherwise embarrassingly parallel
//! engine. Striping the key space over independently locked shards keeps
//! lookups for *different* keys contention-free, and the hit/miss counters
//! (relaxed atomics, see [`sw_obs::Counter`]) give the observability layer
//! the cache hit-rate without touching any lock.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use sw_obs::Counter;

/// Shard count: a small power of two well above the worker parallelism the
/// simulated 4-CG chip ever drives.
const DEFAULT_SHARDS: usize = 16;

/// A hash map striped over independently locked shards, with hit/miss
/// counters suitable for cache-style use.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<parking_lot::Mutex<HashMap<K, V>>>,
    hits: Counter,
    misses: Counter,
}

impl<K: Hash + Eq + Clone, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards)
                .map(|_| parking_lot::Mutex::new(HashMap::new()))
                .collect(),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    fn shard(&self, key: &K) -> &parking_lot::Mutex<HashMap<K, V>> {
        // DefaultHasher with default keys is deterministic within a
        // process, which is all shard routing needs.
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look up `key`, counting a hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self.shard(key).lock().get(key).cloned();
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Cached lookup: on a miss, run `make` *outside* the shard lock and
    /// insert its result. Two racing misses may both compute; the first
    /// insert wins and the duplicate result is returned to its caller —
    /// acceptable for the deterministic, idempotent computations cached
    /// here (plan selection, tile pricing), and it keeps a multi-second
    /// simulated timing from blocking every other key in the shard.
    pub fn get_or_insert_with<E>(
        &self,
        key: &K,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(v) = self.get(key) {
            return Ok(v);
        }
        let v = make()?;
        let mut shard = self.shard(key).lock();
        Ok(shard.entry(key.clone()).or_insert(v).clone())
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Zero the hit/miss counters (e.g. after warmup) without dropping the
    /// cached entries.
    pub fn reset_counters(&self) {
        self.hits.reset();
        self.misses.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_or_insert_computes_once_per_key() {
        let m: ShardedMap<u32, u32> = ShardedMap::default();
        let v: Result<u32, ()> = m.get_or_insert_with(&7, || Ok(70));
        assert_eq!(v, Ok(70));
        let v: Result<u32, ()> = m.get_or_insert_with(&7, || panic!("cached"));
        assert_eq!(v, Ok(70));
        assert_eq!((m.hits(), m.misses()), (1, 1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let m: ShardedMap<u32, u32> = ShardedMap::default();
        assert_eq!(m.get_or_insert_with(&1, || Err("boom")), Err("boom"));
        assert_eq!(m.get_or_insert_with::<&str>(&1, || Ok(10)), Ok(10));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn counters_reset_without_dropping_entries() {
        let m: ShardedMap<u32, u32> = ShardedMap::new(4);
        for k in 0..10 {
            let _ = m.get_or_insert_with::<()>(&k, || Ok(k));
        }
        assert_eq!(m.misses(), 10);
        m.reset_counters();
        assert_eq!((m.hits(), m.misses()), (0, 0));
        assert_eq!(m.len(), 10);
        assert!(m.get(&3).is_some());
        assert!(m.hits() > 0 && m.misses() == 0);
    }

    #[test]
    fn concurrent_mixed_keys_stay_consistent() {
        let m: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::default());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let k = i % 16;
                        let v = m.get_or_insert_with::<()>(&k, || Ok(k * 2)).unwrap();
                        assert_eq!(v, k * 2, "thread {t}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 16);
        assert_eq!(m.hits() + m.misses(), 8 * 200);
        assert!(m.hits() * 10 > (m.hits() + m.misses()) * 9);
    }
}
