//! The crate's one bounded LRU map, behind both of its caches:
//! [`crate::sigcache::CachedVerifier`]'s per-signature verdicts and
//! [`crate::proofstore::ProofResolver`]'s proof handles.

// bgla-lint: allow(determinism, "keyed cache: lookups only; eviction sorts by unique tick, so hash order is never observed")
use std::collections::HashMap;
use std::hash::Hash;

/// A bounded map with least-recently-used eviction. When full, the
/// least-recently-touched quarter is dropped in one amortized sweep, so
/// a flood of distinct keys cannot grow the map without bound.
#[derive(Debug)]
pub(crate) struct LruMap<K: Eq + Hash, V> {
    // bgla-lint: allow(determinism, "keyed cache: lookups only; eviction sorts by unique tick, so hash order is never observed")
    map: HashMap<K, (V, u64)>,
    tick: u64,
    cap: usize,
}

impl<K: Eq + Hash, V: Clone> LruMap<K, V> {
    /// Map with room for `cap` entries.
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0, "cache capacity must be positive");
        LruMap {
            // bgla-lint: allow(determinism, "keyed cache: lookups only; eviction sorts by unique tick, so hash order is never observed")
            map: HashMap::with_capacity(cap + cap / 4),
            tick: 0,
            cap,
        }
    }

    /// Cached value for `key`, refreshing its recency.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.1 = tick;
            e.0.clone()
        })
    }

    /// Cached value for `key`, leaving its recency alone.
    pub(crate) fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Stores a value, evicting the least-recently-used quarter of the
    /// map when full.
    pub(crate) fn put(&mut self, key: K, value: V) {
        self.tick += 1;
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            let mut ticks: Vec<u64> = self.map.values().map(|(_, t)| *t).collect();
            ticks.sort_unstable();
            let cutoff = ticks[ticks.len() / 4];
            self.map.retain(|_, (_, t)| *t > cutoff);
        }
        self.map.insert(key, (value, self.tick));
    }

    /// Number of cached entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// All entries, least-recently-used first. Re-inserting them in
    /// this order into a fresh map reproduces the recency ordering —
    /// which is how the proof resolver serializes itself into a
    /// durable snapshot without disturbing eviction behavior.
    pub(crate) fn entries_by_recency(&self) -> Vec<(&K, &V)> {
        let mut entries: Vec<(&K, &(V, u64))> = self.map.iter().collect();
        entries.sort_by_key(|(_, (_, tick))| *tick);
        entries.into_iter().map(|(k, (v, _))| (k, v)).collect()
    }
}
