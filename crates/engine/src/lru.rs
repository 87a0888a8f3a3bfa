//! The one deterministic LRU behind both engine caches
//! ([`crate::PrepCache`] and [`crate::ReuseCache`]'s solution tier).
//!
//! Entries are stamped with a logical access tick, never a wall clock,
//! and the eviction victim is the least `(stamp, key)`: the key
//! tiebreak keeps eviction deterministic even if two entries ever
//! carried the same stamp, so a deterministic access sequence always
//! leaves the same residents.

use std::collections::HashMap;

/// A capacity-bounded map with deterministic least-recently-used
/// eviction (see the module docs).
#[derive(Debug)]
pub(crate) struct Lru<V> {
    /// Entries with the tick of their last access.
    pub(crate) map: HashMap<String, (V, u64)>,
    tick: u64,
    cap: usize,
}

impl<V> Default for Lru<V> {
    /// An unbounded map.
    fn default() -> Self {
        Self::new(usize::MAX)
    }
}

impl<V> Lru<V> {
    /// A map holding at most `cap` entries (`0` counts as 1).
    pub(crate) fn new(cap: usize) -> Self {
        Lru {
            map: HashMap::new(),
            tick: 0,
            cap: cap.max(1),
        }
    }

    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The value under `key`, refreshing its stamp.
    pub(crate) fn get(&mut self, key: &str) -> Option<&V> {
        let tick = self.touch();
        self.map.get_mut(key).map(|(v, last)| {
            *last = tick;
            &*v
        })
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-used
    /// entries while the map is over capacity. Returns the evicted
    /// values, in eviction order. The inserted entry carries the newest
    /// stamp, so it is never its own victim (an over-capacity map holds
    /// at least two entries).
    pub(crate) fn insert(&mut self, key: String, value: V) -> Vec<V> {
        let tick = self.touch();
        self.map.insert(key, (value, tick));
        let mut evicted = Vec::new();
        while self.map.len() > self.cap {
            let victim = self
                .map
                .iter()
                .map(|(k, (_, last))| (*last, k))
                .min()
                .map(|(_, k)| k.clone())
                .expect("an over-capacity map is non-empty");
            evicted.extend(self.map.remove(&victim).map(|(v, _)| v));
        }
        evicted
    }
}
