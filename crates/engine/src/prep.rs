//! Shared per-instance preprocessing.
//!
//! Every solver pipeline starts from the same derived artifacts of an
//! [`ArcInstance`]: the two-tuple expansion `D''` (§3.1, consumed by
//! every LP-based solver) and the series-parallel decomposition tree
//! (§3.4). A [`PreparedInstance`] computes each of them **once**,
//! lazily, behind [`OnceLock`]s, so any number of solvers — on any
//! number of executor threads — share one copy.
//!
//! [`PrepCache`] deduplicates `PreparedInstance`s across *requests*: a
//! batch that asks five solvers three budgets each about one instance
//! performs one expansion and one decomposition, not fifteen.
//!
//! A prepared instance holds no solve state: every LP 6–10 solve, a
//! sweep's chain included, builds its LP from `D''` and drops it when
//! it returns.

use crate::lru::Lru;
use rtt_core::transform::expand_two_tuples;
use rtt_core::{ArcInstance, CanonicalForm, TwoTupleInstance};
use rtt_dag::sp::{decompose, SpTree};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// An instance plus its lazily computed, shareable preprocessing.
#[derive(Debug)]
pub struct PreparedInstance {
    arc: ArcInstance,
    tt: OnceLock<TwoTupleInstance>,
    sp: OnceLock<Option<SpTree>>,
    canonical: OnceLock<CanonicalForm>,
    /// Times a component accessor found its artifact already computed.
    reuses: AtomicU64,
    /// Times a component accessor had to compute its artifact.
    computes: AtomicU64,
}

impl PreparedInstance {
    /// Wraps an instance with empty (not-yet-computed) preprocessing.
    pub fn new(arc: ArcInstance) -> Self {
        PreparedInstance {
            arc,
            tt: OnceLock::new(),
            sp: OnceLock::new(),
            canonical: OnceLock::new(),
            reuses: AtomicU64::new(0),
            computes: AtomicU64::new(0),
        }
    }

    /// The underlying instance.
    pub fn arc(&self) -> &ArcInstance {
        &self.arc
    }

    fn track<'a, T>(&self, cell: &'a OnceLock<T>, compute: impl FnOnce() -> T) -> &'a T {
        if let Some(v) = cell.get() {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        // under a race, only one closure's result is kept; counting both
        // as computes slightly over-reports, which is the honest side
        self.computes.fetch_add(1, Ordering::Relaxed);
        cell.get_or_init(compute)
    }

    /// The two-tuple expansion `D''`, computed on first use.
    pub fn tt(&self) -> &TwoTupleInstance {
        self.track(&self.tt, || expand_two_tuples(&self.arc))
    }

    /// The series-parallel decomposition tree, or `None` if the
    /// instance is not two-terminal series-parallel. Computed on first
    /// use.
    pub fn sp_tree(&self) -> Option<&SpTree> {
        self.track(&self.sp, || {
            decompose(self.arc.dag(), self.arc.source(), self.arc.sink())
        })
        .as_ref()
    }

    /// The instance's canonical form ([`rtt_core::canonical_form`]):
    /// the relabeling-invariant key string plus its fingerprint digest,
    /// computed on first use. This is what the cross-request
    /// [`crate::reuse::ReuseCache`] keys on, so two requests carrying
    /// byte-different but structurally identical instances land on the
    /// same cache line.
    pub fn canonical(&self) -> &CanonicalForm {
        self.track(&self.canonical, || rtt_core::canonical_form(&self.arc))
    }

    /// `(reuses, computes)` of the lazy artifacts so far.
    pub fn prep_counters(&self) -> (u64, u64) {
        (
            self.reuses.load(Ordering::Relaxed),
            self.computes.load(Ordering::Relaxed),
        )
    }
}

/// Hit/miss statistics of a [`PrepCache`] (instance-level) plus the
/// aggregated artifact-level counters of its entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests that found their instance already prepared.
    pub instance_hits: u64,
    /// Requests that inserted a fresh instance.
    pub instance_misses: u64,
    /// Artifact accesses that reused an already-computed artifact.
    pub artifact_reuses: u64,
    /// Artifact accesses that computed the artifact.
    pub artifact_computes: u64,
    /// Entries evicted to stay within the cache's capacity bound.
    pub evicted: u64,
}

impl CacheStats {
    /// Instance-level hit rate in `[0, 1]` (0 when empty).
    pub fn instance_hit_rate(&self) -> f64 {
        let total = self.instance_hits + self.instance_misses;
        if total == 0 {
            0.0
        } else {
            self.instance_hits as f64 / total as f64
        }
    }

    /// Artifact-level reuse rate in `[0, 1]` (0 when empty).
    pub fn artifact_reuse_rate(&self) -> f64 {
        let total = self.artifact_reuses + self.artifact_computes;
        if total == 0 {
            0.0
        } else {
            self.artifact_reuses as f64 / total as f64
        }
    }
}

/// Deduplicates [`PreparedInstance`]s by a caller-chosen key —
/// typically the canonical serialization of the instance itself. The
/// full key is stored and compared (not a hash of it), so distinct
/// instances can never silently share an entry. Thread-safe;
/// handed-out entries are `Arc`s, so they stay valid however long
/// requests keep them — eviction drops the cache's reference, never
/// the instance under a live request.
///
/// # Capacity and eviction
///
/// [`PrepCache::with_capacity`] bounds the number of resident entries;
/// inserting past the bound evicts the least-recently-used entry (the
/// engine's one deterministic LRU, `crate::lru`: ties broken by key, so
/// eviction order is deterministic for a deterministic access
/// sequence). Eviction snapshots the victim's artifact counters into
/// the cache-wide totals first, so [`PrepCache::stats`] never goes
/// backwards. Like every cache in this
/// workspace, eviction changes **cost, never bytes**: a re-requested
/// evicted instance is simply prepared again.
#[derive(Debug, Default)]
pub struct PrepCache {
    entries: Mutex<Lru<Arc<PreparedInstance>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
    /// Artifact counters inherited from evicted entries.
    dead_reuses: AtomicU64,
    dead_computes: AtomicU64,
}

impl PrepCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` prepared instances
    /// (`0` is treated as 1 — a cache that can hold nothing would turn
    /// every request into a miss while still paying the lock).
    pub fn with_capacity(capacity: usize) -> Self {
        PrepCache {
            entries: Mutex::new(Lru::new(capacity)),
            ..Self::default()
        }
    }

    /// Returns the cached instance for `key`, if present (counts a
    /// hit and refreshes the entry's LRU stamp; a `None` is not
    /// counted — pair with [`PrepCache::get_or_insert`], which records
    /// the miss).
    pub fn get(&self, key: &str) -> Option<Arc<PreparedInstance>> {
        let hit = self
            .entries
            .lock()
            .expect("prep cache poisoned")
            .get(key)
            .map(Arc::clone);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Returns the prepared instance for `key`, building it with
    /// `build` on first sight of the key. May evict the
    /// least-recently-used entry on insert if the cache is at capacity.
    pub fn get_or_insert(
        &self,
        key: &str,
        build: impl FnOnce() -> ArcInstance,
    ) -> Arc<PreparedInstance> {
        let mut entries = self.entries.lock().expect("prep cache poisoned");
        if let Some(hit) = entries.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let prep = Arc::new(PreparedInstance::new(build()));
        for dead in entries.insert(key.to_string(), Arc::clone(&prep)) {
            let (r, c) = dead.prep_counters();
            self.dead_reuses.fetch_add(r, Ordering::Relaxed);
            self.dead_computes.fetch_add(c, Ordering::Relaxed);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        prep
    }

    /// Number of distinct instances currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("prep cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cache statistics, including the artifact
    /// counters aggregated over all cached entries (plus those
    /// snapshotted from evicted ones).
    pub fn stats(&self) -> CacheStats {
        let mut reuses = self.dead_reuses.load(Ordering::Relaxed);
        let mut computes = self.dead_computes.load(Ordering::Relaxed);
        for (prep, _) in self
            .entries
            .lock()
            .expect("prep cache poisoned")
            .map
            .values()
        {
            let (r, c) = prep.prep_counters();
            reuses += r;
            computes += c;
        }
        CacheStats {
            instance_hits: self.hits.load(Ordering::Relaxed),
            instance_misses: self.misses.load(Ordering::Relaxed),
            artifact_reuses: reuses,
            artifact_computes: computes,
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_core::instance::Activity;
    use rtt_dag::Dag;
    use rtt_duration::Duration;

    fn tiny() -> ArcInstance {
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, Activity::new(Duration::two_point(5, 2, 1)))
            .unwrap();
        ArcInstance::new(g).unwrap()
    }

    #[test]
    fn artifacts_compute_once_and_reuse() {
        let prep = PreparedInstance::new(tiny());
        assert_eq!(prep.prep_counters(), (0, 0));
        let m1 = prep.tt().dag.edge_count();
        let m2 = prep.tt().dag.edge_count();
        assert_eq!(m1, m2);
        assert!(prep.sp_tree().is_some());
        let (reuses, computes) = prep.prep_counters();
        assert_eq!(computes, 2, "tt, sp each computed once");
        assert_eq!(reuses, 1, "second tt() call reused");
    }

    #[test]
    fn cache_dedupes_by_key() {
        let cache = PrepCache::new();
        let a = cache.get_or_insert("k7", tiny);
        let b = cache.get_or_insert("k7", || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.get_or_insert("k8", tiny);
        assert!(!Arc::ptr_eq(&a, &c));
        let stats = cache.stats();
        assert_eq!(stats.instance_hits, 1);
        assert_eq!(stats.instance_misses, 2);
        assert_eq!(stats.evicted, 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = PrepCache::with_capacity(2);
        cache.get_or_insert("a", tiny);
        cache.get_or_insert("b", tiny);
        // touch "a" so "b" becomes the LRU victim
        assert!(cache.get("a").is_some());
        cache.get_or_insert("c", tiny);
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b").is_none(), "b was least recently used");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().evicted, 1);
    }

    #[test]
    fn eviction_keeps_artifact_counters() {
        let cache = PrepCache::with_capacity(1);
        let a = cache.get_or_insert("a", tiny);
        a.tt();
        a.tt(); // one compute, one reuse on the soon-victim
        cache.get_or_insert("b", tiny); // evicts "a"
        let stats = cache.stats();
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.artifact_computes, 1, "snapshotted from evicted entry");
        assert_eq!(stats.artifact_reuses, 1);
        // the evicted Arc stays valid for its holder
        let fresh = expand_two_tuples(a.arc());
        assert_eq!(a.tt().dag.edge_count(), fresh.dag.edge_count());
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let keys = ["k0", "k1", "k2", "k3"];
        let survivors = |order: &[usize]| -> Vec<String> {
            let cache = PrepCache::with_capacity(2);
            for &i in order {
                cache.get_or_insert(keys[i], tiny);
            }
            let mut left: Vec<String> = keys
                .iter()
                .filter(|k| cache.get(k).is_some())
                .map(|k| k.to_string())
                .collect();
            left.sort();
            left
        };
        assert_eq!(
            survivors(&[0, 1, 2, 3]),
            survivors(&[0, 1, 2, 3]),
            "same access sequence, same residents"
        );
        assert_eq!(survivors(&[0, 1, 2, 3]), vec!["k2", "k3"]);
    }

    #[test]
    fn canonical_is_memoized_and_relabeling_invariant() {
        let prep = PreparedInstance::new(tiny());
        let c1 = prep.canonical().digest;
        let c2 = prep.canonical().digest;
        assert_eq!(c1, c2);
        assert_eq!(c1, rtt_core::fingerprint(prep.arc()));
    }
}
