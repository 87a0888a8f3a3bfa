//! Cross-request solution reuse: a concurrent, capacity-bounded LRU of
//! **solved reports**, shared across every worker of a
//! [`crate::run_batch_cached`] call (and across calls, if the caller
//! keeps the cache).
//!
//! # The contract: cost, never bytes
//!
//! The batch NDJSON wire format includes deterministic work counters
//! (`work`, the budget `consumed` block), so any reuse that changed
//! *how* an answer was computed would change bytes. The cache therefore
//! reuses only whole answers — one **solution tier**:
//!
//! Whole **report vectors**, keyed by `(canonical instance, objective,
//! alpha, seed, solver)`. Every solver in the registry is a
//! deterministic pure function of exactly that tuple, so replaying a
//! cached report is byte-identical to re-running the solver — including
//! `work` and `sim_makespan`. A single solve caches a one-report
//! vector; a `MakespanSweep` caches the whole per-point vector (the
//! grid is part of the key), which is how *wire* sweeps get
//! cross-request reuse while each chain stays crash-started. A hit
//! skips the solve but **re-runs the full analytic validation and
//! Observation 1.1 certify replay** against the requesting instance
//! before the report leaves the engine, so a reused result is exactly
//! as certified as a fresh one. Only unbudgeted, deadline-free requests
//! are eligible: a budgeted request's wire-visible `consumed` counters
//! describe *this run's* metered work, which a replay does not perform,
//! and a deadline's expiry is wall-clock state, not request content.
//!
//! Since PR 8 the tier also **survives restarts**: `rtt batch
//! --cache-save/--cache-load` spill and reload it through the versioned
//! `rtt-cache-v1` format ([`crate::persist`]). A loaded entry has no
//! donor instance (`CachedSolution::donor` is `None`), so its trust
//! rests on the full key-string comparison (which embeds the canonical
//! instance serialization) **plus** the same fresh re-validation +
//! re-certification every hit gets at serve time — a tampered or stale
//! entry panics the replay and is reported as a failed solve, never
//! silently served.
//!
//! Eviction (deterministic LRU: least `(stamp, key)` first) and
//! concurrent access order can change which entries are resident — that
//! too only moves work between "replayed" and "recomputed", with
//! byte-identical output either way, because every replay source is a
//! deterministic function of request content.
//!
//! # Collision discipline
//!
//! Like [`crate::PrepCache`], the tier stores and compares **full key
//! strings** (the canonical serialization plus request parameters), not
//! digests — and additionally requires pointer identity of the
//! [`PreparedInstance`] for entries that have one (in-process entries
//! do; disk-loaded entries fall back to the key comparison plus
//! serve-time re-verification). A hash collision costs a recomputation,
//! never a wrong answer.

use crate::prep::PreparedInstance;
use crate::request::{Objective, SolveReport, SolveRequest, Status};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters of one [`ReuseCache`] — reported on `rtt batch`'s stderr
/// stats line (never on the NDJSON wire).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Solution-tier hits: whole reports replayed (and re-certified)
    /// instead of re-solved.
    pub solution_hits: u64,
    /// Solution-tier misses (includes ineligible-donor misses).
    pub solution_misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Simplex pivots the solution tier did **not** execute: the sum of
    /// cached `work` counters over all hits. (The wire still reports
    /// the original `work` — bytes are identical; this counter is what
    /// the cache actually saved.)
    pub pivots_saved: u64,
}

/// A deterministic LRU map: entries stamped with a logical tick,
/// victim = least `(stamp, key)`.
#[derive(Debug)]
struct Lru<V> {
    map: HashMap<String, (V, u64)>,
    tick: u64,
    cap: usize,
}

impl<V> Lru<V> {
    fn new(cap: usize) -> Self {
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

    fn get_refreshed(&mut self, key: &str) -> Option<&V> {
        let tick = self.touch();
        self.map.get_mut(key).map(|(v, last)| {
            *last = tick;
            &*v
        })
    }

    /// Inserts, evicting least-recently-used entries past capacity.
    /// Returns how many were evicted.
    fn insert(&mut self, key: String, value: V) -> u64 {
        let tick = self.touch();
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = (value, tick);
            return 0;
        }
        let mut evicted = 0;
        while self.map.len() >= self.cap {
            let victim = self
                .map
                .iter()
                .map(|(k, (_, last))| (*last, k.clone()))
                .min()
                .expect("cap >= 1, map non-empty")
                .1;
            self.map.remove(&victim);
            evicted += 1;
        }
        self.map.insert(key, (value, tick));
        evicted
    }
}

/// A solution-tier entry: the report vector (one report for a single
/// solve, one per grid point for a sweep) plus the exact prepared
/// instance that produced it. In-process entries carry their donor and
/// are pointer-compared on hit (see the module docs on collision
/// discipline); entries loaded from a `rtt-cache-v1` spill have no
/// donor and rely on the key comparison + serve-time re-verification.
#[derive(Debug)]
struct CachedSolution {
    reports: Vec<SolveReport>,
    donor: Option<Arc<PreparedInstance>>,
}

/// The shared cross-request cache; see the module docs for the reuse
/// contract.
#[derive(Debug)]
pub struct ReuseCache {
    solutions: Mutex<Lru<Arc<CachedSolution>>>,
    solution_hits: AtomicU64,
    solution_misses: AtomicU64,
    evictions: AtomicU64,
    pivots_saved: AtomicU64,
}

impl ReuseCache {
    /// An empty cache holding at most `capacity` entries (`0` is
    /// treated as 1).
    pub fn new(capacity: usize) -> Self {
        ReuseCache {
            solutions: Mutex::new(Lru::new(capacity)),
            solution_hits: AtomicU64::new(0),
            solution_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            pivots_saved: AtomicU64::new(0),
        }
    }

    /// The solution-tier key for `(req, solver)`, or `None` when the
    /// request is ineligible (budgeted or deadlined — see the module
    /// docs for why). Sweeps are eligible: the whole budget grid is
    /// part of the key, so a hit replays the full per-point vector.
    pub fn solution_key(req: &SolveRequest, solver: &str) -> Option<String> {
        if req.budget.is_some() || req.deadline.is_some() {
            return None;
        }
        let obj = match &req.objective {
            Objective::MinMakespan { budget } => format!("mm:{budget}"),
            Objective::MinResource { target } => format!("mr:{target}"),
            Objective::MakespanSweep { budgets } => {
                let grid: Vec<String> = budgets.iter().map(|b| b.to_string()).collect();
                format!("sw:{}", grid.join(","))
            }
        };
        Some(format!(
            "sol-v1|{solver}|{obj}|a={:016x}|s={}|{}",
            req.alpha.to_bits(),
            req.seed,
            req.prepared.canonical().key,
        ))
    }

    /// Solution-tier probe: a clone of the cached report vector for
    /// `key`, or `None` (counted as one hit/miss per probe). The clones
    /// still carry the *donor's* id and certificate — [`crate::executor`]
    /// overwrites the id and re-runs the validation + certify replay on
    /// every report before it is released.
    pub fn lookup_solution(&self, key: &str, req: &SolveRequest) -> Option<Vec<SolveReport>> {
        let mut tier = self.solutions.lock().expect("solution tier poisoned");
        let hit = tier
            .get_refreshed(key)
            // pointer identity when a donor exists: replay only against
            // the instance that produced the report (canonical-keyed
            // PrepCaches make this hold for structural duplicates too).
            // Loaded entries have no donor; the key embeds the full
            // canonical serialization, and the serve-time re-verification
            // backstops it.
            .filter(|c| {
                c.donor
                    .as_ref()
                    .is_none_or(|d| Arc::ptr_eq(d, &req.prepared))
            })
            .map(|c| c.reports.clone());
        drop(tier);
        match &hit {
            Some(rs) => {
                self.solution_hits.fetch_add(1, Ordering::Relaxed);
                let saved: u64 = rs.iter().map(|r| r.work).sum();
                self.pivots_saved.fetch_add(saved, Ordering::Relaxed);
            }
            None => {
                self.solution_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        hit
    }

    /// Parks a freshly solved report vector in the solution tier. Only
    /// fully-[`Status::Solved`] vectors are worth the space (a sweep
    /// with any failed point is not replayable); callers pass the same
    /// `key` their probe used.
    pub fn store_solution(&self, key: String, req: &SolveRequest, reports: &[SolveReport]) {
        if reports.is_empty() || reports.iter().any(|r| r.status != Status::Solved) {
            return;
        }
        let entry = Arc::new(CachedSolution {
            reports: reports.to_vec(),
            donor: Some(Arc::clone(&req.prepared)),
        });
        let evicted = self
            .solutions
            .lock()
            .expect("solution tier poisoned")
            .insert(key, entry);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Installs a report vector loaded from a `rtt-cache-v1` spill
    /// ([`crate::persist`]): donor-less, so a future hit matches on the
    /// full key string alone and is re-verified at serve time (see the
    /// module docs' trust rule).
    pub fn insert_loaded(&self, key: String, reports: Vec<SolveReport>) {
        if reports.is_empty() {
            return;
        }
        let entry = Arc::new(CachedSolution {
            reports,
            donor: None,
        });
        let evicted = self
            .solutions
            .lock()
            .expect("solution tier poisoned")
            .insert(key, entry);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Every solution-tier entry as `(key, reports)`, sorted by key —
    /// the deterministic export [`crate::persist::save`] spills.
    pub fn export_solutions(&self) -> Vec<(String, Vec<SolveReport>)> {
        let tier = self.solutions.lock().expect("solution tier poisoned");
        let mut out: Vec<(String, Vec<SolveReport>)> = tier
            .map
            .iter()
            .map(|(k, (v, _))| (k.clone(), v.reports.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> ReuseStats {
        ReuseStats {
            solution_hits: self.solution_hits.load(Ordering::Relaxed),
            solution_misses: self.solution_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pivots_saved: self.pivots_saved.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_core::instance::Activity;
    use rtt_core::ArcInstance;
    use rtt_dag::Dag;
    use rtt_duration::Duration;

    fn diamond() -> ArcInstance {
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, Activity::new(Duration::two_point(5, 2, 1)))
            .unwrap();
        g.add_edge(s, b, Activity::new(Duration::two_point(9, 3, 2)))
            .unwrap();
        g.add_edge(a, t, Activity::new(Duration::constant(1)))
            .unwrap();
        g.add_edge(b, t, Activity::new(Duration::constant(2)))
            .unwrap();
        ArcInstance::new(g).unwrap()
    }

    #[test]
    fn lru_eviction_is_deterministic_and_counted() {
        let cache = ReuseCache::new(2);
        let mut tier = cache.solutions.lock().unwrap();
        for i in 0..4 {
            let dummy = Arc::new(CachedSolution {
                reports: vec![SolveReport::new("x", "bicriteria", Status::Solved, "")],
                donor: Some(Arc::new(PreparedInstance::new(diamond()))),
            });
            tier.insert(format!("k{i}"), dummy);
        }
        assert_eq!(tier.map.len(), 2);
        let mut left: Vec<_> = tier.map.keys().cloned().collect();
        left.sort();
        assert_eq!(left, vec!["k2", "k3"], "LRU evicts oldest first");
    }
}
