//! # rtt-budget — cooperative resource metering for every solver layer
//!
//! The serving engine (`rtt_engine`) admits requests that carry
//! resource budgets: a pivot cap for the simplex loops, a
//! combinatorial-work cap for the SP-DP merge loop and the exact
//! search, an event cap for the Observation 1.1 simulation, a
//! wall-clock deadline, and a queue-depth bound. Enforcement has to be
//! *cooperative and mid-solve* — the long loops live in `rtt_lp`,
//! `rtt_core`, and `rtt_sim`, crates that sit **below** the engine in
//! the dependency order and must not know about requests, policies, or
//! reports. This crate is the seam: a [`BudgetMeter`] carries hard
//! limits, monotone consumption counters, and an optional absolute
//! deadline; the compute loops charge it periodically and bail out with
//! a typed [`Exhausted`] error; the engine alone interprets that error
//! against the request's `ExhaustionPolicy` (reject / degrade / warn —
//! see `rtt_engine::budget`).
//!
//! Counter-based dimensions are **deterministic**: the loops charge
//! them at deterministic points, so whether a request exhausts — and
//! the exact `consumed` value it reports — is independent of thread
//! count and machine speed. The wall-clock deadline is the one
//! intentionally *non*-deterministic dimension, and the engine keeps it
//! off the byte-stable wire for exactly that reason (same contract as
//! `deadline_ms` today).
//!
//! A meter without limits never exhausts and costs one relaxed atomic
//! add per charge, so the metered code paths are also the unmetered
//! ones — there is no separate "fast path" to drift out of sync.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A meterable budget dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dimension {
    /// Wall-clock time from enqueue (non-deterministic by nature; the
    /// engine maps it onto its existing `deadline-expired` status).
    WallClock,
    /// Simplex pivots and bound flips, across every LP the request
    /// solves (the revised *and* flat engines charge it).
    LpPivots,
    /// Combinatorial solver work: SP-DP merge steps and exact-search
    /// nodes both charge this dimension — the same unification as the
    /// wire format's `work` counter.
    DpMergeSteps,
    /// Events of the Observation 1.1 certification simulation.
    SimEvents,
    /// Requests queued ahead at enqueue (engine-side admission only;
    /// nothing charges it through a meter).
    QueueDepth,
}

impl Dimension {
    /// Stable wire/diagnostic name of the dimension.
    pub fn as_str(self) -> &'static str {
        match self {
            Dimension::WallClock => "wall_clock",
            Dimension::LpPivots => "lp_pivots",
            Dimension::DpMergeSteps => "dp_merge_steps",
            Dimension::SimEvents => "sim_events",
            Dimension::QueueDepth => "queue_depth",
        }
    }
}

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Typed mid-solve budget-exhaustion error: which dimension ran out,
/// its limit, and the consumption at the moment the loop gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    /// The dimension that ran out.
    pub dimension: Dimension,
    /// The installed limit (0 for the limitless wall-clock dimension,
    /// whose "limit" is an instant).
    pub limit: u64,
    /// Consumption when the loop bailed out (`> limit` for counters:
    /// the charge that crossed the line is included).
    pub consumed: u64,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dimension {
            Dimension::WallClock => write!(f, "budget exhausted: wall-clock deadline passed"),
            d => write!(
                f,
                "budget exhausted: {} {} > limit {}",
                d, self.consumed, self.limit
            ),
        }
    }
}

impl std::error::Error for Exhausted {}

/// Snapshot of a meter's consumption counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Consumed {
    /// Simplex pivots + bound flips charged so far.
    pub lp_pivots: u64,
    /// DP merge steps + exact-search nodes charged so far.
    pub dp_merge_steps: u64,
    /// Simulation events charged so far.
    pub sim_events: u64,
}

/// How often (in charges) the time-based checks run: counter charges
/// are relaxed atomic adds, but `Instant::now()` is a syscall-ish cost
/// the hot loops must not pay per pivot.
const TIME_CHECK_EVERY: u64 = 64;

/// Hard limits, monotone consumption counters, and an optional
/// absolute deadline — the object the engine threads down into every
/// compute loop.
///
/// Counters are cumulative across a request's whole solve (all LPs of
/// a sweep, every DP node, …), so a loop that restarts after an
/// exhaustion immediately re-exhausts on its first charge: the cap is a
/// cap on the *request*, not on any single loop.
#[derive(Debug, Default)]
pub struct BudgetMeter {
    lp_pivots: AtomicU64,
    dp_merge_steps: AtomicU64,
    sim_events: AtomicU64,
    lp_pivots_limit: Option<u64>,
    dp_merge_steps_limit: Option<u64>,
    sim_events_limit: Option<u64>,
    deadline: Option<Instant>,
    /// Charges since the last deadline check.
    ticks: AtomicU64,
}

impl BudgetMeter {
    /// A meter with no limits: counts, never exhausts.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A meter enforcing the given per-dimension hard limits (`None` =
    /// unlimited) and, if set, an absolute wall-clock deadline.
    pub fn with_limits(
        lp_pivots: Option<u64>,
        dp_merge_steps: Option<u64>,
        sim_events: Option<u64>,
        deadline: Option<Instant>,
    ) -> Self {
        BudgetMeter {
            lp_pivots_limit: lp_pivots,
            dp_merge_steps_limit: dp_merge_steps,
            sim_events_limit: sim_events,
            deadline,
            ..Self::default()
        }
    }

    /// Snapshot of the consumption counters.
    pub fn consumed(&self) -> Consumed {
        Consumed {
            lp_pivots: self.lp_pivots.load(Ordering::Relaxed),
            dp_merge_steps: self.dp_merge_steps.load(Ordering::Relaxed),
            sim_events: self.sim_events.load(Ordering::Relaxed),
        }
    }

    /// The installed limit for a counter dimension (`None` for
    /// unlimited or non-counter dimensions).
    pub fn limit(&self, dim: Dimension) -> Option<u64> {
        match dim {
            Dimension::LpPivots => self.lp_pivots_limit,
            Dimension::DpMergeSteps => self.dp_merge_steps_limit,
            Dimension::SimEvents => self.sim_events_limit,
            _ => None,
        }
    }

    /// The deadline check every charge funnels through (the clock is
    /// read only every [`TIME_CHECK_EVERY`] charges).
    #[inline]
    fn periodic(&self) -> Result<(), Exhausted> {
        if let Some(deadline) = self.deadline {
            let t = self.ticks.fetch_add(1, Ordering::Relaxed);
            if t.is_multiple_of(TIME_CHECK_EVERY) && Instant::now() >= deadline {
                return Err(Exhausted {
                    dimension: Dimension::WallClock,
                    limit: 0,
                    consumed: 0,
                });
            }
        }
        Ok(())
    }

    #[inline]
    fn charge(
        counter: &AtomicU64,
        limit: Option<u64>,
        dim: Dimension,
        n: u64,
    ) -> Result<u64, Exhausted> {
        let consumed = counter.fetch_add(n, Ordering::Relaxed) + n;
        match limit {
            Some(limit) if consumed > limit => Err(Exhausted {
                dimension: dim,
                limit,
                consumed,
            }),
            _ => Ok(consumed),
        }
    }

    /// Charges `n` simplex pivots/bound flips.
    #[inline]
    pub fn charge_lp_pivots(&self, n: u64) -> Result<(), Exhausted> {
        self.periodic()?;
        Self::charge(
            &self.lp_pivots,
            self.lp_pivots_limit,
            Dimension::LpPivots,
            n,
        )
        .map(|_| ())
    }

    /// Charges `n` units of combinatorial solver work (DP merge steps,
    /// exact-search nodes).
    #[inline]
    pub fn charge_merge_steps(&self, n: u64) -> Result<(), Exhausted> {
        self.periodic()?;
        Self::charge(
            &self.dp_merge_steps,
            self.dp_merge_steps_limit,
            Dimension::DpMergeSteps,
            n,
        )
        .map(|_| ())
    }

    /// Charges `n` simulation events.
    #[inline]
    pub fn charge_sim_events(&self, n: u64) -> Result<(), Exhausted> {
        self.periodic()?;
        Self::charge(
            &self.sim_events,
            self.sim_events_limit,
            Dimension::SimEvents,
            n,
        )
        .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_meter_counts_and_never_exhausts() {
        let m = BudgetMeter::unlimited();
        for _ in 0..1000 {
            m.charge_lp_pivots(2).unwrap();
            m.charge_merge_steps(3).unwrap();
            m.charge_sim_events(5).unwrap();
        }
        let c = m.consumed();
        assert_eq!(
            (c.lp_pivots, c.dp_merge_steps, c.sim_events),
            (2000, 3000, 5000)
        );
    }

    #[test]
    fn counter_limits_exhaust_with_the_crossing_charge_included() {
        let m = BudgetMeter::with_limits(Some(10), None, None, None);
        for _ in 0..10 {
            m.charge_lp_pivots(1).unwrap();
        }
        let e = m.charge_lp_pivots(4).unwrap_err();
        assert_eq!(e.dimension, Dimension::LpPivots);
        assert_eq!(e.limit, 10);
        assert_eq!(e.consumed, 14);
        // cumulative: a restarted loop immediately re-exhausts
        assert!(m.charge_lp_pivots(1).is_err());
        // other dimensions stay open
        m.charge_merge_steps(1).unwrap();
    }

    #[test]
    fn past_deadline_exhausts_wall_clock() {
        let m = BudgetMeter::with_limits(
            None,
            None,
            None,
            Some(Instant::now() - Duration::from_millis(1)),
        );
        // tick 0 of the periodic schedule checks the clock immediately
        let e = m.charge_lp_pivots(1).unwrap_err();
        assert_eq!(e.dimension, Dimension::WallClock);
    }

    #[test]
    fn display_is_structured() {
        let e = Exhausted {
            dimension: Dimension::DpMergeSteps,
            limit: 5,
            consumed: 9,
        };
        assert_eq!(
            e.to_string(),
            "budget exhausted: dp_merge_steps 9 > limit 5"
        );
    }
}
