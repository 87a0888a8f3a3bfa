//! # rtt-engine — the serving layer of the resource-time tradeoff repo
//!
//! Every algorithm in this repository — the §3.1–§3.3 LP-rounding
//! approximations, the §3.4 series-parallel DP, exhaustive search, and
//! the §1 regime baselines — used to be a differently-shaped free
//! function that each consumer re-dispatched by hand. This crate puts
//! them behind one seam:
//!
//! * [`Solver`] — the uniform trait: `name()`, `supports()`, and
//!   `solve(&SolveRequest, &BudgetContext) -> SolveReport`;
//! * [`Registry`] — every registered algorithm, addressable by name and
//!   enumerable (`rtt_cli`'s `--solver` dispatch and the batch `all`
//!   fan-out both walk it);
//! * [`PreparedInstance`] / [`PrepCache`] — per-instance preprocessing
//!   (two-tuple expansion, SP decomposition, canonical form)
//!   computed once and shared by every solver that needs it;
//! * [`run_batch`] — a fixed thread pool over the `crossbeam` channel
//!   shim that drains a request queue, enforces per-request deadlines,
//!   and returns reports in request order, so batch output is
//!   independent of the thread count;
//! * [`ReuseCache`] — opt-in cross-request reuse under the "cost,
//!   never bytes" contract: whole re-certified report vectors keyed by
//!   canonical fingerprint (serves the batch wire, single solves and
//!   sweeps alike, and survives restarts via the `rtt-cache-v1` spill
//!   format in [`persist`]; see [`reuse`]).
//!
//! The free functions in `rtt_core` remain the algorithmic ground
//! truth; the trait impls here are thin adapters (one of them, the
//! family roundings, registered three times with different parameters,
//! and one exact search over both cost regimes). Every solved report
//! reaches the wire through **one path** (see [`solver`]): one builder
//! fills its makespan, budget used and solution form from a solver's
//! answer; one per-form check validates that solution analytically (a
//! routed flow, no-reuse levels, or a global-pool schedule) and ties
//! the report's fields to it; and `certify::attach` expands the form
//! into its reducer gadgets and replays it on `rtt_sim`'s event-heap
//! engine, which must finish within the reported makespan (Observation
//! 1.1, [`certify`]; the replay's cost scales with the expansion's
//! event count, not its makespan). Fresh solves, sweep points and
//! solution-tier replays all take it. New scaling work (sharding, async
//! serving, alternative backends) plugs in behind [`Solver`] without
//! touching the layers above.
//!
//! ```
//! use rtt_engine::{PrepCache, Registry, SolveRequest, run_batch};
//! # use rtt_core::instance::Activity;
//! # use rtt_duration::Duration;
//! # let mut g: rtt_dag::Dag<(), Activity> = rtt_dag::Dag::new();
//! # let s = g.add_node(());
//! # let t = g.add_node(());
//! # g.add_edge(s, t, Activity::new(Duration::two_point(10, 4, 0))).unwrap();
//! # let arc = rtt_core::ArcInstance::new(g).unwrap();
//! let registry = Registry::standard();
//! let cache = PrepCache::new();
//! let prep = cache.get_or_insert("doc-instance", || arc);
//! let reqs = vec![SolveRequest::min_makespan("q1", prep, 4)];
//! let out = run_batch(&registry, reqs, 4);
//! assert!(out.reports.iter().all(|r| r.makespan.is_some()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod budget;
pub mod certify;
pub mod curve;
pub mod executor;
pub mod fixtures;
mod lru;
pub mod persist;
pub mod prep;
pub mod registry;
pub mod request;
pub mod reuse;
pub mod solver;

pub use admission::{lint_request, lint_requests};
pub use budget::{
    BudgetContext, BudgetLimits, BudgetPolicies, BudgetReport, BudgetSpec, ExhaustionPolicy,
};
pub use certify::{
    certify_noreuse, certify_schedule, certify_solution, expand_levels, SimCertificate,
    SIM_EVENT_GUARD,
};
pub use curve::execute_sweep_wire;
pub use executor::{
    execute_one, execute_one_cached_at, run_batch, run_batch_cached, BatchOutcome, BatchStats,
};
pub use persist::{PersistError, CACHE_FORMAT_TAG};
pub use prep::{CacheStats, PrepCache, PreparedInstance};
pub use registry::{canonical_name, Registry};
pub use request::{Objective, SolveReport, SolveRequest, SolverSelection, Status};
pub use reuse::{ReuseCache, ReuseStats};
pub use solver::{Capability, SolutionForm, Solver};
