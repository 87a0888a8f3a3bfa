//! # rtt-flow — integer network flows for resource routing
//!
//! The rounding step of the paper's approximation pipeline (§3.1) ends
//! with a *min-flow* computation: after LP rounding fixes an integral
//! resource requirement `f'_e` at every edge, the total budget actually
//! needed is the minimum s–t flow subject to the lower bounds `f_e ≥ f'_e`
//! (LP 11–13). The paper invokes "min-flow has integral optimality"; this
//! crate supplies the combinatorial machinery behind that sentence:
//!
//! * [`max_flow`] — Dinic's algorithm (BFS level graph + blocking DFS);
//! * [`min_cut`] — the certifying cut for max-flow;
//! * [`min_flow`] — minimum s–t flow with per-edge lower bounds, via the
//!   classical transformation (feasible flow with a super source/sink,
//!   then cancel backwards flow with a t→s max-flow in the residual);
//! * [`UncappedDag`] and [`MinFlowWitness`] — the same minimum, kept
//!   incrementally over an uncapped DAG while lower bounds rise one
//!   edge at a time: a raise the witness already carries is free, any
//!   other pushes the shortfall along fixed routes and cancels with
//!   t→s augmenting paths (the exact search's routed cost, one raise
//!   per search node);
//! * [`decompose_paths`] — decomposition of an integral DAG flow into
//!   source→sink paths, i.e. the actual *routes the resource units take*
//!   (Question 1.3's "every unit of space flows along a source to sink
//!   path").
//!
//! The crate is index-based (`usize` nodes, edge lists) and free of
//! dependencies; `rtt-core` adapts it to `rtt-dag` graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dinic;
mod lower;
mod paths;

pub use dinic::{max_flow, min_cut, Dinic, MaxFlowResult};
pub use lower::{min_flow, BoundedEdge, MinFlowResult, MinFlowWitness, UncappedDag};
pub use paths::{decompose_paths, FlowPath};

/// The capacity of an uncapped edge. Flows are `u64`, so it caps
/// nothing a flow can carry, and an uncapped edge takes any `u64` lower
/// bound; wherever several flows add up (excesses, conservation, totals)
/// the sum is taken in `i128`/`u128` or saturates.
pub const CAP_INF: u64 = u64::MAX;
