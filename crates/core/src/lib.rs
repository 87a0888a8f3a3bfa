//! # rtt-core — the discrete resource-time tradeoff with reuse over paths
//!
//! This crate implements the primary contribution of the SPAA '19 paper
//! *"Data Races and the Discrete Resource-time Tradeoff Problem with
//! Resource Reuse over Paths"* (Das, Tsai, Duppala, Lynch, Arkin,
//! Chowdhury, Mitchell, Skiena):
//!
//! Given a DAG whose vertices are jobs with non-increasing duration
//! functions `t_v(r)`, route `B` units of a reusable resource along
//! source→sink paths — every unit may speed up *multiple* jobs along its
//! path — to minimize the makespan ([`solve_bicriteria`] and the
//! solvers below), or conversely use the fewest units to meet a
//! makespan target ([`min_resource`]).
//!
//! ## Pipeline (§3.1)
//!
//! 1. [`Instance`] (activity on *nodes*, the natural race-DAG form) is
//!    reduced to an [`ArcInstance`] (activity on *arcs*) —
//!    [`transform::to_arc_form`];
//! 2. arcs with `l ≥ 2` resource-time tuples are expanded into `l`
//!    parallel two-edge chains with at most two tuples each
//!    ([`transform::expand_two_tuples`], Figures 6–7, Lemma 3.1);
//! 3. the relaxed problem is the linear program **LP 6–10** over flow
//!    variables `f_e` and event times `T_v` ([`lp_build`]), solved with
//!    `rtt-lp`;
//! 4. durations are α-rounded and the integral resource routing is
//!    recovered with a lower-bounded **min-flow** ([`rounding`],
//!    LP 11–13, via `rtt-flow`).
//!
//! Each LP-rounding theorem is a rounding of the LP's solution: a pure
//! function of its [`lp_build::FractionalSolution`]
//! ([`bicriteria_round_prepped`] for Theorem 3.4, [`FamilyRounding`]
//! for Theorems 3.9, 3.10 and 3.16, and
//! [`regimes::noreuse_round_prepped`] without reuse). Only the LP can
//! run long, so the LP solve is the only metered stage of these
//! answers: [`lp_build::solve_min_makespan_lp`] and
//! [`lp_build::solve_min_resource_lp`] take an optional
//! `rtt_budget::BudgetMeter`, and a budget sweep meters its one LP chain
//! ([`MakespanLp::solve_sweep_metered`]).
//!
//! ## Solvers
//!
//! | function | guarantee | paper |
//! |---|---|---|
//! | [`solve_bicriteria`] | (1/α, 1/(1−α)) bi-criteria | Thm 3.4 |
//! | [`solve_kway_5approx`] | makespan ≤ 5·OPT, budget kept | Thm 3.9 |
//! | [`solve_recbinary_4approx`] | makespan ≤ 4·OPT, budget kept | Thm 3.10 |
//! | [`solve_recbinary_improved`] | (4/3, 14/5) bi-criteria | Thm 3.16 |
//! | [`sp_dp::solve_sp_exact`] | exact, O(mB), SP DAGs | §3.4 |
//! | [`exact::solve_exact`] | exact, exponential (reference) | — |
//!
//! Every solver above returns a [`Solution`] whose resource routing is
//! a certified integral flow; [`solution::validate`] re-derives the
//! makespan from the flow and checks conservation and the budget. The
//! regime baselines in [`regimes`] answer in their own forms: a
//! [`NoReuseSolution`] of dedicated levels (Question 1.1, checked by
//! [`regimes::validate_noreuse`]) and a [`GlobalSchedule`] on a shared
//! pool (Question 1.2, checked by [`verify_global_schedule`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod fingerprint;
pub mod from_race;
pub mod instance;
pub mod lp_build;
pub mod regimes;
pub mod rounding;
pub mod solution;
pub mod solvers;
pub mod sp_dp;
pub mod transform;

pub use fingerprint::{
    canonical_form, fingerprint, CanonicalForm, Fingerprint, CANONICAL_FORM_TAG,
};
pub use from_race::{instance_from_program, instance_from_race_dag, FromRaceError, ReducerFamily};
pub use instance::{Activity, ArcInstance, Instance, InstanceError, Job};
pub use lp_build::MakespanLp;
pub use regimes::{
    compare_regimes, global_reuse_schedule, solve_noreuse_bicriteria, solve_noreuse_exact,
    verify_global_schedule, GlobalPolicy, GlobalSchedule, NoReuseSolution, RegimeComparison,
};
pub use solution::{routing_plan, validate, Route, RoutingPlan, Solution, ValidationError};
pub use solvers::{
    bicriteria_round_prepped, min_resource, solve_bicriteria, solve_kway_5approx,
    solve_recbinary_4approx, solve_recbinary_improved, ApproxSolution, FamilyRounding, SolveError,
};
pub use transform::{expand_two_tuples, to_arc_form, TwoTupleInstance};

pub use rtt_duration::{Duration, Resource, Time, INF};
