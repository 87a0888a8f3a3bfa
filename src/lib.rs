//! # resource-time-tradeoff
//!
//! A comprehensive Rust implementation of *"Data Races and the Discrete
//! Resource-time Tradeoff Problem with Resource Reuse over Paths"*
//! (Das, Tsai, Duppala, Lynch, Arkin, Chowdhury, Mitchell, Skiena;
//! SPAA 2019): given a DAG of jobs with non-increasing duration
//! functions, route `B` units of a reusable resource along source→sink
//! paths — every unit may expedite *all* the jobs on its path — to
//! minimize the makespan, or meet a makespan target with the least
//! resource.
//!
//! This facade re-exports the workspace crates; see each for the full
//! API ([`core`], [`engine`], [`dag`], [`duration`], [`lp`], [`flow`],
//! [`sim`], [`reducer`], [`race`], [`hardness`]).
//!
//! ## From a racy program to an optimal reducer placement
//!
//! ```
//! use resource_time_tradeoff::core::{Instance, routing_plan, validate};
//! use resource_time_tradeoff::core::transform::to_arc_form;
//! use resource_time_tradeoff::core::exact::solve_exact;
//! use resource_time_tradeoff::dag::Dag;
//! use resource_time_tradeoff::duration::Duration;
//!
//! // a hot cell receiving 64 racy updates, then feeding a consumer
//! // that itself receives 16: the race DAG D(P) of §1
//! let mut g: Dag<(), ()> = Dag::new();
//! let s = g.add_node(());
//! let hot = g.add_node(());
//! let consumer = g.add_node(());
//! g.add_parallel_edges(s, hot, (), 64).unwrap();
//! g.add_parallel_edges(hot, consumer, (), 16).unwrap();
//!
//! // w = in-degree; durations from Eq. 3 (recursive binary reducers)
//! let inst = Instance::race_dag(&g, Duration::recursive_binary).unwrap();
//! assert_eq!(inst.base_makespan(), 64 + 16);
//!
//! // reuse over paths: the same 8 units serve BOTH jobs, because the
//! // hot cell finishes before the consumer starts
//! let (arc, _) = to_arc_form(&inst);
//! let r = solve_exact(&arc, 8);
//! validate(&arc, &r.solution).unwrap();
//! assert_eq!(r.solution.makespan, (64 / 8 + 4) + (16 / 8 + 4));
//! assert!(r.solution.budget_used <= 8);
//!
//! // and the routing certificate shows the units flowing through both
//! let plan = routing_plan(&arc, &r.solution).unwrap();
//! assert_eq!(plan.total(), r.solution.budget_used);
//! ```
//!
//! ## The approximation pipeline (Theorem 3.4)
//!
//! ```
//! use resource_time_tradeoff::core::{Instance, solve_bicriteria, validate};
//! use resource_time_tradeoff::core::transform::to_arc_form;
//! use resource_time_tradeoff::dag::Dag;
//! use resource_time_tradeoff::duration::Duration;
//!
//! let mut g: Dag<(), ()> = Dag::new();
//! let (s, x, t) = (g.add_node(()), g.add_node(()), g.add_node(()));
//! g.add_parallel_edges(s, x, (), 64).unwrap();
//! g.add_edge(x, t, ()).unwrap();
//! let inst = Instance::race_dag(&g, Duration::recursive_binary).unwrap();
//! let (arc, _) = to_arc_form(&inst);
//!
//! // LP 6–10 → α-rounding → min-flow routing
//! let r = solve_bicriteria(&arc, 8, 0.5).unwrap();
//! validate(&arc, &r.solution).unwrap();
//! assert!(r.lp_makespan <= r.solution.makespan as f64 + 1e-9);
//! assert!(r.solution.budget_used <= 16, "≤ B/(1−α)");
//! ```
//!
//! ## The three reuse regimes of §1, measured
//!
//! ```
//! use resource_time_tradeoff::core::regimes::compare_regimes;
//! use resource_time_tradeoff::core::transform::to_arc_form;
//! use resource_time_tradeoff::core::{Instance, Job};
//! use resource_time_tradeoff::dag::Dag;
//! use resource_time_tradeoff::duration::Duration;
//!
//! // two serial stages, each 10 → 0 with 4 units
//! let mut g: Dag<Job, ()> = Dag::new();
//! let s = g.add_node(Job::new(Duration::zero()));
//! let a = g.add_node(Job::new(Duration::two_point(10, 4, 0)));
//! let b = g.add_node(Job::new(Duration::two_point(10, 4, 0)));
//! let t = g.add_node(Job::new(Duration::zero()));
//! g.add_edge(s, a, ()).unwrap();
//! g.add_edge(a, b, ()).unwrap();
//! g.add_edge(b, t, ()).unwrap();
//! let (arc, _) = to_arc_form(&Instance::new(g).unwrap());
//!
//! let c = compare_regimes(&arc, 4);
//! assert_eq!(c.path_reuse, 0, "4 units flow through both stages");
//! assert_eq!(c.noreuse, 10, "dedicated allocations fix only one");
//! ```

#![forbid(unsafe_code)]

pub use rtt_analyze as analyze;
pub use rtt_core as core;
pub use rtt_dag as dag;
pub use rtt_duration as duration;
pub use rtt_engine as engine;
pub use rtt_flow as flow;
pub use rtt_hardness as hardness;
pub use rtt_lp as lp;
pub use rtt_race as race;
pub use rtt_reducer as reducer;
pub use rtt_sim as sim;
