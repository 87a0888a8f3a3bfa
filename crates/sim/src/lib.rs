//! # rtt-sim — discrete-event execution of race DAGs
//!
//! The paper's model (§1–2) executes a race DAG `D(P)` on a parallel
//! machine: every memory cell `x` applies its `d_in(x)` incoming updates
//! one at a time (a lock and a wait queue serialize them), and the
//! updates along `x`'s outgoing edges trigger as soon as `x` is fully
//! updated. Observation 1.1 states the running time with unbounded
//! processors is *at most* the makespan of `D(P)`.
//!
//! Since PR 5 the crate is built around **one execution core**,
//! [`model::ExecModel`] — a unified model of work-aware cells (release
//! rules: per-update pipelining, gated bundles, zero-work junctions;
//! see the module docs for the contract) with two engines:
//!
//! * [`model::ExecModel::run_event`] — the binary-heap **event
//!   simulator**: completions pop off a min-heap, each cell advances a
//!   single-server recurrence, cost `O((V + E) log V)` — independent of
//!   the makespan, which is what lets the engine certify long-running
//!   schedules without a cost cap;
//! * [`model::ExecModel::run_ticks`] — the tick-loop baseline
//!   (Θ(makespan · V)), which serves bounded processor counts, where
//!   the greedy most-loaded-first choice is inherently per-tick (the
//!   differential proptests also pin it equal to the event engine on
//!   unbounded runs).
//!
//! [`model::ExecModel::run`] is the one processor dispatch between
//! them: [`exec::UNBOUNDED`] takes the event engine, any other count
//! the tick loop. Callers build the model they need and run it:
//!
//! * [`model::ExecModel::race_dag`] — the §1 race DAG (every cell's
//!   work is its in-degree); with unbounded processors the run
//!   reproduces and *refines* Observation 1.1 (staggered updates can
//!   pipeline, so the simulated time can beat the makespan bound);
//! * [`model::ExecModel::from_works`] — a DAG under an explicit work
//!   vector, such as a reducer-expanded solution the engine certifies;
//! * [`model::ExecModel::reducer`] — the Figure 2 binary reducer,
//!   validating `⌈n/2^h⌉ + h + 1` and its degradation when fewer than
//!   `2^h` processors are available;
//! * [`parallel_mm`] — the Parallel-MM motivating workload (Figure 3):
//!   the race DAG of the `Z[i][j] += X[i][k]·Y[k][j]` inner loop, the
//!   `Θ(n/2^h + h)` per-cell tradeoff, and budget sweeps with both the
//!   longest-path and the executed finish per point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod model;
pub mod parallel_mm;

pub use exec::{SimResult, UNBOUNDED};
pub use model::ExecModel;
