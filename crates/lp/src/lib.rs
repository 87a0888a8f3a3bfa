//! # rtt-lp — a from-scratch linear programming solver
//!
//! §3.1 of the paper formulates the relaxed resource-time tradeoff as the
//! linear program LP 6–10 (flow variables `f_e`, event times `T_v`,
//! minimize `T_t`). The paper treats the LP solver as an oracle; this
//! crate *is* that oracle: two two-phase simplex engines behind one
//! [`Problem`] model (`≤` / `=` / `≥` rows, per-variable upper bounds,
//! infeasibility/unboundedness certificates, deterministic behaviour).
//!
//! # Engine selection guide ([`Engine`])
//!
//! | engine | what it is | when to use it |
//! |---|---|---|
//! | [`Engine::Revised`] | sparse revised simplex ([`revised`]): CSC columns, **implicit upper bounds** (bound flips, no bound rows), eta-file basis updates with periodic refactorization, [`Basis`] warm starts | **the default** — fastest on the LP 6–10 network matrices, and the only engine that can warm-start budget sweeps |
//! | [`Engine::Flat`] | dense flat-tableau simplex ([`simplex.rs` module docs](crate::Engine)) | the one dense oracle: differential tests compare the revised engine against it, and a cold revised solve that fails numerically restarts into it (under Bland's rule) |
//!
//! Both engines run Dantzig pricing with a Bland's-rule fallback for
//! anti-cycling; every [`Solution`] carries an [`LpStats`] with its
//! matrix dimensions and pivot phase split.
//!
//! # Warm-start invariants
//!
//! A [`Basis`] returned by [`revised::solve_warm`] may be fed back only
//! to a problem of **identical shape**: same variables, same rows in
//! the same order with the same senses and coefficients — only
//! right-hand sides may change (LP 6–10 at a new budget). The engine
//! verifies the cheap invariants (dimensions, basic-set sanity, dual
//! feasibility) and, at the end, the solution against every row, and
//! silently falls back to a cold solve otherwise, so a stale basis can
//! cost time but never correctness.
//!
//! The solver is exact enough for the pipeline: every LP built by
//! `rtt-core` has integer input data, and the rounding scheme of §3.1
//! only needs duration values to a relative tolerance.
//!
//! ```
//! use rtt_lp::{Problem, Outcome};
//! // minimize x + 2y  s.t.  x + y >= 2, y <= 1, 0 <= x,y
//! let mut p = Problem::minimize(2);
//! p.set_objective(0, 1.0);
//! p.set_objective(1, 2.0);
//! p.add_ge(&[(0, 1.0), (1, 1.0)], 2.0);
//! p.set_upper_bound(1, 1.0);
//! match p.solve() {
//!     Outcome::Optimal(s) => {
//!         assert!((s.objective - 2.0).abs() < 1e-9); // x=2, y=0
//!     }
//!     other => panic!("{other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod problem;
pub mod revised;
mod simplex;
mod stats;

pub use problem::{Cmp, Problem, Row};
pub use revised::Basis;
pub use simplex::{Engine, Outcome, Solution};
pub use stats::{LpStats, WarmStart};

/// Default feasibility/optimality tolerance.
pub const TOL: f64 = 1e-8;
