//! The uniform request/report types every solver speaks.

use crate::prep::PreparedInstance;
use rtt_core::{GlobalSchedule, NoReuseSolution, Solution};
use rtt_duration::{Resource, Time};
use std::sync::Arc;
use std::time::Duration as StdDuration;

/// What a request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the makespan under a resource budget `B` (§3 problems).
    MinMakespan {
        /// The resource budget.
        budget: Resource,
    },
    /// Minimize the resource subject to a makespan target `T`.
    MinResource {
        /// The makespan target.
        target: Time,
    },
    /// The resource-time **tradeoff curve**: min-makespan at every
    /// budget of a grid, solved as one warm-started LP chain (the
    /// revised engine dual-reoptimizes each point from the previous
    /// basis). Produces one report per budget, in grid order. On the
    /// batch NDJSON wire as the `budgets` request field: the executor
    /// answers each wire sweep with a **self-contained** chain (crash
    /// start, then per-point delta reoptimization), so its pivot
    /// counts are a pure function of the request line and the report
    /// bytes stay independent of scheduling and of cache state.
    /// `rtt curve` is the interactive front end for the same service.
    MakespanSweep {
        /// The budget grid, in the order points should be solved and
        /// reported.
        budgets: Vec<Resource>,
    },
}

/// Which registered solvers a request should run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverSelection {
    /// One solver, by registry name.
    Named(String),
    /// Every registered solver that [`supports`](crate::Solver::supports)
    /// the instance.
    All,
}

/// One unit of work for the engine: an instance (with shared
/// preprocessing), an objective, and execution knobs.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Caller-chosen identifier, echoed in every report.
    pub id: String,
    /// The instance, deduplicated/shared via [`crate::PrepCache`].
    pub prepared: Arc<PreparedInstance>,
    /// What to optimize.
    pub objective: Objective,
    /// Rounding parameter for the bi-criteria pipelines (§3.1's α).
    pub alpha: f64,
    /// Which solver(s) to run.
    pub solver: SolverSelection,
    /// Per-request deadline, measured from enqueue time. A request
    /// still queued when its deadline passes is reported as
    /// [`Status::DeadlineExpired`] without running — and, when the
    /// request also declares a [`SolveRequest::budget`], the deadline is
    /// additionally enforced *mid-solve* through the budget meter.
    pub deadline: Option<StdDuration>,
    /// Seed echoed into reports (reserved for randomized solvers; every
    /// current solver is deterministic).
    pub seed: u64,
    /// Resource budget (per-dimension limits + exhaustion policies).
    /// `None` — the default and every constructor's choice — runs the
    /// pre-budget engine behavior byte for byte.
    pub budget: Option<crate::budget::BudgetSpec>,
    /// Intra-solve thread count for the deterministic parallel paths
    /// (`rtt_par`): chunked LP pricing, subtree-parallel SP-DP, sharded
    /// certification replay. `None` defers to the ambient resolution
    /// (enclosing `rtt_par::with_threads` scope, else the
    /// `RTT_SOLVE_THREADS` environment variable, else serial). Purely an
    /// execution knob: reports and wire bytes are identical at every
    /// value — only the wall clock moves.
    pub intra_threads: Option<usize>,
}

impl SolveRequest {
    /// A minimum-makespan request with the common defaults
    /// (α = 0.5, no deadline, seed 0, all supporting solvers).
    pub fn min_makespan(
        id: impl Into<String>,
        prepared: Arc<PreparedInstance>,
        budget: Resource,
    ) -> Self {
        SolveRequest {
            id: id.into(),
            prepared,
            objective: Objective::MinMakespan { budget },
            alpha: 0.5,
            solver: SolverSelection::All,
            deadline: None,
            seed: 0,
            budget: None,
            intra_threads: None,
        }
    }

    /// Same defaults for a minimum-resource request.
    pub fn min_resource(
        id: impl Into<String>,
        prepared: Arc<PreparedInstance>,
        target: Time,
    ) -> Self {
        SolveRequest {
            id: id.into(),
            prepared,
            objective: Objective::MinResource { target },
            alpha: 0.5,
            solver: SolverSelection::All,
            deadline: None,
            seed: 0,
            budget: None,
            intra_threads: None,
        }
    }

    /// A tradeoff-curve request: min-makespan at every budget of
    /// `budgets`, solved by the bicriteria pipeline as one warm-started
    /// LP chain (α = 0.5, no deadline, seed 0).
    pub fn sweep(
        id: impl Into<String>,
        prepared: Arc<PreparedInstance>,
        budgets: Vec<Resource>,
    ) -> Self {
        SolveRequest {
            id: id.into(),
            prepared,
            objective: Objective::MakespanSweep { budgets },
            alpha: 0.5,
            solver: SolverSelection::Named("bicriteria".into()),
            deadline: None,
            seed: 0,
            budget: None,
            intra_threads: None,
        }
    }

    /// Selects a single solver by name.
    pub fn with_solver(mut self, name: impl Into<String>) -> Self {
        self.solver = SolverSelection::Named(name.into());
        self
    }
}

/// Terminal state of one (request, solver) execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// The solver produced (and internally certified) a result.
    Solved,
    /// The solver does not apply to this instance or objective.
    Unsupported,
    /// The objective is unreachable (e.g. a makespan target below the
    /// ideal makespan).
    Infeasible,
    /// The request's deadline passed before the solver started.
    DeadlineExpired,
    /// A declared resource budget ran out mid-solve under the
    /// hard-reject policy (or degrade with no fallback); the structured
    /// reason is in [`SolveReport::exhausted`].
    BudgetExhausted,
    /// The solver panicked; the executor isolated it and reported the
    /// panic payload in [`SolveReport::detail`] instead of killing the
    /// batch.
    Failed,
}

impl Status {
    /// Stable lowercase wire name (used by the NDJSON batch format).
    pub fn as_str(&self) -> &'static str {
        match self {
            Status::Solved => "solved",
            Status::Unsupported => "unsupported",
            Status::Infeasible => "infeasible",
            Status::DeadlineExpired => "deadline-expired",
            Status::BudgetExhausted => "budget-exhausted",
            Status::Failed => "failed",
        }
    }
}

/// The uniform answer: solution + certificates + execution counters.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Echo of [`SolveRequest::id`].
    pub id: String,
    /// Registry name of the solver that produced this report.
    pub solver: &'static str,
    /// Terminal state.
    pub status: Status,
    /// Human-readable detail for non-[`Status::Solved`] reports.
    pub detail: String,
    /// Achieved makespan.
    pub makespan: Option<Time>,
    /// Resource consumed (routed flow value, Σ levels, or peak pool
    /// usage, per the solver's regime).
    pub budget_used: Option<Resource>,
    /// LP lower bound on the optimal makespan, when the pipeline
    /// computes one.
    pub lp_makespan: Option<f64>,
    /// LP resource usage / lower bound, when computed.
    pub lp_budget: Option<f64>,
    /// Certified factor on the makespan (`makespan ≤ factor · OPT`);
    /// `1.0` for exact solvers, absent for heuristics.
    pub makespan_factor: Option<f64>,
    /// Certified factor on the resource, same conventions.
    pub resource_factor: Option<f64>,
    /// The routed integral solution, for solvers in the paper's
    /// reuse-over-paths regime (the regime baselines carry their own
    /// forms below instead).
    pub solution: Option<Solution>,
    /// The dedicated-allocation solution, for the no-reuse (Q1.1)
    /// solvers — validated by `validate_noreuse` and replayed for the
    /// simulation certificate like every other form.
    pub noreuse: Option<NoReuseSolution>,
    /// The global-pool schedule, for the global-reuse (Q1.2) solver —
    /// verified by `verify_global_schedule` and replayed
    /// schedule-granularly for the simulation certificate.
    pub schedule: Option<GlobalSchedule>,
    /// Solver-specific work counter (simplex pivots, search nodes, DP
    /// cells — see each solver's docs).
    pub work: u64,
    /// LP engine dimensions and pivot phase split, for pipelines that
    /// solved an LP ([`rtt_lp::LpStats`]). Diagnostics only — like the
    /// wall-clock fields it stays **off** the batch wire format.
    pub lp_stats: Option<rtt_lp::LpStats>,
    /// Simulation-backed certificate (Observation 1.1): the solution's
    /// reducer expansion — routed flows, dedicated no-reuse levels, or
    /// the schedule-granular global-pool replay, per the solver's
    /// regime — was executed by `rtt_sim`'s event engine and finished
    /// within the reported makespan. Present on **every** solved report
    /// of every registry pipeline (absent only for skipped simulations:
    /// infinite durations, or expansions past
    /// [`crate::certify::SIM_EVENT_GUARD`]). Deterministic, so its
    /// `simulated` tick is part of the NDJSON wire format
    /// (`sim_makespan`).
    pub sim: Option<crate::certify::SimCertificate>,
    /// Wall-clock time of the solve call itself.
    pub wall: StdDuration,
    /// Time the request spent queued before the solve started.
    pub queue_wait: StdDuration,
    /// Budget consumed/declared/flagged, present exactly when the
    /// request declared a [`crate::budget::BudgetSpec`]. Counter
    /// dimensions are deterministic, so this block is part of the
    /// byte-stable wire format.
    pub budget: Option<crate::budget::BudgetReport>,
    /// When the degrade policy fell back, the registry name of the
    /// solver that originally exhausted (the report's `solver` is the
    /// fallback that actually answered).
    pub degraded_from: Option<&'static str>,
    /// The structured exhaustion that terminated the solve, for
    /// [`Status::BudgetExhausted`] reports.
    pub exhausted: Option<rtt_budget::Exhausted>,
    /// Whether this report came from an isolated solver panic
    /// ([`Status::Failed`]).
    pub panicked: bool,
    /// For per-point reports of a [`Objective::MakespanSweep`] request,
    /// the grid budget this point was solved at — `None` on every other
    /// report, which keeps the non-sweep wire format byte-identical.
    /// The batch renderer dispatches on this field to emit the
    /// curve-point line form instead of the solver-report form.
    pub sweep_budget: Option<Resource>,
}

impl SolveReport {
    /// A report skeleton with the given status and no solution fields —
    /// the base both failure reports and (to-be-filled) solved reports
    /// start from.
    pub fn new(
        id: impl Into<String>,
        solver: &'static str,
        status: Status,
        detail: impl Into<String>,
    ) -> Self {
        SolveReport {
            id: id.into(),
            solver,
            status,
            detail: detail.into(),
            makespan: None,
            budget_used: None,
            lp_makespan: None,
            lp_budget: None,
            makespan_factor: None,
            resource_factor: None,
            solution: None,
            noreuse: None,
            schedule: None,
            work: 0,
            lp_stats: None,
            sim: None,
            wall: StdDuration::ZERO,
            queue_wait: StdDuration::ZERO,
            budget: None,
            degraded_from: None,
            exhausted: None,
            panicked: false,
            sweep_budget: None,
        }
    }
}
