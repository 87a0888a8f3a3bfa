//! The unified [`Solver`] trait and its implementations — one adapter
//! per algorithm the repo ships, all speaking [`SolveRequest`] /
//! [`SolveReport`].
//!
//! | registry name | algorithm | paper |
//! |---|---|---|
//! | `exact` | exhaustive search over canonical levels | — |
//! | `bicriteria` | (1/α, 1/(1−α)) LP rounding | Thm 3.4 |
//! | `kway` | 5-approx, k-way splitting | Thm 3.9 |
//! | `recbinary` | 4-approx, recursive binary | Thm 3.10 |
//! | `recbinary-improved` | (4/3, 14/5) bi-criteria | Thm 3.16 |
//! | `sp-dp` | exact `O(mB)` DP, SP DAGs | §3.4 |
//! | `noreuse-exact` | exact, no-reuse regime | Q1.1 |
//! | `noreuse-bicriteria` | LP rounding, no-reuse regime | Q1.1 |
//! | `global-greedy` | greedy list scheduling, global pool | Q1.2 |
//!
//! Every `Solved` report is internally certified before it is returned:
//! flow solutions pass [`rtt_core::validate`], no-reuse solutions pass
//! [`rtt_core::regimes::validate_noreuse`], and global schedules pass
//! [`rtt_core::verify_global_schedule`]. On top of the analytic checks,
//! the executor replays **every** form physically ([`crate::certify`]):
//! each solved report ships with the solution object its regime
//! produces ([`Solver::solution_form`] names it), and the engine
//! attaches an Observation 1.1 simulation certificate to all of them.
//! A certification failure is an engine bug and panics rather than
//! returning silently wrong data.

use crate::budget::BudgetContext;
use crate::request::{Objective, SolveRequest, SolveReport, Status};
use rtt_budget::Exhausted;
use rtt_core::regimes::{
    solve_noreuse_bicriteria_metered, solve_noreuse_exact_metered,
    solve_noreuse_exact_min_resource_metered, validate_noreuse,
};
use rtt_core::solvers::SolveError;
use rtt_core::sp_dp::{solve_sp_exact_with_tree_metered, solve_sp_tree_metered};
use rtt_core::lp_build::LpError;
use rtt_core::{
    validate, verify_global_schedule, ApproxSolution, ArcInstance, GlobalPolicy, Solution,
};
use rtt_duration::DurationKind;

/// Whether (and how well) a solver applies to an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capability {
    /// The solver handles this instance.
    Supported,
    /// The solver does not apply; the reason is reported verbatim.
    Unsupported(&'static str),
}

impl Capability {
    /// `true` for [`Capability::Supported`].
    pub fn is_supported(&self) -> bool {
        matches!(self, Capability::Supported)
    }
}

/// Which solution object a solver's solved reports carry — and hence
/// which replay the engine runs for the Observation 1.1 simulation
/// certificate. Every form is certified; the enum names what gets
/// expanded (`rtt solvers` prints it as the certified-output column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolutionForm {
    /// A routed integral flow ([`rtt_core::Solution`]) — the paper's
    /// reuse-over-paths regime; arcs expand at their routed flows.
    Routed,
    /// Dedicated per-arc levels ([`rtt_core::NoReuseSolution`], Q1.1);
    /// arcs expand at their dedicated levels.
    NoReuse,
    /// A timed pool schedule ([`rtt_core::GlobalSchedule`], Q1.2);
    /// arcs expand at the levels they held while scheduled.
    Schedule,
}

impl SolutionForm {
    /// Stable lowercase name (the `rtt solvers` column).
    pub fn as_str(&self) -> &'static str {
        match self {
            SolutionForm::Routed => "routed",
            SolutionForm::NoReuse => "noreuse",
            SolutionForm::Schedule => "schedule",
        }
    }
}

/// A uniform solver: every algorithm in the repo behind one interface.
///
/// Implementations must be deterministic for a fixed request (the batch
/// executor's byte-stability guarantee rests on it) and thread-safe
/// (`Send + Sync`): one registry instance serves every executor thread.
pub trait Solver: Send + Sync {
    /// Stable registry name (lowercase, dash-separated).
    fn name(&self) -> &'static str;

    /// Whether this solver applies to `arc`. This is the *fan-out
    /// gate*: `--solver all` runs only solvers that return
    /// [`Capability::Supported`]. It may also decline for cost reasons
    /// (e.g. exhaustive search on large instances); an explicitly
    /// *named* request still goes to `solve`, which must answer
    /// whenever the algorithm is defined — and return a clean
    /// [`Status::Unsupported`] report (never panic) when it is not.
    fn supports(&self, arc: &ArcInstance) -> Capability;

    /// [`Solver::supports`] with access to the shared preprocessing,
    /// so capability checks can reuse cached artifacts instead of
    /// recomputing them (the executor's `all` fan-out calls this).
    /// Defaults to delegating to [`Solver::supports`].
    fn supports_prepared(&self, prep: &crate::PreparedInstance) -> Capability {
        self.supports(prep.arc())
    }

    /// Executes the request. Never panics on unsupported input or
    /// infeasible objectives; those come back as statuses. `ctx` is the
    /// request's budget enforcement state: implementations thread
    /// [`BudgetContext::meter`] into their compute loops and surface a
    /// mid-solve [`rtt_budget::Exhausted`] as a
    /// [`Status::BudgetExhausted`] report (the executor applies the
    /// exhaustion policy on top). An unbudgeted request passes a
    /// meterless context, which runs the legacy behavior exactly.
    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport;

    /// The solution object this solver's solved reports carry (see
    /// [`SolutionForm`]); defaults to a routed flow. The executor
    /// replays whichever form is present for the simulation
    /// certificate, so overriding this is documentation — the report
    /// fields are what drive the replay.
    fn solution_form(&self) -> SolutionForm {
        SolutionForm::Routed
    }
}

/// Exhaustive search explodes past this many improvable jobs; the
/// exact solvers decline `--solver all` fan-out above it (an explicitly
/// named request still runs, however long it takes — the caller asked).
pub const EXACT_JOB_CAP: usize = 10;

/// `sp-dp` sizes each DP table `budget + 1` cells wide, so it caps the
/// budget axis here: a min-makespan budget, or the saturation budget a
/// min-resource sweep runs to. Above it the solver answers
/// `unsupported` instead of asking the allocator for the table.
const SP_BUDGET_CAP: u64 = 1 << 20;

/// A solved-status skeleton the adapters fill in field by field.
fn report_skeleton(req: &SolveRequest, solver: &'static str) -> SolveReport {
    SolveReport::new(req.id.clone(), solver, Status::Solved, "")
}

/// Fills a report from a certified [`ApproxSolution`].
fn report_approx(req: &SolveRequest, solver: &'static str, a: ApproxSolution) -> SolveReport {
    validate(req.prepared.arc(), &a.solution).expect("solver produced an invalid solution");
    let mut r = report_skeleton(req, solver);
    r.makespan = Some(a.solution.makespan);
    r.budget_used = Some(a.solution.budget_used);
    r.lp_makespan = Some(a.lp_makespan);
    r.lp_budget = Some(a.lp_budget);
    r.makespan_factor = Some(a.makespan_factor);
    r.resource_factor = Some(a.resource_factor);
    r.work = a.lp_pivots as u64;
    r.lp_stats = Some(a.lp_stats);
    r.solution = Some(a.solution);
    r
}

/// The failure report for a mid-solve budget exhaustion: the
/// structured reason rides on the report so the executor can apply the
/// request's exhaustion policy (reject as-is, or dispatch the degrade
/// fallback) without re-parsing the detail string.
pub(crate) fn report_exhausted(
    req: &SolveRequest,
    solver: &'static str,
    e: Exhausted,
) -> SolveReport {
    let mut r = SolveReport::new(req.id.clone(), solver, Status::BudgetExhausted, e.to_string());
    r.exhausted = Some(e);
    r
}

fn report_lp_failure(req: &SolveRequest, solver: &'static str, e: SolveError) -> SolveReport {
    let status = match &e {
        SolveError::Lp(LpError::Infeasible) => Status::Infeasible,
        // an unbounded relaxation is a modelling bug, not a property of
        // the request — report it as the solver declining, loudly
        SolveError::Lp(LpError::Unbounded) => Status::Unsupported,
        SolveError::Lp(LpError::Exhausted(e)) => return report_exhausted(req, solver, *e),
        SolveError::WrongFamily(_) => Status::Unsupported,
    };
    SolveReport::new(req.id.clone(), solver, status, e.to_string())
}

fn unsupported_objective(req: &SolveRequest, solver: &'static str) -> SolveReport {
    SolveReport::new(
        req.id.clone(),
        solver,
        Status::Unsupported,
        "this solver only handles the min-makespan objective",
    )
}

/// Sweeps are executed by the engine's curve service
/// ([`crate::execute_sweep_wire`], or [`crate::execute_sweep_pointwise`]
/// for budgeted and deadlined sweeps, both dispatched in the executor),
/// never by an individual solver — a directly-invoked solver declines
/// them.
fn unsupported_sweep(req: &SolveRequest, solver: &'static str) -> SolveReport {
    SolveReport::new(
        req.id.clone(),
        solver,
        Status::Unsupported,
        "budget sweeps run through the engine curve service, not a single solver",
    )
}

fn family_capability(
    arc: &ArcInstance,
    want: fn(DurationKind) -> bool,
    reason: &'static str,
) -> Capability {
    if arc
        .improvable_edges()
        .iter()
        .all(|&e| want(arc.dag().edge(e).duration.kind()))
    {
        Capability::Supported
    } else {
        Capability::Unsupported(reason)
    }
}

// ---------------------------------------------------------------------
// reuse-over-paths solvers (the paper's regime, Question 1.3)
// ---------------------------------------------------------------------

/// Exhaustive exact search (`exact`).
pub struct ExactSolver;

impl Solver for ExactSolver {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn supports(&self, arc: &ArcInstance) -> Capability {
        if arc.improvable_edges().len() <= EXACT_JOB_CAP {
            Capability::Supported
        } else {
            Capability::Unsupported("exhaustive search needs ≤ 10 improvable jobs")
        }
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let arc = req.prepared.arc();
        let meter = ctx.meter();
        let mut r = report_skeleton(req, self.name());
        match req.objective {
            Objective::MakespanSweep { .. } => return unsupported_sweep(req, self.name()),
            Objective::MinMakespan { budget } => {
                let ex = match rtt_core::exact::solve_exact_metered(arc, budget, meter) {
                    Ok(ex) => ex,
                    Err(e) => return report_exhausted(req, self.name(), e),
                };
                validate(arc, &ex.solution).expect("exact produced an invalid solution");
                r.makespan = Some(ex.solution.makespan);
                r.budget_used = Some(ex.solution.budget_used);
                r.makespan_factor = Some(1.0);
                r.resource_factor = Some(1.0);
                r.work = ex.explored;
                r.solution = Some(ex.solution);
            }
            Objective::MinResource { target } => {
                match rtt_core::exact::solve_exact_min_resource_metered(arc, target, meter) {
                    Ok(Some((needed, sol))) => {
                        validate(arc, &sol).expect("exact produced an invalid solution");
                        r.makespan = Some(sol.makespan);
                        r.budget_used = Some(needed);
                        r.makespan_factor = Some(1.0);
                        r.resource_factor = Some(1.0);
                        r.solution = Some(sol);
                    }
                    Ok(None) => {
                        return SolveReport::new(
                            req.id.clone(),
                            self.name(),
                            Status::Infeasible,
                            "makespan target below the ideal makespan",
                        )
                    }
                    Err(e) => return report_exhausted(req, self.name(), e),
                }
            }
        }
        r
    }
}

/// Theorem 3.4 bi-criteria LP rounding (`bicriteria`); also serves the
/// min-resource objective through the same machinery.
pub struct BicriteriaSolver;

impl Solver for BicriteriaSolver {
    fn name(&self) -> &'static str {
        "bicriteria"
    }

    fn supports(&self, _arc: &ArcInstance) -> Capability {
        Capability::Supported
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let arc = req.prepared.arc();
        let tt = req.prepared.tt();
        let meter = ctx.meter();
        let result = match req.objective {
            Objective::MakespanSweep { .. } => return unsupported_sweep(req, self.name()),
            Objective::MinMakespan { budget } => {
                rtt_core::solvers::solve_bicriteria_metered(arc, tt, budget, req.alpha, meter)
            }
            Objective::MinResource { target } => {
                rtt_core::solvers::min_resource_metered(arc, tt, target, req.alpha, meter)
            }
        };
        match result {
            Ok(a) => report_approx(req, self.name(), a),
            Err(e) => report_lp_failure(req, self.name(), e),
        }
    }
}

/// Theorem 3.9 single-criteria 5-approximation (`kway`).
pub struct KwaySolver;

impl Solver for KwaySolver {
    fn name(&self) -> &'static str {
        "kway"
    }

    fn supports(&self, arc: &ArcInstance) -> Capability {
        family_capability(
            arc,
            |k| matches!(k, DurationKind::KWay { .. }),
            "requires k-way splitting duration functions",
        )
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let Objective::MinMakespan { budget } = req.objective else {
            return unsupported_objective(req, self.name());
        };
        match rtt_core::solvers::solve_kway_5approx_metered(
            req.prepared.arc(),
            req.prepared.tt(),
            budget,
            ctx.meter(),
        ) {
            Ok(a) => report_approx(req, self.name(), a),
            Err(e) => report_lp_failure(req, self.name(), e),
        }
    }
}

/// Theorem 3.10 single-criteria 4-approximation (`recbinary`).
pub struct RecBinarySolver;

impl Solver for RecBinarySolver {
    fn name(&self) -> &'static str {
        "recbinary"
    }

    fn supports(&self, arc: &ArcInstance) -> Capability {
        family_capability(
            arc,
            |k| matches!(k, DurationKind::RecursiveBinary { .. }),
            "requires recursive-binary duration functions",
        )
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let Objective::MinMakespan { budget } = req.objective else {
            return unsupported_objective(req, self.name());
        };
        match rtt_core::solvers::solve_recbinary_4approx_metered(
            req.prepared.arc(),
            req.prepared.tt(),
            budget,
            ctx.meter(),
        ) {
            Ok(a) => report_approx(req, self.name(), a),
            Err(e) => report_lp_failure(req, self.name(), e),
        }
    }
}

/// Theorem 3.16 improved (4/3, 14/5) bi-criteria (`recbinary-improved`).
pub struct RecBinaryImprovedSolver;

impl Solver for RecBinaryImprovedSolver {
    fn name(&self) -> &'static str {
        "recbinary-improved"
    }

    fn supports(&self, arc: &ArcInstance) -> Capability {
        family_capability(
            arc,
            |k| matches!(k, DurationKind::RecursiveBinary { .. }),
            "requires recursive-binary duration functions",
        )
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let Objective::MinMakespan { budget } = req.objective else {
            return unsupported_objective(req, self.name());
        };
        match rtt_core::solvers::solve_recbinary_improved_metered(
            req.prepared.arc(),
            req.prepared.tt(),
            budget,
            ctx.meter(),
        ) {
            Ok(a) => report_approx(req, self.name(), a),
            Err(e) => report_lp_failure(req, self.name(), e),
        }
    }
}

/// §3.4 pseudo-polynomial exact DP for series-parallel DAGs (`sp-dp`).
pub struct SpDpSolver;

impl SpDpSolver {
    fn solved(req: &SolveRequest, name: &'static str, sol: Solution, work: u64) -> SolveReport {
        validate(req.prepared.arc(), &sol).expect("sp-dp produced an invalid solution");
        let mut r = report_skeleton(req, name);
        r.makespan = Some(sol.makespan);
        r.budget_used = Some(sol.budget_used);
        r.makespan_factor = Some(1.0);
        r.resource_factor = Some(1.0);
        r.work = work;
        r.solution = Some(sol);
        r
    }
}

impl Solver for SpDpSolver {
    fn name(&self) -> &'static str {
        "sp-dp"
    }

    fn supports(&self, arc: &ArcInstance) -> Capability {
        if rtt_dag::sp::decompose(arc.dag(), arc.source(), arc.sink()).is_some() {
            Capability::Supported
        } else {
            Capability::Unsupported("instance is not two-terminal series-parallel")
        }
    }

    fn supports_prepared(&self, prep: &crate::PreparedInstance) -> Capability {
        // reuse the cached decomposition instead of re-deriving it for
        // every request that fans out over the registry
        if prep.sp_tree().is_some() {
            Capability::Supported
        } else {
            Capability::Unsupported("instance is not two-terminal series-parallel")
        }
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let arc = req.prepared.arc();
        let meter = ctx.meter();
        let Some(tree) = req.prepared.sp_tree() else {
            return SolveReport::new(
                req.id.clone(),
                self.name(),
                Status::Unsupported,
                "instance is not two-terminal series-parallel",
            );
        };
        match req.objective {
            Objective::MakespanSweep { .. } => unsupported_sweep(req, self.name()),
            Objective::MinMakespan { budget } if budget > SP_BUDGET_CAP => SolveReport::new(
                req.id.clone(),
                self.name(),
                Status::Unsupported,
                format!("budget {budget} exceeds the DP budget cap {SP_BUDGET_CAP}"),
            ),
            Objective::MinMakespan { budget } => {
                match solve_sp_exact_with_tree_metered(arc, tree, budget, meter) {
                    Ok((sp, sol)) => {
                        let work = sp.curve.len() as u64 * tree.len() as u64;
                        Self::solved(req, self.name(), sol, work)
                    }
                    Err(e) => report_exhausted(req, self.name(), e),
                }
            }
            Objective::MinResource { target } => {
                // one DP run over the saturation budget yields the whole
                // curve; the first λ meeting the target is optimal
                let saturation = arc.saturation_budget();
                if saturation > SP_BUDGET_CAP {
                    // refusing is honest; sweeping a truncated range and
                    // calling the result "infeasible" would not be
                    return SolveReport::new(
                        req.id.clone(),
                        self.name(),
                        Status::Unsupported,
                        format!(
                            "saturation budget {saturation} exceeds the DP sweep cap {SP_BUDGET_CAP}"
                        ),
                    );
                }
                let swept = solve_sp_tree_metered(
                    tree,
                    |e| arc.dag().edge(e).duration.clone(),
                    saturation,
                    meter,
                );
                let (curve, _, _) = match swept {
                    Ok(r) => r,
                    Err(e) => return report_exhausted(req, self.name(), e),
                };
                match curve.iter().position(|&t| t <= target) {
                    Some(needed) => {
                        match solve_sp_exact_with_tree_metered(arc, tree, needed as u64, meter) {
                            Ok((sp, sol)) => {
                                let work =
                                    (curve.len() + sp.curve.len()) as u64 * tree.len() as u64;
                                Self::solved(req, self.name(), sol, work)
                            }
                            Err(e) => report_exhausted(req, self.name(), e),
                        }
                    }
                    // the saturation budget is the most that can ever
                    // help, so missing the target there is conclusive
                    None => SolveReport::new(
                        req.id.clone(),
                        self.name(),
                        Status::Infeasible,
                        "makespan target below the ideal makespan",
                    ),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// regime baselines (Questions 1.1 and 1.2)
// ---------------------------------------------------------------------

/// Exact no-reuse baseline (`noreuse-exact`, Question 1.1). Factors are
/// relative to the *no-reuse* optimum; no flow solution is attached
/// (allocations are dedicated, not routed).
pub struct NoReuseExactSolver;

impl Solver for NoReuseExactSolver {
    fn name(&self) -> &'static str {
        "noreuse-exact"
    }

    fn supports(&self, arc: &ArcInstance) -> Capability {
        if arc.improvable_edges().len() <= EXACT_JOB_CAP {
            Capability::Supported
        } else {
            Capability::Unsupported("exhaustive search needs ≤ 10 improvable jobs")
        }
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let arc = req.prepared.arc();
        let meter = ctx.meter();
        let mut r = report_skeleton(req, self.name());
        match req.objective {
            Objective::MakespanSweep { .. } => return unsupported_sweep(req, self.name()),
            Objective::MinMakespan { budget } => {
                let sol = match solve_noreuse_exact_metered(arc, budget, meter) {
                    Ok(sol) => sol,
                    Err(e) => return report_exhausted(req, self.name(), e),
                };
                validate_noreuse(arc, &sol).expect("no-reuse solver produced invalid solution");
                r.makespan = Some(sol.makespan);
                r.budget_used = Some(sol.budget_used);
                r.makespan_factor = Some(1.0);
                r.resource_factor = Some(1.0);
                r.noreuse = Some(sol);
            }
            Objective::MinResource { target } => {
                match solve_noreuse_exact_min_resource_metered(arc, target, meter) {
                    Ok(Some(sol)) => {
                        validate_noreuse(arc, &sol)
                            .expect("no-reuse solver produced invalid solution");
                        r.makespan = Some(sol.makespan);
                        r.budget_used = Some(sol.budget_used);
                        r.makespan_factor = Some(1.0);
                        r.resource_factor = Some(1.0);
                        r.noreuse = Some(sol);
                    }
                    Ok(None) => {
                        return SolveReport::new(
                            req.id.clone(),
                            self.name(),
                            Status::Infeasible,
                            "makespan target below the ideal makespan",
                        )
                    }
                    Err(e) => return report_exhausted(req, self.name(), e),
                }
            }
        }
        r
    }

    fn solution_form(&self) -> SolutionForm {
        SolutionForm::NoReuse
    }
}

/// LP-rounding no-reuse baseline (`noreuse-bicriteria`, Question 1.1).
/// Factors are relative to the no-reuse optimum.
pub struct NoReuseBicriteriaSolver;

impl Solver for NoReuseBicriteriaSolver {
    fn name(&self) -> &'static str {
        "noreuse-bicriteria"
    }

    fn supports(&self, _arc: &ArcInstance) -> Capability {
        Capability::Supported
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let Objective::MinMakespan { budget } = req.objective else {
            return unsupported_objective(req, self.name());
        };
        let arc = req.prepared.arc();
        match solve_noreuse_bicriteria_metered(
            arc,
            req.prepared.tt(),
            budget,
            req.alpha,
            ctx.meter(),
        ) {
            Ok(a) => {
                validate_noreuse(arc, &a.solution)
                    .expect("no-reuse solver produced invalid solution");
                let mut r = report_skeleton(req, self.name());
                r.makespan = Some(a.solution.makespan);
                r.budget_used = Some(a.solution.budget_used);
                r.lp_makespan = Some(a.lp_makespan);
                r.lp_budget = Some(a.lp_budget);
                r.makespan_factor = Some(1.0 / req.alpha);
                r.resource_factor = Some(1.0 / (1.0 - req.alpha));
                r.noreuse = Some(a.solution);
                r
            }
            Err(LpError::Infeasible) => SolveReport::new(
                req.id.clone(),
                self.name(),
                Status::Infeasible,
                "no-reuse LP infeasible",
            ),
            Err(LpError::Exhausted(e)) => report_exhausted(req, self.name(), e),
            // unbounded = modelling bug, mirrored from report_lp_failure
            Err(e) => SolveReport::new(
                req.id.clone(),
                self.name(),
                Status::Unsupported,
                e.to_string(),
            ),
        }
    }

    fn solution_form(&self) -> SolutionForm {
        SolutionForm::NoReuse
    }
}

/// Greedy global-pool baseline (`global-greedy`, Question 1.2): runs
/// both list-scheduling policies and reports the better schedule. A
/// heuristic — no factors are claimed.
pub struct GlobalGreedySolver;

impl Solver for GlobalGreedySolver {
    fn name(&self) -> &'static str {
        "global-greedy"
    }

    fn supports(&self, _arc: &ArcInstance) -> Capability {
        Capability::Supported
    }

    // the greedy list scheduler is linear in the schedule and never
    // long-running, so it stays unmetered — only its certification
    // replay (the executor's sim_events dimension) is budgeted
    fn solve(&self, req: &SolveRequest, _ctx: &BudgetContext) -> SolveReport {
        let Objective::MinMakespan { budget } = req.objective else {
            return unsupported_objective(req, self.name());
        };
        let arc = req.prepared.arc();
        let mut best: Option<rtt_core::GlobalSchedule> = None;
        for policy in [GlobalPolicy::Eager, GlobalPolicy::Patient] {
            let s = rtt_core::global_reuse_schedule(arc, budget, policy);
            verify_global_schedule(arc, budget, &s).expect("greedy schedule must verify");
            if best.as_ref().is_none_or(|b| s.makespan < b.makespan) {
                best = Some(s);
            }
        }
        let s = best.expect("two policies ran");
        let mut r = report_skeleton(req, self.name());
        r.makespan = Some(s.makespan);
        r.budget_used = Some(s.peak_in_use);
        r.schedule = Some(s);
        r
    }

    fn solution_form(&self) -> SolutionForm {
        SolutionForm::Schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute_one, PreparedInstance, Registry, SolverSelection};
    use rtt_core::instance::Activity;
    use rtt_dag::Dag;
    use rtt_duration::Duration;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn sp_dp_refuses_a_min_makespan_budget_over_the_cap() {
        // a two-arc chain: the tables are the whole cost, so a budget
        // past the cap would allocate `budget + 1` cells per tree node
        let mut g: Dag<(), Activity> = Dag::new();
        let (s, m, t) = (g.add_node(()), g.add_node(()), g.add_node(()));
        g.add_edge(s, m, Activity::new(Duration::two_point(10, 4, 1)))
            .unwrap();
        g.add_edge(m, t, Activity::new(Duration::two_point(12, 4, 1)))
            .unwrap();
        let prep = Arc::new(PreparedInstance::new(ArcInstance::new(g).unwrap()));
        let mut req = SolveRequest::min_makespan("big", prep, SP_BUDGET_CAP + 1);
        req.solver = SolverSelection::Named("sp-dp".into());
        let reports = execute_one(&Registry::standard(), &req, Instant::now());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].status, Status::Unsupported, "{:?}", reports[0]);
        assert_eq!(
            reports[0].detail,
            format!(
                "budget {} exceeds the DP budget cap {SP_BUDGET_CAP}",
                SP_BUDGET_CAP + 1
            )
        );
    }

    #[test]
    fn global_greedy_solves_budgets_of_2_pow_63() {
        // the pool sweep must not read such a budget as negative
        let mut g: Dag<(), Activity> = Dag::new();
        let (s, m, t) = (g.add_node(()), g.add_node(()), g.add_node(()));
        g.add_edge(s, m, Activity::new(Duration::two_point(10, 4, 1)))
            .unwrap();
        g.add_edge(m, t, Activity::new(Duration::two_point(12, 4, 1)))
            .unwrap();
        let prep = Arc::new(PreparedInstance::new(ArcInstance::new(g).unwrap()));
        let mut req = SolveRequest::min_makespan("huge", prep, 1 << 63);
        req.solver = SolverSelection::Named("global-greedy".into());
        let reports = execute_one(&Registry::standard(), &req, Instant::now());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].status, Status::Solved, "{:?}", reports[0]);
        assert_eq!(reports[0].makespan, Some(2));
    }
}
