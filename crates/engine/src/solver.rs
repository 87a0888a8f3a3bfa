//! The unified [`Solver`] trait and its implementations — one adapter
//! per algorithm family the repo ships, all speaking [`SolveRequest`] /
//! [`SolveReport`].
//!
//! | registry name | adapter | algorithm | paper |
//! |---|---|---|---|
//! | `exact` | [`ExactSolver::ROUTED`] | exhaustive search over canonical levels | — |
//! | `bicriteria` | [`BicriteriaSolver`] | (1/α, 1/(1−α)) LP rounding | Thm 3.4 |
//! | `kway` | `FamilySolver::KWAY` | 5-approx, k-way splitting ([`FamilyRounding::KWay`]) | Thm 3.9 |
//! | `recbinary` | `FamilySolver::RECBINARY` | 4-approx, recursive binary ([`FamilyRounding::RecBinary`]) | Thm 3.10 |
//! | `recbinary-improved` | `FamilySolver::RECBINARY_IMPROVED` | (4/3, 14/5) bi-criteria ([`FamilyRounding::RecBinaryImproved`]) | Thm 3.16 |
//! | `sp-dp` | [`SpDpSolver`] | exact `O(mB)` DP, SP DAGs | §3.4 |
//! | `noreuse-exact` | [`ExactSolver::NO_REUSE`] | exact, no-reuse regime | Q1.1 |
//! | `noreuse-bicriteria` | [`NoReuseBicriteriaSolver`] | LP rounding, no-reuse regime | Q1.1 |
//! | `global-greedy` | [`GlobalGreedySolver`] | greedy list scheduling, global pool | Q1.2 |
//!
//! `FamilySolver` is one adapter registered three times (a name and a
//! [`FamilyRounding`], which owns the duration family, the wording of
//! its decision, and the level rule); [`ExactSolver`] is one adapter
//! over the cost regime.
//!
//! # One LP, then one rounding
//!
//! Every LP-rounding answer — `bicriteria` at a budget or a target, the
//! three family solvers, `noreuse-bicriteria`, and every point of a
//! [`crate::curve`] sweep — is one LP 6–10 solve on the shared `D''`
//! expansion under [`BudgetContext::meter`], followed by one rounding
//! of its solution that takes no meter
//! ([`rtt_core::bicriteria_round_prepped`], [`FamilyRounding::round`] or
//! [`rtt_core::regimes::noreuse_round_prepped`]). A family solver
//! asks its `FamilyRounding` whether the instance belongs to its family
//! before the LP runs, so a wrong-family answer consumes no pivots.
//!
//! # One report path
//!
//! Every solved report — an adapter's answer, a sweep point of
//! [`crate::curve`], or a solution-tier replay — takes one path. One
//! builder fills `makespan`, `budget_used` and the form field from the
//! answer ([`Solver::solution_form`] names the form); one per-form
//! check validates the form on the request's instance
//! ([`rtt_core::validate`], [`rtt_core::regimes::validate_noreuse`] or
//! [`rtt_core::verify_global_schedule`]) and yields the `makespan` and
//! `budget_used` the report must carry, again on every replay; and
//! `certify::attach` replays the form under Observation 1.1
//! ([`crate::certify`]). A failure panics — an engine bug on a fresh
//! report, a forged or stale entry on a replay — and the executor's
//! panic isolation turns it into one `failed` report.

use crate::budget::BudgetContext;
use crate::prep::PreparedInstance;
use crate::request::{Objective, SolveReport, SolveRequest, Status};
use rtt_budget::Exhausted;
use rtt_core::lp_build::{solve_min_makespan_lp, solve_min_resource_lp, LpError};
use rtt_core::regimes::{
    noreuse_round_prepped, solve_noreuse_exact_metered, solve_noreuse_exact_min_resource_metered,
    solve_noreuse_lp_metered, validate_noreuse,
};
use rtt_core::solvers::SolveError;
use rtt_core::sp_dp::{solve_sp_exact_with_tree_metered, solve_sp_tree_metered};
use rtt_core::{
    bicriteria_round_prepped, validate, verify_global_schedule, ApproxSolution, FamilyRounding,
    GlobalPolicy, GlobalSchedule, NoReuseSolution, Resource, Solution, Time,
};

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

    /// Whether this solver applies to the prepared instance `prep`
    /// (whose cached artifacts, such as the SP decomposition, a check
    /// may reuse). This is the *fan-out gate*: `--solver all` runs only
    /// solvers that return [`Capability::Supported`], and admission's
    /// RTT013 warns on a named solver that declines. It may also
    /// decline for cost reasons (e.g. exhaustive search on large
    /// instances); an explicitly *named* request still goes to `solve`,
    /// which must answer whenever the algorithm is defined — and return
    /// a clean [`Status::Unsupported`] report (never panic) when it is
    /// not.
    fn supports(&self, prep: &PreparedInstance) -> Capability;

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

/// The wire detail of an exact min-resource search that cannot reach
/// its target at any budget.
const BELOW_IDEAL: &str = "makespan target below the ideal makespan";

/// A solver's answer, in the solution form its regime produces.
pub(crate) enum Answer {
    /// A routed flow (Question 1.3).
    Routed(Solution),
    /// Dedicated levels (Question 1.1).
    NoReuse(NoReuseSolution),
    /// A global-pool schedule (Question 1.2).
    Schedule(GlobalSchedule),
}

/// The one solved-report builder (see the module docs): sets the form
/// field from `answer` and `makespan` and `budget_used` from the
/// per-form check. Callers add their certificates and `work`.
pub(crate) fn solved(req: &SolveRequest, solver: &'static str, answer: Answer) -> SolveReport {
    let mut r = SolveReport::new(req.id.clone(), solver, Status::Solved, "");
    match answer {
        Answer::Routed(s) => r.solution = Some(s),
        Answer::NoReuse(s) => r.noreuse = Some(s),
        Answer::Schedule(s) => r.schedule = Some(s),
    }
    let (makespan, used) = check_form(req, &r);
    (r.makespan, r.budget_used) = (Some(makespan), Some(used));
    r
}

/// The one per-form check (see the module docs), run by [`solved`] on
/// every fresh report and by the executor on every solution-tier
/// replay: validates the solution `r` carries for its form on the
/// request's instance, and returns that solution's makespan and budget
/// used. Panics on an invalid or missing solution.
pub(crate) fn check_form(req: &SolveRequest, r: &SolveReport) -> (Time, Resource) {
    let arc = req.prepared.arc();
    if let Some(s) = &r.solution {
        validate(arc, s).unwrap_or_else(|e| panic!("invalid routed solution: {e}"));
        (s.makespan, s.budget_used)
    } else if let Some(s) = &r.noreuse {
        validate_noreuse(arc, s).unwrap_or_else(|e| panic!("invalid no-reuse solution: {e}"));
        (s.makespan, s.budget_used)
    } else if let Some(s) = &r.schedule {
        // the pool is the request's budget; `global-greedy` answers
        // only min-makespan requests, so any other objective holds the
        // schedule to its own peak
        let budget = match req.objective {
            Objective::MinMakespan { budget } => budget,
            _ => s.peak_in_use,
        };
        verify_global_schedule(arc, budget, s).unwrap_or_else(|e| panic!("invalid schedule: {e}"));
        (s.makespan, s.peak_in_use)
    } else {
        panic!("a solved report must carry a solution")
    }
}

/// A solved report from an LP rounding: the routed solution plus the LP
/// bounds, the certified factors, and the simplex pivots as `work`.
pub(crate) fn approx_report(
    req: &SolveRequest,
    solver: &'static str,
    a: ApproxSolution,
) -> SolveReport {
    let mut r = solved(req, solver, Answer::Routed(a.solution));
    r.lp_makespan = Some(a.lp_makespan);
    r.lp_budget = Some(a.lp_budget);
    r.makespan_factor = Some(a.makespan_factor);
    r.resource_factor = Some(a.resource_factor);
    r.work = a.lp_pivots as u64;
    r
}

/// A solved report from an exact solver: factor 1 on both criteria.
fn exact_report(
    req: &SolveRequest,
    solver: &'static str,
    answer: Answer,
    work: u64,
) -> SolveReport {
    let mut r = solved(req, solver, answer);
    r.makespan_factor = Some(1.0);
    r.resource_factor = Some(1.0);
    r.work = work;
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
    let mut r = SolveReport::new(
        req.id.clone(),
        solver,
        Status::BudgetExhausted,
        e.to_string(),
    );
    r.exhausted = Some(e);
    r
}

fn report_lp_failure(req: &SolveRequest, solver: &'static str, e: LpError) -> SolveReport {
    let status = match e {
        LpError::Infeasible => Status::Infeasible,
        // an unbounded relaxation is a modelling bug, not a property of
        // the request — report it as the solver declining, loudly
        LpError::Unbounded => Status::Unsupported,
        LpError::Exhausted(e) => return report_exhausted(req, solver, e),
    };
    let detail = SolveError::Lp(e).to_string();
    SolveReport::new(req.id.clone(), solver, status, detail)
}

fn unsupported_objective(req: &SolveRequest, solver: &'static str) -> SolveReport {
    SolveReport::new(
        req.id.clone(),
        solver,
        Status::Unsupported,
        "this solver only handles the min-makespan objective",
    )
}

/// A sweep's `bicriteria` unit is the engine's curve chain
/// ([`crate::execute_sweep_wire`], run by the executor in that unit's
/// place); every solver's own `solve` declines sweeps, so a sweep that
/// names another solver gets that solver's `unsupported` report.
fn unsupported_sweep(req: &SolveRequest, solver: &'static str) -> SolveReport {
    SolveReport::new(
        req.id.clone(),
        solver,
        Status::Unsupported,
        "budget sweeps run through the engine curve service, not a single solver",
    )
}

// ---------------------------------------------------------------------
// reuse-over-paths solvers (the paper's regime, Question 1.3)
// ---------------------------------------------------------------------

/// Exhaustive exact search over canonical levels, in one of two cost
/// regimes: [`ExactSolver::ROUTED`] (`exact`) pays the levels' min-flow
/// (Question 1.3) and answers with a routed flow;
/// [`ExactSolver::NO_REUSE`] (`noreuse-exact`, Question 1.1) pays their
/// sum and answers with dedicated levels, its factors relative to the
/// no-reuse optimum. Both answer min-makespan and min-resource
/// requests; `exact`'s min-makespan `work` is the search's explored
/// assignments.
pub struct ExactSolver {
    name: &'static str,
    noreuse: bool,
}

impl ExactSolver {
    /// The routed regime (`exact`).
    pub const ROUTED: ExactSolver = ExactSolver {
        name: "exact",
        noreuse: false,
    };
    /// The no-reuse regime (`noreuse-exact`).
    pub const NO_REUSE: ExactSolver = ExactSolver {
        name: "noreuse-exact",
        noreuse: true,
    };
}

impl Solver for ExactSolver {
    fn name(&self) -> &'static str {
        self.name
    }

    fn supports(&self, prep: &PreparedInstance) -> Capability {
        if prep.arc().improvable_edges().len() <= EXACT_JOB_CAP {
            Capability::Supported
        } else {
            Capability::Unsupported("exhaustive search needs ≤ 10 improvable jobs")
        }
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let arc = req.prepared.arc();
        let meter = ctx.meter();
        let found = match (&req.objective, self.noreuse) {
            (Objective::MakespanSweep { .. }, _) => return unsupported_sweep(req, self.name),
            (&Objective::MinMakespan { budget }, false) => {
                rtt_core::exact::solve_exact_metered(arc, budget, meter)
                    .map(|ex| Some((Answer::Routed(ex.solution), ex.explored)))
            }
            (&Objective::MinMakespan { budget }, true) => {
                solve_noreuse_exact_metered(arc, budget, meter)
                    .map(|s| Some((Answer::NoReuse(s), 0)))
            }
            (&Objective::MinResource { target }, false) => {
                rtt_core::exact::solve_exact_min_resource_metered(arc, target, meter)
                    .map(|found| found.map(|(_, s)| (Answer::Routed(s), 0)))
            }
            (&Objective::MinResource { target }, true) => {
                solve_noreuse_exact_min_resource_metered(arc, target, meter)
                    .map(|found| found.map(|s| (Answer::NoReuse(s), 0)))
            }
        };
        match found {
            Ok(Some((answer, work))) => exact_report(req, self.name, answer, work),
            Ok(None) => {
                SolveReport::new(req.id.clone(), self.name, Status::Infeasible, BELOW_IDEAL)
            }
            Err(e) => report_exhausted(req, self.name, e),
        }
    }

    fn solution_form(&self) -> SolutionForm {
        if self.noreuse {
            SolutionForm::NoReuse
        } else {
            SolutionForm::Routed
        }
    }
}

/// Theorem 3.4 bi-criteria LP rounding (`bicriteria`); also serves the
/// min-resource objective through the same machinery.
pub struct BicriteriaSolver;

impl Solver for BicriteriaSolver {
    fn name(&self) -> &'static str {
        "bicriteria"
    }

    fn supports(&self, _prep: &PreparedInstance) -> Capability {
        Capability::Supported
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let arc = req.prepared.arc();
        let tt = req.prepared.tt();
        let meter = ctx.meter();
        let frac = match req.objective {
            Objective::MakespanSweep { .. } => return unsupported_sweep(req, self.name()),
            Objective::MinMakespan { budget } => solve_min_makespan_lp(tt, budget, meter),
            Objective::MinResource { target } => solve_min_resource_lp(tt, target, meter),
        };
        match frac {
            Ok(frac) => {
                let a = bicriteria_round_prepped(arc, tt, frac, req.alpha);
                approx_report(req, self.name(), a)
            }
            Err(e) => report_lp_failure(req, self.name(), e),
        }
    }
}

/// The single-criteria roundings for one duration family — one adapter
/// registered three times, each with its registry name and the
/// [`FamilyRounding`] that owns the family, the wording of its decision
/// ([`FamilyRounding::requirement`], the reason a wrong-family instance
/// gets from the fan-out gate and from a named solve alike) and the
/// level rule. Min-makespan only.
pub(crate) struct FamilySolver {
    name: &'static str,
    round: FamilyRounding,
}

impl FamilySolver {
    /// Theorem 3.9 single-criteria 5-approximation (`kway`).
    pub(crate) const KWAY: FamilySolver = FamilySolver {
        name: "kway",
        round: FamilyRounding::KWay,
    };
    /// Theorem 3.10 single-criteria 4-approximation (`recbinary`).
    pub(crate) const RECBINARY: FamilySolver = FamilySolver {
        name: "recbinary",
        round: FamilyRounding::RecBinary,
    };
    /// Theorem 3.16 improved (4/3, 14/5) bi-criteria
    /// (`recbinary-improved`).
    pub(crate) const RECBINARY_IMPROVED: FamilySolver = FamilySolver {
        name: "recbinary-improved",
        round: FamilyRounding::RecBinaryImproved,
    };
}

impl Solver for FamilySolver {
    fn name(&self) -> &'static str {
        self.name
    }

    fn supports(&self, prep: &PreparedInstance) -> Capability {
        if self.round.applies(prep.arc()) {
            Capability::Supported
        } else {
            Capability::Unsupported(self.round.requirement())
        }
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let Objective::MinMakespan { budget } = req.objective else {
            return unsupported_objective(req, self.name);
        };
        let (arc, tt) = (req.prepared.arc(), req.prepared.tt());
        if !self.round.applies(arc) {
            let detail = self.round.requirement();
            return SolveReport::new(req.id.clone(), self.name, Status::Unsupported, detail);
        }
        match solve_min_makespan_lp(tt, budget, ctx.meter()) {
            Ok(frac) => approx_report(req, self.name, self.round.round(arc, tt, frac, budget)),
            Err(e) => report_lp_failure(req, self.name, e),
        }
    }
}

/// §3.4 pseudo-polynomial exact DP for series-parallel DAGs (`sp-dp`).
/// `work` counts the DP cells its calls filled.
pub struct SpDpSolver;

impl Solver for SpDpSolver {
    fn name(&self) -> &'static str {
        "sp-dp"
    }

    fn supports(&self, prep: &PreparedInstance) -> Capability {
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
        let unsupported = |detail: String| {
            SolveReport::new(req.id.clone(), self.name(), Status::Unsupported, detail)
        };
        let Some(tree) = req.prepared.sp_tree() else {
            return unsupported("instance is not two-terminal series-parallel".into());
        };
        // the budget the one DP call below solves at, and the curve
        // length a min-resource search swept to find it
        let (budget, swept) = match req.objective {
            Objective::MakespanSweep { .. } => return unsupported_sweep(req, self.name()),
            Objective::MinMakespan { budget } if budget > SP_BUDGET_CAP => {
                return unsupported(format!(
                    "budget {budget} exceeds the DP budget cap {SP_BUDGET_CAP}"
                ))
            }
            Objective::MinMakespan { budget } => (budget, 0),
            Objective::MinResource { target } => {
                // one DP run over the saturation budget yields the whole
                // curve; the first λ meeting the target is optimal
                let saturation = arc.saturation_budget();
                if saturation > SP_BUDGET_CAP {
                    // refusing is honest; sweeping a truncated range and
                    // calling the result "infeasible" would not be
                    return unsupported(format!(
                        "saturation budget {saturation} exceeds the DP sweep cap {SP_BUDGET_CAP}"
                    ));
                }
                let swept = solve_sp_tree_metered(
                    tree,
                    |e| arc.dag().edge(e).duration.clone(),
                    saturation,
                    meter,
                );
                let curve = match swept {
                    Ok((curve, _, _)) => curve,
                    Err(e) => return report_exhausted(req, self.name(), e),
                };
                match curve.iter().position(|&t| t <= target) {
                    Some(needed) => (needed as u64, curve.len()),
                    // the saturation budget is the most that can ever
                    // help, so missing the target there is conclusive
                    None => {
                        return SolveReport::new(
                            req.id.clone(),
                            self.name(),
                            Status::Infeasible,
                            BELOW_IDEAL,
                        )
                    }
                }
            }
        };
        match solve_sp_exact_with_tree_metered(arc, tree, budget, meter) {
            Ok((sp, sol)) => {
                let work = (swept + sp.curve.len()) as u64 * tree.len() as u64;
                exact_report(req, self.name(), Answer::Routed(sol), work)
            }
            Err(e) => report_exhausted(req, self.name(), e),
        }
    }
}

// ---------------------------------------------------------------------
// regime baselines (Questions 1.1 and 1.2)
// ---------------------------------------------------------------------

/// LP-rounding no-reuse baseline (`noreuse-bicriteria`, Question 1.1).
/// Factors are relative to the no-reuse optimum.
pub struct NoReuseBicriteriaSolver;

impl Solver for NoReuseBicriteriaSolver {
    fn name(&self) -> &'static str {
        "noreuse-bicriteria"
    }

    fn supports(&self, _prep: &PreparedInstance) -> Capability {
        Capability::Supported
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let Objective::MinMakespan { budget } = req.objective else {
            return unsupported_objective(req, self.name());
        };
        let (arc, tt) = (req.prepared.arc(), req.prepared.tt());
        match solve_noreuse_lp_metered(tt, budget, ctx.meter()) {
            Ok(frac) => {
                let a = noreuse_round_prepped(arc, tt, frac, req.alpha);
                let mut r = solved(req, self.name(), Answer::NoReuse(a.solution));
                r.lp_makespan = Some(a.lp_makespan);
                r.lp_budget = Some(a.lp_budget);
                r.makespan_factor = Some(1.0 / req.alpha);
                r.resource_factor = Some(1.0 / (1.0 - req.alpha));
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

    fn supports(&self, _prep: &PreparedInstance) -> Capability {
        Capability::Supported
    }

    // the greedy list scheduler is linear in the schedule and never
    // long-running, so it stays unmetered — only its certification
    // replay (the executor's sim_events dimension) is budgeted
    fn solve(&self, req: &SolveRequest, _ctx: &BudgetContext) -> SolveReport {
        let Objective::MinMakespan { budget } = req.objective else {
            return unsupported_objective(req, self.name());
        };
        // both policies' schedules pass the per-form check; the
        // strictly better one answers, ties to eager
        let [eager, patient] = [GlobalPolicy::Eager, GlobalPolicy::Patient].map(|p| {
            let s = rtt_core::global_reuse_schedule(req.prepared.arc(), budget, p);
            solved(req, self.name(), Answer::Schedule(s))
        });
        if patient.makespan < eager.makespan {
            patient
        } else {
            eager
        }
    }

    fn solution_form(&self) -> SolutionForm {
        SolutionForm::Schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute_one, Registry, SolverSelection};
    use rtt_core::instance::Activity;
    use rtt_core::ArcInstance;
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
