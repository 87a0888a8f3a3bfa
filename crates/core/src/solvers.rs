//! The paper's approximation algorithms (§3.1–§3.3).

use crate::instance::ArcInstance;
use crate::lp_build::{
    solve_min_makespan_lp_metered, solve_min_resource_lp_metered, FractionalSolution, LpError,
};
use rtt_budget::BudgetMeter;
use crate::rounding::{alpha_round, route_min_flow};
use crate::solution::{routed_solution, Solution};
use crate::transform::{expand_two_tuples, TwoTupleInstance};
use rtt_duration::{DurationKind, Resource, Time};
use std::fmt;

/// Solver failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The LP relaxation failed.
    Lp(LpError),
    /// A family-specific solver was applied to the wrong duration family.
    WrongFamily(&'static str),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Lp(e) => write!(f, "LP failure: {e}"),
            SolveError::WrongFamily(need) => {
                write!(f, "this solver requires {need} duration functions")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<LpError> for SolveError {
    fn from(e: LpError) -> Self {
        SolveError::Lp(e)
    }
}

/// A solution together with its quality certificates.
#[derive(Debug, Clone)]
pub struct ApproxSolution {
    /// The certified integral solution.
    pub solution: Solution,
    /// LP relaxation makespan — a *lower bound* on the optimal makespan
    /// at the given budget (min-makespan problems).
    pub lp_makespan: f64,
    /// LP resource usage — a lower bound on the optimal resource for the
    /// given target (min-resource problems).
    pub lp_budget: f64,
    /// Guaranteed factor: `solution.makespan ≤ makespan_factor · OPT`
    /// (or `· target` for min-resource).
    pub makespan_factor: f64,
    /// Guaranteed factor: `solution.budget_used ≤ resource_factor · B`
    /// (or `· OPT-resource` for min-resource).
    pub resource_factor: f64,
    /// Simplex pivots the LP relaxation spent (0 for LP-free paths) —
    /// the pipeline's dominant work counter.
    pub lp_pivots: usize,
    /// LP engine dimensions and pivot phase split
    /// ([`rtt_lp::LpStats`]; all-zero for LP-free paths).
    pub lp_stats: rtt_lp::LpStats,
}

// ---------------------------------------------------------------------
// shared pipeline pieces
// ---------------------------------------------------------------------

struct PerJob {
    /// The D' arc of this job.
    arc_edge: rtt_dag::EdgeId,
    /// Rounded purchased resource `r_j` (Σ of bought gaps).
    rounded: Resource,
    /// Fractional flow through the job in the LP, `r*_j` (collapsed).
    fractional: f64,
}

fn per_job_stats(
    tt: &TwoTupleInstance,
    frac: &FractionalSolution,
    lower: &[Resource],
) -> Vec<PerJob> {
    tt.chains
        .iter()
        .map(|info| {
            let rounded = info
                .chain_edges
                .iter()
                .map(|ce| lower[ce.index()])
                .sum::<Resource>();
            let fractional = info
                .chain_edges
                .iter()
                .map(|ce| frac.flows[ce.index()])
                .sum::<f64>();
            PerJob {
                arc_edge: info.arc_edge,
                rounded,
                fractional,
            }
        })
        .collect()
}

/// The tail the three family roundings share after their level rule:
/// the levels' routed solution (their min-flow, the durations they buy,
/// the longest path of those) with the LP's certificates and the
/// theorem's factors.
fn family_tail(
    arc: &ArcInstance,
    frac: FractionalSolution,
    levels: &[Resource],
    makespan_factor: f64,
    resource_factor: f64,
) -> ApproxSolution {
    ApproxSolution {
        solution: routed_solution(arc, levels),
        lp_makespan: frac.makespan,
        lp_budget: frac.budget_used,
        lp_pivots: frac.pivots,
        lp_stats: frac.stats,
        makespan_factor,
        resource_factor,
    }
}

// ---------------------------------------------------------------------
// Theorem 3.4: (1/α, 1/(1−α)) bi-criteria, general non-increasing
// ---------------------------------------------------------------------

/// Bi-criteria approximation for general non-increasing duration
/// functions (Theorem 3.4): LP 6–10, α-rounding, min-flow routing.
///
/// Guarantees: makespan ≤ (1/α)·OPT(B) and budget ≤ B/(1−α).
pub fn solve_bicriteria(
    arc: &ArcInstance,
    budget: Resource,
    alpha: f64,
) -> Result<ApproxSolution, SolveError> {
    let tt = expand_two_tuples(arc);
    solve_bicriteria_metered(arc, &tt, budget, alpha, None)
}

/// [`solve_bicriteria`] on a caller-supplied `D''` expansion (so one
/// [`expand_two_tuples`] run can feed many solves on the same instance;
/// `rtt_engine` shares it through its preprocessing cache), under a
/// cooperative budget meter: the LP's pivot loops charge it and a
/// tripped budget surfaces as [`SolveError::Lp`] with
/// [`LpError::Exhausted`].
pub fn solve_bicriteria_metered(
    arc: &ArcInstance,
    tt: &TwoTupleInstance,
    budget: Resource,
    alpha: f64,
    meter: Option<&BudgetMeter>,
) -> Result<ApproxSolution, SolveError> {
    let frac = solve_min_makespan_lp_metered(tt, budget, meter)?;
    Ok(bicriteria_round_prepped(arc, tt, frac, alpha))
}

/// The α-rounding + min-flow routing stage of Theorem 3.4 on a
/// caller-supplied LP solution. Splitting the LP solve from the
/// rounding lets a warm-started budget sweep (one LP chain) feed every
/// point through the same certified rounding path — see
/// `rtt_engine::execute_sweep_wire`.
pub fn bicriteria_round_prepped(
    arc: &ArcInstance,
    tt: &TwoTupleInstance,
    frac: FractionalSolution,
    alpha: f64,
) -> ApproxSolution {
    let lower = alpha_round(tt, &frac, alpha);
    let (used, tt_flows) = route_min_flow(tt, &lower);
    finish_on_tt(arc, tt, frac, tt_flows, used, alpha)
}

/// Assembles the bi-criteria result from a `D''` routing.
fn finish_on_tt(
    arc: &ArcInstance,
    tt: &TwoTupleInstance,
    frac: FractionalSolution,
    tt_flows: Vec<Resource>,
    used: Resource,
    alpha: f64,
) -> ApproxSolution {
    let d = arc.dag();
    let arc_flows = tt.collapse_flow(arc, &tt_flows);
    // Achieved duration per D' edge: copied edges evaluate at their own
    // flow; chain bundles take the max over their parallel chains.
    let mut edge_times: Vec<Time> = vec![0; d.edge_count()];
    for (e, img) in tt.copied.iter().enumerate() {
        if let Some(img) = img {
            edge_times[e] = tt.dag.edge(*img).time(tt_flows[img.index()]);
        }
    }
    for info in &tt.chains {
        let dur = info
            .chain_edges
            .iter()
            .map(|ce| tt.dag.edge(*ce).time(tt_flows[ce.index()]))
            .max()
            .expect("chains are non-empty");
        edge_times[info.arc_edge.index()] = dur;
    }
    let makespan = rtt_dag::longest_path_edges(d, |e| edge_times[e.index()])
        .expect("acyclic")
        .weight;
    debug_assert_eq!(
        makespan,
        tt.makespan_with_flows(&tt_flows),
        "D' and D'' makespans must agree"
    );
    ApproxSolution {
        lp_makespan: frac.makespan,
        lp_budget: frac.budget_used,
        lp_pivots: frac.pivots,
        lp_stats: frac.stats,
        solution: Solution {
            arc_flows,
            edge_times,
            makespan,
            budget_used: used,
        },
        makespan_factor: 1.0 / alpha,
        resource_factor: 1.0 / (1.0 - alpha),
    }
}

// ---------------------------------------------------------------------
// Theorem 3.9: 5-approximation for k-way splitting (budget kept)
// ---------------------------------------------------------------------

/// Single-criteria 5-approximation for the minimum-makespan problem with
/// k-way splitting duration functions (Theorem 3.9).
///
/// Pipeline: (2,2) bi-criteria via α = 1/2, then per job shrink the
/// (possibly 2×-inflated) allocation `r_j` back under the LP's
/// fractional `r*_j` — `⌊r_j/2⌋` in general, with the paper's special
/// cases for `r_j ≤ 3` — and re-route with a min-flow, which now fits in
/// the original budget.
pub fn solve_kway_5approx(
    arc: &ArcInstance,
    budget: Resource,
) -> Result<ApproxSolution, SolveError> {
    // reject the wrong family before paying for the D'' expansion
    require_family(arc, "k-way", |k| matches!(k, DurationKind::KWay { .. }))?;
    let tt = expand_two_tuples(arc);
    solve_kway_5approx_metered(arc, &tt, budget, None)
}

/// [`solve_kway_5approx`] on a caller-supplied `D''` expansion,
/// under a cooperative budget meter.
pub fn solve_kway_5approx_metered(
    arc: &ArcInstance,
    tt: &TwoTupleInstance,
    budget: Resource,
    meter: Option<&BudgetMeter>,
) -> Result<ApproxSolution, SolveError> {
    require_family(arc, "k-way", |k| matches!(k, DurationKind::KWay { .. }))?;
    let frac = solve_min_makespan_lp_metered(tt, budget, meter)?;
    let lower = alpha_round(tt, &frac, 0.5);
    let jobs = per_job_stats(tt, &frac, &lower);

    let d = arc.dag();
    let mut levels = vec![0; d.edge_count()];
    for j in &jobs {
        let k = if j.rounded == 0 {
            0
        } else if j.rounded > 3 {
            j.rounded / 2
        } else if j.fractional >= 2.0 - 1e-9 {
            2
        } else {
            0
        };
        levels[j.arc_edge.index()] = k;
    }
    let a = family_tail(arc, frac, &levels, 5.0, 1.0);
    debug_assert!(
        a.solution.budget_used <= budget,
        "Theorem 3.9: the rerouted budget {} must fit in B = {budget}",
        a.solution.budget_used
    );
    Ok(a)
}

// ---------------------------------------------------------------------
// Theorem 3.10: 4-approximation for recursive binary splitting
// ---------------------------------------------------------------------

/// Single-criteria 4-approximation for the minimum-makespan problem with
/// recursive binary splitting duration functions (Theorem 3.10).
///
/// After the (2,2) bi-criteria step, any job whose rounded allocation
/// exceeds its fractional LP allocation is halved; halving a power-of-two
/// reducer at most doubles its duration, giving makespan ≤ 4·OPT within
/// the original budget.
pub fn solve_recbinary_4approx(
    arc: &ArcInstance,
    budget: Resource,
) -> Result<ApproxSolution, SolveError> {
    require_family(arc, "recursive-binary", |k| {
        matches!(k, DurationKind::RecursiveBinary { .. })
    })?;
    let tt = expand_two_tuples(arc);
    solve_recbinary_4approx_metered(arc, &tt, budget, None)
}

/// [`solve_recbinary_4approx`] on a caller-supplied `D''` expansion,
/// under a cooperative budget meter.
pub fn solve_recbinary_4approx_metered(
    arc: &ArcInstance,
    tt: &TwoTupleInstance,
    budget: Resource,
    meter: Option<&BudgetMeter>,
) -> Result<ApproxSolution, SolveError> {
    require_family(arc, "recursive-binary", |k| {
        matches!(k, DurationKind::RecursiveBinary { .. })
    })?;
    let frac = solve_min_makespan_lp_metered(tt, budget, meter)?;
    let lower = alpha_round(tt, &frac, 0.5);
    let jobs = per_job_stats(tt, &frac, &lower);

    let d = arc.dag();
    let mut levels = vec![0; d.edge_count()];
    for j in &jobs {
        let target = if (j.rounded as f64) <= j.fractional + 1e-9 {
            j.rounded
        } else {
            j.rounded / 2
        };
        // snap to the largest canonical level ≤ target (levels are
        // powers of two for this family)
        let dur = &d.edge(j.arc_edge).duration;
        let lvl = dur
            .useful_levels()
            .filter(|&r| r <= target)
            .max()
            .unwrap_or(0);
        levels[j.arc_edge.index()] = lvl;
    }
    let a = family_tail(arc, frac, &levels, 4.0, 1.0);
    debug_assert!(
        a.solution.budget_used <= budget,
        "Theorem 3.10 keeps the budget"
    );
    Ok(a)
}

// ---------------------------------------------------------------------
// Theorem 3.16: (4/3, 14/5) bi-criteria for recursive binary splitting
// ---------------------------------------------------------------------

/// Improved (4/3, 14/5) bi-criteria approximation for recursive binary
/// splitting (Theorem 3.16).
///
/// Rounds each job's *fractional* LP allocation `r` directly to a power
/// of two: down within `[2^i, 1.5·2^i)`, up within `[1.5·2^i, 2^{i+1})`.
/// Lemma 3.15 bounds the resource inflation by 4/3; Lemmas 3.11–3.14
/// bound the duration inflation by 14/5.
pub fn solve_recbinary_improved(
    arc: &ArcInstance,
    budget: Resource,
) -> Result<ApproxSolution, SolveError> {
    require_family(arc, "recursive-binary", |k| {
        matches!(k, DurationKind::RecursiveBinary { .. })
    })?;
    let tt = expand_two_tuples(arc);
    solve_recbinary_improved_metered(arc, &tt, budget, None)
}

/// [`solve_recbinary_improved`] on a caller-supplied `D''` expansion,
/// under a cooperative budget meter.
pub fn solve_recbinary_improved_metered(
    arc: &ArcInstance,
    tt: &TwoTupleInstance,
    budget: Resource,
    meter: Option<&BudgetMeter>,
) -> Result<ApproxSolution, SolveError> {
    require_family(arc, "recursive-binary", |k| {
        matches!(k, DurationKind::RecursiveBinary { .. })
    })?;
    let frac = solve_min_makespan_lp_metered(tt, budget, meter)?;
    let d = arc.dag();
    let mut levels = vec![0; d.edge_count()];
    for info in &tt.chains {
        let r: f64 = info
            .chain_edges
            .iter()
            .map(|ce| frac.flows[ce.index()])
            .sum();
        let rbar: Resource = if r < 1.0 {
            0
        } else {
            let i = r.log2().floor() as u32;
            let lo = (1u64 << i) as f64;
            if r < 1.5 * lo {
                1u64 << i
            } else {
                1u64 << (i + 1)
            }
        };
        // Cap at the largest canonical level (2^k of Eq. 3): beyond it,
        // resources stop helping, so demanding more only wastes budget.
        let cap = d.edge(info.arc_edge).duration.max_useful_resource();
        levels[info.arc_edge.index()] = rbar.min(cap);
    }
    Ok(family_tail(arc, frac, &levels, 14.0 / 5.0, 4.0 / 3.0))
}

// ---------------------------------------------------------------------
// Minimum-resource problem (bi-criteria via the same machinery)
// ---------------------------------------------------------------------

/// Bi-criteria approximation for the **minimum-resource** problem:
/// minimize the budget subject to a makespan target `T`.
///
/// Solves the min-resource LP (objective Σ f(s,·), constraint
/// `T_t ≤ T`), α-rounds, and re-routes. Guarantees: makespan ≤ T/α and
/// budget ≤ OPT/(1−α).
pub fn min_resource(
    arc: &ArcInstance,
    target: Time,
    alpha: f64,
) -> Result<ApproxSolution, SolveError> {
    let tt = expand_two_tuples(arc);
    min_resource_metered(arc, &tt, target, alpha, None)
}

/// [`min_resource`] on a caller-supplied `D''` expansion,
/// under a cooperative budget meter.
pub fn min_resource_metered(
    arc: &ArcInstance,
    tt: &TwoTupleInstance,
    target: Time,
    alpha: f64,
    meter: Option<&BudgetMeter>,
) -> Result<ApproxSolution, SolveError> {
    let frac = solve_min_resource_lp_metered(tt, target, meter)?;
    let lower = alpha_round(tt, &frac, alpha);
    let (used, tt_flows) = route_min_flow(tt, &lower);
    Ok(finish_on_tt(arc, tt, frac, tt_flows, used, alpha))
}

fn require_family(
    arc: &ArcInstance,
    name: &'static str,
    ok: impl Fn(DurationKind) -> bool,
) -> Result<(), SolveError> {
    let improvable = arc.improvable_edges();
    if improvable
        .iter()
        .all(|&e| ok(arc.dag().edge(e).duration.kind()))
    {
        Ok(())
    } else {
        Err(SolveError::WrongFamily(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, Job};
    use crate::solution::validate;
    use crate::transform::to_arc_form;
    use rtt_dag::Dag;
    use rtt_duration::Duration;

    fn arc_of(inst: &Instance) -> ArcInstance {
        to_arc_form(inst).0
    }

    /// Serial chain of two improvable jobs (reuse pays off).
    fn serial_chain() -> Instance {
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::new(Duration::zero()));
        let x = g.add_node(Job::new(Duration::two_point(10, 4, 0)));
        let y = g.add_node(Job::new(Duration::two_point(8, 4, 2)));
        let t = g.add_node(Job::new(Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(x, y, ()).unwrap();
        g.add_edge(y, t, ()).unwrap();
        Instance::new(g).unwrap()
    }

    #[test]
    fn bicriteria_on_serial_chain() {
        let inst = serial_chain();
        let arc = arc_of(&inst);
        let res = solve_bicriteria(&arc, 4, 0.5).unwrap();
        validate(&arc, &res.solution).unwrap();
        // 4 units flow through both jobs: makespan 0 + 2 = 2.
        assert_eq!(res.solution.makespan, 2);
        assert!(res.solution.budget_used <= 8, "≤ B/(1-α)");
        assert!(res.lp_makespan <= 2.0 + 1e-6);
    }

    #[test]
    fn bicriteria_budget_zero() {
        let inst = serial_chain();
        let arc = arc_of(&inst);
        let res = solve_bicriteria(&arc, 0, 0.5).unwrap();
        validate(&arc, &res.solution).unwrap();
        assert_eq!(res.solution.makespan, 18);
        assert_eq!(res.solution.budget_used, 0);
    }

    #[test]
    fn bicriteria_respects_guarantee_bounds() {
        let inst = serial_chain();
        let arc = arc_of(&inst);
        for b in 0..=6u64 {
            for &alpha in &[0.25, 0.5, 0.75] {
                let res = solve_bicriteria(&arc, b, alpha).unwrap();
                validate(&arc, &res.solution).unwrap();
                assert!(
                    (res.solution.budget_used as f64) <= b as f64 / (1.0 - alpha) + 1e-6,
                    "b={b} α={alpha}: used {}",
                    res.solution.budget_used
                );
                // makespan ≤ (1/α)·LP can fail only by integrality slack ≤ +max t0;
                // here check against the theorem's bound via the LP value:
                assert!(
                    res.solution.makespan as f64 <= res.lp_makespan / alpha + 1e-6,
                    "b={b} α={alpha}: makespan {} vs LP {}",
                    res.solution.makespan,
                    res.lp_makespan
                );
            }
        }
    }

    fn kway_parallel() -> Instance {
        // Two parallel hot cells with 100 updates each + a cold one.
        let mut g: Dag<(), ()> = Dag::new();
        let s = g.add_node(());
        let x = g.add_node(());
        let y = g.add_node(());
        let z = g.add_node(());
        let t = g.add_node(());
        g.add_parallel_edges(s, x, (), 100).unwrap();
        g.add_parallel_edges(s, y, (), 100).unwrap();
        g.add_parallel_edges(s, z, (), 5).unwrap();
        g.add_edge(x, t, ()).unwrap();
        g.add_edge(y, t, ()).unwrap();
        g.add_edge(z, t, ()).unwrap();
        Instance::race_dag(&g, Duration::kway).unwrap()
    }

    #[test]
    fn kway_5approx_within_budget_and_bound() {
        let inst = kway_parallel();
        let arc = arc_of(&inst);
        for b in [0u64, 2, 5, 10, 20, 40] {
            let res = solve_kway_5approx(&arc, b).unwrap();
            validate(&arc, &res.solution).unwrap();
            assert!(
                res.solution.budget_used <= b,
                "budget kept: {} <= {b}",
                res.solution.budget_used
            );
            assert!(
                res.solution.makespan as f64 <= 5.0 * res.lp_makespan.max(1.0) + 1e-6,
                "b={b}: makespan {} vs 5·LP {}",
                res.solution.makespan,
                5.0 * res.lp_makespan
            );
        }
    }

    #[test]
    fn kway_rejects_other_families() {
        let inst = serial_chain();
        let arc = arc_of(&inst);
        assert!(matches!(
            solve_kway_5approx(&arc, 3),
            Err(SolveError::WrongFamily(_))
        ));
    }

    fn recbinary_instance() -> Instance {
        let mut g: Dag<(), ()> = Dag::new();
        let s = g.add_node(());
        let x = g.add_node(());
        let y = g.add_node(());
        let t = g.add_node(());
        g.add_parallel_edges(s, x, (), 64).unwrap();
        g.add_parallel_edges(x, y, (), 32).unwrap();
        g.add_edge(y, t, ()).unwrap();
        Instance::race_dag(&g, Duration::recursive_binary).unwrap()
    }

    #[test]
    fn recbinary_4approx_within_budget() {
        let inst = recbinary_instance();
        let arc = arc_of(&inst);
        for b in [0u64, 2, 4, 8, 16, 32] {
            let res = solve_recbinary_4approx(&arc, b).unwrap();
            validate(&arc, &res.solution).unwrap();
            assert!(res.solution.budget_used <= b);
            assert!(
                res.solution.makespan as f64 <= 4.0 * res.lp_makespan.max(1.0) + 1e-6,
                "b={b}: {} vs 4·{}",
                res.solution.makespan,
                res.lp_makespan
            );
        }
    }

    #[test]
    fn recbinary_improved_bicriteria_bounds() {
        let inst = recbinary_instance();
        let arc = arc_of(&inst);
        for b in [0u64, 3, 6, 12, 24] {
            let res = solve_recbinary_improved(&arc, b).unwrap();
            validate(&arc, &res.solution).unwrap();
            assert!(
                res.solution.budget_used as f64 <= 4.0 / 3.0 * b as f64 + 1e-6,
                "b={b}: used {}",
                res.solution.budget_used
            );
            assert!(
                res.solution.makespan as f64 <= 14.0 / 5.0 * res.lp_makespan.max(1.0) + 1e-6,
                "b={b}: {} vs 2.8·{}",
                res.solution.makespan,
                res.lp_makespan
            );
        }
    }

    #[test]
    fn min_resource_meets_relaxed_target() {
        let inst = serial_chain();
        let arc = arc_of(&inst);
        let res = min_resource(&arc, 10, 0.5).unwrap();
        validate(&arc, &res.solution).unwrap();
        assert!(
            res.solution.makespan as f64 <= 10.0 / 0.5 + 1e-6,
            "makespan {} ≤ T/α",
            res.solution.makespan
        );
        // resource within 1/(1-α) of the LP bound
        assert!(
            res.solution.budget_used as f64 <= res.lp_budget / 0.5 + 1e-6,
            "{} vs LP {}",
            res.solution.budget_used,
            res.lp_budget
        );
    }

    #[test]
    fn min_resource_infeasible_target_errors() {
        let inst = serial_chain();
        let arc = arc_of(&inst);
        // even with infinite resource the chain takes 2 (y's floor)
        assert!(matches!(
            min_resource(&arc, 1, 0.5),
            Err(SolveError::Lp(LpError::Infeasible))
        ));
    }
}
