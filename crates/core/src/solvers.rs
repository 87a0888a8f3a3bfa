//! The paper's approximation algorithms (§3.1–§3.3), each a rounding of
//! LP 6–10's solution.
//!
//! Only the LP can run long, so it is the only metered stage: a caller
//! solves LP 6–10 once ([`crate::lp_build::solve_min_makespan_lp`] or
//! [`crate::lp_build::solve_min_resource_lp`], both under an optional
//! meter) and hands its [`FractionalSolution`] to a rounding that takes
//! no meter — [`bicriteria_round_prepped`] for Theorem 3.4, or
//! [`FamilyRounding::round`] for Theorems 3.9, 3.10 and 3.16. The
//! library entries below ([`solve_bicriteria`], [`min_resource`] and
//! the three family solvers) are exactly that on a fresh `D''`
//! expansion with an unmetered LP.

use crate::instance::ArcInstance;
use crate::lp_build::{solve_min_makespan_lp, solve_min_resource_lp, FractionalSolution, LpError};
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
    /// A family-specific solver was applied to the wrong duration
    /// family; holds that family's [`FamilyRounding::requirement`].
    WrongFamily(&'static str),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Lp(e) => write!(f, "LP failure: {e}"),
            SolveError::WrongFamily(requirement) => f.write_str(requirement),
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
}

impl ApproxSolution {
    /// `solution` with the certificates of the LP solution `frac` it
    /// was rounded from and the theorem's factors.
    fn new(solution: Solution, frac: FractionalSolution, factors: (f64, f64)) -> Self {
        ApproxSolution {
            solution,
            lp_makespan: frac.makespan,
            lp_budget: frac.budget_used,
            lp_pivots: frac.pivots,
            makespan_factor: factors.0,
            resource_factor: factors.1,
        }
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
    let frac = solve_min_makespan_lp(&tt, budget, None)?;
    Ok(bicriteria_round_prepped(arc, &tt, frac, alpha))
}

/// The rounding of Theorem 3.4 on a caller-supplied LP solution and its
/// `D''` expansion: α-round the LP durations, route the rounded
/// requirements with a min-flow, and read the durations that routing
/// buys back onto `D'`. It rounds a min-makespan solution (at a budget,
/// or at every point of a warm-started sweep — see
/// `rtt_engine::execute_sweep_wire`) and a min-resource solution alike.
pub fn bicriteria_round_prepped(
    arc: &ArcInstance,
    tt: &TwoTupleInstance,
    frac: FractionalSolution,
    alpha: f64,
) -> ApproxSolution {
    let lower = alpha_round(tt, &frac, alpha);
    let (used, tt_flows) = route_min_flow(tt, &lower);
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
    let solution = Solution {
        arc_flows,
        edge_times,
        makespan,
        budget_used: used,
    };
    ApproxSolution::new(solution, frac, (1.0 / alpha, 1.0 / (1.0 - alpha)))
}

/// Bi-criteria approximation for the **minimum-resource** problem:
/// minimize the budget subject to a makespan target `T`.
///
/// Solves the min-resource LP (objective Σ f(s,·), constraint
/// `T_t ≤ T`), then rounds it as Theorem 3.4 does
/// ([`bicriteria_round_prepped`]). Guarantees: makespan ≤ T/α and
/// budget ≤ OPT/(1−α).
pub fn min_resource(
    arc: &ArcInstance,
    target: Time,
    alpha: f64,
) -> Result<ApproxSolution, SolveError> {
    let tt = expand_two_tuples(arc);
    let frac = solve_min_resource_lp(&tt, target, None)?;
    Ok(bicriteria_round_prepped(arc, &tt, frac, alpha))
}

// ---------------------------------------------------------------------
// Theorems 3.9, 3.10 and 3.16: the roundings for one duration family
// ---------------------------------------------------------------------

/// The single-duration-family roundings of LP 6–10 (§3.2–§3.3). Each
/// owns the family its instances' improvable jobs must all belong to
/// ([`FamilyRounding::requirement`], [`FamilyRounding::applies`]) and its
/// per-job level rule ([`FamilyRounding::round`]); the levels are then
/// routed with their min-flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyRounding {
    /// Theorem 3.9: makespan ≤ 5·OPT within the budget, for k-way
    /// splitting duration functions.
    KWay,
    /// Theorem 3.10: makespan ≤ 4·OPT within the budget, for recursive
    /// binary splitting duration functions.
    RecBinary,
    /// Theorem 3.16: the improved (4/3, 14/5) bi-criteria rounding for
    /// recursive binary splitting duration functions.
    RecBinaryImproved,
}

impl FamilyRounding {
    /// The one wording of the duration-family decision: what
    /// [`SolveError::WrongFamily`] prints, and what a family solver
    /// gives as its reason for declining an instance.
    pub fn requirement(self) -> &'static str {
        match self {
            FamilyRounding::KWay => "this solver requires k-way duration functions",
            FamilyRounding::RecBinary | FamilyRounding::RecBinaryImproved => {
                "this solver requires recursive-binary duration functions"
            }
        }
    }

    /// Whether every improvable job of `arc` has this rounding's
    /// duration family.
    pub fn applies(self, arc: &ArcInstance) -> bool {
        let d = arc.dag();
        arc.improvable_edges()
            .iter()
            .all(|&e| match d.edge(e).duration.kind() {
                DurationKind::KWay { .. } => self == FamilyRounding::KWay,
                DurationKind::RecursiveBinary { .. } => self != FamilyRounding::KWay,
                _ => false,
            })
    }

    /// Rounds `frac`, LP 6–10's solution at `budget` on `arc`'s `D''`
    /// expansion `tt`, to per-job levels and routes them with their
    /// min-flow. The caller checks [`FamilyRounding::applies`] first.
    ///
    /// * Theorem 3.9 (`KWay`): the (2,2) bi-criteria allocation `r_j`
    ///   (α = 1/2) shrinks back under the LP's fractional `r*_j` —
    ///   `⌊r_j/2⌋` in general, with the paper's special cases for
    ///   `r_j ≤ 3` — and the re-routed levels fit in the budget.
    /// * Theorem 3.10 (`RecBinary`): an `r_j` above `r*_j` is halved;
    ///   halving a power-of-two reducer at most doubles its duration,
    ///   giving makespan ≤ 4·OPT within the budget.
    /// * Theorem 3.16 (`RecBinaryImproved`): `r*_j` itself rounds to a
    ///   power of two, down within `[2^i, 1.5·2^i)` and up within
    ///   `[1.5·2^i, 2^{i+1})`. Lemma 3.15 bounds the resource inflation
    ///   by 4/3; Lemmas 3.11–3.14 bound the duration inflation by 14/5.
    pub fn round(
        self,
        arc: &ArcInstance,
        tt: &TwoTupleInstance,
        frac: FractionalSolution,
        budget: Resource,
    ) -> ApproxSolution {
        let d = arc.dag();
        let lower = match self {
            FamilyRounding::KWay | FamilyRounding::RecBinary => alpha_round(tt, &frac, 0.5),
            FamilyRounding::RecBinaryImproved => Vec::new(),
        };
        let mut levels = vec![0; d.edge_count()];
        for info in &tt.chains {
            let fractional = info.sum(&frac.flows);
            let duration = &d.edge(info.arc_edge).duration;
            levels[info.arc_edge.index()] = match self {
                FamilyRounding::KWay => match info.sum(&lower) {
                    0 => 0,
                    rounded if rounded > 3 => rounded / 2,
                    _ if fractional >= 2.0 - 1e-9 => 2,
                    _ => 0,
                },
                FamilyRounding::RecBinary => {
                    let rounded = info.sum(&lower);
                    let target = if (rounded as f64) <= fractional + 1e-9 {
                        rounded
                    } else {
                        rounded / 2
                    };
                    // snap to the level `target` units buy (a power of
                    // two for this family)
                    duration.level(target)
                }
                FamilyRounding::RecBinaryImproved => {
                    let rbar: Resource = if fractional < 1.0 {
                        0
                    } else {
                        let i = fractional.log2().floor() as u32;
                        let lo = (1u64 << i) as f64;
                        if fractional < 1.5 * lo {
                            1u64 << i
                        } else {
                            1u64 << (i + 1)
                        }
                    };
                    // Cap at the largest canonical level (2^k of Eq. 3):
                    // beyond it, resources stop helping, so demanding
                    // more only wastes budget.
                    rbar.min(duration.max_useful_resource())
                }
            };
        }
        let factors = match self {
            FamilyRounding::KWay => (5.0, 1.0),
            FamilyRounding::RecBinary => (4.0, 1.0),
            FamilyRounding::RecBinaryImproved => (14.0 / 5.0, 4.0 / 3.0),
        };
        let a = ApproxSolution::new(routed_solution(arc, &levels), frac, factors);
        debug_assert!(
            self == FamilyRounding::RecBinaryImproved || a.solution.budget_used <= budget,
            "Theorems 3.9 and 3.10 keep the budget: {self:?} rerouted {} > B = {budget}",
            a.solution.budget_used
        );
        a
    }

    /// The library entry: rejects the wrong family before paying for
    /// the `D''` expansion, then expands, solves LP 6–10 unmetered and
    /// rounds.
    fn solve(self, arc: &ArcInstance, budget: Resource) -> Result<ApproxSolution, SolveError> {
        if !self.applies(arc) {
            return Err(SolveError::WrongFamily(self.requirement()));
        }
        let tt = expand_two_tuples(arc);
        let frac = solve_min_makespan_lp(&tt, budget, None)?;
        Ok(self.round(arc, &tt, frac, budget))
    }
}

/// Single-criteria 5-approximation for the minimum-makespan problem with
/// k-way splitting duration functions (Theorem 3.9; see
/// [`FamilyRounding::KWay`]).
pub fn solve_kway_5approx(
    arc: &ArcInstance,
    budget: Resource,
) -> Result<ApproxSolution, SolveError> {
    FamilyRounding::KWay.solve(arc, budget)
}

/// Single-criteria 4-approximation for the minimum-makespan problem with
/// recursive binary splitting duration functions (Theorem 3.10; see
/// [`FamilyRounding::RecBinary`]).
pub fn solve_recbinary_4approx(
    arc: &ArcInstance,
    budget: Resource,
) -> Result<ApproxSolution, SolveError> {
    FamilyRounding::RecBinary.solve(arc, budget)
}

/// Improved (4/3, 14/5) bi-criteria approximation for recursive binary
/// splitting (Theorem 3.16; see [`FamilyRounding::RecBinaryImproved`]).
pub fn solve_recbinary_improved(
    arc: &ArcInstance,
    budget: Resource,
) -> Result<ApproxSolution, SolveError> {
    FamilyRounding::RecBinaryImproved.solve(arc, budget)
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
