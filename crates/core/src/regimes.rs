//! The paper's three resource-reuse regimes side by side.
//!
//! §1 poses three successively more permissive questions about how a
//! budget of `B` resource units may be shared among the jobs of `D(P)`:
//!
//! * **Question 1.1 — no reuse.** Every job keeps its allocation for the
//!   whole execution; the budget constraint is `Σ_v r_v ≤ B`. This is
//!   the classical *discrete time-cost tradeoff* setting (De et al.,
//!   Skutella).
//! * **Question 1.2 — global reuse.** A job allocates right before its
//!   first update and frees right after its last one; freed units return
//!   to a global pool any later job can grab. This is scheduling
//!   *precedence-constrained malleable tasks* (Du–Leung, Jansen–Zhang).
//! * **Question 1.3 — reuse over paths.** The paper's contribution: each
//!   unit flows along one source→sink path and may serve every job it
//!   passes through. Implemented by the rest of this crate.
//!
//! This module implements the first two regimes as executable baselines
//! so that the *reuse advantage* — how much routing buys over dedicated
//! allocations, and how much a global pool would buy over routing — can
//! be measured instead of argued. See [`compare_regimes`].

use crate::exact::{branch_and_bound, Goal, Regime};
use crate::instance::ArcInstance;
use crate::lp_build::{FractionalSolution, LpError, MakespanLp};
use crate::solution::level_times;
use crate::transform::{expand_two_tuples, TwoTupleInstance};
use rtt_budget::{BudgetMeter, Exhausted};
use rtt_dag::sp::decompose;
use rtt_duration::{Resource, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

// ---------------------------------------------------------------------
// Question 1.1 — no reuse (dedicated allocations). The exact searches
// are `crate::exact`'s one branch-and-bound, costing the sum of levels;
// the LP relaxation is `crate::lp_build`'s LP 6–10 builder in the same
// no-reuse regime; the series-parallel curve is `crate::sp_dp`'s DP walk
// with the no-reuse series rule (see that module's docs).
// ---------------------------------------------------------------------

/// A solution in the no-reuse regime: a dedicated resource level per arc
/// whose *sum* is the budget consumed (nothing is routed or shared).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoReuseSolution {
    /// Dedicated resource level per `D'` edge (0 on dummies).
    pub levels: Vec<Resource>,
    /// Achieved duration per `D'` edge.
    pub edge_times: Vec<Time>,
    /// Longest path of `edge_times`.
    pub makespan: Time,
    /// `Σ levels` — the budget this solution consumes.
    pub budget_used: Resource,
}

/// Why a claimed no-reuse solution is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoReuseError {
    /// Vector lengths don't match the instance.
    ShapeMismatch,
    /// `budget_used` differs from `Σ levels`.
    BudgetMismatch,
    /// An arc claims a duration outside `[t_e(level), t_e(0)]`.
    TimeUnachievable {
        /// Edge index.
        edge: usize,
    },
    /// Claimed makespan differs from the longest path of durations.
    MakespanMismatch,
}

impl fmt::Display for NoReuseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoReuseError::ShapeMismatch => write!(f, "no-reuse solution shape mismatch"),
            NoReuseError::BudgetMismatch => write!(f, "budget_used != sum of levels"),
            NoReuseError::TimeUnachievable { edge } => {
                write!(f, "edge {edge} claims an unachievable duration")
            }
            NoReuseError::MakespanMismatch => write!(f, "claimed makespan inconsistent"),
        }
    }
}

impl std::error::Error for NoReuseError {}

/// Certifies a no-reuse solution: shapes, budget arithmetic, per-edge
/// duration achievability, and the makespan recomputation.
pub fn validate_noreuse(arc: &ArcInstance, sol: &NoReuseSolution) -> Result<(), NoReuseError> {
    let d = arc.dag();
    if sol.levels.len() != d.edge_count() || sol.edge_times.len() != d.edge_count() {
        return Err(NoReuseError::ShapeMismatch);
    }
    if sol.levels.iter().sum::<Resource>() != sol.budget_used {
        return Err(NoReuseError::BudgetMismatch);
    }
    for e in d.edge_ids() {
        let i = e.index();
        let best = arc.arc_time(e, sol.levels[i]);
        let worst = arc.arc_time(e, 0);
        if sol.edge_times[i] < best || sol.edge_times[i] > worst {
            return Err(NoReuseError::TimeUnachievable { edge: i });
        }
    }
    let recomputed = rtt_dag::longest_path_edges(d, |e| sol.edge_times[e.index()])
        .expect("acyclic")
        .weight;
    if recomputed != sol.makespan {
        return Err(NoReuseError::MakespanMismatch);
    }
    Ok(())
}

fn noreuse_solution_from_levels(arc: &ArcInstance, levels: Vec<Resource>) -> NoReuseSolution {
    let (edge_times, makespan) = level_times(arc, &levels);
    let budget_used = levels.iter().sum();
    NoReuseSolution {
        levels,
        edge_times,
        makespan,
        budget_used,
    }
}

/// Exact minimum-makespan in the **no-reuse** regime (Question 1.1):
/// branch-and-bound over canonical levels with `Σ levels ≤ budget`.
/// Exponential — use on the same small instances as
/// [`crate::exact::solve_exact`].
pub fn solve_noreuse_exact(arc: &ArcInstance, budget: Resource) -> NoReuseSolution {
    solve_noreuse_exact_metered(arc, budget, None)
        .expect("an unmetered search cannot exhaust")
}

/// [`solve_noreuse_exact`] under a cooperative budget meter: every
/// branch-and-bound node charges one `dp_merge_steps` unit (the
/// combinatorial-work dimension), so a runaway search bails out with a
/// typed [`Exhausted`] instead of exploring on.
pub fn solve_noreuse_exact_metered(
    arc: &ArcInstance,
    budget: Resource,
    meter: Option<&BudgetMeter>,
) -> Result<NoReuseSolution, Exhausted> {
    let found = branch_and_bound(arc, Regime::NoReuse, Goal::MinMakespan { budget }, meter)?
        .expect("the all-zero incumbent always stands");
    Ok(noreuse_solution_from_levels(arc, found.levels))
}

/// Exact minimum-resource in the no-reuse regime: the smallest `Σ levels`
/// achieving makespan `≤ target`, or `None` if unreachable.
pub fn solve_noreuse_exact_min_resource(
    arc: &ArcInstance,
    target: Time,
) -> Option<NoReuseSolution> {
    solve_noreuse_exact_min_resource_metered(arc, target, None)
        .expect("an unmetered search cannot exhaust")
}

/// [`solve_noreuse_exact_min_resource`] under a cooperative budget
/// meter (one `dp_merge_steps` charge per search node, as in
/// [`solve_noreuse_exact_metered`]).
pub fn solve_noreuse_exact_min_resource_metered(
    arc: &ArcInstance,
    target: Time,
    meter: Option<&BudgetMeter>,
) -> Result<Option<NoReuseSolution>, Exhausted> {
    let found = branch_and_bound(arc, Regime::NoReuse, Goal::MinCost { target }, meter)?;
    Ok(found.map(|found| noreuse_solution_from_levels(arc, found.levels)))
}

/// A no-reuse approximation result with its LP certificates.
#[derive(Debug, Clone)]
pub struct NoReuseApprox {
    /// The certified no-reuse solution.
    pub solution: NoReuseSolution,
    /// LP lower bound on the optimal makespan at this budget.
    pub lp_makespan: f64,
    /// LP resource usage (lower bound for min-resource use).
    pub lp_budget: f64,
}

/// Solves the no-reuse LP relaxation: minimize `T_t` subject to
/// `Σ x_e ≤ B` over per-arc purchases `x_e ∈ [0, r_e]` — LP 6–10 in its
/// no-reuse regime (see [`crate::lp_build`]), solved cold.
pub fn solve_noreuse_lp(
    tt: &TwoTupleInstance,
    budget: Resource,
) -> Result<FractionalSolution, LpError> {
    solve_noreuse_lp_metered(tt, budget, None)
}

/// [`solve_noreuse_lp`] under a cooperative budget meter (one
/// `lp_pivots` charge per simplex pivot).
pub fn solve_noreuse_lp_metered(
    tt: &TwoTupleInstance,
    budget: Resource,
    meter: Option<&BudgetMeter>,
) -> Result<FractionalSolution, LpError> {
    let mut lp = MakespanLp::build(tt, Regime::NoReuse);
    lp.set_budget(budget);
    lp.solve_cold(tt, meter)
}

/// Bi-criteria (1/α, 1/(1−α)) approximation in the **no-reuse** regime —
/// Skutella's rounding applied to the sum-budget LP. The makespan bound
/// is relative to the no-reuse OPT at budget `B`; the consumed budget is
/// at most `B/(1−α)`.
pub fn solve_noreuse_bicriteria(
    arc: &ArcInstance,
    budget: Resource,
    alpha: f64,
) -> Result<NoReuseApprox, LpError> {
    let tt = expand_two_tuples(arc);
    solve_noreuse_bicriteria_metered(arc, &tt, budget, alpha, None)
}

/// [`solve_noreuse_bicriteria`] on a caller-supplied `D''` expansion,
/// under a cooperative budget meter.
pub fn solve_noreuse_bicriteria_metered(
    arc: &ArcInstance,
    tt: &TwoTupleInstance,
    budget: Resource,
    alpha: f64,
    meter: Option<&BudgetMeter>,
) -> Result<NoReuseApprox, LpError> {
    let frac = solve_noreuse_lp_metered(tt, budget, meter)?;
    let lower = crate::rounding::alpha_round(tt, &frac, alpha);
    // collapse the per-chain purchases into per-D'-edge levels
    let d = arc.dag();
    let mut levels = vec![0; d.edge_count()];
    for info in &tt.chains {
        levels[info.arc_edge.index()] = info
            .chain_edges
            .iter()
            .map(|ce| lower[ce.index()])
            .sum::<Resource>();
    }
    let solution = noreuse_solution_from_levels(arc, levels);
    Ok(NoReuseApprox {
        solution,
        lp_makespan: frac.makespan,
        lp_budget: frac.budget_used,
    })
}

/// No-reuse tradeoff curve for a series-parallel [`ArcInstance`]:
/// `curve[λ]` = optimal no-reuse makespan with budget `λ`. `None` if the
/// instance is not two-terminal series-parallel.
///
/// This is §3.4's DP walk with the no-reuse series rule (see
/// [`crate::sp_dp`]): a series composition splits `λ` between its
/// children instead of handing the full `λ` to both, so comparing this
/// curve with [`crate::sp_dp::solve_sp_exact`]'s measures exactly what
/// reuse over paths buys on SP instances.
pub fn sp_noreuse_curve(arc: &ArcInstance, budget: Resource) -> Option<Vec<Time>> {
    let d = arc.dag();
    let tree = decompose(d, arc.source(), arc.sink())?;
    let (curve, _, _) = crate::sp_dp::walk_unmetered(
        &tree,
        Regime::NoReuse,
        &|e| d.edge(e).duration.clone(),
        budget,
    );
    Some(curve)
}

// ---------------------------------------------------------------------
// Question 1.2 — global reuse (malleable tasks, greedy list scheduling)
// ---------------------------------------------------------------------

/// Start policy of the greedy global-reuse scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalPolicy {
    /// Start every ready job immediately with the best level the pool
    /// can afford right now (never idles; makespan ≤ base makespan).
    Eager,
    /// Hold a ready job until the pool can afford its full useful level
    /// (`min(max_useful, budget)`); resource contention may serialize
    /// parallel jobs, so the makespan can *exceed* the base makespan.
    Patient,
}

/// A feasible global-reuse schedule: start/finish times and the level
/// each arc ran at, with pool usage ≤ budget at every instant.
#[derive(Debug, Clone)]
pub struct GlobalSchedule {
    /// Start time per arc.
    pub start: Vec<Time>,
    /// Finish time per arc (`start + t_e(level)`).
    pub finish: Vec<Time>,
    /// Resource level each arc held while running.
    pub level: Vec<Resource>,
    /// Time the sink event fires.
    pub makespan: Time,
    /// Maximum pool usage observed.
    pub peak_in_use: Resource,
}

/// Greedy list scheduler for the **global-reuse** regime (Question 1.2):
/// jobs allocate from a global pool when they start and free on
/// completion, like the malleable-task model of the related work the
/// paper cites (Lepère–Trystram–Woeginger; Jansen–Zhang). Ready jobs are
/// started in order of decreasing zero-resource tail length (critical
/// path first), with the level chosen per [`GlobalPolicy`].
///
/// This is a *heuristic baseline*, not an approximation algorithm: its
/// makespan is measured, not proved. (Question 1.2 is itself strongly
/// NP-hard, per Du–Leung.)
pub fn global_reuse_schedule(
    arc: &ArcInstance,
    budget: Resource,
    policy: GlobalPolicy,
) -> GlobalSchedule {
    let d = arc.dag();
    let m = d.edge_count();

    // static priority: longest zero-resource path from the arc's head to
    // the sink (the classical critical-path list-scheduling key)
    let tail = {
        let mut tail = vec![0u64; d.node_count()];
        let order = rtt_dag::topo_order(d).expect("acyclic");
        for &v in order.iter().rev() {
            let mut best = 0;
            for &e in d.out_edges(v) {
                let w = d.edge(e).duration.time(0);
                let cand = w.saturating_add(tail[d.endpoints(e).1.index()]);
                best = best.max(cand);
            }
            tail[v.index()] = best;
        }
        tail
    };
    let priority = |e: rtt_dag::EdgeId| {
        let (_, dst) = d.endpoints(e);
        d.edge(e)
            .duration
            .time(0)
            .saturating_add(tail[dst.index()])
    };

    let mut start = vec![Time::MAX; m];
    let mut finish = vec![Time::MAX; m];
    let mut level = vec![0u64; m];
    let mut pool = budget;
    let mut peak = 0u64;

    // node readiness: remaining in-degree; node fire time
    let mut missing: Vec<usize> = d.node_ids().map(|v| d.in_degree(v)).collect();
    let mut fired: Vec<Option<Time>> = vec![None; d.node_count()];

    // events: (finish time, edge) min-heap
    let mut events: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    let mut ready: Vec<rtt_dag::EdgeId> = Vec::new();

    let fire = |v: rtt_dag::NodeId,
                    t: Time,
                    fired: &mut Vec<Option<Time>>,
                    ready: &mut Vec<rtt_dag::EdgeId>| {
        debug_assert!(fired[v.index()].is_none());
        fired[v.index()] = Some(t);
        for &e in d.out_edges(v) {
            ready.push(e);
        }
    };

    fire(arc.source(), 0, &mut fired, &mut ready);
    let mut now = 0u64;
    loop {
        // start whatever the policy allows, most critical first
        ready.sort_by_key(|&e| Reverse(priority(e)));
        let mut still_ready = Vec::new();
        for &e in &ready {
            let dur = &d.edge(e).duration;
            let max_useful = dur.max_useful_resource().min(budget);
            let want = match policy {
                GlobalPolicy::Eager => {
                    // best canonical level affordable right now
                    dur.useful_levels().filter(|&r| r <= pool).max().unwrap_or(0)
                }
                GlobalPolicy::Patient => {
                    if pool < max_useful {
                        still_ready.push(e);
                        continue;
                    }
                    max_useful
                }
            };
            // don't pay for units that buy nothing
            let want = dur
                .useful_levels()
                .filter(|&r| dur.time(r) == dur.time(want))
                .min()
                .unwrap_or(0)
                .min(want);
            pool -= want;
            peak = peak.max(budget - pool);
            let i = e.index();
            start[i] = now;
            level[i] = want;
            finish[i] = now.saturating_add(dur.time(want));
            events.push(Reverse((finish[i], i)));
        }
        ready = still_ready;

        // advance to the next completion
        let Some(Reverse((t, i))) = events.pop() else {
            break;
        };
        now = t;
        pool += level[i];
        // drain all completions at the same instant
        let mut done = vec![i];
        while let Some(&Reverse((t2, j))) = events.peek() {
            if t2 == now {
                events.pop();
                pool += level[j];
                done.push(j);
            } else {
                break;
            }
        }
        for i in done {
            let (_, dst) = d.endpoints(rtt_dag::EdgeId(i as u32));
            missing[dst.index()] -= 1;
            if missing[dst.index()] == 0 {
                fire(dst, now, &mut fired, &mut ready);
            }
        }
    }

    let makespan = fired[arc.sink().index()].expect("sink fires once all arcs complete");
    GlobalSchedule {
        start,
        finish,
        level,
        makespan,
        peak_in_use: peak,
    }
}

/// Why a claimed global schedule is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlobalScheduleError {
    /// Some arc never ran.
    Unscheduled {
        /// Edge index.
        edge: usize,
    },
    /// An arc started before its predecessors finished.
    PrecedenceViolated {
        /// Edge index.
        edge: usize,
    },
    /// `finish − start` is shorter than the level can buy.
    DurationTooShort {
        /// Edge index.
        edge: usize,
    },
    /// Pool usage exceeded the budget at some instant.
    OverBudget {
        /// The instant of the violation.
        at: Time,
    },
    /// Claimed makespan below the last finish.
    MakespanMismatch,
}

impl fmt::Display for GlobalScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalScheduleError::Unscheduled { edge } => write!(f, "arc {edge} never ran"),
            GlobalScheduleError::PrecedenceViolated { edge } => {
                write!(f, "arc {edge} started before its predecessors finished")
            }
            GlobalScheduleError::DurationTooShort { edge } => {
                write!(f, "arc {edge} ran faster than its level allows")
            }
            GlobalScheduleError::OverBudget { at } => {
                write!(f, "pool usage exceeds the budget at time {at}")
            }
            GlobalScheduleError::MakespanMismatch => write!(f, "makespan inconsistent"),
        }
    }
}

impl std::error::Error for GlobalScheduleError {}

/// Certifies a global-reuse schedule: every arc ran for at least the
/// duration its level buys, after all its predecessors finished, with
/// total in-use resource ≤ budget at every instant, and the makespan is
/// the last finish time.
pub fn verify_global_schedule(
    arc: &ArcInstance,
    budget: Resource,
    s: &GlobalSchedule,
) -> Result<(), GlobalScheduleError> {
    let d = arc.dag();
    let mut last_finish = 0u64;
    for e in d.edge_refs() {
        let i = e.id.index();
        if s.start[i] == Time::MAX || s.finish[i] == Time::MAX {
            return Err(GlobalScheduleError::Unscheduled { edge: i });
        }
        let need = arc.arc_time(e.id, s.level[i]);
        if s.finish[i].saturating_sub(s.start[i]) < need {
            return Err(GlobalScheduleError::DurationTooShort { edge: i });
        }
        // predecessors: every in-arc of the source endpoint
        for &p in d.in_edges(e.src) {
            if s.finish[p.index()] > s.start[i] {
                return Err(GlobalScheduleError::PrecedenceViolated { edge: i });
            }
        }
        last_finish = last_finish.max(s.finish[i]);
    }
    // pool usage sweep: +level at start, −level at finish (in i128, so
    // levels and budgets of 2^63 and more keep their sign)
    let mut deltas: Vec<(Time, i128)> = Vec::with_capacity(2 * d.edge_count());
    for i in 0..d.edge_count() {
        deltas.push((s.start[i], i128::from(s.level[i])));
        deltas.push((s.finish[i], -i128::from(s.level[i])));
    }
    // frees apply before grabs at the same instant
    deltas.sort_by_key(|&(t, d)| (t, d));
    let mut in_use = 0i128;
    for (t, delta) in deltas {
        in_use += delta;
        if in_use > i128::from(budget) {
            return Err(GlobalScheduleError::OverBudget { at: t });
        }
    }
    if s.makespan < last_finish {
        return Err(GlobalScheduleError::MakespanMismatch);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The three regimes side by side
// ---------------------------------------------------------------------

/// Makespans of the three regimes on one instance at one budget — the
/// measured version of the paper's Question 1.1 → 1.2 → 1.3 hierarchy.
#[derive(Debug, Clone)]
pub struct RegimeComparison {
    /// Question 1.1 — dedicated allocations (exact).
    pub noreuse: Time,
    /// Question 1.3 — reuse over paths (exact; the paper's regime).
    pub path_reuse: Time,
    /// Question 1.2 — global pool, greedy eager policy (heuristic).
    pub global_eager: Time,
    /// Question 1.2 — global pool, greedy patient policy (heuristic).
    pub global_patient: Time,
}

impl RegimeComparison {
    /// Best of the two greedy global policies.
    pub fn global_best(&self) -> Time {
        self.global_eager.min(self.global_patient)
    }
}

/// Computes all three regimes exactly/greedily on a small instance.
/// `noreuse ≥ path_reuse` always (any dedicated allocation is routable);
/// the greedy global numbers are heuristic and carry no ordering
/// guarantee, though the *optimal* global makespan would be ≤ both.
pub fn compare_regimes(arc: &ArcInstance, budget: Resource) -> RegimeComparison {
    let noreuse = solve_noreuse_exact(arc, budget).makespan;
    let path_reuse = crate::exact::solve_exact(arc, budget).solution.makespan;
    let global_eager = global_reuse_schedule(arc, budget, GlobalPolicy::Eager).makespan;
    let global_patient = global_reuse_schedule(arc, budget, GlobalPolicy::Patient).makespan;
    RegimeComparison {
        noreuse,
        path_reuse,
        global_eager,
        global_patient,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Activity, Instance, Job};
    use crate::transform::to_arc_form;
    use rtt_dag::Dag;
    use rtt_duration::Duration;

    /// s → x → y → t: two serial jobs, each 10 → 0 with 4 units.
    fn serial_chain() -> ArcInstance {
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::new(Duration::zero()));
        let x = g.add_node(Job::new(Duration::two_point(10, 4, 0)));
        let y = g.add_node(Job::new(Duration::two_point(10, 4, 0)));
        let t = g.add_node(Job::new(Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(x, y, ()).unwrap();
        g.add_edge(y, t, ()).unwrap();
        to_arc_form(&Instance::new(g).unwrap()).0
    }

    /// Two parallel jobs, each 10 → 1 with 4 units.
    fn parallel_pair() -> ArcInstance {
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, Activity::new(Duration::two_point(10, 4, 1)))
            .unwrap();
        g.add_edge(s, t, Activity::new(Duration::two_point(10, 4, 1)))
            .unwrap();
        ArcInstance::new(g).unwrap()
    }

    #[test]
    fn noreuse_pays_twice_on_serial_chains() {
        let arc = serial_chain();
        // path reuse: 4 units serve both jobs; no reuse needs 8.
        let nr4 = solve_noreuse_exact(&arc, 4);
        validate_noreuse(&arc, &nr4).unwrap();
        assert_eq!(nr4.makespan, 10, "4 units fix only one job");
        let nr8 = solve_noreuse_exact(&arc, 8);
        assert_eq!(nr8.makespan, 0);
        assert_eq!(nr8.budget_used, 8);
        let path = crate::exact::solve_exact(&arc, 4);
        assert_eq!(path.solution.makespan, 0, "reuse over the path");
    }

    #[test]
    fn noreuse_exact_min_resource_counts_sum() {
        let arc = serial_chain();
        let sol = solve_noreuse_exact_min_resource(&arc, 0).unwrap();
        assert_eq!(sol.budget_used, 8);
        assert!(solve_noreuse_exact_min_resource(&arc, u64::MAX).is_some());
        // parallel pair floor is 1 per branch: target 0 unreachable
        let p = parallel_pair();
        assert!(solve_noreuse_exact_min_resource(&p, 0).is_none());
        let s1 = solve_noreuse_exact_min_resource(&p, 1).unwrap();
        assert_eq!(s1.budget_used, 8);
    }

    #[test]
    fn noreuse_never_beats_path_reuse() {
        let arc = serial_chain();
        for b in 0..=10u64 {
            let nr = solve_noreuse_exact(&arc, b);
            let pr = crate::exact::solve_exact(&arc, b);
            assert!(
                nr.makespan >= pr.solution.makespan,
                "b={b}: no-reuse {} < path-reuse {}",
                nr.makespan,
                pr.solution.makespan
            );
        }
    }

    #[test]
    fn noreuse_lp_counts_sum_budget() {
        let arc = serial_chain();
        let tt = expand_two_tuples(&arc);
        // reuse LP reaches 0 with B=4; no-reuse LP needs 8
        let f4 = solve_noreuse_lp(&tt, 4).unwrap();
        assert!(f4.makespan > 4.9, "B=4 fixes one job fractionally: {}", f4.makespan);
        let f8 = solve_noreuse_lp(&tt, 8).unwrap();
        assert!(f8.makespan.abs() < 1e-6);
    }

    #[test]
    fn noreuse_bicriteria_bounds_hold() {
        let arc = serial_chain();
        for b in [0u64, 2, 4, 8, 12] {
            for alpha in [0.3, 0.5, 0.7] {
                let r = solve_noreuse_bicriteria(&arc, b, alpha).unwrap();
                validate_noreuse(&arc, &r.solution).unwrap();
                assert!(
                    (r.solution.budget_used as f64) <= b as f64 / (1.0 - alpha) + 1e-6,
                    "b={b} α={alpha}: used {}",
                    r.solution.budget_used
                );
                assert!(
                    r.solution.makespan as f64 <= r.lp_makespan / alpha + 1e-6,
                    "b={b} α={alpha}: {} vs LP {}",
                    r.solution.makespan,
                    r.lp_makespan
                );
            }
        }
    }

    #[test]
    fn sp_noreuse_curve_matches_exact() {
        let arc = serial_chain();
        let curve = sp_noreuse_curve(&arc, 10).unwrap();
        for b in 0..=10u64 {
            let ex = solve_noreuse_exact(&arc, b);
            assert_eq!(curve[b as usize], ex.makespan, "budget {b}");
        }
    }

    #[test]
    fn sp_noreuse_vs_reuse_gap_on_chain() {
        let arc = serial_chain();
        let noreuse = sp_noreuse_curve(&arc, 8).unwrap();
        let (reuse, _) = crate::sp_dp::solve_sp_exact(&arc, 8).unwrap();
        // at B=4 reuse reaches 0, no-reuse still 10
        assert_eq!(reuse.curve[4], 0);
        assert_eq!(noreuse[4], 10);
        // both reach 0 eventually
        assert_eq!(noreuse[8], 0);
        // no-reuse is never better
        for (b, (&nr, &r)) in noreuse.iter().zip(&reuse.curve).enumerate() {
            assert!(nr >= r, "budget {b}");
        }
    }

    #[test]
    fn global_eager_never_exceeds_base_makespan() {
        let arc = parallel_pair();
        for b in [0u64, 2, 4, 8] {
            let s = global_reuse_schedule(&arc, b, GlobalPolicy::Eager);
            verify_global_schedule(&arc, b, &s).unwrap();
            assert!(s.makespan <= arc.base_makespan(), "b={b}");
            assert!(s.peak_in_use <= b);
        }
    }

    #[test]
    fn global_patient_beats_path_reuse_on_parallel_structure() {
        // The regime hierarchy in action: with B=4, path reuse cannot
        // help both parallel branches (units cannot leave their path),
        // but the global pool runs them back to back: 1 + 1 = 2 ≪ 10.
        let arc = parallel_pair();
        let s = global_reuse_schedule(&arc, 4, GlobalPolicy::Patient);
        verify_global_schedule(&arc, 4, &s).unwrap();
        assert_eq!(s.makespan, 2);
        let path = crate::exact::solve_exact(&arc, 4).solution.makespan;
        assert_eq!(path, 10, "one branch improved, the other not");
        assert!(s.makespan < path);
    }

    #[test]
    fn global_schedules_are_verified_on_chain() {
        let arc = serial_chain();
        for policy in [GlobalPolicy::Eager, GlobalPolicy::Patient] {
            for b in [0u64, 4, 8] {
                let s = global_reuse_schedule(&arc, b, policy);
                verify_global_schedule(&arc, b, &s).unwrap();
            }
        }
        // with 4 units the pool serves both serial jobs (like the path)
        let s = global_reuse_schedule(&arc, 4, GlobalPolicy::Patient);
        assert_eq!(s.makespan, 0);
    }

    #[test]
    fn verifier_rejects_corrupted_schedules() {
        let arc = serial_chain();
        let good = global_reuse_schedule(&arc, 4, GlobalPolicy::Eager);
        verify_global_schedule(&arc, 4, &good).unwrap();

        // holding 100 units over a positive-length interval must trip the
        // pool sweep (zero-length intervals hold nothing, so stretch one)
        let mut bad = good.clone();
        bad.level.iter_mut().for_each(|l| *l = 100);
        bad.finish.iter_mut().for_each(|f| *f += 1);
        bad.makespan += 1;
        assert!(verify_global_schedule(&arc, 4, &bad).is_err());

        let mut bad = good.clone();
        bad.start[0] = Time::MAX;
        assert!(matches!(
            verify_global_schedule(&arc, 4, &bad),
            Err(GlobalScheduleError::Unscheduled { edge: 0 })
        ));
    }

    #[test]
    fn verifier_sweeps_pool_usage_past_i64() {
        // a level of 2^63 inside a budget of u64::MAX: both must keep
        // their sign in the pool sweep
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, Activity::new(Duration::two_point(10, 1 << 63, 1)))
            .unwrap();
        g.add_edge(s, t, Activity::new(Duration::two_point(10, 4, 1)))
            .unwrap();
        let arc = ArcInstance::new(g).unwrap();
        for policy in [GlobalPolicy::Eager, GlobalPolicy::Patient] {
            let s = global_reuse_schedule(&arc, u64::MAX, policy);
            verify_global_schedule(&arc, u64::MAX, &s).unwrap();
            assert_eq!(s.makespan, 1, "{policy:?}");
            assert_eq!(s.peak_in_use, (1 << 63) + 4, "{policy:?}");
        }
    }

    #[test]
    fn regime_hierarchy_on_small_instances() {
        for arc in [serial_chain(), parallel_pair()] {
            for b in [0u64, 2, 4, 6, 8] {
                let c = compare_regimes(&arc, b);
                assert!(
                    c.noreuse >= c.path_reuse,
                    "b={b}: noreuse {} < path {}",
                    c.noreuse,
                    c.path_reuse
                );
            }
        }
    }

    #[test]
    fn noreuse_validator_rejects_bad_claims() {
        let arc = serial_chain();
        let good = solve_noreuse_exact(&arc, 8);
        validate_noreuse(&arc, &good).unwrap();
        let mut bad = good.clone();
        bad.budget_used = 0;
        assert_eq!(
            validate_noreuse(&arc, &bad),
            Err(NoReuseError::BudgetMismatch)
        );
        let mut bad = good.clone();
        bad.makespan += 1;
        assert_eq!(
            validate_noreuse(&arc, &bad),
            Err(NoReuseError::MakespanMismatch)
        );
        let mut bad = good;
        bad.levels.pop();
        assert_eq!(
            validate_noreuse(&arc, &bad),
            Err(NoReuseError::ShapeMismatch)
        );
    }
}
