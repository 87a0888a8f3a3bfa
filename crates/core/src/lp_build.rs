//! LP 6–10 (§3.1): the linear relaxation of the resource-time tradeoff
//! with resource reuse over paths, modelled as a network-flow LP.
//!
//! Variables: a flow `f_e ≥ 0` per `D''` arc and an event time `T_v ≥ 0`
//! per vertex (with `T_s = 0` eliminated). Constraints:
//!
//! * (6) `f_e ≤ r_e` on two-tuple arcs — the linear duration relaxation
//!   is only valid inside `[0, r_e]`; single-tuple arcs stay *uncapped*
//!   so surplus resource can flow through for reuse down the path.
//!   These are variable bounds, not rows: the default revised engine
//!   handles them implicitly (its row count excludes them entirely —
//!   see [`FractionalSolution::stats`]);
//! * (7) `T_u + t_e(f_e) ≤ T_v` with the Eq. 4/5 relaxation
//!   `t_e(f) = t0 − (t0 − t1)·f/r_e`;
//! * (8) flow conservation at internal vertices;
//! * (9) `Σ f(s,·) ≤ B`.
//!
//! Objective (10): minimize `T_t` — or, for the minimum-resource
//! problem, minimize `Σ f(s,·)` subject to `T_t ≤ T`.
//!
//! ∞-durations (Appendix-A gadgets) are clamped to [`LP_BIG`]; exact
//! solvers handle them natively, the LP only needs relative order.

use crate::transform::TwoTupleInstance;
use rtt_duration::{Resource, Time};
use rtt_lp::{Engine, Outcome, Problem};
use std::fmt;

/// Finite stand-in for `∞` durations inside the LP.
pub const LP_BIG: f64 = 1e12;

/// LP failures surfaced to solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The relaxation is infeasible (only possible for min-resource with
    /// an unachievable target).
    Infeasible,
    /// The relaxation is unbounded (indicates a modelling bug).
    Unbounded,
    /// A cooperative budget check tripped mid-solve (pivot cap,
    /// deadline, or cancellation). Only metered entry points can return
    /// this; the engine maps it onto the request's exhaustion policy.
    Exhausted(rtt_budget::Exhausted),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "LP relaxation infeasible"),
            LpError::Unbounded => write!(f, "LP relaxation unbounded"),
            LpError::Exhausted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LpError {}

/// A fractional solution of LP 6–10 (or its min-resource dual use).
#[derive(Debug, Clone)]
pub struct FractionalSolution {
    /// Flow per `D''` edge.
    pub flows: Vec<f64>,
    /// Event time per `D''` node (source fixed at 0).
    pub times: Vec<f64>,
    /// `T_t`: the relaxed makespan.
    pub makespan: f64,
    /// Source outflow: the relaxed resource usage.
    pub budget_used: f64,
    /// Simplex pivots (diagnostics).
    pub pivots: usize,
    /// Engine dimensions and pivot phase split (see
    /// [`rtt_lp::LpStats`]) — how many rows/columns the engine
    /// materialized, and for the revised engine the proof that the
    /// per-edge capacity rows (6) were handled implicitly.
    pub stats: rtt_lp::LpStats,
}

fn clamp_time(t: Time) -> f64 {
    if rtt_duration::is_infinite(t) {
        LP_BIG
    } else {
        t as f64
    }
}

struct LpShape {
    problem: Problem,
    n_edges: usize,
    /// variable index of `T_v`, `None` for the source.
    time_var: Vec<Option<usize>>,
    /// row index of each edge's precedence constraint (7), by edge id.
    edge_row: Vec<usize>,
}

/// Shared constraint matrix of LP 6–10 (everything except the
/// objective/budget/target rows).
fn build_shape(tt: &TwoTupleInstance) -> LpShape {
    let d = &tt.dag;
    let n_edges = d.edge_count();
    // variable layout: [flows | times (non-source)]
    let mut time_var: Vec<Option<usize>> = vec![None; d.node_count()];
    let mut next = n_edges;
    for v in d.node_ids() {
        if v != tt.source {
            time_var[v.index()] = Some(next);
            next += 1;
        }
    }
    let mut p = Problem::minimize(next);

    let mut edge_row = vec![usize::MAX; n_edges];
    for e in d.edge_refs() {
        let a = e.weight;
        // (6) capacity on two-tuple arcs
        if let Some((r, _)) = a.buy {
            p.set_upper_bound(e.id.index(), r as f64);
        }
        // (7) precedence: T_v − T_u + slope·f_e ≥ t0
        let t0 = clamp_time(a.t0);
        let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(3);
        if let Some(tv) = time_var[e.dst.index()] {
            coeffs.push((tv, 1.0));
        }
        if let Some(tu) = time_var[e.src.index()] {
            coeffs.push((tu, -1.0));
        }
        if let Some((r, t1)) = a.buy {
            let slope = (t0 - clamp_time(t1)) / r as f64;
            if slope != 0.0 {
                coeffs.push((e.id.index(), slope));
            }
        }
        // The destination is never the source (source has in-degree 0),
        // so `coeffs` always contains T_v.
        edge_row[e.id.index()] = p.n_rows();
        p.add_ge(&coeffs, t0);
    }

    // (8) conservation at internal vertices
    for v in d.node_ids() {
        if v == tt.source || v == tt.sink {
            continue;
        }
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for &e in d.out_edges(v) {
            coeffs.push((e.index(), 1.0));
        }
        for &e in d.in_edges(v) {
            coeffs.push((e.index(), -1.0));
        }
        if !coeffs.is_empty() {
            p.add_eq(&coeffs, 0.0);
        }
    }

    LpShape {
        problem: p,
        n_edges,
        time_var,
        edge_row,
    }
}

/// The structural **crash basis** for LP 6–10: at zero flow the
/// longest-path times satisfy every constraint, so phase 1 is
/// unnecessary. Per non-source vertex, `T_v` goes basic in its
/// *critical* (longest-path-tight) incoming precedence row; every other
/// precedence row keeps its surplus basic (slack `= T_v − T_u − t0 ≥
/// 0`), conservation rows keep a degenerate artificial at 0, and the
/// budget row its slack. The revised engine verifies feasibility at
/// install time, so this is an accelerator, never a correctness risk.
fn crash_hints(
    tt: &TwoTupleInstance,
    problem: &Problem,
    time_var: &[Option<usize>],
    edge_row: &[usize],
) -> rtt_lp::Basis {
    use rtt_lp::revised::CrashVar;
    let d = &tt.dag;
    let mut hints = vec![CrashVar::Logical; problem.n_rows()];
    let mut dist: Vec<f64> = vec![0.0; d.node_count()];
    let topo = rtt_dag::topo_order(d).expect("instances are acyclic");
    for &v in &topo {
        let mut best: Option<(f64, rtt_dag::EdgeId)> = None;
        for &e in d.in_edges(v) {
            let t0 = clamp_time(d.edge(e).t0);
            let cand = dist[d.src(e).index()] + t0;
            if best.is_none_or(|(b, _)| cand > b) {
                best = Some((cand, e));
            }
        }
        if let Some((b, e)) = best {
            dist[v.index()] = b;
            if let Some(tv) = time_var[v.index()] {
                hints[edge_row[e.index()]] = CrashVar::Structural(tv);
            }
        }
    }
    rtt_lp::revised::crash_basis(problem, &hints)
}

fn extract(
    tt: &TwoTupleInstance,
    n_edges: usize,
    time_var: &[Option<usize>],
    sol: rtt_lp::Solution,
) -> FractionalSolution {
    let flows: Vec<f64> = sol.x[..n_edges].to_vec();
    let times: Vec<f64> = time_var
        .iter()
        .map(|tv| tv.map_or(0.0, |j| sol.x[j]))
        .collect();
    let makespan = times[tt.sink.index()];
    let budget_used = tt
        .dag
        .out_edges(tt.source)
        .iter()
        .map(|&e| flows[e.index()])
        .sum();
    FractionalSolution {
        flows,
        times,
        makespan,
        budget_used,
        pivots: sol.pivots,
        stats: sol.stats,
    }
}

/// LP 6–10 with the budget row **tagged**: built once per instance,
/// re-solvable at any budget by rewriting a single right-hand side —
/// which is exactly the shape-preserving change the revised engine's
/// [`rtt_lp::Basis`] warm start accepts. A budget sweep through one
/// `MakespanLp` dual-reoptimizes every point after the first instead of
/// cold-starting `|grid|` solves.
#[derive(Debug, Clone)]
pub struct MakespanLp {
    problem: Problem,
    n_edges: usize,
    time_var: Vec<Option<usize>>,
    /// Row index of constraint (9); `None` when the source has no
    /// out-edges (the LP is then budget-independent).
    budget_row: Option<usize>,
    sink: usize,
    /// Row index of each edge's precedence row, for the crash below.
    edge_row: Vec<usize>,
    /// The longest-path crash basis (see [`crash_hints`]) — the revised
    /// engine's start when no warmer basis is available. Lazy: the
    /// dense engines never pay for it.
    crash: std::sync::OnceLock<rtt_lp::Basis>,
}

impl MakespanLp {
    /// Builds the template: shape, objective (10), and the budget row
    /// (9) at a placeholder budget of 0.
    pub fn new(tt: &TwoTupleInstance) -> Self {
        let mut shape = build_shape(tt);
        let budget_coeffs: Vec<(usize, f64)> = tt
            .dag
            .out_edges(tt.source)
            .iter()
            .map(|&e| (e.index(), 1.0))
            .collect();
        let budget_row = if budget_coeffs.is_empty() {
            None
        } else {
            shape.problem.add_le(&budget_coeffs, 0.0);
            Some(shape.problem.n_rows() - 1)
        };
        let t_sink = shape.time_var[tt.sink.index()].expect("sink is not the source");
        shape.problem.set_objective(t_sink, 1.0);
        MakespanLp {
            problem: shape.problem,
            n_edges: shape.n_edges,
            time_var: shape.time_var,
            budget_row,
            sink: tt.sink.index(),
            edge_row: shape.edge_row,
            crash: std::sync::OnceLock::new(),
        }
    }

    /// The longest-path crash basis, computed on first (Revised) use.
    fn crash(&self, tt: &TwoTupleInstance) -> &rtt_lp::Basis {
        self.crash
            .get_or_init(|| crash_hints(tt, &self.problem, &self.time_var, &self.edge_row))
    }

    /// Points the budget row (9) at a new budget. No other row changes,
    /// so a basis from the previous solve stays warm-start valid.
    pub fn set_budget(&mut self, budget: Resource) {
        if let Some(row) = self.budget_row {
            self.problem.set_rhs(row, budget as f64);
        }
    }

    fn extract_at(&self, tt: &TwoTupleInstance, sol: rtt_lp::Solution) -> FractionalSolution {
        debug_assert_eq!(self.sink, tt.sink.index());
        extract(tt, self.n_edges, &self.time_var, sol)
    }

    /// Solves at the budget most recently set, under `engine`. The
    /// revised engine starts from the longest-path crash basis (phase 1
    /// is skipped whenever the crash installs feasibly); the dense
    /// engines run their ordinary two-phase solve.
    pub fn solve_with(
        &self,
        tt: &TwoTupleInstance,
        engine: Engine,
    ) -> Result<FractionalSolution, LpError> {
        self.solve_with_metered(tt, engine, None)
    }

    /// [`MakespanLp::solve_with`] under a cooperative budget meter: the
    /// simplex loops charge one `lp_pivots` unit per pivot, and a
    /// tripped budget surfaces as [`LpError::Exhausted`].
    pub fn solve_with_metered(
        &self,
        tt: &TwoTupleInstance,
        engine: Engine,
        meter: Option<&rtt_budget::BudgetMeter>,
    ) -> Result<FractionalSolution, LpError> {
        if matches!(engine, Engine::Revised) {
            return self.solve_warm_metered(tt, None, meter).map(|(f, _)| f);
        }
        match self.problem.solve_with_metered(engine, meter) {
            Outcome::Optimal(s) => Ok(self.extract_at(tt, s)),
            Outcome::Infeasible => Err(LpError::Infeasible),
            Outcome::Unbounded => Err(LpError::Unbounded),
            Outcome::Exhausted(e) => Err(LpError::Exhausted(e)),
        }
    }

    /// Solves at the budget most recently set with the revised engine,
    /// warm-starting from `warm` (a basis this template returned
    /// earlier; falls back to the longest-path crash basis when
    /// `None`). Returns the solution plus the basis for the next link.
    pub fn solve_warm(
        &self,
        tt: &TwoTupleInstance,
        warm: Option<&rtt_lp::Basis>,
    ) -> Result<(FractionalSolution, Option<rtt_lp::Basis>), LpError> {
        self.solve_warm_metered(tt, warm, None)
    }

    /// [`MakespanLp::solve_warm`] under a cooperative budget meter (see
    /// [`MakespanLp::solve_with_metered`]).
    pub fn solve_warm_metered(
        &self,
        tt: &TwoTupleInstance,
        warm: Option<&rtt_lp::Basis>,
        meter: Option<&rtt_budget::BudgetMeter>,
    ) -> Result<(FractionalSolution, Option<rtt_lp::Basis>), LpError> {
        let (out, basis) = self
            .problem
            .solve_revised_warm_metered(Some(warm.unwrap_or(self.crash(tt))), meter);
        match out {
            Outcome::Optimal(s) => Ok((self.extract_at(tt, s), basis)),
            Outcome::Infeasible => Err(LpError::Infeasible),
            Outcome::Unbounded => Err(LpError::Unbounded),
            Outcome::Exhausted(e) => Err(LpError::Exhausted(e)),
        }
    }

    /// Solves a whole budget grid in **one chained solver session**
    /// ([`rtt_lp::revised::solve_rhs_sweep`]): matrix, eta file, and
    /// basis survive across points, so each point after the first costs
    /// only its dual-reoptimization pivots. `start` seeds the first
    /// point (the longest-path crash when `None`). Returns the
    /// per-budget solutions in grid order plus the final basis.
    pub fn solve_sweep(
        &self,
        tt: &TwoTupleInstance,
        budgets: &[Resource],
        start: Option<&rtt_lp::Basis>,
    ) -> Result<(Vec<FractionalSolution>, Option<rtt_lp::Basis>), LpError> {
        self.solve_sweep_metered(tt, budgets, start, None)
    }

    /// [`MakespanLp::solve_sweep`] under a cooperative budget meter. The
    /// meter bounds the *whole sweep*: once it trips, the error carries
    /// the first exhaustion and no further points are solved.
    pub fn solve_sweep_metered(
        &self,
        tt: &TwoTupleInstance,
        budgets: &[Resource],
        start: Option<&rtt_lp::Basis>,
        meter: Option<&rtt_budget::BudgetMeter>,
    ) -> Result<(Vec<FractionalSolution>, Option<rtt_lp::Basis>), LpError> {
        let Some(row) = self.budget_row else {
            // budget-independent LP: every point is the same solve
            let (frac, basis) = self.solve_warm_metered(tt, start, meter)?;
            return Ok((vec![frac; budgets.len()], basis));
        };
        let rhs: Vec<f64> = budgets.iter().map(|&b| b as f64).collect();
        let (outcomes, basis) = rtt_lp::revised::solve_rhs_sweep(
            &self.problem,
            row,
            &rhs,
            rtt_lp::PivotRule::Dantzig,
            Some(start.unwrap_or(self.crash(tt))),
            meter,
        );
        let mut points = Vec::with_capacity(outcomes.len());
        for out in outcomes {
            match out {
                Outcome::Optimal(s) => points.push(self.extract_at(tt, s)),
                Outcome::Infeasible => return Err(LpError::Infeasible),
                Outcome::Unbounded => return Err(LpError::Unbounded),
                Outcome::Exhausted(e) => return Err(LpError::Exhausted(e)),
            }
        }
        Ok((points, basis))
    }
}

/// Solves LP 6–10: minimize the makespan `T_t` under resource budget `B`.
pub fn solve_min_makespan_lp(
    tt: &TwoTupleInstance,
    budget: Resource,
) -> Result<FractionalSolution, LpError> {
    solve_min_makespan_lp_with(tt, budget, Engine::Revised)
}

/// [`solve_min_makespan_lp`] under an explicit simplex [`Engine`]
/// (`Engine::Flat` / `Engine::Reference` reproduce the earlier
/// baselines; `rtt_bench`'s `perf_guard` envelopes and the unit tests
/// compare the engines through it).
pub fn solve_min_makespan_lp_with(
    tt: &TwoTupleInstance,
    budget: Resource,
    engine: Engine,
) -> Result<FractionalSolution, LpError> {
    solve_min_makespan_lp_metered(tt, budget, engine, None)
}

/// [`solve_min_makespan_lp_with`] under a cooperative budget meter (see
/// [`MakespanLp::solve_with_metered`]).
pub fn solve_min_makespan_lp_metered(
    tt: &TwoTupleInstance,
    budget: Resource,
    engine: Engine,
    meter: Option<&rtt_budget::BudgetMeter>,
) -> Result<FractionalSolution, LpError> {
    let mut lp = MakespanLp::new(tt);
    lp.set_budget(budget);
    lp.solve_with_metered(tt, engine, meter)
}

/// Solves LP 6–10 at every budget of `budgets` in **one warm-started
/// chain**: the first point solves cold, each later point
/// dual-reoptimizes from the previous optimal basis (the per-point cost
/// collapses to a handful of pivots on fine grids — see
/// `BENCH_pr3.json`). Results are returned in input order.
pub fn solve_min_makespan_sweep(
    tt: &TwoTupleInstance,
    budgets: &[Resource],
) -> Result<Vec<FractionalSolution>, LpError> {
    let lp = MakespanLp::new(tt);
    lp.solve_sweep(tt, budgets, None).map(|(points, _)| points)
}

/// The minimum-resource twin: minimize `Σ f(s,·)` subject to `T_t ≤ T`.
pub fn solve_min_resource_lp(
    tt: &TwoTupleInstance,
    target: Time,
) -> Result<FractionalSolution, LpError> {
    solve_min_resource_lp_metered(tt, target, None)
}

/// [`solve_min_resource_lp`] under a cooperative budget meter (see
/// [`MakespanLp::solve_with_metered`]).
pub fn solve_min_resource_lp_metered(
    tt: &TwoTupleInstance,
    target: Time,
    meter: Option<&rtt_budget::BudgetMeter>,
) -> Result<FractionalSolution, LpError> {
    let mut shape = build_shape(tt);
    let t_sink = shape.time_var[tt.sink.index()].expect("sink is not the source");
    shape.problem.add_le(&[(t_sink, 1.0)], clamp_time(target));
    for &e in tt.dag.out_edges(tt.source) {
        shape.problem.set_objective(e.index(), 1.0);
    }
    match shape.problem.solve_with_metered(Engine::Revised, meter) {
        Outcome::Optimal(s) => Ok(extract(tt, shape.n_edges, &shape.time_var, s)),
        Outcome::Infeasible => Err(LpError::Infeasible),
        Outcome::Unbounded => Err(LpError::Unbounded),
        Outcome::Exhausted(e) => Err(LpError::Exhausted(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Activity, ArcInstance, Instance, Job};
    use crate::transform::{expand_two_tuples, to_arc_form};
    use rtt_dag::Dag;
    use rtt_duration::Duration;

    /// s -> x -> t with x: {<0,10>, <4,0>}.
    fn single_job() -> TwoTupleInstance {
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::new(Duration::zero()));
        let x = g.add_node(Job::new(Duration::two_point(10, 4, 0)));
        let t = g.add_node(Job::new(Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(x, t, ()).unwrap();
        let inst = Instance::new(g).unwrap();
        let (arc, _) = to_arc_form(&inst);
        expand_two_tuples(&arc)
    }

    #[test]
    fn lp_interpolates_budget() {
        let tt = single_job();
        // B = 0: makespan 10. B = 4: 0. B = 2: 5 (linear).
        let f0 = solve_min_makespan_lp(&tt, 0).unwrap();
        assert!((f0.makespan - 10.0).abs() < 1e-6, "{}", f0.makespan);
        let f4 = solve_min_makespan_lp(&tt, 4).unwrap();
        assert!(f4.makespan.abs() < 1e-6);
        let f2 = solve_min_makespan_lp(&tt, 2).unwrap();
        assert!((f2.makespan - 5.0).abs() < 1e-6, "{}", f2.makespan);
    }

    #[test]
    fn lp_budget_not_exceeded() {
        let tt = single_job();
        for b in [0u64, 1, 3, 10] {
            let f = solve_min_makespan_lp(&tt, b).unwrap();
            assert!(f.budget_used <= b as f64 + 1e-6);
        }
    }

    #[test]
    fn lp_is_lower_bound_for_integral_solutions() {
        let tt = single_job();
        // With B = 3 integral can't buy the 4-gap: best integral = 10.
        // LP does better (fractional) — that's the relaxation gap.
        let f = solve_min_makespan_lp(&tt, 3).unwrap();
        assert!(f.makespan <= 10.0 + 1e-9);
        assert!((f.makespan - 2.5).abs() < 1e-6, "{}", f.makespan);
    }

    #[test]
    fn min_resource_lp_basics() {
        let tt = single_job();
        // target 10 needs 0 resource; target 0 needs 4; target 5 needs 2.
        let r10 = solve_min_resource_lp(&tt, 10).unwrap();
        assert!(r10.budget_used < 1e-6);
        let r0 = solve_min_resource_lp(&tt, 0).unwrap();
        assert!((r0.budget_used - 4.0).abs() < 1e-6);
        let r5 = solve_min_resource_lp(&tt, 5).unwrap();
        assert!((r5.budget_used - 2.0).abs() < 1e-6, "{}", r5.budget_used);
    }

    /// Reuse over a path: two consecutive jobs can share the same units.
    #[test]
    fn lp_exploits_reuse_over_paths() {
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::new(Duration::zero()));
        let x = g.add_node(Job::new(Duration::two_point(10, 3, 0)));
        let y = g.add_node(Job::new(Duration::two_point(10, 3, 0)));
        let t = g.add_node(Job::new(Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(x, y, ()).unwrap();
        g.add_edge(y, t, ()).unwrap();
        let inst = Instance::new(g).unwrap();
        let (arc, _) = to_arc_form(&inst);
        let tt = expand_two_tuples(&arc);
        // 3 units kill BOTH jobs (serial path, resource flows through).
        let f = solve_min_makespan_lp(&tt, 3).unwrap();
        assert!(f.makespan.abs() < 1e-6, "{}", f.makespan);
        // and the min-resource LP needs only 3 for target 0
        let r = solve_min_resource_lp(&tt, 0).unwrap();
        assert!((r.budget_used - 3.0).abs() < 1e-6, "{}", r.budget_used);
    }

    /// Parallel jobs cannot share: each branch needs its own units.
    #[test]
    fn lp_does_not_share_across_parallel_branches() {
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::new(Duration::zero()));
        let x = g.add_node(Job::new(Duration::two_point(10, 3, 0)));
        let y = g.add_node(Job::new(Duration::two_point(10, 3, 0)));
        let t = g.add_node(Job::new(Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(s, y, ()).unwrap();
        g.add_edge(x, t, ()).unwrap();
        g.add_edge(y, t, ()).unwrap();
        let inst = Instance::new(g).unwrap();
        let (arc, _) = to_arc_form(&inst);
        let tt = expand_two_tuples(&arc);
        let r = solve_min_resource_lp(&tt, 0).unwrap();
        assert!((r.budget_used - 6.0).abs() < 1e-6, "{}", r.budget_used);
        // with only 3 units the makespan cannot reach 0
        let f = solve_min_makespan_lp(&tt, 3).unwrap();
        assert!(f.makespan > 4.0, "{}", f.makespan);
    }

    #[test]
    fn min_resource_infeasible_target() {
        // Constant-duration job: target below it is infeasible.
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, Activity::new(Duration::constant(5)))
            .unwrap();
        let arc = ArcInstance::new(g).unwrap();
        let tt = expand_two_tuples(&arc);
        assert!(matches!(
            solve_min_resource_lp(&tt, 4),
            Err(LpError::Infeasible)
        ));
        assert!(solve_min_resource_lp(&tt, 5).is_ok());
    }

    #[test]
    fn sweep_matches_cold_solves_and_is_monotone() {
        let tt = single_job();
        let budgets: Vec<u64> = (0..=4).collect();
        let sweep = solve_min_makespan_sweep(&tt, &budgets).unwrap();
        assert_eq!(sweep.len(), budgets.len());
        let mut prev = f64::INFINITY;
        for (f, &b) in sweep.iter().zip(&budgets) {
            let cold = solve_min_makespan_lp(&tt, b).unwrap();
            assert!(
                (f.makespan - cold.makespan).abs() < 1e-9,
                "budget {b}: sweep {} vs cold {}",
                f.makespan,
                cold.makespan
            );
            assert!(f.makespan <= prev + 1e-9, "curve must be non-increasing");
            prev = f.makespan;
        }
    }

    #[test]
    fn revised_engine_materializes_no_capacity_rows() {
        // Constraint (6) rows exist only for the dense engines: the
        // revised engine's row count must drop by exactly the number of
        // upper-bounded (two-tuple) edges.
        let tt = single_job();
        let rev = solve_min_makespan_lp_with(&tt, 2, Engine::Revised).unwrap();
        let flat = solve_min_makespan_lp_with(&tt, 2, Engine::Flat).unwrap();
        let bounded_edges = tt
            .dag
            .edge_refs()
            .filter(|e| e.weight.buy.is_some())
            .count();
        assert!(bounded_edges > 0, "instance has two-tuple arcs");
        assert_eq!(rev.stats.bound_cols, bounded_edges);
        assert_eq!(rev.stats.bound_rows, 0);
        assert_eq!(flat.stats.bound_rows, bounded_edges);
        assert_eq!(
            flat.stats.rows,
            rev.stats.rows + bounded_edges,
            "implicit bounds must delete one row per bounded edge"
        );
        assert!((rev.makespan - flat.makespan).abs() < 1e-9);
    }

    #[test]
    fn infinite_durations_clamped() {
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(
            s,
            t,
            Activity::new(Duration::two_point(rtt_duration::INF, 2, 0)),
        )
        .unwrap();
        let arc = ArcInstance::new(g).unwrap();
        let tt = expand_two_tuples(&arc);
        let f0 = solve_min_makespan_lp(&tt, 0).unwrap();
        assert!(f0.makespan >= LP_BIG * 0.99);
        let f2 = solve_min_makespan_lp(&tt, 2).unwrap();
        assert!(f2.makespan < 1e-3);
    }
}
