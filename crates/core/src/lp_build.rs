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
//!
//! # Regimes
//!
//! One builder serves both LP regimes, chosen by the crate-private
//! `exact::Regime` the exact searches also take. **Routed** (Question
//! 1.3) is LP 6–10 as above. **No reuse** (Question 1.1, behind
//! [`crate::regimes::solve_noreuse_lp`]) reads `f_e` as a dedicated
//! purchase: it pins the purchase of every single-tuple arc to 0, adds
//! no conservation rows (8), and bounds the *sum* of purchases by `B`
//! in (9) instead of the source outflow. Each regime reports its
//! row-(9) sum as [`FractionalSolution::budget_used`].
//!
//! # Entries
//!
//! The LP is the only stage of an LP-rounding answer that a budget
//! meter reaches: every rounding in [`crate::solvers`] and
//! [`crate::regimes`] is a pure function of its solution. Every entry
//! starts from the longest-path crash basis: the two metered
//! single-solve entries are [`solve_min_makespan_lp`] (phase 2 from a
//! primal-feasible crash) and [`solve_min_resource_lp`] (the dual
//! simplex from a dual-feasible one); a budget sweep is one chain
//! through [`MakespanLp::solve_sweep_metered`], and the no-reuse regime
//! solves through [`crate::regimes::solve_noreuse_lp_metered`].

use crate::exact::Regime;
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
    /// A cooperative budget check tripped mid-solve (pivot cap or
    /// deadline). Only metered entry points can return this; the engine
    /// maps it onto the request's exhaustion policy.
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
    /// Flow (or, without reuse, purchase) per `D''` edge.
    pub flows: Vec<f64>,
    /// Event time per `D''` node (source fixed at 0).
    pub times: Vec<f64>,
    /// `T_t`: the relaxed makespan.
    pub makespan: f64,
    /// The relaxed resource usage: the source outflow when routed, the
    /// sum of purchases without reuse.
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

/// Rows (6)–(8) of LP 6–10 in one regime: everything except the
/// objective and the budget/target row.
#[derive(Debug, Clone)]
struct LpShape {
    problem: Problem,
    regime: Regime,
    /// variable index of `T_v`, `None` for the source.
    time_var: Vec<Option<usize>>,
    /// row index of each edge's precedence constraint (7), by edge id.
    edge_row: Vec<usize>,
}

impl LpShape {
    fn build(tt: &TwoTupleInstance, regime: Regime) -> Self {
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
            // (6) capacity on two-tuple arcs; without reuse, an arc with
            // nothing to buy is pinned to 0
            match (a.buy, regime) {
                (Some((r, _)), _) => p.set_upper_bound(e.id.index(), r as f64),
                (None, Regime::NoReuse) => p.set_upper_bound(e.id.index(), 0.0),
                (None, Regime::Routed) => {}
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

        // (8) conservation at internal vertices — only routed resource
        // flows on
        if matches!(regime, Regime::Routed) {
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
        }

        LpShape {
            problem: p,
            regime,
            time_var,
            edge_row,
        }
    }

    /// The left-hand side of the budget row (9): the source outflow
    /// when routed, every purchase variable without reuse.
    fn budget_terms(&self, tt: &TwoTupleInstance) -> Vec<(usize, f64)> {
        match self.regime {
            Regime::Routed => tt
                .dag
                .out_edges(tt.source)
                .iter()
                .map(|&e| (e.index(), 1.0))
                .collect(),
            Regime::NoReuse => tt
                .dag
                .edge_refs()
                .filter(|e| e.weight.buy.is_some())
                .map(|e| (e.id.index(), 1.0))
                .collect(),
        }
    }

    fn t_sink(&self, tt: &TwoTupleInstance) -> usize {
        self.time_var[tt.sink.index()].expect("sink is not the source")
    }

    /// The structural **crash basis**, which makes phase 1 unnecessary.
    /// Per non-source vertex, `T_v` goes basic in its *critical*
    /// (longest-path-tight) incoming precedence row; every other
    /// precedence row keeps its surplus basic (slack `= T_v − T_u − t0
    /// ≥ 0`), conservation rows keep a degenerate artificial at 0, and
    /// the budget or target row its slack. At zero flow the longest-path
    /// times satisfy every row but a target row, so the basis is primal
    /// feasible for the makespan objective and dual feasible (every
    /// basic variable costs 0) for the min-resource one. The revised
    /// engine verifies that at install time, so this is an accelerator,
    /// never a correctness risk.
    fn crash(&self, tt: &TwoTupleInstance) -> rtt_lp::Basis {
        use rtt_lp::revised::CrashVar;
        let d = &tt.dag;
        let mut hints = vec![CrashVar::Logical; self.problem.n_rows()];
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
                if let Some(tv) = self.time_var[v.index()] {
                    hints[self.edge_row[e.index()]] = CrashVar::Structural(tv);
                }
            }
        }
        rtt_lp::revised::crash_basis(&self.problem, &hints)
    }

    /// Maps a solve's outcome onto the fractional solution or error.
    fn result(&self, tt: &TwoTupleInstance, out: Outcome) -> Result<FractionalSolution, LpError> {
        let sol = match out {
            Outcome::Optimal(s) => s,
            Outcome::Infeasible => return Err(LpError::Infeasible),
            Outcome::Unbounded => return Err(LpError::Unbounded),
            Outcome::Exhausted(e) => return Err(LpError::Exhausted(e)),
        };
        let flows: Vec<f64> = sol.x[..tt.dag.edge_count()].to_vec();
        let times: Vec<f64> = self
            .time_var
            .iter()
            .map(|tv| tv.map_or(0.0, |j| sol.x[j]))
            .collect();
        let makespan = times[tt.sink.index()];
        let budget_used = match self.regime {
            Regime::Routed => tt
                .dag
                .out_edges(tt.source)
                .iter()
                .map(|&e| flows[e.index()])
                .sum(),
            Regime::NoReuse => flows.iter().sum(),
        };
        Ok(FractionalSolution {
            flows,
            times,
            makespan,
            budget_used,
            pivots: sol.pivots,
            stats: sol.stats,
        })
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
    shape: LpShape,
    /// Row index of constraint (9); `None` when its sum is empty (the
    /// LP is then budget-independent).
    budget_row: Option<usize>,
    /// The longest-path crash basis (see `LpShape::crash`) — the
    /// revised engine's start when no warmer basis is available. Lazy:
    /// the dense engine never pays for it.
    crash: std::sync::OnceLock<rtt_lp::Basis>,
}

impl MakespanLp {
    /// Builds the template: shape, objective (10), and the budget row
    /// (9) at a placeholder budget of 0.
    pub fn new(tt: &TwoTupleInstance) -> Self {
        Self::build(tt, Regime::Routed)
    }

    /// [`MakespanLp::new`] in either regime.
    pub(crate) fn build(tt: &TwoTupleInstance, regime: Regime) -> Self {
        let mut shape = LpShape::build(tt, regime);
        let budget_terms = shape.budget_terms(tt);
        let budget_row = if budget_terms.is_empty() {
            None
        } else {
            shape.problem.add_le(&budget_terms, 0.0);
            Some(shape.problem.n_rows() - 1)
        };
        let t_sink = shape.t_sink(tt);
        shape.problem.set_objective(t_sink, 1.0);
        MakespanLp {
            shape,
            budget_row,
            crash: std::sync::OnceLock::new(),
        }
    }

    /// The longest-path crash basis, computed on first (Revised) use.
    fn crash(&self, tt: &TwoTupleInstance) -> &rtt_lp::Basis {
        self.crash.get_or_init(|| self.shape.crash(tt))
    }

    /// Points the budget row (9) at a new budget. No other row changes,
    /// so a basis from the previous solve stays warm-start valid.
    pub fn set_budget(&mut self, budget: Resource) {
        if let Some(row) = self.budget_row {
            self.shape.problem.set_rhs(row, budget as f64);
        }
    }

    /// Solves at the budget most recently set, under `engine`. The
    /// revised engine starts from the longest-path crash basis (phase 1
    /// is skipped whenever the crash installs feasibly); the flat
    /// engine runs its ordinary two-phase solve.
    pub fn solve_with(
        &self,
        tt: &TwoTupleInstance,
        engine: Engine,
    ) -> Result<FractionalSolution, LpError> {
        match engine {
            Engine::Revised => self.solve_warm(tt, None, None).map(|(f, _)| f),
            Engine::Flat => self.shape.result(tt, self.shape.problem.solve_with(engine)),
        }
    }

    /// Solves at the budget most recently set with the revised engine,
    /// warm-starting from `warm` (a basis this template returned
    /// earlier; falls back to the longest-path crash basis when
    /// `None`). Returns the solution plus the basis for the next link.
    /// A `meter`, when given, is charged one `lp_pivots` unit per pivot,
    /// and a tripped budget surfaces as [`LpError::Exhausted`].
    pub fn solve_warm(
        &self,
        tt: &TwoTupleInstance,
        warm: Option<&rtt_lp::Basis>,
        meter: Option<&rtt_budget::BudgetMeter>,
    ) -> Result<(FractionalSolution, Option<rtt_lp::Basis>), LpError> {
        let start = warm.unwrap_or(self.crash(tt));
        let (out, basis) = rtt_lp::revised::solve_warm(&self.shape.problem, Some(start), meter);
        Ok((self.shape.result(tt, out)?, basis))
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
            let (frac, basis) = self.solve_warm(tt, start, meter)?;
            return Ok((vec![frac; budgets.len()], basis));
        };
        let rhs: Vec<f64> = budgets.iter().map(|&b| b as f64).collect();
        let (outcomes, basis) = rtt_lp::revised::solve_rhs_sweep(
            &self.shape.problem,
            row,
            &rhs,
            Some(start.unwrap_or(self.crash(tt))),
            meter,
        );
        let points = outcomes
            .into_iter()
            .map(|out| self.shape.result(tt, out))
            .collect::<Result<_, _>>()?;
        Ok((points, basis))
    }
}

/// Solves LP 6–10: minimize the makespan `T_t` under resource budget
/// `B`, with the revised engine from the longest-path crash basis. A
/// `meter`, when given, is charged one `lp_pivots` unit per pivot, and
/// a tripped budget surfaces as [`LpError::Exhausted`].
pub fn solve_min_makespan_lp(
    tt: &TwoTupleInstance,
    budget: Resource,
    meter: Option<&rtt_budget::BudgetMeter>,
) -> Result<FractionalSolution, LpError> {
    let mut lp = MakespanLp::new(tt);
    lp.set_budget(budget);
    lp.solve_warm(tt, None, meter).map(|(f, _)| f)
}

/// [`solve_min_makespan_lp`], unmetered, under an explicit simplex
/// [`Engine`] (`Engine::Flat` is the dense oracle; `rtt_bench`'s
/// `perf_guard` pins and the unit tests compare the engines through
/// it).
pub fn solve_min_makespan_lp_with(
    tt: &TwoTupleInstance,
    budget: Resource,
    engine: Engine,
) -> Result<FractionalSolution, LpError> {
    let mut lp = MakespanLp::new(tt);
    lp.set_budget(budget);
    lp.solve_with(tt, engine)
}

/// The minimum-resource twin: minimize `Σ f(s,·)` subject to `T_t ≤ T`,
/// with one revised solve whose dual simplex repairs the crash basis's
/// target row, metered as [`solve_min_makespan_lp`] is. A target below
/// the LP's ideal makespan is [`LpError::Infeasible`] before any LP is
/// built: no flow meets it, and the crash-started solve would prove
/// that only by failing its repair and re-solving cold.
pub fn solve_min_resource_lp(
    tt: &TwoTupleInstance,
    target: Time,
    meter: Option<&rtt_budget::BudgetMeter>,
) -> Result<FractionalSolution, LpError> {
    if clamp_time(target) < ideal_makespan(tt) {
        return Err(LpError::Infeasible);
    }
    let shape = min_resource_shape(tt, target);
    let crash = shape.crash(tt);
    let (out, _) = rtt_lp::revised::solve_warm(&shape.problem, Some(&crash), meter);
    shape.result(tt, out)
}

/// LP 6–10's ideal makespan: the longest path of `D''` with every
/// two-tuple arc at its bought time, the most any flow buys. The LP's
/// makespan is never below it, and reaches it once the budget is large
/// enough.
fn ideal_makespan(tt: &TwoTupleInstance) -> f64 {
    let d = &tt.dag;
    let mut dist: Vec<f64> = vec![0.0; d.node_count()];
    for &v in &rtt_dag::topo_order(d).expect("instances are acyclic") {
        for &e in d.in_edges(v) {
            let a = d.edge(e);
            let t = clamp_time(a.buy.map_or(a.t0, |(_, t1)| t1));
            dist[v.index()] = dist[v.index()].max(dist[d.src(e).index()] + t);
        }
    }
    dist[tt.sink.index()]
}

/// The routed shape with the target row `T_t ≤ T` and the objective
/// `Σ f(s,·)`; its crash keeps the target row's slack basic.
fn min_resource_shape(tt: &TwoTupleInstance, target: Time) -> LpShape {
    let mut shape = LpShape::build(tt, Regime::Routed);
    let t_sink = shape.t_sink(tt);
    shape.problem.add_le(&[(t_sink, 1.0)], clamp_time(target));
    for (j, c) in shape.budget_terms(tt) {
        shape.problem.set_objective(j, c);
    }
    shape
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
        let f0 = solve_min_makespan_lp(&tt, 0, None).unwrap();
        assert!((f0.makespan - 10.0).abs() < 1e-6, "{}", f0.makespan);
        let f4 = solve_min_makespan_lp(&tt, 4, None).unwrap();
        assert!(f4.makespan.abs() < 1e-6);
        let f2 = solve_min_makespan_lp(&tt, 2, None).unwrap();
        assert!((f2.makespan - 5.0).abs() < 1e-6, "{}", f2.makespan);
    }

    #[test]
    fn lp_budget_not_exceeded() {
        let tt = single_job();
        for b in [0u64, 1, 3, 10] {
            let f = solve_min_makespan_lp(&tt, b, None).unwrap();
            assert!(f.budget_used <= b as f64 + 1e-6);
        }
    }

    #[test]
    fn lp_is_lower_bound_for_integral_solutions() {
        let tt = single_job();
        // With B = 3 integral can't buy the 4-gap: best integral = 10.
        // LP does better (fractional) — that's the relaxation gap.
        let f = solve_min_makespan_lp(&tt, 3, None).unwrap();
        assert!(f.makespan <= 10.0 + 1e-9);
        assert!((f.makespan - 2.5).abs() < 1e-6, "{}", f.makespan);
    }

    #[test]
    fn min_resource_lp_basics() {
        let tt = single_job();
        // target 10 needs 0 resource; target 0 needs 4; target 5 needs 2.
        let r10 = solve_min_resource_lp(&tt, 10, None).unwrap();
        assert!(r10.budget_used < 1e-6);
        let r0 = solve_min_resource_lp(&tt, 0, None).unwrap();
        assert!((r0.budget_used - 4.0).abs() < 1e-6);
        let r5 = solve_min_resource_lp(&tt, 5, None).unwrap();
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
        let f = solve_min_makespan_lp(&tt, 3, None).unwrap();
        assert!(f.makespan.abs() < 1e-6, "{}", f.makespan);
        // and the min-resource LP needs only 3 for target 0
        let r = solve_min_resource_lp(&tt, 0, None).unwrap();
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
        let r = solve_min_resource_lp(&tt, 0, None).unwrap();
        assert!((r.budget_used - 6.0).abs() < 1e-6, "{}", r.budget_used);
        // with only 3 units the makespan cannot reach 0
        let f = solve_min_makespan_lp(&tt, 3, None).unwrap();
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
            solve_min_resource_lp(&tt, 4, None),
            Err(LpError::Infeasible)
        ));
        assert!(solve_min_resource_lp(&tt, 5, None).is_ok());
    }

    /// Three routed fixtures: the racy Parallel-MM of Figure 3 at
    /// `n = 6` in both reducer families, and a five-node race DAG with
    /// parallel updates.
    fn min_resource_fixtures() -> Vec<TwoTupleInstance> {
        use crate::from_race::{instance_from_program, ReducerFamily};
        let mm = |n, family| {
            let inst = instance_from_program(&rtt_race::mm::parallel_mm_racy(n).0, family);
            expand_two_tuples(&to_arc_form(&inst.unwrap()).0)
        };
        let mut g: Dag<(), ()> = Dag::new();
        let [s, a, b, c, t] = [(); 5].map(|()| g.add_node(()));
        for (u, v, k) in [
            (s, a, 3),
            (s, b, 5),
            (a, c, 2),
            (b, c, 4),
            (a, t, 1),
            (c, t, 6),
        ] {
            g.add_parallel_edges(u, v, (), k).unwrap();
        }
        let inst = Instance::race_dag(&g, Duration::recursive_binary).unwrap();
        vec![
            mm(6, ReducerFamily::RecursiveBinary),
            mm(6, ReducerFamily::KWay),
            expand_two_tuples(&to_arc_form(&inst).0),
        ]
    }

    /// The crash-started min-resource LP against the flat engine's
    /// two-phase solve of the same problem, at targets from the LP's
    /// ideal makespan up to its base makespan.
    #[test]
    fn crash_started_min_resource_matches_the_flat_oracle() {
        for tt in min_resource_fixtures() {
            let base = solve_min_makespan_lp(&tt, 0, None).unwrap().makespan;
            let ideal = solve_min_makespan_lp(&tt, 1 << 40, None).unwrap().makespan;
            assert!(ideal >= 1.0 && ideal < base, "ideal {ideal}, base {base}");
            let (lo, hi) = (ideal.ceil() as Time, base as Time);
            for target in [lo, (lo + hi) / 2, hi - 1, hi] {
                let rev = solve_min_resource_lp(&tt, target, None).unwrap();
                let shape = min_resource_shape(&tt, target);
                let flat = shape
                    .result(&tt, shape.problem.solve_with(Engine::Flat))
                    .unwrap();
                assert!(
                    (rev.budget_used - flat.budget_used).abs() <= 1e-9 * flat.budget_used.max(1.0),
                    "target {target}: revised {} vs flat {}",
                    rev.budget_used,
                    flat.budget_used
                );
                assert_eq!(rev.stats.phase1_pivots, 0, "target {target}");
                assert!(rev.makespan <= target as f64 + 1e-9);
            }
            // the LP's own ideal is the longest path at bought times
            assert_eq!(ideal_makespan(&tt), ideal);
            // below it no flow meets the target, and no pivot is spent
            // to say so; at it the LP still runs and is feasible
            let meter = rtt_budget::BudgetMeter::unlimited();
            assert_eq!(
                solve_min_resource_lp(&tt, lo - 1, Some(&meter)).unwrap_err(),
                LpError::Infeasible
            );
            assert_eq!(meter.consumed().lp_pivots, 0);
            let at_ideal = solve_min_resource_lp(&tt, lo, Some(&meter)).unwrap();
            assert!(at_ideal.makespan <= lo as f64 + 1e-9);
            assert!(meter.consumed().lp_pivots > 0, "the LP ran");
        }
    }

    #[test]
    fn sweep_matches_cold_solves_and_is_monotone() {
        let tt = single_job();
        let budgets: Vec<u64> = (0..=4).collect();
        let (sweep, _) = MakespanLp::new(&tt)
            .solve_sweep(&tt, &budgets, None)
            .unwrap();
        assert_eq!(sweep.len(), budgets.len());
        let mut prev = f64::INFINITY;
        for (f, &b) in sweep.iter().zip(&budgets) {
            let cold = solve_min_makespan_lp(&tt, b, None).unwrap();
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
        let f0 = solve_min_makespan_lp(&tt, 0, None).unwrap();
        assert!(f0.makespan >= LP_BIG * 0.99);
        let f2 = solve_min_makespan_lp(&tt, 2, None).unwrap();
        assert!(f2.makespan < 1e-3);
    }
}
