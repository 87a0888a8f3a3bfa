//! The tradeoff-curve service: LP 6–10 at every budget of a grid,
//! solved as **one warm-started chain**.
//!
//! This is the paper's actual object of study — the resource-time
//! tradeoff *curve* — served as a first-class request instead of
//! `|grid|` independent solves. The first point solves cold; every
//! later point rewrites the budget row's RHS and dual-reoptimizes from
//! the previous optimal basis (see `rtt_lp::revised`), which on fine
//! grids collapses per-point cost to a handful of pivots
//! (`BENCH_pr3.json` quantifies it). Each LP point is then α-rounded
//! and min-flow routed through the same certified Theorem 3.4 stage as
//! a single `bicriteria` solve, and validated before reporting.
//!
//! # One crash-started chain per call
//!
//! Every entry point — [`solve_curve`], [`execute_sweep_wire`] (the
//! batch executor's dispatch target, which `rtt curve` also reaches
//! through `execute_one`) and [`execute_sweep_pointwise`] — runs the
//! same body: the first point starts from the longest-path crash basis
//! and later points reoptimize from the previous point's basis inside
//! the chain. No basis outlives the call, so a point's pivot count,
//! which rides the wire as `work`, is a pure function of (instance,
//! grid): byte-identical across thread counts, cache modes, and
//! restarts. Between calls the per-instance slot keeps only the LP
//! template, which saves the build and never changes a pivot.
//! Cross-request reuse for wire sweeps rides the solution tier of
//! [`crate::reuse::ReuseCache`] instead, which replays whole report
//! vectors byte-identically.

use crate::budget::BudgetContext;
use crate::prep::PreparedInstance;
use crate::request::{SolveRequest, SolveReport, Status};
use rtt_budget::BudgetMeter;
use rtt_core::lp_build::LpError;
use rtt_core::{validate, Resource, Solution};

/// One point of the tradeoff curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// The grid budget this point was solved at.
    pub budget: Resource,
    /// The LP relaxation's makespan (the curve's lower envelope).
    pub lp_makespan: f64,
    /// The LP relaxation's source outflow.
    pub lp_budget: f64,
    /// Rounded integral makespan (Theorem 3.4, `≤ lp_makespan/α`).
    pub makespan: rtt_core::Time,
    /// Rounded integral budget (`≤ budget/(1−α)`).
    pub budget_used: Resource,
    /// Simplex pivots this point cost — for warm points, the dual
    /// reoptimization plus the primal polish.
    pub pivots: usize,
    /// Whether this point reused the previous point's basis.
    pub warm: bool,
    /// Observation 1.1 certificate: the rounded solution's reducer
    /// expansion simulated within `makespan` (see [`crate::certify`]).
    pub sim: Option<crate::certify::SimCertificate>,
    /// The rounded routed solution itself — carried so sweep reports
    /// can be re-validated and re-certified on a solution-tier replay
    /// (and spilled/reloaded by the persistent cache).
    pub solution: Solution,
}

/// Solves the tradeoff curve for `prep` over `budgets` (in order) at
/// rounding parameter `alpha`. One crash-started chain; per-point
/// results carry both the LP envelope and the certified rounded
/// solution.
pub fn solve_curve(
    prep: &PreparedInstance,
    budgets: &[Resource],
    alpha: f64,
) -> Result<Vec<CurvePoint>, LpError> {
    solve_points(prep, budgets, alpha, None)
}

/// The chain body behind every curve entry point: one
/// `solve_sweep_metered` chain from the crash basis on the instance's
/// LP template, then round + validate + certify each point. The LP
/// chain charges `lp_pivots` and each point's certification replay
/// charges `sim_events` on `meter`; exhaustion surfaces as
/// [`LpError::Exhausted`] with the template already parked.
fn solve_points(
    prep: &PreparedInstance,
    budgets: &[Resource],
    alpha: f64,
    meter: Option<&BudgetMeter>,
) -> Result<Vec<CurvePoint>, LpError> {
    let arc = prep.arc();
    let tt = prep.tt();
    let lp = prep.take_lp_template();
    let swept = lp.solve_sweep_metered(tt, budgets, None, meter);
    prep.put_lp_template(lp);
    let (points, _) = swept?;
    let mut out = Vec::with_capacity(budgets.len());
    for (i, (frac, &budget)) in points.into_iter().zip(budgets).enumerate() {
        let pivots = frac.pivots;
        let (lp_makespan, lp_budget) = (frac.makespan, frac.budget_used);
        let approx = rtt_core::bicriteria_round_prepped(arc, tt, frac, alpha);
        validate(arc, &approx.solution).expect("curve rounding produced an invalid solution");
        let sim = crate::certify::certify_solution_metered(arc, &approx.solution, meter)
            .map_err(LpError::Exhausted)?;
        if let Some(cert) = &sim {
            assert!(
                cert.holds(),
                "Observation 1.1 violated on curve point (budget {budget}): \
                 simulated {} > makespan {}",
                cert.simulated,
                cert.bound
            );
        }
        out.push(CurvePoint {
            budget,
            lp_makespan,
            lp_budget,
            makespan: approx.solution.makespan,
            budget_used: approx.solution.budget_used,
            pivots,
            warm: i > 0,
            sim,
            solution: approx.solution,
        });
    }
    Ok(out)
}

/// Maps a curve result onto per-point [`SolveReport`]s (one per budget,
/// in grid order) — or the single whole-request failure report the
/// sweep semantics call for.
fn point_reports(
    req: &SolveRequest,
    result: Result<Vec<CurvePoint>, LpError>,
) -> Vec<SolveReport> {
    const SOLVER: &str = "bicriteria";
    match result {
        Ok(points) => points
            .into_iter()
            .map(|p| {
                let mut r = SolveReport::new(req.id.clone(), SOLVER, Status::Solved, "");
                r.makespan = Some(p.makespan);
                r.budget_used = Some(p.budget_used);
                r.lp_makespan = Some(p.lp_makespan);
                r.lp_budget = Some(p.lp_budget);
                r.makespan_factor = Some(1.0 / req.alpha);
                r.resource_factor = Some(1.0 / (1.0 - req.alpha));
                r.work = p.pivots as u64;
                r.sim = p.sim;
                r.sweep_budget = Some(p.budget);
                // carried so a solution-tier replay (and the persistent
                // cache) can re-validate and re-certify this point
                r.solution = Some(p.solution);
                r
            })
            .collect(),
        Err(LpError::Infeasible) => vec![SolveReport::new(
            req.id.clone(),
            SOLVER,
            Status::Infeasible,
            "curve LP infeasible",
        )],
        // a whole-curve exhaustion is one failure report: the chain is
        // a single request-level computation, not per-point solves
        Err(LpError::Exhausted(e)) => vec![crate::solver::report_exhausted(req, SOLVER, e)],
        Err(e) => vec![SolveReport::new(
            req.id.clone(),
            SOLVER,
            Status::Unsupported,
            e.to_string(),
        )],
    }
}

/// Expands a sweep request into per-point [`SolveReport`]s — the
/// executor's dispatch target for unbudgeted, deadline-free
/// [`crate::Objective::MakespanSweep`] requests on the batch wire.
///
/// One **self-contained** chain: crash start, then per-point delta
/// reoptimization, so `work` (on the wire) is a pure function of the
/// request line — byte-identical across thread counts, cache modes, and
/// restarts.
pub fn execute_sweep_wire(
    req: &SolveRequest,
    budgets: &[Resource],
    ctx: &BudgetContext,
) -> Vec<SolveReport> {
    point_reports(
        req,
        solve_points(&req.prepared, budgets, req.alpha, ctx.meter()),
    )
}

/// The degraded dispatch target for **budgeted or deadlined** sweep
/// requests: every grid point solved as an independent crash-started
/// single-point chain, metered on the shared request meter, with no
/// reuse of any kind — so a `max_*` budget's wire-visible `consumed`
/// counters can never depend on cache timing (the same rule that keeps
/// those requests out of the solution tier). Exhaustion anywhere
/// surfaces as the whole-request failure report, like the chained
/// path.
pub fn execute_sweep_pointwise(
    req: &SolveRequest,
    budgets: &[Resource],
    ctx: &BudgetContext,
) -> Vec<SolveReport> {
    let mut points = Vec::with_capacity(budgets.len());
    for &b in budgets {
        match solve_points(&req.prepared, &[b], req.alpha, ctx.meter()) {
            Ok(mut p) => points.append(&mut p),
            Err(e) => return point_reports(req, Err(e)),
        }
    }
    point_reports(req, Ok(points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_core::instance::Activity;
    use rtt_core::ArcInstance;
    use rtt_dag::Dag;
    use rtt_duration::Duration;

    fn chain() -> ArcInstance {
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, Activity::new(Duration::two_point(10, 4, 0)))
            .unwrap();
        g.add_edge(a, t, Activity::new(Duration::two_point(8, 4, 2)))
            .unwrap();
        ArcInstance::new(g).unwrap()
    }

    #[test]
    fn curve_is_monotone_and_matches_single_solves() {
        let prep = PreparedInstance::new(chain());
        let budgets: Vec<u64> = (0..=8).collect();
        let points = solve_curve(&prep, &budgets, 0.5).unwrap();
        assert_eq!(points.len(), budgets.len());
        assert!(!points[0].warm, "first point is cold");
        assert!(points[1..].iter().all(|p| p.warm), "rest warm-chain");
        let mut prev = f64::INFINITY;
        for p in &points {
            assert!(p.lp_makespan <= prev + 1e-9, "LP curve non-increasing");
            prev = p.lp_makespan;
            let cold =
                rtt_core::lp_build::solve_min_makespan_lp(prep.tt(), p.budget).unwrap();
            assert!(
                (p.lp_makespan - cold.makespan).abs() < 1e-9,
                "budget {}: warm {} vs cold {}",
                p.budget,
                p.lp_makespan,
                cold.makespan
            );
        }
    }

    #[test]
    fn budget_zero_point_is_the_zero_resource_point() {
        // B = 0 is defined behavior end to end (the curve goldens pin
        // it on the wire): LP 6–10 with a zero budget row is feasible
        // with no flow, and the rounded point reports the base makespan
        // at zero budget used.
        let arc = chain();
        let base = arc.base_makespan();
        let prep = PreparedInstance::new(arc);
        let points = solve_curve(&prep, &[0], 0.5).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].makespan, base);
        assert_eq!(points[0].budget_used, 0);
        assert!((points[0].lp_makespan - base as f64).abs() < 1e-9);
        let sim = points[0].sim.expect("zero-budget point certifies");
        assert_eq!(sim.simulated, base, "chains cannot pipeline");
    }

    #[test]
    fn budget_zero_anchor_certifies_for_the_regime_baselines_too() {
        // the PR-4 regression above pins the routed zero-resource
        // anchor; since PR 5 the no-reuse and global-pool pipelines
        // anchor there with a certificate of their own
        let arc = chain();
        let base = arc.base_makespan();
        let registry = crate::Registry::standard();
        let prep = std::sync::Arc::new(PreparedInstance::new(arc));
        for name in ["noreuse-exact", "noreuse-bicriteria", "global-greedy"] {
            let req = crate::SolveRequest::min_makespan("b0", std::sync::Arc::clone(&prep), 0)
                .with_solver(name);
            let reports =
                crate::execute_one(&registry, &req, std::time::Instant::now());
            let r = &reports[0];
            assert_eq!(r.status, Status::Solved, "{name}: {}", r.detail);
            assert_eq!(r.makespan, Some(base), "{name}");
            let cert = r.sim.unwrap_or_else(|| panic!("{name}: anchor uncertified"));
            assert_eq!(cert.bound, base, "{name}");
            assert_eq!(cert.simulated, base, "{name}: chains cannot pipeline");
        }
    }

    #[test]
    fn wire_sweep_ignores_parked_warm_state() {
        // the wire path must crash-start even when the slot holds a
        // template from an earlier call: its pivot counts are on the
        // wire, so they may depend on nothing but the request line
        let prep = std::sync::Arc::new(PreparedInstance::new(chain()));
        let budgets: Vec<u64> = (0..=4).collect();
        let req = SolveRequest::sweep("w", std::sync::Arc::clone(&prep), budgets.clone());
        let ctx = BudgetContext::for_request(&req, std::time::Instant::now());
        let first = execute_sweep_wire(&req, &budgets, &ctx);
        // the first call parked the template; a second wire call must
        // still report identical per-point work
        let second = execute_sweep_wire(&req, &budgets, &ctx);
        let works = |rs: &[SolveReport]| rs.iter().map(|r| r.work).collect::<Vec<_>>();
        assert_eq!(works(&first), works(&second));
        assert!(first.iter().all(|r| r.status == Status::Solved));
        assert!(first.iter().all(|r| r.sweep_budget.is_some()));
        assert!(first.iter().all(|r| r.solution.is_some()));
        assert!(first.iter().all(|r| r.sim.is_some()));
    }

    #[test]
    fn pointwise_sweep_matches_independent_cold_solves() {
        // satellite 2: the degraded path a budgeted sweep takes must
        // cost exactly what per-point cold solves cost — no chaining,
        // no warm state, nothing cache-timing-dependent
        let prep = std::sync::Arc::new(PreparedInstance::new(chain()));
        let budgets: Vec<u64> = (0..=4).collect();
        let req = SolveRequest::sweep("p", std::sync::Arc::clone(&prep), budgets.clone());
        let ctx = BudgetContext::for_request(&req, std::time::Instant::now());
        let reports = execute_sweep_pointwise(&req, &budgets, &ctx);
        assert_eq!(reports.len(), budgets.len());
        for (r, &b) in reports.iter().zip(&budgets) {
            let cold = rtt_core::lp_build::solve_min_makespan_lp_with(
                prep.tt(),
                b,
                rtt_lp::Engine::Revised,
            )
            .unwrap();
            assert_eq!(r.work, cold.pivots as u64, "budget {b}");
            assert_eq!(r.sweep_budget, Some(b));
        }
        // and the answers agree with the chained path point for point
        let chained = execute_sweep_wire(&req, &budgets, &ctx);
        for (p, c) in reports.iter().zip(&chained) {
            assert_eq!(p.makespan, c.makespan);
            assert_eq!(p.budget_used, c.budget_used);
            assert_eq!(p.sim.map(|s| s.simulated), c.sim.map(|s| s.simulated));
        }
    }
}
