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
//! and min-flow routed through the same Theorem 3.4 stage as a single
//! `bicriteria` solve, and becomes its report through the same report
//! path as every solver's answer (see [`crate::solver`]): the solved
//! report builder and its per-form check, then the Observation 1.1
//! certificate from `certify::attach`.
//!
//! # One crash-started chain per call
//!
//! [`execute_sweep_wire`] is a sweep's `bicriteria` unit in the batch
//! executor (which `rtt curve` also reaches through `execute_one`),
//! metered or not. Each call builds the instance's LP 6–10 as every
//! single solve does, starts the first point from the longest-path
//! crash basis, and reoptimizes later points from the previous point's
//! basis inside the chain. Neither the LP nor a basis outlives the
//! call, so a point's pivot count, which rides the wire as `work`, is a
//! pure function of (instance, grid): byte-identical across thread
//! counts, cache modes, budgets and restarts. Under a budget the chain
//! charges its pivots to the request's meter, so a solved sweep's
//! `consumed.lp_pivots` is the sum of its points' `work`. Cross-request
//! reuse for sweeps rides the solution tier of
//! [`crate::reuse::ReuseCache`] instead, which replays whole report
//! vectors byte-identically.

use crate::budget::BudgetContext;
use crate::request::{SolveReport, SolveRequest, Status};
use rtt_budget::BudgetMeter;
use rtt_core::lp_build::LpError;
use rtt_core::{MakespanLp, Resource};

/// The solver whose unit answers a sweep, and every sweep point
/// reports as.
pub(crate) const SOLVER: &str = "bicriteria";

/// The chain behind [`execute_sweep_wire`]: one `solve_sweep_metered`
/// chain from the crash basis on a freshly built LP 6–10 of the
/// instance, then each point rounded, built into its report and
/// certified. The LP chain charges `lp_pivots` and each point's
/// certification replay charges `sim_events` on `meter`; exhaustion
/// surfaces as [`LpError::Exhausted`], except for a replay the request
/// lets `degrade`, which leaves its point solved without a certificate
/// (`certify::attach`).
fn solve_points(
    req: &SolveRequest,
    budgets: &[Resource],
    meter: Option<&BudgetMeter>,
) -> Result<Vec<SolveReport>, LpError> {
    let (arc, tt) = (req.prepared.arc(), req.prepared.tt());
    let (points, _) = MakespanLp::new(tt).solve_sweep_metered(tt, budgets, None, meter)?;
    points
        .into_iter()
        .zip(budgets)
        .map(|(frac, &budget)| {
            let a = rtt_core::bicriteria_round_prepped(arc, tt, frac, req.alpha);
            let mut r = crate::solver::approx_report(req, SOLVER, a);
            r.sweep_budget = Some(budget);
            crate::certify::attach(req, &mut r, meter).map_err(LpError::Exhausted)?;
            Ok(r)
        })
        .collect()
}

/// The single whole-request report a failed chain answers with: the
/// chain is one request-level computation, not per-point solves.
fn chain_failure(req: &SolveRequest, e: LpError) -> Vec<SolveReport> {
    let r = match e {
        LpError::Infeasible => SolveReport::new(
            req.id.clone(),
            SOLVER,
            Status::Infeasible,
            "curve LP infeasible",
        ),
        LpError::Exhausted(e) => crate::solver::report_exhausted(req, SOLVER, e),
        e => SolveReport::new(req.id.clone(), SOLVER, Status::Unsupported, e.to_string()),
    };
    vec![r]
}

/// Expands a sweep request into per-point [`SolveReport`]s — the
/// executor's `bicriteria` unit for every
/// [`crate::Objective::MakespanSweep`] request, budgeted or not.
///
/// One **self-contained** chain: crash start, then per-point delta
/// reoptimization, so `work` (on the wire) is a pure function of the
/// request line — byte-identical across thread counts, cache modes,
/// budgets and restarts.
pub fn execute_sweep_wire(
    req: &SolveRequest,
    budgets: &[Resource],
    ctx: &BudgetContext,
) -> Vec<SolveReport> {
    solve_points(req, budgets, ctx.meter()).unwrap_or_else(|e| chain_failure(req, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::PreparedInstance;
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
        let prep = std::sync::Arc::new(PreparedInstance::new(chain()));
        let budgets: Vec<u64> = (0..=8).collect();
        let req = SolveRequest::sweep("c", std::sync::Arc::clone(&prep), budgets.clone());
        let ctx = BudgetContext::for_request(&req, std::time::Instant::now());
        let points = execute_sweep_wire(&req, &budgets, &ctx);
        assert_eq!(points.len(), budgets.len());
        // the chain starts from the crash basis: its first point costs
        // what a cold solve at that budget costs
        let cold_first = rtt_core::lp_build::solve_min_makespan_lp_with(
            prep.tt(),
            budgets[0],
            rtt_lp::Engine::Revised,
        )
        .unwrap();
        assert_eq!(
            points[0].work, cold_first.pivots as u64,
            "first point is cold"
        );
        let mut prev = f64::INFINITY;
        for p in &points {
            let (lp_makespan, budget) = (p.lp_makespan.unwrap(), p.sweep_budget.unwrap());
            assert!(lp_makespan <= prev + 1e-9, "LP curve non-increasing");
            prev = lp_makespan;
            let cold = rtt_core::lp_build::solve_min_makespan_lp(prep.tt(), budget, None).unwrap();
            assert!(
                (lp_makespan - cold.makespan).abs() < 1e-9,
                "budget {budget}: warm {lp_makespan} vs cold {}",
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
        let prep = std::sync::Arc::new(PreparedInstance::new(arc));
        let req = SolveRequest::sweep("z", prep, vec![0]);
        let ctx = BudgetContext::for_request(&req, std::time::Instant::now());
        let points = execute_sweep_wire(&req, &[0], &ctx);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].makespan, Some(base));
        assert_eq!(points[0].budget_used, Some(0));
        assert!((points[0].lp_makespan.unwrap() - base as f64).abs() < 1e-9);
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
            let reports = crate::execute_one(&registry, &req, std::time::Instant::now());
            let r = &reports[0];
            assert_eq!(r.status, Status::Solved, "{name}: {}", r.detail);
            assert_eq!(r.makespan, Some(base), "{name}");
            let cert = r
                .sim
                .unwrap_or_else(|| panic!("{name}: anchor uncertified"));
            assert_eq!(cert.bound, base, "{name}");
            assert_eq!(cert.simulated, base, "{name}: chains cannot pipeline");
        }
    }

    #[test]
    fn wire_sweep_ignores_parked_warm_state() {
        // a call leaves nothing behind that the next call could start
        // from — no basis, no LP: its pivot counts are on the wire, so
        // they may depend on nothing but the request line
        let prep = std::sync::Arc::new(PreparedInstance::new(chain()));
        let budgets: Vec<u64> = (0..=4).collect();
        let req = SolveRequest::sweep("w", std::sync::Arc::clone(&prep), budgets.clone());
        let ctx = BudgetContext::for_request(&req, std::time::Instant::now());
        let first = execute_sweep_wire(&req, &budgets, &ctx);
        // a second call on the same prepared instance must report
        // identical per-point work
        let second = execute_sweep_wire(&req, &budgets, &ctx);
        let works = |rs: &[SolveReport]| rs.iter().map(|r| r.work).collect::<Vec<_>>();
        assert_eq!(works(&first), works(&second));
        assert!(first.iter().all(|r| r.status == Status::Solved));
        assert!(first.iter().all(|r| r.sweep_budget.is_some()));
        assert!(first.iter().all(|r| r.solution.is_some()));
        assert!(first.iter().all(|r| r.sim.is_some()));
    }
}
