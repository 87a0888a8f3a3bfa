//! Registry-wide validation property test: on random sp / layered /
//! chain / race instances, **every** registered solver's output must
//! validate, and its certificate factors must hold against the exact
//! optimum and the LP lower bound measured in the same run.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtt_core::{validate, ArcInstance};
use rtt_dag::gen;
use rtt_duration::Duration;
use rtt_engine::{
    BudgetContext, Capability, PreparedInstance, Registry, SolveRequest, SolverSelection, Status,
};
use std::sync::Arc;
use std::time::Instant;

/// Small random instance; sizes keep the exact oracle tractable.
fn generate(kind: usize, family: usize, seed: u64) -> ArcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tt = match kind % 4 {
        0 => gen::random_sp(&mut rng, 3 + (seed as usize % 3)).tt,
        1 => gen::layered(&mut rng, 3, 2, 0.4),
        2 => gen::chain(2 + (seed as usize % 4)),
        _ => gen::random_race_dag(&mut rng, 4 + (seed as usize % 3), 4),
    };
    let fam: fn(u64) -> Duration = match family % 2 {
        0 => Duration::recursive_binary,
        _ => Duration::kway,
    };
    let inst = rtt_core::Instance::race_dag(&tt.dag, fam).expect("generated DAG is valid");
    rtt_core::to_arc_form(&inst).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_solver_validates_and_certifies(
        kind in 0usize..4,
        family in 0usize..2,
        seed in 0u64..5_000,
        budget in 0u64..12,
    ) {
        let registry = Registry::standard();
        let arc = generate(kind, family, seed);
        let base = arc.base_makespan();
        let prepared = Arc::new(PreparedInstance::new(arc));
        let req = SolveRequest::min_makespan("prop", Arc::clone(&prepared), budget);

        // ground truth from the exact oracle (instances are kept small
        // enough that it always supports them)
        let exact = registry.get("exact").unwrap();
        prop_assert!(matches!(
            exact.supports(prepared.arc()),
            Capability::Supported
        ));
        let opt = exact.solve(&req, &BudgetContext::unbudgeted()).makespan.expect("exact solves");

        for solver in registry.iter() {
            if !solver.supports(prepared.arc()).is_supported() {
                continue;
            }
            let report = solver.solve(&req, &BudgetContext::unbudgeted());
            prop_assert_eq!(
                report.status.clone(),
                Status::Solved,
                "{} failed: {}",
                solver.name(),
                report.detail
            );
            let makespan = report.makespan.expect("solved");
            let used = report.budget_used.expect("solved");

            // flow solutions must pass the independent validator
            if let Some(sol) = &report.solution {
                validate(prepared.arc(), sol).expect("solution must validate");
                prop_assert_eq!(sol.makespan, makespan);
                prop_assert_eq!(sol.budget_used, used);
            }

            // the LP relaxation is a true lower bound on OPT
            if let Some(lp) = report.lp_makespan {
                prop_assert!(
                    lp <= opt as f64 + 1e-6,
                    "{}: LP bound {} exceeds OPT {}",
                    solver.name(),
                    lp,
                    opt
                );
            }

            match solver.name() {
                // path-reuse solvers: certified factors hold vs OPT
                // (and therefore vs the LP bound they report)
                "exact" | "sp-dp" => {
                    prop_assert_eq!(makespan, opt, "{} must be optimal", solver.name());
                    prop_assert!(used <= budget);
                }
                "bicriteria" => {
                    let mf = report.makespan_factor.unwrap();
                    let rf = report.resource_factor.unwrap();
                    prop_assert!(
                        makespan as f64 <= mf * report.lp_makespan.unwrap() + 1e-6,
                        "bicriteria: {} > {} · {}",
                        makespan, mf, report.lp_makespan.unwrap()
                    );
                    prop_assert!((used as f64) <= rf * budget as f64 + 1e-6);
                }
                "kway" | "recbinary" => {
                    let mf = report.makespan_factor.unwrap();
                    prop_assert!(
                        makespan as f64 <= mf * (opt as f64).max(1.0) + 1e-6,
                        "{}: {} > {} · OPT {}",
                        solver.name(), makespan, mf, opt
                    );
                    prop_assert!(used <= budget, "{} keeps the budget", solver.name());
                }
                "recbinary-improved" => {
                    let mf = report.makespan_factor.unwrap();
                    let rf = report.resource_factor.unwrap();
                    prop_assert!(makespan as f64 <= mf * (opt as f64).max(1.0) + 1e-6);
                    prop_assert!((used as f64) <= rf * budget as f64 + 1e-6);
                }
                // regime baselines: ordered by the §1 hierarchy
                "noreuse-exact" => {
                    prop_assert!(
                        makespan >= opt,
                        "no-reuse {} beats path-reuse OPT {}",
                        makespan, opt
                    );
                    prop_assert!(used <= budget);
                }
                "noreuse-bicriteria" => {
                    let rf = report.resource_factor.unwrap();
                    prop_assert!((used as f64) <= rf * budget as f64 + 1e-6);
                    // its LP bounds the *no-reuse* optimum, which is ≥ OPT;
                    // factor vs its own LP:
                    let mf = report.makespan_factor.unwrap();
                    prop_assert!(makespan as f64 <= mf * report.lp_makespan.unwrap() + 1e-6);
                }
                "global-greedy" => {
                    // the eager policy never idles, so best-of-both
                    // never exceeds the zero-resource makespan
                    prop_assert!(makespan <= base);
                    prop_assert!(used <= budget, "peak pool usage within budget");
                }
                other => prop_assert!(false, "untested solver {other} registered"),
            }
        }
    }

    /// The min-resource objective round-trips through the registry: at
    /// target = base makespan, the exact solver needs 0 units, and at
    /// target = exact optimum for a budget, it needs at most that
    /// budget.
    #[test]
    fn min_resource_objective_is_consistent(
        kind in 0usize..4,
        family in 0usize..2,
        seed in 0u64..5_000,
        budget in 0u64..10,
    ) {
        let registry = Registry::standard();
        let arc = generate(kind, family, seed);
        let base = arc.base_makespan();
        let prepared = Arc::new(PreparedInstance::new(arc));
        let exact = registry.get("exact").unwrap();

        let opt = exact
            .solve(
                &SolveRequest::min_makespan("p", Arc::clone(&prepared), budget),
                &BudgetContext::unbudgeted(),
            )
            .makespan
            .expect("solved");

        let at_base = exact.solve(
            &SolveRequest::min_resource("p", Arc::clone(&prepared), base),
            &BudgetContext::unbudgeted(),
        );
        prop_assert_eq!(at_base.status, Status::Solved);
        prop_assert_eq!(at_base.budget_used.unwrap(), 0, "base makespan is free");

        let at_opt = exact.solve(
            &SolveRequest::min_resource("p", Arc::clone(&prepared), opt),
            &BudgetContext::unbudgeted(),
        );
        prop_assert_eq!(at_opt.status, Status::Solved);
        prop_assert!(
            at_opt.budget_used.unwrap() <= budget,
            "inverting the tradeoff cannot need more than the budget"
        );
    }

    /// Observation 1.1 for the **global-pool regime** (Q1.2): on random
    /// instances, the schedule-granular replay of either greedy
    /// policy's schedule — every arc expanded at the level it held —
    /// finishes within the schedule's makespan, and the no-reuse
    /// replay does the same at its dedicated levels.
    #[test]
    fn regime_replays_respect_observation_1_1(
        kind in 0usize..4,
        family in 0usize..2,
        seed in 0u64..5_000,
        budget in 0u64..12,
    ) {
        let arc = generate(kind, family, seed);
        for policy in [rtt_core::GlobalPolicy::Eager, rtt_core::GlobalPolicy::Patient] {
            let s = rtt_core::global_reuse_schedule(&arc, budget, policy);
            rtt_core::verify_global_schedule(&arc, budget, &s)
                .expect("greedy schedule verifies");
            let cert = rtt_engine::certify_schedule(&arc, &s, None)
                .unwrap()
                .expect("finite schedule certifies");
            prop_assert!(
                cert.simulated <= s.makespan,
                "{policy:?}: simulated {} > schedule makespan {}",
                cert.simulated,
                s.makespan
            );
        }
        let nr = rtt_core::solve_noreuse_exact(&arc, budget);
        let cert = rtt_engine::certify_noreuse(&arc, &nr, None)
            .unwrap()
            .expect("finite levels certify");
        prop_assert!(
            cert.simulated <= nr.makespan,
            "no-reuse: simulated {} > makespan {}",
            cert.simulated,
            nr.makespan
        );
    }

    /// `--solver all` through the executor path: every emitted report
    /// either solved or failed for a declared reason, never panicked —
    /// and at least the always-applicable solvers answered.
    #[test]
    fn all_selection_is_total(
        kind in 0usize..4,
        family in 0usize..2,
        seed in 0u64..2_000,
        budget in 0u64..8,
    ) {
        let registry = Registry::standard();
        let arc = generate(kind, family, seed);
        let prepared = Arc::new(PreparedInstance::new(arc));
        let mut req = SolveRequest::min_makespan("p", prepared, budget);
        req.solver = SolverSelection::All;
        let reports = rtt_engine::execute_one(&registry, &req, Instant::now());
        prop_assert!(reports.iter().any(|r| r.solver == "bicriteria"));
        prop_assert!(reports.iter().any(|r| r.solver == "global-greedy"));
        for r in &reports {
            prop_assert_eq!(
                r.status.clone(),
                Status::Solved,
                "{} failed on a supported instance: {}",
                r.solver,
                r.detail
            );
        }
    }
}
