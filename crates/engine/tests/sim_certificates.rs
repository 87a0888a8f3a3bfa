//! End-to-end simulation certification: **every** solved report the
//! executor emits — across the whole registry, all nine pipelines, on
//! race-derived instances of both reducer families — carries an
//! Observation 1.1 certificate whose simulated finish is within the
//! reported makespan. Since PR 5 that includes the regime baselines:
//! no-reuse solutions replay at their dedicated levels, global-pool
//! schedules replay schedule-granularly.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtt_core::{Instance, ReducerFamily};
use rtt_dag::gen;
use rtt_engine::{execute_one, PreparedInstance, Registry, SolveRequest, Status};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

fn race_arc(seed: u64, family: ReducerFamily) -> rtt_core::ArcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tt = gen::random_race_dag(&mut rng, 6, 8);
    let inst = Instance::race_dag(&tt.dag, |w| family.duration(w)).unwrap();
    rtt_core::to_arc_form(&inst).0
}

/// A two-terminal series-parallel race instance, so the `sp-dp`
/// pipeline joins the fan-out too.
fn sp_arc(seed: u64, family: ReducerFamily) -> rtt_core::ArcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tt = gen::random_sp(&mut rng, 5).tt;
    let inst = Instance::race_dag(&tt.dag, |w| family.duration(w)).unwrap();
    rtt_core::to_arc_form(&inst).0
}

#[test]
fn every_solved_report_is_sim_certified_registry_wide() {
    let registry = Registry::standard();
    let mut certified: HashSet<&'static str> = HashSet::new();
    for family in [ReducerFamily::KWay, ReducerFamily::RecursiveBinary] {
        for seed in [1u64, 2, 3] {
            let arc = if seed == 3 {
                sp_arc(seed, family)
            } else {
                race_arc(seed, family)
            };
            let prep = Arc::new(PreparedInstance::new(arc));
            for budget in [0u64, 4, 9] {
                let req = SolveRequest::min_makespan(
                    format!("{family}-{seed}-{budget}"),
                    Arc::clone(&prep),
                    budget,
                );
                for report in execute_one(&registry, &req, Instant::now()) {
                    assert_eq!(
                        report.status,
                        Status::Solved,
                        "{}: {}",
                        report.solver,
                        report.detail
                    );
                    let cert = report.sim.unwrap_or_else(|| {
                        panic!(
                            "{}: solved report without a sim certificate",
                            report.solver
                        )
                    });
                    assert!(
                        cert.simulated <= cert.bound,
                        "{}: simulated {} > bound {}",
                        report.solver,
                        cert.simulated,
                        cert.bound
                    );
                    assert_eq!(cert.bound, report.makespan.unwrap());
                    assert!(cert.expanded_updates > 0 || cert.bound == 0);
                    // exactly one solution form backs the certificate…
                    let forms = usize::from(report.solution.is_some())
                        + usize::from(report.noreuse.is_some())
                        + usize::from(report.schedule.is_some());
                    assert_eq!(forms, 1, "{}: ambiguous solution form", report.solver);
                    // …and it is the one the solver declares — the
                    // `rtt solvers` column prints solution_form(), so a
                    // drift between declaration and populated field
                    // would ship a lie
                    let declared = registry
                        .get(report.solver)
                        .expect("report names a registered solver")
                        .solution_form();
                    let actual = if report.solution.is_some() {
                        rtt_engine::SolutionForm::Routed
                    } else if report.noreuse.is_some() {
                        rtt_engine::SolutionForm::NoReuse
                    } else {
                        rtt_engine::SolutionForm::Schedule
                    };
                    assert_eq!(
                        declared, actual,
                        "{}: declared solution form disagrees with the report",
                        report.solver
                    );
                    certified.insert(report.solver);
                }
            }
        }
    }
    // the fan-out across both families must have exercised every
    // registered pipeline — none may ship uncertified
    let all: HashSet<&'static str> = registry.names().into_iter().collect();
    assert_eq!(
        certified, all,
        "some registry pipeline never produced a certified report"
    );
}

#[test]
fn sweep_points_carry_sim_certificates() {
    let prep = Arc::new(PreparedInstance::new(race_arc(
        7,
        ReducerFamily::RecursiveBinary,
    )));
    let budgets: Vec<u64> = (0..8).collect();
    let req = SolveRequest::sweep("curve", prep, budgets.clone());
    let reports = execute_one(&Registry::standard(), &req, Instant::now());
    assert_eq!(reports.len(), budgets.len());
    for r in &reports {
        assert_eq!(r.status, Status::Solved, "{}", r.detail);
        let cert = r.sim.expect("curve points are rounded routed solutions");
        assert!(cert.simulated <= cert.bound);
        assert_eq!(cert.bound, r.makespan.unwrap());
    }
}

/// The budget-0 anchor point, certified for every regime (the PR-4
/// regression pinned it for routed solutions only; see also the
/// `rtt_cli::args` / `rtt_engine::curve` budget-0 tests): at zero
/// budget every pipeline reports the base makespan, and the replayed
/// execution confirms it physically.
#[test]
fn budget_zero_anchor_is_certified_for_all_regimes() {
    let registry = Registry::standard();
    for family in [ReducerFamily::KWay, ReducerFamily::RecursiveBinary] {
        let arc = race_arc(11, family);
        let base = arc.base_makespan();
        let prep = Arc::new(PreparedInstance::new(arc));
        let req = SolveRequest::min_makespan("anchor", Arc::clone(&prep), 0);
        let reports = execute_one(&registry, &req, Instant::now());
        // the three regime baselines must be among the answers
        for name in ["noreuse-exact", "noreuse-bicriteria", "global-greedy"] {
            let r = reports
                .iter()
                .find(|r| r.solver == name)
                .unwrap_or_else(|| panic!("{name} missing from the fan-out"));
            assert_eq!(r.status, Status::Solved, "{name}: {}", r.detail);
            assert_eq!(r.makespan, Some(base), "{name}: zero budget = base makespan");
            assert_eq!(r.budget_used, Some(0), "{name}");
            let cert = r.sim.unwrap_or_else(|| panic!("{name}: anchor not certified"));
            assert_eq!(cert.bound, base, "{name}");
            assert!(cert.simulated <= base, "{name}");
        }
    }
}
