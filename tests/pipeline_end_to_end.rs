//! End-to-end: random instances through every solver, validated and
//! checked against the exact optimum (the Table 1 experiment as
//! assertions).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resource_time_tradeoff::core::exact::solve_exact;
use resource_time_tradeoff::core::transform::to_arc_form;
use resource_time_tradeoff::core::{
    min_resource, solve_bicriteria, solve_kway_5approx, solve_recbinary_4approx,
    solve_recbinary_improved, validate, Instance,
};
use resource_time_tradeoff::dag::gen;
use resource_time_tradeoff::duration::Duration;

fn random_small_instances(seed: u64, family: fn(u64) -> Duration) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..6 {
        let tt = gen::random_race_dag(&mut rng, 5, 8);
        // scale up in-degrees so the duration functions have room
        let mut g = resource_time_tradeoff::dag::Dag::new();
        for _ in tt.dag.node_ids() {
            g.add_node(());
        }
        for e in tt.dag.edge_refs() {
            let copies = rng.random_range(1..6usize);
            g.add_parallel_edges(e.src, e.dst, (), copies).unwrap();
        }
        out.push(Instance::race_dag(&g, family).unwrap());
    }
    out
}

#[test]
fn bicriteria_respects_both_bounds_on_random_instances() {
    for inst in random_small_instances(11, Duration::recursive_binary) {
        let (arc, _) = to_arc_form(&inst);
        for budget in [0u64, 2, 5, 10] {
            for alpha in [0.3, 0.5, 0.7] {
                let r = solve_bicriteria(&arc, budget, alpha).unwrap();
                validate(&arc, &r.solution).unwrap();
                assert!((r.solution.budget_used as f64) <= budget as f64 / (1.0 - alpha) + 1e-6);
                assert!(
                    r.solution.makespan as f64 <= r.lp_makespan / alpha + 1e-6,
                    "makespan {} vs LP {} / α {alpha}",
                    r.solution.makespan,
                    r.lp_makespan
                );
            }
        }
    }
}

#[test]
fn kway_5approx_vs_exact_ratio() {
    let mut worst: f64 = 1.0;
    for inst in random_small_instances(23, Duration::kway) {
        let (arc, _) = to_arc_form(&inst);
        for budget in [0u64, 3, 6] {
            let r = solve_kway_5approx(&arc, budget).unwrap();
            validate(&arc, &r.solution).unwrap();
            assert!(r.solution.budget_used <= budget, "single-criteria budget");
            let opt = solve_exact(&arc, budget).solution.makespan;
            assert!(
                r.solution.makespan <= 5 * opt.max(1),
                "Theorem 3.9: {} > 5 × {opt}",
                r.solution.makespan
            );
            if opt > 0 {
                worst = worst.max(r.solution.makespan as f64 / opt as f64);
            }
        }
    }
    // the observed ratio should be far below the worst-case bound
    assert!(worst <= 5.0, "observed {worst}");
}

#[test]
fn recbinary_solvers_vs_exact_ratio() {
    for inst in random_small_instances(37, Duration::recursive_binary) {
        let (arc, _) = to_arc_form(&inst);
        for budget in [0u64, 2, 4, 8] {
            let opt = solve_exact(&arc, budget).solution.makespan;
            let four = solve_recbinary_4approx(&arc, budget).unwrap();
            validate(&arc, &four.solution).unwrap();
            assert!(four.solution.budget_used <= budget);
            assert!(
                four.solution.makespan <= 4 * opt.max(1),
                "Theorem 3.10: {} > 4 × {opt}",
                four.solution.makespan
            );
            let imp = solve_recbinary_improved(&arc, budget).unwrap();
            validate(&arc, &imp.solution).unwrap();
            assert!(
                imp.solution.budget_used as f64 <= 4.0 / 3.0 * budget as f64 + 1e-9,
                "Theorem 3.16 resource: {} vs 4/3 × {budget}",
                imp.solution.budget_used
            );
            // 14/5 against the LP bound (≤ OPT) — compare against exact
            assert!(
                imp.solution.makespan as f64 <= 14.0 / 5.0 * (opt.max(1) as f64) + 1e-9,
                "Theorem 3.16 makespan: {} vs 2.8 × {opt}",
                imp.solution.makespan
            );
        }
    }
}

#[test]
fn min_resource_bicriteria_on_random_instances() {
    for inst in random_small_instances(53, Duration::recursive_binary) {
        let (arc, _) = to_arc_form(&inst);
        let base = arc.base_makespan();
        let ideal = arc.ideal_makespan();
        let target = ideal + (base - ideal) / 2;
        match min_resource(&arc, target, 0.5) {
            Ok(r) => {
                validate(&arc, &r.solution).unwrap();
                assert!(
                    r.solution.makespan as f64 <= target as f64 / 0.5 + 1e-9,
                    "makespan {} vs target {target}",
                    r.solution.makespan
                );
                assert!(
                    r.solution.budget_used as f64 <= r.lp_budget * 2.0 + 1e-6,
                    "budget {} vs LP {}",
                    r.solution.budget_used,
                    r.lp_budget
                );
            }
            Err(e) => panic!("target {target} between ideal and base must be feasible: {e:?}"),
        }
    }
}

#[test]
fn exact_is_monotone_and_bounded_by_extremes() {
    for inst in random_small_instances(71, Duration::kway) {
        let (arc, _) = to_arc_form(&inst);
        let base = arc.base_makespan();
        let ideal = arc.ideal_makespan();
        let mut prev = u64::MAX;
        for budget in [0u64, 1, 2, 4, 8, 16] {
            let r = solve_exact(&arc, budget);
            validate(&arc, &r.solution).unwrap();
            assert!(r.solution.makespan <= prev, "monotone in budget");
            assert!(r.solution.makespan <= base);
            assert!(r.solution.makespan >= ideal);
            prev = r.solution.makespan;
        }
    }
}
