//! Differential tests for the revised simplex against the dense
//! flat-tableau oracle: on an edge-case corpus and on random LPs —
//! including degenerate, infeasible, unbounded, and tight-upper-bound
//! instances — Revised and Flat must agree on the feasibility verdict
//! and (relative-tolerance) objective, and a warm-started chain over a
//! random RHS sequence must match cold solves point for point.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtt_lp::{Basis, Cmp, Engine, Outcome, Problem};

/// Verdicts must match exactly; objectives to relative 1e-6.
fn assert_revised_matches_flat(p: &Problem, label: &str) {
    let revised = p.solve_with(Engine::Revised);
    let flat = p.solve_with(Engine::Flat);
    match (&revised, &flat) {
        (Outcome::Optimal(v), Outcome::Optimal(f)) => {
            assert!(
                (v.objective - f.objective).abs() <= 1e-6 * (1.0 + f.objective.abs()),
                "{label}: revised {} vs flat {}",
                v.objective,
                f.objective
            );
            assert!(
                p.is_feasible(&v.x, 1e-5),
                "{label}: revised optimum infeasible: {:?}",
                v.x
            );
            assert!(
                p.is_feasible(&f.x, 1e-5),
                "{label}: flat optimum infeasible"
            );
            // implicit bounds: the revised engine materializes no bound
            // rows, the flat engine materializes one per bounded var
            assert_eq!(v.stats.bound_rows, 0, "{label}");
            assert_eq!(
                f.stats.rows,
                v.stats.rows + v.stats.bound_cols,
                "{label}: flat rows must exceed revised rows by the bound count"
            );
        }
        (Outcome::Infeasible, Outcome::Infeasible) => {}
        (Outcome::Unbounded, Outcome::Unbounded) => {}
        (v, f) => panic!("{label}: revised {v:?}, flat {f:?}"),
    }
}

/// The `edge_cases.rs` corpus, rebuilt problem-by-problem.
fn edge_case_corpus() -> Vec<(&'static str, Problem)> {
    let mut corpus = Vec::new();

    corpus.push(("empty_problem", Problem::minimize(3)));

    let mut p = Problem::minimize(1);
    p.set_objective(0, 1.0);
    for _ in 0..3 {
        p.add_ge(&[(0, 1.0)], 2.0);
    }
    corpus.push(("redundant_constraints", p));

    let mut p = Problem::minimize(1);
    p.set_objective(0, 1.0);
    p.add_row(&[(0, 1.0), (0, 1.0)], Cmp::Ge, 4.0);
    corpus.push(("repeated_coefficients", p));

    let mut p = Problem::minimize(3);
    p.set_objective(0, -0.75);
    p.set_objective(1, 150.0);
    p.set_objective(2, -0.02);
    p.add_le(&[(0, 0.25), (1, -60.0), (2, -0.04)], 0.0);
    p.add_le(&[(0, 0.5), (1, -90.0), (2, -0.02)], 0.0);
    p.add_le(&[(2, 1.0)], 1.0);
    corpus.push(("degenerate_beale", p));

    let mut p = Problem::minimize(1);
    p.set_objective(0, -1.0);
    p.set_upper_bound(0, 7.5);
    corpus.push(("upper_bound_cap", p));

    let mut p = Problem::minimize(2);
    p.set_objective(0, -1.0);
    p.add_ge(&[(1, 1.0)], 1.0);
    corpus.push(("unbounded", p));

    let mut p = Problem::minimize(2);
    p.add_eq(&[(0, 1.0), (1, 1.0)], 1.0);
    p.add_eq(&[(0, 1.0), (1, 1.0)], 2.0);
    corpus.push(("infeasible_equalities", p));

    let mut p = Problem::minimize(1);
    p.set_upper_bound(0, 1.0);
    p.add_ge(&[(0, 1.0)], 2.0);
    corpus.push(("infeasible_bounds", p));

    let mut p = Problem::minimize(1);
    p.set_objective(0, 1.0);
    p.add_ge(&[(0, 1.0)], -5.0);
    corpus.push(("vacuous_negative_rhs", p));

    let mut p = Problem::minimize(1);
    p.add_le(&[(0, 1.0)], -1.0);
    corpus.push(("negative_rhs_infeasible", p));

    let mut p = Problem::minimize(2);
    p.set_objective(0, 1.0);
    p.add_ge(&[(0, 1.0), (1, 0.0)], 3.0);
    corpus.push(("zero_coefficient_row", p));

    let mut p = Problem::minimize(2);
    p.set_objective(0, 1.0);
    p.set_objective(1, 1.0);
    p.add_ge(&[(0, 1.0), (1, 1.0)], 2.0);
    corpus.push(("multiple_optima", p));

    let mut p = Problem::minimize(2);
    p.add_eq(&[(0, 1.0), (1, 1.0)], 10.0);
    p.add_row(&[(0, 1.0), (1, -1.0)], Cmp::Ge, 4.0);
    p.add_row(&[(0, 1.0), (1, -1.0)], Cmp::Le, 4.0);
    corpus.push(("equality_system", p));

    let n = 4;
    let mut p = Problem::minimize(n * n);
    for i in 0..n {
        for j in 0..n {
            p.set_objective(i * n + j, ((i * 7 + j * 3) % 5 + 1) as f64);
        }
    }
    for i in 0..n {
        let row: Vec<(usize, f64)> = (0..n).map(|j| (i * n + j, 1.0)).collect();
        p.add_eq(&row, 1.0);
        let col: Vec<(usize, f64)> = (0..n).map(|j| (j * n + i, 1.0)).collect();
        p.add_eq(&col, 1.0);
    }
    corpus.push(("assignment_4x4", p));

    // Mixed magnitudes like the ∞-clamped LPs the pipeline builds
    // (LP_BIG = 1e12 precedence rows next to unit conservation rows):
    // the sparse pivot path must not drop the small genuine entries.
    let big = 1e12;
    let mut p = Problem::minimize(4);
    p.set_objective(3, 1.0);
    p.add_eq(&[(0, 1.0), (1, -1.0)], 0.0);
    p.add_ge(&[(3, 1.0), (0, big / 2.0)], big);
    p.add_ge(&[(3, 1.0), (1, 3.0), (2, 1.0)], 3.0);
    p.add_le(&[(0, 1.0), (2, 1.0)], 1.0);
    for j in 0..3 {
        p.set_upper_bound(j, 2.0);
    }
    corpus.push(("mixed_scale_lp_big", p));

    corpus
}

#[test]
fn revised_handles_lp_big_scale_like_flat() {
    // Dedicated relative check at the 1e12 scale: objectives must agree
    // to relative 1e-9 even though absolute values are huge.
    let big = 1e12;
    let mut p = Problem::minimize(3);
    p.set_objective(2, 1.0);
    p.add_ge(&[(2, 1.0), (0, big)], big); // T >= big(1 - f0)
    p.add_ge(&[(2, 1.0), (1, 7.0)], 5.0);
    p.add_le(&[(0, 1.0), (1, 1.0)], 1.0);
    p.set_upper_bound(0, 1.0);
    p.set_upper_bound(1, 1.0);
    let v = p.solve_with(Engine::Revised).expect_optimal("revised");
    let f = p.solve_with(Engine::Flat).expect_optimal("flat");
    assert!(
        (v.objective - f.objective).abs() <= 1e-9 * (1.0 + f.objective.abs()),
        "revised {} vs flat {}",
        v.objective,
        f.objective
    );
}

#[test]
fn revised_matches_flat_on_edge_case_corpus() {
    for (label, p) in edge_case_corpus() {
        assert_revised_matches_flat(&p, label);
    }
}

#[test]
fn pivot_counts_are_reported() {
    // A fixed LP must report a positive, deterministic pivot count.
    let mut p = Problem::minimize(2);
    p.set_objective(0, -3.0);
    p.set_objective(1, -5.0);
    p.add_le(&[(0, 1.0)], 4.0);
    p.add_le(&[(1, 2.0)], 12.0);
    p.add_le(&[(0, 3.0), (1, 2.0)], 18.0);
    let a = p.solve().expect_optimal("a");
    let b = p.solve().expect_optimal("b");
    assert!(a.pivots > 0);
    assert_eq!(a.pivots, b.pivots, "solver must be deterministic");
}

fn random_problem(rng: &mut StdRng, tight_bounds: bool) -> Problem {
    let n = rng.random_range(1..7usize);
    let mut p = Problem::minimize(n);
    for j in 0..n {
        p.set_objective(j, rng.random_range(-4..5i32) as f64);
        if rng.random_bool(if tight_bounds { 0.9 } else { 0.4 }) {
            // tight mode skews toward small bounds so optima land on them
            let ub = if tight_bounds {
                rng.random_range(0..3i32)
            } else {
                rng.random_range(0..8i32)
            };
            p.set_upper_bound(j, ub as f64);
        }
    }
    for _ in 0..rng.random_range(0..8usize) {
        let coeffs: Vec<(usize, f64)> = (0..n)
            .map(|j| (j, rng.random_range(-3..4i32) as f64))
            .collect();
        let cmp = match rng.random_range(0..3u8) {
            0 => Cmp::Le,
            1 => Cmp::Eq,
            _ => Cmp::Ge,
        };
        p.add_row(&coeffs, cmp, rng.random_range(-6..10i32) as f64);
    }
    p
}

#[test]
fn three_way_agreement_on_random_lps() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0003);
    for case in 0..500 {
        let p = random_problem(&mut rng, false);
        assert_revised_matches_flat(&p, &format!("random case {case}"));
    }
}

#[test]
fn three_way_agreement_on_tight_upper_bound_lps() {
    // Heavily bounded instances exercise the bound-flip machinery: most
    // optima have several variables parked at their upper bound.
    let mut rng = StdRng::seed_from_u64(0xB0_0B5);
    for case in 0..300 {
        let p = random_problem(&mut rng, true);
        assert_revised_matches_flat(&p, &format!("tight case {case}"));
    }
}

#[test]
fn three_way_agreement_on_degenerate_lps() {
    // Duplicated rows and zero RHS force degenerate pivots.
    let mut rng = StdRng::seed_from_u64(0xDE6E_0001);
    for case in 0..200 {
        let n = rng.random_range(1..5usize);
        let mut p = Problem::minimize(n);
        for j in 0..n {
            p.set_objective(j, rng.random_range(-2..3i32) as f64);
            if rng.random_bool(0.5) {
                p.set_upper_bound(j, rng.random_range(0..4i32) as f64);
            }
        }
        let coeffs: Vec<(usize, f64)> = (0..n)
            .map(|j| (j, rng.random_range(-2..3i32) as f64))
            .collect();
        let rhs = if rng.random_bool(0.5) {
            0.0
        } else {
            rng.random_range(0..5i32) as f64
        };
        for _ in 0..rng.random_range(2..5usize) {
            p.add_ge(&coeffs, rhs);
        }
        p.add_eq(
            &coeffs
                .iter()
                .map(|&(j, v)| (j, 2.0 * v))
                .collect::<Vec<_>>(),
            2.0 * rhs,
        );
        assert_revised_matches_flat(&p, &format!("degenerate case {case}"));
    }
}

/// A makespan-LP-shaped problem whose only varying datum is one `≤`
/// RHS (the budget row) — the warm-start contract's exact use case.
fn budget_shaped(rng: &mut StdRng, n_jobs: usize, budget: f64) -> Problem {
    // vars: f_1..f_n (bounded), T (last); min T subject to
    // T + s_j f_j >= t_j and sum f_j <= budget.
    let mut p = Problem::minimize(n_jobs + 1);
    p.set_objective(n_jobs, 1.0);
    for j in 0..n_jobs {
        let t = rng.random_range(1..20i32) as f64;
        let r = rng.random_range(1..5i32) as f64;
        p.add_ge(&[(n_jobs, 1.0), (j, t / r)], t);
        p.set_upper_bound(j, r);
    }
    let coeffs: Vec<(usize, f64)> = (0..n_jobs).map(|j| (j, 1.0)).collect();
    p.add_le(&coeffs, budget);
    p
}

#[test]
fn warm_chain_matches_cold_over_random_budget_sequences() {
    let mut rng = StdRng::seed_from_u64(0x003A_5711);
    for case in 0..60 {
        let n_jobs = rng.random_range(2..8usize);
        // capture the generator state so every budget rebuilds the SAME
        // rows: regenerate from a per-case seed
        let case_seed = rng.random_range(0..u64::MAX);
        let budget_row = n_jobs; // rows: n_jobs precedence then the budget
        let mut p = budget_shaped(&mut StdRng::seed_from_u64(case_seed), n_jobs, 0.0);
        let mut warm: Option<Basis> = None;
        for step in 0..10 {
            let budget = rng.random_range(0..12i32) as f64;
            p.set_rhs(budget_row, budget);
            let (out, basis) = rtt_lp::revised::solve_warm(&p, warm.as_ref(), None);
            let w = out.expect_optimal("budget LPs are always feasible");
            let c = p
                .solve_with(Engine::Flat)
                .expect_optimal("flat on the same LP");
            assert!(
                (w.objective - c.objective).abs() <= 1e-7 * (1.0 + c.objective.abs()),
                "case {case} step {step} budget {budget}: warm {} vs cold {}",
                w.objective,
                c.objective
            );
            assert!(p.is_feasible(&w.x, 1e-6), "case {case} step {step}");
            warm = basis;
        }
    }
}

#[test]
fn chained_sweep_matches_flat_point_for_point() {
    use rtt_lp::revised::solve_rhs_sweep;
    let mut rng = StdRng::seed_from_u64(0x5EED_C4A1);
    for case in 0..40 {
        let n_jobs = rng.random_range(2..7usize);
        let mut p = budget_shaped(&mut rng, n_jobs, 0.0);
        let budget_row = n_jobs;
        // non-monotone grids exercise both dual directions
        let rhs: Vec<f64> = (0..8).map(|_| rng.random_range(0..10i32) as f64).collect();
        let (outcomes, basis) = solve_rhs_sweep(&p, budget_row, &rhs, None, None);
        assert_eq!(outcomes.len(), rhs.len());
        assert!(basis.is_some(), "feasible sweeps return a basis");
        for (k, (o, &v)) in outcomes.iter().zip(&rhs).enumerate() {
            let w = o.clone().expect_optimal("budget LPs are always feasible");
            p.set_rhs(budget_row, v);
            let c = p.solve_with(Engine::Flat).expect_optimal("flat");
            assert!(
                (w.objective - c.objective).abs() <= 1e-7 * (1.0 + c.objective.abs()),
                "case {case} point {k} rhs {v}: chained {} vs flat {}",
                w.objective,
                c.objective
            );
            assert!(p.is_feasible(&w.x, 1e-6), "case {case} point {k}");
        }
    }
}

#[test]
fn warm_restart_after_infeasible_and_on_first_use() {
    // warm = None must behave exactly like a cold solve
    let mut rng = StdRng::seed_from_u64(7);
    let p = budget_shaped(&mut rng, 4, 3.0);
    let (a, _) = rtt_lp::revised::solve_warm(&p, None, None);
    let b = p.solve_with(Engine::Revised);
    let (a, b) = (a.expect_optimal("a"), b.expect_optimal("b"));
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(a.pivots, b.pivots, "warm=None must be the cold path");
}
