//! Edge cases for the two-phase simplex: degeneracy, redundancy,
//! bounds, multiple optima, infeasibility/unboundedness detection.

use rtt_lp::{Cmp, Outcome, Problem};

fn optimal(p: &Problem) -> rtt_lp::Solution {
    match p.solve() {
        Outcome::Optimal(s) => s,
        other => panic!("expected optimal, got {other:?}"),
    }
}

#[test]
fn empty_problem_is_trivially_optimal() {
    let p = Problem::minimize(3);
    let s = optimal(&p);
    assert_eq!(s.objective, 0.0);
    assert!(p.is_feasible(&s.x, 1e-9));
}

#[test]
fn redundant_constraints_are_harmless() {
    // x ≥ 2 stated three times, minimize x
    let mut p = Problem::minimize(1);
    p.set_objective(0, 1.0);
    for _ in 0..3 {
        p.add_ge(&[(0, 1.0)], 2.0);
    }
    let s = optimal(&p);
    assert!((s.x[0] - 2.0).abs() < 1e-9);
}

#[test]
fn repeated_coefficients_sum() {
    // (x + x) ≥ 4 means x ≥ 2
    let mut p = Problem::minimize(1);
    p.set_objective(0, 1.0);
    p.add_row(&[(0, 1.0), (0, 1.0)], Cmp::Ge, 4.0);
    let s = optimal(&p);
    assert!((s.x[0] - 2.0).abs() < 1e-9, "{}", s.x[0]);
}

#[test]
fn degenerate_vertex_terminates() {
    // classic degeneracy: many constraints meeting at the origin;
    // Bland's rule must terminate
    let mut p = Problem::minimize(3);
    p.set_objective(0, -0.75);
    p.set_objective(1, 150.0);
    p.set_objective(2, -0.02);
    // a Beale-like cycling construction (plus bounds to keep it finite)
    p.add_le(&[(0, 0.25), (1, -60.0), (2, -0.04)], 0.0);
    p.add_le(&[(0, 0.5), (1, -90.0), (2, -0.02)], 0.0);
    p.add_le(&[(2, 1.0)], 1.0);
    let s = optimal(&p);
    assert!(p.is_feasible(&s.x, 1e-7));
    assert!((s.objective - (-0.05)).abs() < 1e-6, "{}", s.objective);
}

#[test]
fn variable_capped_by_upper_bound() {
    // maximize x (minimize −x) with x ≤ 7.5
    let mut p = Problem::minimize(1);
    p.set_objective(0, -1.0);
    p.set_upper_bound(0, 7.5);
    let s = optimal(&p);
    assert!((s.x[0] - 7.5).abs() < 1e-9);
}

#[test]
fn unbounded_detected() {
    let mut p = Problem::minimize(2);
    p.set_objective(0, -1.0); // minimize −x with x free above
    p.add_ge(&[(1, 1.0)], 1.0); // unrelated row
    assert!(matches!(p.solve(), Outcome::Unbounded));
}

#[test]
fn infeasible_equalities_detected() {
    let mut p = Problem::minimize(2);
    p.add_eq(&[(0, 1.0), (1, 1.0)], 1.0);
    p.add_eq(&[(0, 1.0), (1, 1.0)], 2.0);
    assert!(matches!(p.solve(), Outcome::Infeasible));
}

#[test]
fn infeasible_bounds_vs_row() {
    // x ≤ 1 but row requires x ≥ 2
    let mut p = Problem::minimize(1);
    p.set_upper_bound(0, 1.0);
    p.add_ge(&[(0, 1.0)], 2.0);
    assert!(matches!(p.solve(), Outcome::Infeasible));
}

#[test]
fn negative_rhs_ge_row() {
    // x ≥ −5 is vacuous for x ≥ 0: optimum at 0
    let mut p = Problem::minimize(1);
    p.set_objective(0, 1.0);
    p.add_ge(&[(0, 1.0)], -5.0);
    let s = optimal(&p);
    assert_eq!(s.x[0], 0.0);
}

#[test]
fn negative_rhs_le_row_forces_infeasible() {
    // x ≤ −1 contradicts x ≥ 0
    let mut p = Problem::minimize(1);
    p.add_le(&[(0, 1.0)], -1.0);
    assert!(matches!(p.solve(), Outcome::Infeasible));
}

#[test]
fn zero_coefficient_rows_ignored_gracefully() {
    let mut p = Problem::minimize(2);
    p.set_objective(0, 1.0);
    p.add_ge(&[(0, 1.0), (1, 0.0)], 3.0);
    let s = optimal(&p);
    assert!((s.x[0] - 3.0).abs() < 1e-9);
}

#[test]
fn multiple_optima_any_vertex_is_fine() {
    // minimize x + y with x + y ≥ 2: whole segment optimal, objective 2
    let mut p = Problem::minimize(2);
    p.set_objective(0, 1.0);
    p.set_objective(1, 1.0);
    p.add_ge(&[(0, 1.0), (1, 1.0)], 2.0);
    let s = optimal(&p);
    assert!((s.objective - 2.0).abs() < 1e-9);
    assert!(p.is_feasible(&s.x, 1e-9));
}

#[test]
fn equality_system_solved_exactly() {
    // x + y = 10, x − y = 4 → x = 7, y = 3
    let mut p = Problem::minimize(2);
    p.add_eq(&[(0, 1.0), (1, 1.0)], 10.0);
    p.add_row(&[(0, 1.0), (1, -1.0)], Cmp::Ge, 4.0);
    p.add_row(&[(0, 1.0), (1, -1.0)], Cmp::Le, 4.0);
    let s = optimal(&p);
    assert!((s.x[0] - 7.0).abs() < 1e-9);
    assert!((s.x[1] - 3.0).abs() < 1e-9);
}

#[test]
fn larger_assignment_lp_is_integral() {
    // assignment polytopes have integral vertices: 4×4 with distinct costs
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
    let s = optimal(&p);
    for &v in &s.x {
        assert!(
            v.abs() < 1e-7 || (v - 1.0).abs() < 1e-7,
            "fractional vertex {v}"
        );
    }
}
