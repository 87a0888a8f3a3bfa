//! Property tests: whatever the simplex claims optimal must be feasible,
//! and must not beat brute-force-sampled feasible points.

use proptest::prelude::*;
use rtt_lp::{Cmp, Outcome, Problem};

#[derive(Debug, Clone)]
struct RandLp {
    n: usize,
    obj: Vec<i32>,
    rows: Vec<(Vec<i32>, u8, i32)>,
    ubs: Vec<Option<u8>>,
}

fn rand_lp() -> impl Strategy<Value = RandLp> {
    (1usize..5).prop_flat_map(|n| {
        (
            proptest::collection::vec(-3i32..4, n),
            proptest::collection::vec(
                (proptest::collection::vec(-3i32..4, n), 0u8..3, -6i32..10),
                0..6,
            ),
            proptest::collection::vec(proptest::option::of(0u8..6), n),
        )
            .prop_map(move |(obj, rows, ubs)| RandLp { n, obj, rows, ubs })
    })
}

fn build(lp: &RandLp) -> Problem {
    let mut p = Problem::minimize(lp.n);
    for (j, &c) in lp.obj.iter().enumerate() {
        p.set_objective(j, c as f64);
    }
    for (coeffs, cmp, rhs) in &lp.rows {
        let cv: Vec<(usize, f64)> = coeffs
            .iter()
            .enumerate()
            .map(|(j, &a)| (j, a as f64))
            .collect();
        let cmp = match cmp {
            0 => Cmp::Le,
            1 => Cmp::Eq,
            _ => Cmp::Ge,
        };
        p.add_row(&cv, cmp, *rhs as f64);
    }
    for (j, ub) in lp.ubs.iter().enumerate() {
        if let Some(u) = ub {
            p.set_upper_bound(j, *u as f64);
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]
    #[test]
    fn optimal_is_feasible_and_not_too_good(lp in rand_lp()) {
        let p = build(&lp);
        match p.solve() {
            Outcome::Optimal(s) => {
                prop_assert!(p.is_feasible(&s.x, 1e-5),
                    "claimed optimal is infeasible: {:?}", s.x);
                // grid-sample feasible integer points; none may beat it
                let pts = grid_points(&lp);
                for x in pts {
                    if p.is_feasible(&x, 1e-9) {
                        prop_assert!(p.objective_at(&x) >= s.objective - 1e-5,
                            "point {x:?} beats 'optimal' {} with {}",
                            s.objective, p.objective_at(&x));
                    }
                }
            }
            Outcome::Infeasible => {
                // no grid point may be feasible
                for x in grid_points(&lp) {
                    prop_assert!(!p.is_feasible(&x, 1e-9),
                        "claimed infeasible but {x:?} is feasible");
                }
            }
            Outcome::Unbounded => { /* hard to cross-check cheaply */ }
            Outcome::Exhausted(e) => {
                prop_assert!(false, "unmetered solve cannot exhaust: {e}");
            }
        }
    }
}

/// All integer points in [0, 6]^n (n ≤ 4).
fn grid_points(lp: &RandLp) -> Vec<Vec<f64>> {
    let mut pts = vec![vec![]];
    for _ in 0..lp.n {
        let mut next = Vec::new();
        for p in &pts {
            for v in 0..=6 {
                let mut q = p.clone();
                q.push(v as f64);
                next.push(q);
            }
        }
        pts = next;
    }
    pts
}
