//! Cross-crate hardness checks beyond the per-module tests: random
//! formulas through every reduction, cross-reduction consistency, and
//! inapproximability gaps measured end-to-end.

use resource_time_tradeoff::core::exact::{decide_feasible, solve_exact_min_resource};
use resource_time_tradeoff::hardness::{
    matching3d, partition, sat_chain, sat_general, sat_splitting, Formula,
};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

#[test]
fn random_formulas_all_reductions_agree() {
    let mut rng = StdRng::seed_from_u64(4242);
    for _ in 0..4 {
        let f = Formula::random(&mut rng, 3, 2);
        let sat = f.solve_1in3().is_some();

        let g = sat_general::reduce(&f);
        assert_eq!(
            decide_feasible(&g.arc, g.budget, g.target).is_some(),
            sat,
            "Thm 4.1 disagrees on {f:?}"
        );

        let ch = sat_chain::reduce(&f);
        let (opt, _) = solve_exact_min_resource(&ch.arc, ch.target).unwrap();
        assert_eq!(opt == 2, sat, "Thm 4.4 disagrees on {f:?}");
        assert!(opt <= 3, "3 units always suffice");
    }
}

/// Same cross-check at the paper's own scale: the exponential decision
/// procedure on larger gadgets.
#[test]
fn random_formulas_all_reductions_agree_heavy() {
    let mut rng = StdRng::seed_from_u64(4242);
    for _ in 0..6 {
        let f = Formula::random(&mut rng, 4, 2);
        let sat = f.solve_1in3().is_some();
        let g = sat_general::reduce(&f);
        assert_eq!(
            decide_feasible(&g.arc, g.budget, g.target).is_some(),
            sat,
            "Thm 4.1 disagrees on {f:?}"
        );
        let ch = sat_chain::reduce(&f);
        let (opt, _) = solve_exact_min_resource(&ch.arc, ch.target).unwrap();
        assert_eq!(opt == 2, sat, "Thm 4.4 disagrees on {f:?}");
    }
}

#[test]
fn splitting_reduction_agrees_on_random_formulas() {
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..2 {
        let f = Formula::random(&mut rng, 3, 1);
        let sat = f.solve_1in3().is_some();
        let red = sat_splitting::reduce(&f, sat_splitting::SplitFamily::RecursiveBinary);
        assert_eq!(
            decide_feasible(&red.arc, red.budget, red.target).is_some(),
            sat,
            "§4.2 disagrees on {f:?}"
        );
    }
}

/// §4.2 cross-check at the original test scale.
#[test]
fn splitting_reduction_agrees_on_random_formulas_heavy() {
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..3 {
        let f = Formula::random(&mut rng, 3, 2);
        let sat = f.solve_1in3().is_some();
        let red = sat_splitting::reduce(&f, sat_splitting::SplitFamily::RecursiveBinary);
        assert_eq!(
            decide_feasible(&red.arc, red.budget, red.target).is_some(),
            sat,
            "§4.2 disagrees on {f:?}"
        );
    }
}

#[test]
fn theorem_43_gap_is_at_least_two() {
    // for unsatisfiable formulas OPT(makespan) jumps from 1 to ≥ 2:
    // no polynomial algorithm can approximate below factor 2. The
    // formula (V1∨V1∨V2) ∧ (V1∨V1∨¬V2) has no 1-in-3 assignment:
    // V1 = T makes two literals of each clause true, V1 = F forces
    // V2 = T for the first clause and V2 = F for the second.
    let unsat = Formula::new(
        2,
        vec![
            [
                resource_time_tradeoff::hardness::Lit::pos(0),
                resource_time_tradeoff::hardness::Lit::pos(0),
                resource_time_tradeoff::hardness::Lit::pos(1),
            ],
            [
                resource_time_tradeoff::hardness::Lit::pos(0),
                resource_time_tradeoff::hardness::Lit::pos(0),
                resource_time_tradeoff::hardness::Lit::neg(1),
            ],
        ],
    );
    assert!(unsat.solve_1in3().is_none());
    let red = sat_general::reduce(&unsat);
    assert!(decide_feasible(&red.arc, red.budget, 1).is_none());
    assert!(decide_feasible(&red.arc, red.budget, 2).is_some());
}

/// The original 3-variable, 4-clause unsatisfiable instance.
#[test]
fn theorem_43_gap_is_at_least_two_heavy() {
    use resource_time_tradeoff::hardness::Lit;
    let unsat = Formula::new(
        3,
        vec![
            [Lit::pos(0), Lit::pos(1), Lit::pos(2)],
            [Lit::neg(0), Lit::neg(1), Lit::pos(2)],
            [Lit::pos(0), Lit::neg(1), Lit::neg(2)],
            [Lit::neg(0), Lit::pos(1), Lit::neg(2)],
        ],
    );
    assert!(unsat.solve_1in3().is_none());
    let red = sat_general::reduce(&unsat);
    assert!(decide_feasible(&red.arc, red.budget, 1).is_none());
    assert!(decide_feasible(&red.arc, red.budget, 2).is_some());
}

#[test]
fn partition_reduction_is_weakly_hard_shape() {
    // the gadget's makespan equals max(side sums); solving it solves
    // Partition — across a batch of random instances.
    let mut rng = StdRng::seed_from_u64(88);
    for _ in 0..6 {
        let items: Vec<u64> = (0..4).map(|_| rng.random_range(1..6u64)).collect();
        let p = partition::PartitionInstance::new(items.clone());
        let red = partition::reduce(&p);
        let yes = p.solve().is_some();
        let feas = decide_feasible(&red.arc, red.budget, red.target).is_some();
        assert_eq!(yes, feas, "items {items:?}");
        // the decomposition stays narrow regardless of the instance
        let td = partition::tree_decomposition(&red);
        assert!(td.verify(red.arc.dag()).unwrap() <= 9);
    }
}

#[test]
fn matching3d_agrees_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..4 {
        // build instances that at least divide evenly: draw triples
        // first, then shuffle columns
        let n = 2usize;
        let t = 10u64;
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut c = Vec::new();
        for _ in 0..n {
            let x = rng.random_range(1..5u64);
            let y = rng.random_range(1..(t - x - 1));
            a.push(x);
            b.push(y);
            c.push(t - x - y);
        }
        // shuffled instance is a yes-instance by construction
        let inst = matching3d::Numerical3dm::new(a, b, c);
        let red = matching3d::reduce(&inst).unwrap();
        let yes = inst.solve().is_some();
        assert!(yes, "constructed as yes-instance");
        assert_eq!(
            decide_feasible(&red.arc, red.budget, red.target).is_some(),
            yes
        );
        // tightening the target below 2M+T must fail
        assert!(decide_feasible(&red.arc, red.budget, red.target - 1).is_none());
    }
}

#[test]
fn gadget_dot_exports_are_well_formed() {
    let f = Formula::paper_example();
    let red = sat_general::reduce(&f);
    let dot = resource_time_tradeoff::dag::dot::to_dot(
        red.arc.dag(),
        "thm41",
        |_, _| String::new(),
        |_, a| a.label.clone(),
    );
    assert!(dot.starts_with("digraph thm41 {"));
    assert!(dot.trim_end().ends_with('}'));
    assert_eq!(
        dot.matches("->").count(),
        red.arc.dag().edge_count(),
        "one DOT edge per arc"
    );
}
