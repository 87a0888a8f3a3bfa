//! Tour of the §4 hardness gadgets as executable objects.
//!
//! Builds the paper's running example `(V1 ∨ ¬V2 ∨ V3) ∧ (¬V1 ∨ V2 ∨ V3)`
//! (Figure 9) through every reduction in the paper, solving each with
//! the exact solvers to confirm the lemmas on this instance.
//!
//! Run with: `cargo run --release --example hardness_gadgets`

use resource_time_tradeoff::core::exact::{decide_feasible, solve_exact_min_resource};
use resource_time_tradeoff::hardness::{
    matching3d, partition, sat_chain, sat_general, sat_splitting, Formula,
};

fn main() {
    let f = Formula::paper_example();
    println!(
        "formula: (V1 ∨ ¬V2 ∨ V3) ∧ (¬V1 ∨ V2 ∨ V3), 1-in-3 model: {:?}",
        f.solve_1in3()
    );

    // ---- Theorem 4.1 (Figures 8-9) -----------------------------------
    let red = sat_general::reduce(&f);
    println!(
        "\n[Thm 4.1] DAG: {} nodes / {} arcs, budget {}, target {}",
        red.arc.dag().node_count(),
        red.arc.dag().edge_count(),
        red.budget,
        red.target
    );
    let sol = decide_feasible(&red.arc, red.budget, red.target).expect("satisfiable");
    println!(
        "          makespan 1 achieved with {} units (Lemma 4.2 ✓)",
        sol.budget_used
    );
    println!(
        "          with budget-1: {:?}",
        decide_feasible(&red.arc, red.budget - 1, 1).is_some()
    );

    // Table 2, regenerated from the gadget
    println!("\n[Table 2] earliest start times at C(5), C(6), C(7):");
    for (assignment, times) in sat_general::table2() {
        let fmt = |b: bool| if b { "T" } else { "F" };
        println!(
            "  Vi={} Vj={} Vk={}  ->  {} {} {}",
            fmt(assignment[0]),
            fmt(assignment[1]),
            fmt(assignment[2]),
            times[0],
            times[1],
            times[2]
        );
    }

    // ---- Theorem 4.4 (Figures 10-11) ----------------------------------
    let chain = sat_chain::reduce(&f);
    let (opt, _) = solve_exact_min_resource(&chain.arc, chain.target).unwrap();
    println!(
        "\n[Thm 4.4] chained min-resource instance: target {}, OPT = {opt} (2 ⇔ satisfiable)",
        chain.target
    );

    // ---- §4.2 (Figures 12-14) -----------------------------------------
    for fam in [
        sat_splitting::SplitFamily::KWay,
        sat_splitting::SplitFamily::RecursiveBinary,
    ] {
        let split = sat_splitting::reduce(&f, fam);
        let ok = decide_feasible(&split.arc, split.budget, split.target).is_some();
        println!(
            "[§4.2]    {fam:?} gadgets: budget {}, target {}, reachable: {ok}",
            split.budget, split.target
        );
    }

    // ---- Theorem 4.6 (Figures 15-16) ----------------------------------
    let p = partition::PartitionInstance::new(vec![3, 1, 2, 2]);
    let pred = partition::reduce(&p);
    let td = partition::tree_decomposition(&pred);
    let width = td.verify(pred.arc.dag()).unwrap();
    let ok = decide_feasible(&pred.arc, pred.budget, pred.target).is_some();
    println!(
        "\n[Thm 4.6] Partition {:?}: treewidth ≤ {width}, makespan B/2 = {} reachable: {ok}",
        p.items, pred.target
    );

    // ---- Appendix A (Figures 17-18) ------------------------------------
    let m3 = matching3d::Numerical3dm::new(vec![1, 2], vec![3, 5], vec![6, 3]);
    let mred = matching3d::reduce(&m3).unwrap();
    let ok = decide_feasible(&mred.arc, mred.budget, mred.target).is_some();
    println!(
        "[App A]   numerical 3DM n=2: budget n² = {}, target 2M+T = {}, reachable: {ok}",
        mred.budget, mred.target
    );
    println!("          brute-force matching: {:?}", m3.solve().is_some());
}
