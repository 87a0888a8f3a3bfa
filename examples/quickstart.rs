//! Quickstart: build a small race DAG, attach duration functions, and
//! solve the minimum-makespan problem with every solver in the crate.
//!
//! Run with: `cargo run --release --example quickstart`

use resource_time_tradeoff::core::transform::to_arc_form;
use resource_time_tradeoff::core::{
    exact::solve_exact, solve_bicriteria, solve_recbinary_4approx, sp_dp::solve_sp_exact, Instance,
};
use resource_time_tradeoff::dag::Dag;
use resource_time_tradeoff::duration::Duration;

fn main() {
    // A pipeline of three hot memory cells: the first gets 64 updates,
    // the second 32, the third 16 — think successive reduction stages.
    // Node work = in-degree (the w_x = d_in(x) convention of the paper).
    let mut g: Dag<(), ()> = Dag::new();
    let s = g.add_node(());
    let x = g.add_node(());
    let y = g.add_node(());
    let z = g.add_node(());
    let t = g.add_node(());
    g.add_parallel_edges(s, x, (), 64).unwrap();
    g.add_parallel_edges(x, y, (), 32).unwrap();
    g.add_parallel_edges(y, z, (), 16).unwrap();
    g.add_edge(z, t, ()).unwrap();

    // Give every cell a recursive binary reducer duration function
    // (Eq. 3): with r units of space the cell's update time drops from
    // d to ⌈d/2^⌊log r⌋⌉ + log r + 1.
    let inst = Instance::race_dag(&g, Duration::recursive_binary).unwrap();
    println!("zero-resource makespan: {}", inst.base_makespan());

    // The solvers work on the activity-on-arc form (D').
    let (arc, _) = to_arc_form(&inst);

    let budget = 8;
    println!("\n--- budget B = {budget} ---");

    // Theorem 3.4: (1/α, 1/(1−α)) bi-criteria for any duration family.
    let bi = solve_bicriteria(&arc, budget, 0.5).unwrap();
    println!(
        "bi-criteria (α=0.5):  makespan {:>4}  budget used {:>3}  (LP bound {:.1})",
        bi.solution.makespan, bi.solution.budget_used, bi.lp_makespan
    );

    // Theorem 3.10: stays within the budget, makespan ≤ 4·OPT.
    let rb = solve_recbinary_4approx(&arc, budget).unwrap();
    println!(
        "rec-binary 4-approx:  makespan {:>4}  budget used {:>3}",
        rb.solution.makespan, rb.solution.budget_used
    );

    // §3.4: this instance is series-parallel, so the DP is exact —
    // and one run yields the entire budget-makespan tradeoff curve.
    let (sp, sol) = solve_sp_exact(&arc, budget).expect("chain is series-parallel");
    println!(
        "series-parallel DP :  makespan {:>4}  budget used {:>3}  (exact)",
        sp.makespan, sol.budget_used
    );
    println!("\ntradeoff curve (budget -> optimal makespan):");
    for (b, t) in sp.curve.iter().enumerate() {
        println!("  B = {b:>2}  ->  {t}");
    }

    // Brute force agrees (reference solver).
    let ex = solve_exact(&arc, budget);
    assert_eq!(ex.solution.makespan, sp.makespan);
    println!("\nbrute-force exact agrees: {}", ex.solution.makespan);
}
