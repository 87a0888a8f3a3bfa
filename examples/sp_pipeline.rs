//! Exact planning for a series-parallel analytics pipeline (§3.4).
//!
//! A fork-join ETL job: ingest, three parallel feature extractors (one
//! with a heavy two-stage inner pipeline), a join, and a report stage.
//! Each stage is a hot accumulator cell whose update cost shrinks with
//! reducer space (k-way splitting, Eq. 2). The series-parallel DP gives
//! the *exact* space-time tradeoff; the approximation algorithms are
//! compared against it.
//!
//! Run with: `cargo run --release --example sp_pipeline`

use resource_time_tradeoff::core::instance::{Activity, ArcInstance};
use resource_time_tradeoff::core::sp_dp::{solve_sp_exact, sp_min_resource};
use resource_time_tradeoff::core::{solve_bicriteria, solve_kway_5approx, validate};
use resource_time_tradeoff::dag::Dag;
use resource_time_tradeoff::duration::Duration;

fn main() {
    // activity-on-arc pipeline (durations = k-way splitting, Eq. 2)
    let mut g: Dag<(), Activity> = Dag::new();
    let s = g.add_node(());
    let fork = g.add_node(());
    let join = g.add_node(());
    let t = g.add_node(());
    // ingest: 120 updates
    g.add_edge(s, fork, Activity::labeled("ingest", Duration::kway(120)))
        .unwrap();
    // extractor A: simple, 64 updates
    g.add_edge(
        fork,
        join,
        Activity::labeled("extract-A", Duration::kway(64)),
    )
    .unwrap();
    // extractor B: 100 updates
    g.add_edge(
        fork,
        join,
        Activity::labeled("extract-B", Duration::kway(100)),
    )
    .unwrap();
    // extractor C: two chained stages of 80 updates each
    let mid = g.add_node(());
    g.add_edge(
        fork,
        mid,
        Activity::labeled("extract-C1", Duration::kway(80)),
    )
    .unwrap();
    g.add_edge(
        mid,
        join,
        Activity::labeled("extract-C2", Duration::kway(80)),
    )
    .unwrap();
    // report: 48 updates
    g.add_edge(join, t, Activity::labeled("report", Duration::kway(48)))
        .unwrap();
    let arc = ArcInstance::new(g).unwrap();

    println!(
        "pipeline base makespan (no extra space): {}",
        arc.base_makespan()
    );
    println!(
        "ideal makespan (unlimited space):        {}",
        arc.ideal_makespan()
    );

    let budget = 30;
    let (sp, sol) = solve_sp_exact(&arc, budget).expect("pipeline is series-parallel");
    validate(&arc, &sol).unwrap();
    println!("\nexact DP at B = {budget}: makespan {}", sp.makespan);
    println!("per-arc space allocation (edge -> units):");
    for e in arc.dag().edge_ids() {
        let lvl = sp.levels[e.index()];
        if lvl > 0 {
            println!(
                "  {:<10} gets {:>2} units (duration {} -> {})",
                arc.dag().edge(e).label,
                lvl,
                arc.dag().edge(e).duration.time(0),
                arc.dag().edge(e).duration.time(lvl),
            );
        }
    }

    // approximation algorithms vs the exact optimum
    println!("\nsolver comparison at B = {budget}:");
    println!("  exact DP            : {}", sp.makespan);
    let bi = solve_bicriteria(&arc, budget, 0.5).unwrap();
    println!(
        "  bi-criteria (α=.5)  : {} (budget used {} ≤ 2B)",
        bi.solution.makespan, bi.solution.budget_used
    );
    let kw = solve_kway_5approx(&arc, budget).unwrap();
    println!(
        "  k-way 5-approx      : {} (budget used {} ≤ B)",
        kw.solution.makespan, kw.solution.budget_used
    );

    // the whole curve from one DP run + min-resource queries
    println!("\ntradeoff curve (one DP run):");
    for b in (0..=budget).step_by(5) {
        println!("  B = {b:>2} -> makespan {}", sp.curve[b as usize]);
    }
    for target in [sp.curve[0] / 2, sp.curve[0] / 4] {
        match sp_min_resource(&arc, target, 200) {
            Some(r) => println!("min space for makespan ≤ {target}: {r}"),
            None => println!("makespan ≤ {target}: unreachable"),
        }
    }
}
