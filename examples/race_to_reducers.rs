//! The full pipeline the paper motivates, end to end:
//! detect races → capture them as a DAG → place reducers optimally.
//!
//! A fork-join histogram program: many parallel strands update a few
//! shared counting cells with wildly different contention. We detect
//! the determinacy races, extract the race DAG `D(P)`, attach Eq. 3
//! (recursive binary) duration functions, and ask the solvers where a
//! fixed budget of reducer space should go.
//!
//! Run with: `cargo run --release --example race_to_reducers`

use resource_time_tradeoff::core::transform::to_arc_form;
use resource_time_tradeoff::core::{exact::solve_exact, solve_recbinary_improved, Instance};
use resource_time_tradeoff::dag::dot::to_dot;
use resource_time_tradeoff::duration::Duration;
use resource_time_tradeoff::race::{detect_races, extract_race_dag, interleave, Prog};

fn main() {
    // ---- Figure 1 first: the two-thread increment --------------------
    let outcomes = interleave::counter_outcomes(2, 1);
    println!(
        "Figure 1, exhaustively: two parallel x++ can print {:?}",
        outcomes.iter().collect::<Vec<_>>()
    );

    // ---- a histogram with skewed contention --------------------------
    // locations: inputs 100.. (one per strand), counters 0, 1, 2
    // counter 0 is hot (24 updates), 1 is warm (8), 2 is cold (2)
    let mut strands = Vec::new();
    let mut input = 100u64;
    for (counter, updates) in [(0u64, 24usize), (1, 8), (2, 2)] {
        for _ in 0..updates {
            strands.push(Prog::update(counter, Some(input), vec![]));
            input += 1;
        }
    }
    let program = Prog::Par(strands);

    let races = detect_races(&program);
    println!(
        "\nhistogram program: {} strands, {} racing pairs",
        program.strand_count(),
        races.len()
    );

    // ---- extract D(P) and optimize -----------------------------------
    let rd = extract_race_dag(&program).expect("acyclic");
    println!(
        "race DAG: {} cells, {} update arcs",
        rd.dag.node_count(),
        rd.dag.edge_count()
    );

    // attach Eq. 3 durations; normalization adds zero-work terminals
    let inst = Instance::race_dag_normalized(&rd.dag, Duration::recursive_binary).unwrap();
    let (arc, map) = to_arc_form(&inst);
    println!("zero-space makespan: {}", inst.base_makespan());

    for budget in [2u64, 4, 8, 16] {
        let approx = solve_recbinary_improved(&arc, budget).unwrap();
        let exact = solve_exact(&arc, budget);
        println!(
            "B = {budget:>2}: exact {}  (4/3,14/5)-approx {}  [budget used {}]",
            exact.solution.makespan, approx.solution.makespan, approx.solution.budget_used
        );
        // where did the exact solver put the space?
        let placements: Vec<String> = arc
            .dag()
            .edge_ids()
            .filter(|e| exact.levels[e.index()] > 0)
            .map(|e| {
                let origin = arc.dag().edge(e).origin;
                let label = origin
                    .map(|v| inst.dag().node(v).label.clone())
                    .unwrap_or_default();
                format!("{}:{}", label, exact.levels[e.index()])
            })
            .collect();
        println!("        exact reducer placement: {placements:?}");
    }
    let _ = map;

    // ---- the Question 1.3 routing certificate -------------------------
    // every unit of space travels one source→sink path and may build
    // reducers at several cells along it
    let exact = solve_exact(&arc, 8);
    let plan = resource_time_tradeoff::core::routing_plan(&arc, &exact.solution)
        .expect("exact solutions are routable");
    println!("\nrouting plan for B = 8 (how the units flow):");
    println!("{}", plan.render(&arc));

    // DOT export for inspection
    let dot = to_dot(
        &rd.dag,
        "race_dag",
        |_, loc| format!("cell {loc}"),
        |_, _| String::new(),
    );
    println!(
        "\nDOT of the race DAG (pipe into `dot -Tpng`):\n{}",
        &dot[..dot.len().min(400)]
    );
}
