//! Property test for Observation 1.1: on random series-parallel race
//! DAGs (parallel edges modelling repeated updates), the update-granular
//! simulation with unbounded processors never exceeds the DAG makespan
//! `Σ d_in` along the longest path — plus a pinned case where staggered
//! updates pipeline and the simulation strictly beats the bound.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtt_dag::{gen, Dag};
use rtt_sim::{ExecModel, UNBOUNDED};

/// Random two-terminal SP DAG whose edges are multiplied into parallel
/// update bundles — the §1 race-DAG shape, guaranteed series-parallel.
fn sp_race_dag(seed: u64, leaves: usize, max_copies: usize) -> Dag<(), ()> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = gen::random_sp(&mut rng, leaves).tt;
    let mut g: Dag<(), ()> = Dag::new();
    for _ in base.dag.node_ids() {
        g.add_node(());
    }
    for e in base.dag.edge_refs() {
        let copies = rng.random_range(1..=max_copies);
        g.add_parallel_edges(e.src, e.dst, (), copies).unwrap();
    }
    g
}

fn makespan_bound(g: &Dag<(), ()>) -> u64 {
    rtt_dag::longest_path_nodes(g, |v| g.in_degree(v) as u64)
        .expect("generated DAG is acyclic")
        .weight
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unbounded_simulation_never_exceeds_the_makespan(
        seed in 0u64..10_000,
        leaves in 1usize..20,
        max_copies in 1usize..8,
    ) {
        let g = sp_race_dag(seed, leaves, max_copies);
        let bound = makespan_bound(&g);
        let r = ExecModel::race_dag(&g).run(UNBOUNDED);
        prop_assert!(
            r.finish <= bound,
            "Observation 1.1: simulated {} > makespan {bound}",
            r.finish
        );
        prop_assert_eq!(r.updates_applied, g.edge_count() as u64);
    }

    #[test]
    fn bounded_processors_respect_work_and_obs11(
        seed in 0u64..10_000,
        leaves in 1usize..12,
        processors in 1usize..5,
    ) {
        let g = sp_race_dag(seed, leaves, 4);
        let bound = makespan_bound(&g);
        let work = g.edge_count() as u64;
        let model = ExecModel::race_dag(&g);
        let r = model.run(processors);
        // work law + the unbounded bound both upper-bound greedy lists
        prop_assert!(r.finish <= work + bound);
        prop_assert!(r.finish >= work.div_ceil(processors as u64));
        prop_assert!(r.peak_parallelism <= processors);
        // adding processors never hurts, down to the unbounded finish
        prop_assert!(model.run(UNBOUNDED).finish <= r.finish);
    }

    /// Differential: the event-heap engine must be **bit-identical** to
    /// the tick-loop baseline on random SP race DAGs (works = d_in, all
    /// cells pipelined) — finish, per-node finishes, update counts, and
    /// peak parallelism alike.
    #[test]
    fn event_engine_equals_tick_loop_on_race_dags(
        seed in 0u64..10_000,
        leaves in 1usize..20,
        max_copies in 1usize..8,
    ) {
        let g = sp_race_dag(seed, leaves, max_copies);
        let works: Vec<u64> = g
            .node_ids()
            .map(|v| g.in_degree(v) as u64)
            .collect();
        let model = ExecModel::from_works(&g, &works);
        prop_assert_eq!(model.run(UNBOUNDED), model.run_ticks(UNBOUNDED));
    }

    /// Differential with *mixed release rules*: random per-node works
    /// (pipelined where the draw hits d_in, gated bundles and zero-work
    /// junctions elsewhere) — the certify-path shape.
    #[test]
    fn event_engine_equals_tick_loop_on_mixed_works(
        seed in 0u64..10_000,
        leaves in 1usize..16,
        max_copies in 1usize..6,
    ) {
        let g = sp_race_dag(seed, leaves, max_copies);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let works: Vec<u64> = g
            .node_ids()
            .map(|v| match rng.random_range(0..4u32) {
                0 => g.in_degree(v) as u64,       // pipelined
                1 => 0,                            // junction
                _ => rng.random_range(1..=9u64),   // gated bundle
            })
            .collect();
        let model = ExecModel::from_works(&g, &works);
        prop_assert_eq!(model.run(UNBOUNDED), model.run_ticks(UNBOUNDED));
    }

    /// Differential on the Figure 2 reducer gadget itself — the shape
    /// every certification expansion is built from.
    #[test]
    fn event_engine_equals_tick_loop_on_reducer_models(
        n in 0u64..600,
        height in 0u32..7,
    ) {
        let model = ExecModel::reducer(n, height);
        prop_assert_eq!(model.run_event(), model.run_ticks(UNBOUNDED));
    }
}

/// Pinned pipelining witness: an SP DAG where the simulation strictly
/// beats the makespan bound because one parallel branch finishes early
/// and the join cell starts applying its updates while the slower
/// branch is still running.
///
/// Shape (series-parallel): `P( S(s→a1, a1→a2, 3×(a2→t)), S(s→b, 3×(b→t)) )`.
#[test]
fn pinned_staggered_updates_pipeline_below_the_bound() {
    let mut g: Dag<(), ()> = Dag::new();
    let s = g.add_node(());
    let a1 = g.add_node(());
    let a2 = g.add_node(());
    let b = g.add_node(());
    let t = g.add_node(());
    g.add_edge(s, a1, ()).unwrap();
    g.add_edge(a1, a2, ()).unwrap();
    g.add_parallel_edges(a2, t, (), 3).unwrap();
    g.add_edge(s, b, ()).unwrap();
    g.add_parallel_edges(b, t, (), 3).unwrap();

    // bound: s(0) → a1(1) → a2(1) → t(6) = 8
    let bound = makespan_bound(&g);
    assert_eq!(bound, 8);

    // simulation: b completes at tick 1 and t starts draining b's three
    // updates at tick 2, overlapping a2's work — strictly below 8
    let r = ExecModel::race_dag(&g).run(UNBOUNDED);
    assert_eq!(r.finish, 7, "pipelined execution beats the bound");
    assert!(r.finish < bound);
}

/// And the boundary case Observation 1.1 is tight on: chains cannot
/// pipeline, so simulation equals the makespan exactly.
#[test]
fn pinned_chain_is_tight() {
    let mut g: Dag<(), ()> = Dag::new();
    let a = g.add_node(());
    let b = g.add_node(());
    let c = g.add_node(());
    g.add_parallel_edges(a, b, (), 5).unwrap();
    g.add_parallel_edges(b, c, (), 3).unwrap();
    let r = ExecModel::race_dag(&g).run(UNBOUNDED);
    assert_eq!(r.finish, makespan_bound(&g));
    assert_eq!(r.finish, 8);
}
