//! Cross-crate: execution model vs analytic model (Observation 1.1,
//! Figures 2–5), race detection vs the optimization pipeline.

use rand::rngs::StdRng;
use rand::SeedableRng;
use resource_time_tradeoff::dag::gen;
use resource_time_tradeoff::duration::expand::{expand_reducers, ReducerVariant};
use resource_time_tradeoff::duration::Duration;
use resource_time_tradeoff::race::{detect_races, extract_race_dag, mm, Prog};
use resource_time_tradeoff::sim::{ExecModel, UNBOUNDED};

#[test]
fn observation_1_1_on_random_dags() {
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..20 {
        let tt = gen::random_race_dag(&mut rng, 12, 10);
        let makespan = resource_time_tradeoff::dag::longest_path_nodes(&tt.dag, |v| {
            tt.dag.in_degree(v) as u64
        })
        .unwrap()
        .weight;
        let sim = ExecModel::race_dag(&tt.dag).run(UNBOUNDED);
        assert!(
            sim.finish <= makespan,
            "Observation 1.1: simulated {} > makespan {}",
            sim.finish,
            makespan
        );
    }
}

#[test]
fn brent_bound_on_random_dags() {
    let mut rng = StdRng::seed_from_u64(102);
    for _ in 0..10 {
        let tt = gen::random_race_dag(&mut rng, 10, 12);
        let work = tt.dag.edge_count() as u64;
        let model = ExecModel::race_dag(&tt.dag);
        let span = model.run(UNBOUNDED).finish;
        for p in [1usize, 2, 4] {
            let tp = model.run(p).finish;
            assert!(
                tp <= work.div_ceil(p as u64) + span,
                "greedy bound: T_{p} = {tp} > W/p + span = {}",
                work.div_ceil(p as u64) + span
            );
            assert!(tp >= span, "span law");
            assert!(tp >= work.div_ceil(p as u64), "work law");
        }
    }
}

#[test]
fn expanded_reducers_never_hurt_makespan_beyond_formula() {
    let mut rng = StdRng::seed_from_u64(103);
    for _ in 0..10 {
        let tt = gen::random_race_dag(&mut rng, 8, 20);
        let base = resource_time_tradeoff::dag::longest_path_nodes(&tt.dag, |v| {
            tt.dag.in_degree(v) as u64
        })
        .unwrap()
        .weight;
        // put height-1 reducers on all nodes with in-degree ≥ 4
        let heights: Vec<u32> = tt
            .dag
            .node_ids()
            .map(|v| u32::from(tt.dag.in_degree(v) >= 4))
            .collect();
        let exp = expand_reducers(&tt.dag, &heights, ReducerVariant::Sibling);
        // ⌈d/2⌉ + 2 ≤ d for d ≥ 4, so the makespan cannot increase
        assert!(
            exp.makespan() <= base,
            "reducers on hot nodes: {} > {base}",
            exp.makespan()
        );
    }
}

#[test]
fn race_pipeline_histogram_to_solver() {
    // parallel histogram: 16 strands hammering one cell + 4 on another
    let mut strands = Vec::new();
    for i in 0..16 {
        strands.push(Prog::update(0, Some(100 + i), vec![]));
    }
    for i in 0..4 {
        strands.push(Prog::update(1, Some(200 + i), vec![]));
    }
    let program = Prog::Par(strands);
    let races = detect_races(&program);
    assert_eq!(races.len(), 16 * 15 / 2 + 4 * 3 / 2);

    let rd = extract_race_dag(&program).unwrap();
    let inst = resource_time_tradeoff::core::Instance::race_dag_normalized(
        &rd.dag,
        Duration::recursive_binary,
    )
    .unwrap();
    // hot cell dominates: base makespan 16 (normalization arcs carry no work)
    assert_eq!(inst.base_makespan(), 16);
    let (arc, _) = resource_time_tradeoff::core::transform::to_arc_form(&inst);
    // give 4 units: reducer of height 2 on the hot cell -> ⌈16/4⌉+3 = 7
    let ex = resource_time_tradeoff::core::exact::solve_exact(&arc, 4);
    assert_eq!(ex.solution.makespan, 7);
}

#[test]
fn mm_extraction_feeds_the_solvers() {
    let n = 8u64;
    let (racy, _) = mm::parallel_mm_racy(n);
    let rd = extract_race_dag(&racy).unwrap();
    let inst = resource_time_tradeoff::core::Instance::race_dag_normalized(
        &rd.dag,
        Duration::recursive_binary,
    )
    .unwrap();
    // every Z cell takes n updates serially (X inputs are zero-work
    // sources): the critical path is source -> X -> Z, worth n
    assert_eq!(inst.base_makespan(), n);
    let (arc, _) = resource_time_tradeoff::core::transform::to_arc_form(&inst);
    // budget 4 per cell: height-2 reducers everywhere -> ⌈8/4⌉+3 = 5
    let r = resource_time_tradeoff::core::solve_recbinary_4approx(&arc, 4 * n * n).unwrap();
    resource_time_tradeoff::core::validate(&arc, &r.solution).unwrap();
    assert!(r.solution.makespan <= n);
    assert!(r.solution.budget_used <= 4 * n * n);
}

#[test]
fn reducer_sim_consistent_with_expansion_makespan() {
    // the reducer replay and the expanded-DAG longest path must agree
    // for every (n, h)
    for n in [16u64, 100, 1000] {
        for h in 1..=4u32 {
            let sim = ExecModel::reducer(n, h).run(UNBOUNDED);
            let mut g: resource_time_tradeoff::dag::Dag<(), ()> =
                resource_time_tradeoff::dag::Dag::new();
            let hub = g.add_node(());
            for _ in 0..n {
                let s = g.add_node(());
                g.add_edge(s, hub, ()).unwrap();
            }
            let mut heights = vec![0u32; g.node_count()];
            heights[hub.index()] = h;
            let exp = expand_reducers(&g, &heights, ReducerVariant::Sibling);
            assert_eq!(sim.finish, exp.makespan(), "n={n} h={h}");
        }
    }
}
