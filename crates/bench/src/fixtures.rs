//! Seeded fixtures shared by the exact counter pins
//! (`tests/perf_guard.rs`) and the bit-exact LP oracle
//! (`tests/lp_digest.rs`). Each is a pure function of its arguments, so
//! the pinned counters are exact functions of these constructions. The
//! committed `BENCH_pr*.json` records were measured on the same
//! instances.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtt_core::instance::{Activity, ArcInstance};
use rtt_core::transform::to_arc_form;
use rtt_core::Instance;
use rtt_dag::{gen, Dag};
use rtt_duration::{Duration, Tuple};
use rtt_engine::{PreparedInstance, Registry, SolveRequest};
use rtt_sim::ExecModel;
use std::time::Instant;

/// Same construction as `benches/solvers.rs::race_instance`: a seeded
/// race DAG of `nodes` nodes with recursive-binary durations.
pub fn race_instance(seed: u64, nodes: usize) -> ArcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tt = gen::random_race_dag(&mut rng, nodes, nodes * 2);
    let mut g = rtt_dag::Dag::new();
    for _ in tt.dag.node_ids() {
        g.add_node(());
    }
    for e in tt.dag.edge_refs() {
        let copies = rng.random_range(1..8usize);
        g.add_parallel_edges(e.src, e.dst, (), copies).unwrap();
    }
    let inst = Instance::race_dag(&g, Duration::recursive_binary).unwrap();
    to_arc_form(&inst).0
}

/// Same construction as `benches/solvers.rs::sp_instance`: a seeded
/// series-parallel DAG of `leaves` two-point arcs.
pub fn sp_instance(seed: u64, leaves: usize) -> ArcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let gsp = gen::random_sp(&mut rng, leaves);
    let mut g: rtt_dag::Dag<(), Activity> = rtt_dag::Dag::new();
    for _ in gsp.tt.dag.node_ids() {
        g.add_node(());
    }
    for e in gsp.tt.dag.edge_refs() {
        let base = 10 + (e.id.index() as u64 * 7) % 40;
        g.add_edge(e.src, e.dst, Activity::new(Duration::two_point(base, 4, 0)))
            .unwrap();
    }
    ArcInstance::new(g).unwrap()
}

/// A duration-perturbed **shape sibling**: identical topology, every
/// finite tuple time shifted by one — same tuple counts, so the
/// instance builds an LP of the donor's layout but has a different
/// fingerprint.
pub fn perturb_durations(arc: &ArcInstance) -> ArcInstance {
    let d = arc.dag();
    let mut g: Dag<(), Activity> = Dag::new();
    for _ in d.node_ids() {
        g.add_node(());
    }
    for e in d.edge_refs() {
        let tuples: Vec<Tuple> = e
            .weight
            .duration
            .tuples()
            .iter()
            .map(|t| {
                let time = if rtt_duration::is_infinite(t.time) {
                    t.time
                } else {
                    t.time + 1
                };
                Tuple::new(t.resource, time)
            })
            .collect();
        let dur = Duration::step(tuples).expect("uniform shift keeps the step form valid");
        g.add_edge(e.src, e.dst, Activity::new(dur)).unwrap();
    }
    ArcInstance::new(g).unwrap()
}

/// A chain of `cells` gated cells of `work` updates each: makespan
/// `cells · work`, but only `2·cells − 1` events.
pub fn long_chain_model(cells: usize, work: u64) -> ExecModel {
    let mut g: Dag<(), ()> = Dag::new();
    let mut prev = g.add_node(());
    let mut works = vec![work];
    for _ in 1..cells {
        let v = g.add_node(());
        g.add_edge(prev, v, ()).unwrap();
        works.push(work);
        prev = v;
    }
    ExecModel::from_works(&g, &works)
}

/// `fanout` sources racing on one hub cell (the §1 lock shape): the
/// tick loop rescans all `fanout + 1` cells for each of the `fanout`
/// ticks the hub serializes — Θ(fanout²) — while the heap processes
/// `2·fanout + 1` events.
pub fn fanout_star_model(fanout: usize) -> ExecModel {
    let mut g: Dag<(), ()> = Dag::new();
    let hub = g.add_node(());
    for _ in 0..fanout {
        let s = g.add_node(());
        g.add_edge(s, hub, ()).unwrap();
    }
    ExecModel::race_dag(&g)
}

/// The summed per-point `work` of the wire sweep on
/// `race_instance(16, 16)` over the 0..16 grid — the warm-sweep
/// pin's exact grid, so the two counters are comparable
/// (deterministic — a pure function of the request).
pub fn pinned_chain_pivots() -> u64 {
    let registry = Registry::standard();
    let prep = std::sync::Arc::new(PreparedInstance::new(race_instance(16, 16)));
    let req = SolveRequest::sweep("pin", prep, (0..16).collect());
    rtt_engine::execute_one(&registry, &req, Instant::now())
        .iter()
        .map(|r| r.work)
        .sum()
}
