//! Differential property test for sharded certification replay: on
//! random multi-component models — mixed pipelined/gated/zero-work
//! cells, interleaved component ids, parallel arcs — the sharded event
//! engine must reproduce the serial engine's [`SimResult`] **bit for
//! bit** at every thread count (finish, per-cell finish times, update
//! count, and peak parallelism from the merged busy-interval sweep).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtt_dag::Dag;
use rtt_duration::Time;
use rtt_sim::ExecModel;

/// `components` small random DAGs in one model. Nodes are added
/// round-robin across components so shard ids interleave (the scatter
/// paths cannot get away with assuming contiguous components).
fn random_multi_component(rng: &mut StdRng, components: usize) -> ExecModel {
    let sizes: Vec<usize> = (0..components).map(|_| rng.random_range(2..7)).collect();
    let mut g: Dag<(), ()> = Dag::new();
    // nodes[c][k] = global id of component c's k-th node
    let mut nodes: Vec<Vec<rtt_dag::NodeId>> = vec![Vec::new(); components];
    let max = *sizes.iter().max().unwrap();
    for k in 0..max {
        for c in 0..components {
            if k < sizes[c] {
                nodes[c].push(g.add_node(()));
            }
        }
    }
    for (c, comp) in nodes.iter().enumerate() {
        // forward edges only (acyclic), occasionally parallel
        for k in 1..comp.len() {
            let src = comp[rng.random_range(0..k)];
            let multiplicity = if rng.random_bool(0.2) { 2 } else { 1 };
            g.add_parallel_edges(src, comp[k], (), multiplicity)
                .unwrap();
            if rng.random_bool(0.3) && k >= 2 {
                let extra = comp[rng.random_range(0..k - 1)];
                if extra != src {
                    g.add_edge(extra, comp[k], ()).unwrap();
                }
            }
        }
        let _ = c;
    }
    let works: Vec<Time> = (0..g.node_count())
        .map(|i| {
            if rng.random_bool(0.4) {
                // pipelined: work == in-degree (race-DAG convention)
                g.in_degree(rtt_dag::NodeId(i as u32)) as Time
            } else {
                // gated (or zero-work source/sink)
                rng.random_range(0..5)
            }
        })
        .collect();
    ExecModel::from_works(&g, &works)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_replay_matches_serial_bit_for_bit(
        seed in 0u64..10_000,
        components in 1usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_multi_component(&mut rng, components);
        let serial = model.run_event();
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(
                &model.run_event_sharded(threads),
                &serial,
                "seed {} components {} diverged at {} threads",
                seed, components, threads
            );
        }
    }
}
