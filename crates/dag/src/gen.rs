//! Seeded random DAG generators for experiments.
//!
//! The Table 1 ratio experiments measure algorithm/OPT over instance
//! families; these generators produce the families: chains, diamonds,
//! layered DAGs, series-parallel DAGs (with their
//! ground-truth decomposition tree), and "race DAGs" with parallel edges
//! standing in for repeated updates. All take a caller-supplied
//! [`rand::Rng`], so experiments are reproducible from a seed.

use crate::graph::{Dag, NodeId};
use crate::normalize::normalize_source_sink;
use crate::sp::SpTree;
use rand::Rng;

/// A generated two-terminal DAG.
#[derive(Debug, Clone)]
pub struct TwoTerminal {
    /// The graph. Node and edge payloads are `()`; callers attach
    /// durations separately (usually keyed by id).
    pub dag: Dag<(), ()>,
    /// The unique source.
    pub source: NodeId,
    /// The unique sink.
    pub sink: NodeId,
}

/// A simple path `s -> v1 -> ... -> t` with `edges` edges.
pub fn chain(edges: usize) -> TwoTerminal {
    assert!(edges >= 1, "a chain needs at least one edge");
    let mut dag = Dag::with_capacity(edges + 1, edges);
    let first = dag.add_node(());
    let mut prev = first;
    for _ in 0..edges {
        let next = dag.add_node(());
        dag.add_edge(prev, next, ()).unwrap();
        prev = next;
    }
    TwoTerminal {
        dag,
        source: first,
        sink: prev,
    }
}

/// A diamond: `s` fans out to `width` middle nodes which join at `t`.
pub fn diamond(width: usize) -> TwoTerminal {
    assert!(width >= 1);
    let mut dag = Dag::with_capacity(width + 2, 2 * width);
    let s = dag.add_node(());
    let t = dag.add_node(());
    for _ in 0..width {
        let m = dag.add_node(());
        dag.add_edge(s, m, ()).unwrap();
        dag.add_edge(m, t, ()).unwrap();
    }
    TwoTerminal {
        dag,
        source: s,
        sink: t,
    }
}

/// Random layered DAG: `layers` layers of `width` nodes; every node gets
/// at least one incoming edge from the previous layer, plus extra edges
/// with probability `p`. Normalized to a single source/sink.
pub fn layered<R: Rng>(rng: &mut R, layers: usize, width: usize, p: f64) -> TwoTerminal {
    assert!(layers >= 1 && width >= 1);
    let mut dag: Dag<(), ()> = Dag::new();
    let mut grid: Vec<Vec<NodeId>> = Vec::with_capacity(layers);
    for l in 0..layers {
        let layer: Vec<NodeId> = (0..width).map(|_| dag.add_node(())).collect();
        if l > 0 {
            let prev = &grid[l - 1];
            for &v in &layer {
                // guaranteed connection
                let u = prev[rng.random_range(0..prev.len())];
                dag.add_edge(u, v, ()).unwrap();
                for &u in prev {
                    if rng.random_bool(p) {
                        dag.add_edge(u, v, ()).unwrap();
                    }
                }
            }
        }
        grid.push(layer);
    }
    let (source, sink) = normalize_source_sink(&mut dag, (), ());
    TwoTerminal { dag, source, sink }
}

/// A generated series-parallel DAG together with its ground-truth
/// decomposition tree (leaves are edge ids of `dag`).
#[derive(Debug, Clone)]
pub struct GeneratedSp {
    /// The two-terminal graph.
    pub tt: TwoTerminal,
    /// A decomposition tree consistent with the construction.
    pub tree: SpTree,
}

/// Random two-terminal series-parallel DAG with exactly `leaves` edges.
pub fn random_sp<R: Rng>(rng: &mut R, leaves: usize) -> GeneratedSp {
    assert!(leaves >= 1);
    let mut dag: Dag<(), ()> = Dag::new();
    let s = dag.add_node(());
    let t = dag.add_node(());
    let tree = build_sp(rng, &mut dag, s, t, leaves);
    GeneratedSp {
        tt: TwoTerminal {
            dag,
            source: s,
            sink: t,
        },
        tree,
    }
}

fn build_sp<R: Rng>(
    rng: &mut R,
    dag: &mut Dag<(), ()>,
    from: NodeId,
    to: NodeId,
    leaves: usize,
) -> SpTree {
    if leaves == 1 {
        let e = dag.add_edge(from, to, ()).unwrap();
        return SpTree::leaf(e);
    }
    let left = rng.random_range(1..leaves);
    let right = leaves - left;
    if rng.random_bool(0.5) {
        // series: introduce a middle vertex
        let mid = dag.add_node(());
        let lt = build_sp(rng, dag, from, mid, left);
        let rt = build_sp(rng, dag, mid, to, right);
        lt.series(rt)
    } else {
        let lt = build_sp(rng, dag, from, to, left);
        let rt = build_sp(rng, dag, from, to, right);
        lt.parallel(rt)
    }
}

/// Random "race DAG": `n` internal nodes in a random topological order,
/// each connected from an earlier node, plus `extra` additional forward
/// edges (parallel edges allowed, modelling repeated updates to the same
/// cell). Normalized to a single source/sink.
pub fn random_race_dag<R: Rng>(rng: &mut R, n: usize, extra: usize) -> TwoTerminal {
    assert!(n >= 1);
    let mut dag: Dag<(), ()> = Dag::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| dag.add_node(())).collect();
    for i in 1..n {
        let j = rng.random_range(0..i);
        dag.add_edge(nodes[j], nodes[i], ()).unwrap();
    }
    for _ in 0..extra {
        if n < 2 {
            break;
        }
        let i = rng.random_range(0..n - 1);
        let j = rng.random_range(i + 1..n);
        dag.add_edge(nodes[i], nodes[j], ()).unwrap();
    }
    let (source, sink) = normalize_source_sink(&mut dag, (), ());
    TwoTerminal { dag, source, sink }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sp::decompose;
    use crate::topo::is_acyclic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chain_shape() {
        let tt = chain(4);
        assert_eq!(tt.dag.node_count(), 5);
        assert_eq!(tt.dag.edge_count(), 4);
        assert_eq!(tt.dag.sources(), vec![tt.source]);
        assert_eq!(tt.dag.sinks(), vec![tt.sink]);
    }

    #[test]
    fn diamond_shape() {
        let tt = diamond(3);
        assert_eq!(tt.dag.node_count(), 5);
        assert_eq!(tt.dag.edge_count(), 6);
        assert!(is_acyclic(&tt.dag));
    }

    #[test]
    fn layered_single_terminal_acyclic() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let tt = layered(&mut rng, 4, 3, 0.3);
            assert!(is_acyclic(&tt.dag));
            assert_eq!(tt.dag.sources(), vec![tt.source]);
            assert_eq!(tt.dag.sinks(), vec![tt.sink]);
        }
    }

    #[test]
    fn random_sp_is_recognized_with_same_leafcount() {
        let mut rng = StdRng::seed_from_u64(3);
        for leaves in [1usize, 2, 5, 12, 30] {
            let gsp = random_sp(&mut rng, leaves);
            assert_eq!(gsp.tree.leaf_count(), leaves);
            assert_eq!(gsp.tt.dag.edge_count(), leaves);
            let tree = decompose(&gsp.tt.dag, gsp.tt.source, gsp.tt.sink)
                .expect("generated SP graph must be recognized");
            assert_eq!(tree.leaf_count(), leaves);
        }
    }

    #[test]
    fn race_dag_two_terminal_acyclic() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let tt = random_race_dag(&mut rng, 12, 8);
            assert!(is_acyclic(&tt.dag));
            assert_eq!(tt.dag.sources(), vec![tt.source]);
            assert_eq!(tt.dag.sinks(), vec![tt.sink]);
        }
    }

    #[test]
    fn generators_deterministic_for_fixed_seed() {
        let a = {
            let mut rng = StdRng::seed_from_u64(42);
            let tt = random_race_dag(&mut rng, 10, 5);
            (tt.dag.node_count(), tt.dag.edge_count())
        };
        let b = {
            let mut rng = StdRng::seed_from_u64(42);
            let tt = random_race_dag(&mut rng, 10, 5);
            (tt.dag.node_count(), tt.dag.edge_count())
        };
        assert_eq!(a, b);
    }
}
