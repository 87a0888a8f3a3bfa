//! Longest paths (makespans) and critical-path extraction.
//!
//! The paper's *makespan* (§2, Observation 1.1) is the longest
//! source→sink path where each node `x` contributes its duration. After
//! the activity-on-arc transformation the contribution moves to edges.
//! Both flavours are provided; weights are `u64` ticks and all arithmetic
//! saturates so that ∞-like sentinel durations (Appendix A) stay absorbing.

use crate::graph::{Dag, EdgeId, NodeId};
use crate::topo::{topo_order, TopoError};

/// A maximum-weight path together with its total weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Total weight (saturating sum) along the path.
    pub weight: u64,
    /// Nodes on the path, in order from a source to a sink.
    pub nodes: Vec<NodeId>,
    /// Edges on the path (`nodes.len() - 1` entries, empty for a single node).
    pub edges: Vec<EdgeId>,
}

/// Longest path where node `v` contributes `node_weight(v)`.
///
/// Considers all source→sink paths (every maximal path in a DAG starts at
/// a source and ends at a sink). Returns the critical path; ties are
/// broken arbitrarily but deterministically. Errors on cyclic input.
pub fn longest_path_nodes<N, E>(
    g: &Dag<N, E>,
    mut node_weight: impl FnMut(NodeId) -> u64,
) -> Result<CriticalPath, TopoError> {
    let order = topo_order(g)?;
    if order.is_empty() {
        return Ok(CriticalPath {
            weight: 0,
            nodes: vec![],
            edges: vec![],
        });
    }
    let n = g.node_count();
    // dist[v] = max over paths ending at v of the sum of node weights
    // (including v itself).
    let mut dist = vec![0u64; n];
    let mut pred: Vec<Option<EdgeId>> = vec![None; n];
    for &v in &order {
        let wv = node_weight(v);
        let mut best = 0u64;
        let mut best_e = None;
        for &e in g.in_edges(v) {
            let u = g.src(e);
            if best_e.is_none() || dist[u.index()] > best {
                best = dist[u.index()];
                best_e = Some(e);
            }
        }
        dist[v.index()] = best.saturating_add(wv);
        pred[v.index()] = best_e;
    }
    let end = (0..n as u32)
        .map(NodeId)
        .max_by_key(|v| dist[v.index()])
        .expect("non-empty graph");
    Ok(walk_back(g, end, dist[end.index()], &pred))
}

/// Longest path where edge `e` contributes `edge_weight(e)` (nodes free).
///
/// This is the makespan of an activity-on-arc DAG (the `D'`/`D''` of
/// §3.1): the time of the sink event with `T_v = max_{(u,v)} T_u + t_e`.
pub fn longest_path_edges<N, E>(
    g: &Dag<N, E>,
    mut edge_weight: impl FnMut(EdgeId) -> u64,
) -> Result<CriticalPath, TopoError> {
    let order = topo_order(g)?;
    if order.is_empty() {
        return Ok(CriticalPath {
            weight: 0,
            nodes: vec![],
            edges: vec![],
        });
    }
    let n = g.node_count();
    let mut dist = vec![0u64; n];
    let mut pred: Vec<Option<EdgeId>> = vec![None; n];
    for &v in &order {
        for &e in g.in_edges(v) {
            let u = g.src(e);
            let cand = dist[u.index()].saturating_add(edge_weight(e));
            if pred[v.index()].is_none() || cand > dist[v.index()] {
                dist[v.index()] = cand;
                pred[v.index()] = Some(e);
            }
        }
    }
    let end = (0..n as u32)
        .map(NodeId)
        .max_by_key(|v| dist[v.index()])
        .expect("non-empty graph");
    Ok(walk_back(g, end, dist[end.index()], &pred))
}

/// Per-node earliest event times for an activity-on-arc DAG:
/// `T_v = max over incoming edges (T_u + t_e)`, sources at 0.
pub fn event_times<N, E>(
    g: &Dag<N, E>,
    mut edge_weight: impl FnMut(EdgeId) -> u64,
) -> Result<Vec<u64>, TopoError> {
    let order = topo_order(g)?;
    let mut t = vec![0u64; g.node_count()];
    for &v in &order {
        for &e in g.in_edges(v) {
            let u = g.src(e);
            t[v.index()] = t[v.index()].max(t[u.index()].saturating_add(edge_weight(e)));
        }
    }
    Ok(t)
}

fn walk_back<N, E>(
    g: &Dag<N, E>,
    end: NodeId,
    weight: u64,
    pred: &[Option<EdgeId>],
) -> CriticalPath {
    let mut nodes = vec![end];
    let mut edges = Vec::new();
    let mut cur = end;
    while let Some(e) = pred[cur.index()] {
        edges.push(e);
        cur = g.src(e);
        nodes.push(cur);
    }
    nodes.reverse();
    edges.reverse();
    CriticalPath {
        weight,
        nodes,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Dag;

    /// The DAG consistent with Figure 4 of the paper: node work = in-degree,
    /// makespan 11 along s→a→b→c→d→t.
    pub(crate) fn figure4() -> (Dag<&'static str, ()>, [NodeId; 6]) {
        let mut g = Dag::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        let t = g.add_node("t");
        g.add_edge(s, a, ()).unwrap();
        g.add_edge(s, b, ()).unwrap();
        g.add_edge(a, b, ()).unwrap();
        g.add_parallel_edges(a, c, (), 3).unwrap();
        g.add_parallel_edges(b, c, (), 3).unwrap();
        g.add_edge(c, d, ()).unwrap();
        g.add_edge(d, t, ()).unwrap();
        (g, [s, a, b, c, d, t])
    }

    #[test]
    fn figure4_makespan_is_11() {
        let (g, [s, a, b, c, d, t]) = figure4();
        let cp = longest_path_nodes(&g, |v| g.in_degree(v) as u64).unwrap();
        assert_eq!(cp.weight, 11);
        assert_eq!(cp.nodes, vec![s, a, b, c, d, t]);
    }

    #[test]
    fn longest_edges_simple() {
        let mut g: Dag<(), u64> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, 5).unwrap();
        g.add_edge(a, t, 7).unwrap();
        g.add_edge(s, t, 10).unwrap();
        let cp = longest_path_edges(&g, |e| *g.edge(e)).unwrap();
        assert_eq!(cp.weight, 12);
        assert_eq!(cp.nodes, vec![s, a, t]);
        assert_eq!(cp.edges.len(), 2);
    }

    #[test]
    fn event_times_max_rule() {
        let mut g: Dag<(), u64> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, 3).unwrap();
        g.add_edge(s, b, 1).unwrap();
        g.add_edge(a, t, 1).unwrap();
        g.add_edge(b, t, 10).unwrap();
        let t_v = event_times(&g, |e| *g.edge(e)).unwrap();
        assert_eq!(t_v[t.index()], 11);
        assert_eq!(t_v[a.index()], 3);
    }

    #[test]
    fn saturating_infinite_weights() {
        let mut g: Dag<(), u64> = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, u64::MAX).unwrap();
        let cp = longest_path_edges(&g, |e| *g.edge(e)).unwrap();
        assert_eq!(cp.weight, u64::MAX);
    }

    #[test]
    fn empty_and_singleton() {
        let g: Dag<(), ()> = Dag::new();
        assert_eq!(longest_path_nodes(&g, |_| 1).unwrap().weight, 0);
        let mut g: Dag<(), ()> = Dag::new();
        g.add_node(());
        let cp = longest_path_nodes(&g, |_| 42).unwrap();
        assert_eq!(cp.weight, 42);
        assert_eq!(cp.nodes.len(), 1);
    }
}
