//! Longest paths (makespans), critical-path extraction, reachability.
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

/// Per-node `(start, finish)` times for an activity-on-node DAG:
/// `start(v) = max over predecessors u of finish(u)`,
/// `finish(v) = start(v) + node_weight(v)`. Sources start at 0.
pub fn node_schedule<N, E>(
    g: &Dag<N, E>,
    mut node_weight: impl FnMut(NodeId) -> u64,
) -> Result<Vec<(u64, u64)>, TopoError> {
    let order = topo_order(g)?;
    let mut sched = vec![(0u64, 0u64); g.node_count()];
    for &v in &order {
        let mut start = 0u64;
        for u in g.predecessors(v) {
            start = start.max(sched[u.index()].1);
        }
        sched[v.index()] = (start, start.saturating_add(node_weight(v)));
    }
    Ok(sched)
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

/// Set of nodes reachable from `start` (including `start`).
pub fn reachable_from<N, E>(g: &Dag<N, E>, start: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    let mut stack = vec![start];
    seen[start.index()] = true;
    while let Some(v) = stack.pop() {
        for w in g.successors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                stack.push(w);
            }
        }
    }
    seen
}

/// Set of nodes that can reach `end` (including `end`).
pub fn reaching<N, E>(g: &Dag<N, E>, end: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    let mut stack = vec![end];
    seen[end.index()] = true;
    while let Some(v) = stack.pop() {
        for w in g.predecessors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                stack.push(w);
            }
        }
    }
    seen
}

/// Number of distinct source→sink paths (saturating at `u64::MAX`).
/// Parallel edges produce distinct paths.
pub fn count_paths<N, E>(g: &Dag<N, E>) -> Result<u64, TopoError> {
    let order = topo_order(g)?;
    let mut count = vec![0u64; g.node_count()];
    for &v in &order {
        if g.in_degree(v) == 0 {
            count[v.index()] = 1;
        }
        for &e in g.out_edges(v) {
            let w = g.dst(e);
            count[w.index()] = count[w.index()].saturating_add(count[v.index()]);
        }
    }
    Ok(g.sinks()
        .iter()
        .map(|t| count[t.index()])
        .fold(0u64, u64::saturating_add))
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
    fn node_schedule_matches_makespan() {
        let (g, [.., t]) = figure4();
        let sched = node_schedule(&g, |v| g.in_degree(v) as u64).unwrap();
        assert_eq!(sched[t.index()].1, 11);
        // Source starts at 0 and every start is the max predecessor finish.
        assert_eq!(sched[0], (0, 0));
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

    #[test]
    fn reachability() {
        let (g, [s, a, b, c, d, t]) = figure4();
        let r = reachable_from(&g, a);
        assert!(r[c.index()] && r[t.index()] && !r[s.index()]);
        let back = reaching(&g, c);
        assert!(back[s.index()] && back[a.index()] && back[b.index()]);
        assert!(!back[d.index()] && !back[t.index()]);
    }

    #[test]
    fn path_counting_with_parallel_edges() {
        let (g, _) = figure4();
        // s→a→b: s-a edge then a-b; s→b direct. Paths into c multiply by 3
        // parallel edges. Count: paths to a =1; to b = (s->b) + (via a) = 2;
        // to c = 3*paths(a) + 3*paths(b) = 3 + 6 = 9; then one way to d, t.
        assert_eq!(count_paths(&g).unwrap(), 9);
    }
}
