//! Topological ordering, acyclicity checks, and layering.

use crate::graph::{Dag, NodeId};
use std::fmt;

/// Error returned when a graph that must be acyclic contains a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoError {
    /// Some nodes that participate in (or are downstream of) a cycle.
    pub cyclic_nodes: Vec<NodeId>,
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph contains a cycle through {} node(s)",
            self.cyclic_nodes.len()
        )
    }
}

impl std::error::Error for TopoError {}

/// Kahn's algorithm. Returns node ids in a topological order, or the set
/// of nodes not orderable (i.e. on or behind a cycle).
pub fn topo_order<N, E>(g: &Dag<N, E>) -> Result<Vec<NodeId>, TopoError> {
    let n = g.node_count();
    let mut indeg: Vec<usize> = (0..n).map(|i| g.in_degree(NodeId(i as u32))).collect();
    let mut queue: Vec<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|&v| indeg[v.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        order.push(v);
        for &e in g.out_edges(v) {
            let w = g.dst(e);
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                queue.push(w);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let placed: std::collections::HashSet<NodeId> = order.into_iter().collect();
        Err(TopoError {
            cyclic_nodes: (0..n as u32)
                .map(NodeId)
                .filter(|v| !placed.contains(v))
                .collect(),
        })
    }
}

/// Whether the graph is acyclic.
pub fn is_acyclic<N, E>(g: &Dag<N, E>) -> bool {
    topo_order(g).is_ok()
}

/// Assigns each node its *layer* = length (in edges) of the longest path
/// from any source to it. Sources are layer 0. Errors on cycles.
pub fn layers<N, E>(g: &Dag<N, E>) -> Result<Vec<usize>, TopoError> {
    let order = topo_order(g)?;
    let mut layer = vec![0usize; g.node_count()];
    for &v in &order {
        for &e in g.out_edges(v) {
            let w = g.dst(e);
            layer[w.index()] = layer[w.index()].max(layer[v.index()] + 1);
        }
    }
    Ok(layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Dag;

    #[test]
    fn chain_in_order() {
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        // Insert edges "backwards" to make sure ordering is computed,
        // not inherited from insertion order.
        g.add_edge(b, c, ()).unwrap();
        g.add_edge(a, b, ()).unwrap();
        assert_eq!(topo_order(&g).unwrap(), vec![a, b, c]);
    }

    #[test]
    fn cycle_detected() {
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(b, c, ()).unwrap();
        g.add_edge(c, a, ()).unwrap();
        let err = topo_order(&g).unwrap_err();
        assert_eq!(err.cyclic_nodes.len(), 3);
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn partial_cycle_detected() {
        // d -> (a -> b -> c -> a): d is orderable, the cycle is not.
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(d, a, ()).unwrap();
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(b, c, ()).unwrap();
        g.add_edge(c, a, ()).unwrap();
        let err = topo_order(&g).unwrap_err();
        assert_eq!(err.cyclic_nodes.len(), 3);
        assert!(!err.cyclic_nodes.contains(&d));
    }

    #[test]
    fn empty_graph_ok() {
        let g: Dag<(), ()> = Dag::new();
        assert!(topo_order(&g).unwrap().is_empty());
        assert!(is_acyclic(&g));
    }

    #[test]
    fn layers_diamond() {
        let mut g: Dag<(), ()> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, ()).unwrap();
        g.add_edge(s, b, ()).unwrap();
        g.add_edge(a, t, ()).unwrap();
        g.add_edge(b, t, ()).unwrap();
        g.add_edge(a, b, ()).unwrap(); // skew: b now deeper than a
        let l = layers(&g).unwrap();
        assert_eq!(l[s.index()], 0);
        assert_eq!(l[a.index()], 1);
        assert_eq!(l[b.index()], 2);
        assert_eq!(l[t.index()], 3);
    }

    #[test]
    fn isolated_nodes_are_sources() {
        let mut g: Dag<(), ()> = Dag::new();
        g.add_node(());
        g.add_node(());
        let order = topo_order(&g).unwrap();
        assert_eq!(order.len(), 2);
        assert_eq!(layers(&g).unwrap(), vec![0, 0]);
    }
}
