//! Single-source / single-sink normalization.
//!
//! §2 of the paper assumes w.l.o.g. that the DAG has a single source and a
//! single sink. These helpers add a fresh super-source/super-sink (with
//! caller-supplied payloads for the new node and connecting edges) when the
//! graph has more than one, and report what was done so callers can assign
//! zero-duration activities to the new arcs.

use crate::graph::{Dag, EdgeId, NodeId};

/// Outcome of a normalization step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Normalized {
    /// The graph already satisfied the property; contains the unique node.
    Already(NodeId),
    /// A new node was added; lists the fresh node and the added edges.
    Added {
        /// The new super-source or super-sink.
        node: NodeId,
        /// Edges connecting the new node to the previous sources/sinks.
        edges: Vec<EdgeId>,
    },
}

impl Normalized {
    /// The single source/sink after normalization.
    pub fn node(&self) -> NodeId {
        match self {
            Normalized::Already(n) => *n,
            Normalized::Added { node, .. } => *node,
        }
    }
}

/// Ensures the graph has exactly one source (in-degree-0 node).
///
/// If several exist, adds `node_payload` as a super-source with one
/// `edge_payload` edge to each former source. Panics on empty graphs
/// (an empty graph has no source to normalize).
pub fn ensure_single_source<N, E: Clone>(
    g: &mut Dag<N, E>,
    node_payload: N,
    edge_payload: E,
) -> Normalized {
    let sources = g.sources();
    assert!(
        !sources.is_empty(),
        "cannot normalize an empty (or cyclic) graph: no sources"
    );
    if sources.len() == 1 {
        return Normalized::Already(sources[0]);
    }
    let s = g.add_node(node_payload);
    let edges = sources
        .iter()
        .map(|&old| {
            g.add_edge(s, old, edge_payload.clone())
                .expect("valid nodes")
        })
        .collect();
    Normalized::Added { node: s, edges }
}

/// Ensures the graph has exactly one sink (out-degree-0 node). Dual of
/// [`ensure_single_source`].
pub fn ensure_single_sink<N, E: Clone>(
    g: &mut Dag<N, E>,
    node_payload: N,
    edge_payload: E,
) -> Normalized {
    let sinks = g.sinks();
    assert!(
        !sinks.is_empty(),
        "cannot normalize an empty (or cyclic) graph: no sinks"
    );
    if sinks.len() == 1 {
        return Normalized::Already(sinks[0]);
    }
    let t = g.add_node(node_payload);
    let edges = sinks
        .iter()
        .map(|&old| {
            g.add_edge(old, t, edge_payload.clone())
                .expect("valid nodes")
        })
        .collect();
    Normalized::Added { node: t, edges }
}

/// Normalizes both ends; returns `(source, sink)`.
pub fn normalize_source_sink<N: Clone, E: Clone>(
    g: &mut Dag<N, E>,
    node_payload: N,
    edge_payload: E,
) -> (NodeId, NodeId) {
    let s = ensure_single_source(g, node_payload.clone(), edge_payload.clone());
    let t = ensure_single_sink(g, node_payload, edge_payload);
    (s.node(), t.node())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn already_single() {
        let mut g: Dag<u8, u8> = Dag::new();
        let s = g.add_node(0);
        let t = g.add_node(0);
        g.add_edge(s, t, 0).unwrap();
        assert_eq!(ensure_single_source(&mut g, 9, 9), Normalized::Already(s));
        assert_eq!(ensure_single_sink(&mut g, 9, 9), Normalized::Already(t));
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn adds_super_source_and_sink() {
        let mut g: Dag<u8, u8> = Dag::new();
        let a = g.add_node(1);
        let b = g.add_node(2);
        let c = g.add_node(3);
        let d = g.add_node(4);
        g.add_edge(a, c, 0).unwrap();
        g.add_edge(b, d, 0).unwrap();
        let (s, t) = normalize_source_sink(&mut g, 0, 99);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.sources(), vec![s]);
        assert_eq!(g.sinks(), vec![t]);
        assert_eq!(g.out_degree(s), 2);
        assert_eq!(g.in_degree(t), 2);
        assert_eq!(*g.edge(g.out_edges(s)[0]), 99);
    }

    #[test]
    fn normalization_is_idempotent() {
        let mut g: Dag<u8, u8> = Dag::new();
        let a = g.add_node(1);
        let b = g.add_node(2);
        g.add_node(3); // isolated: both a source and a sink
        g.add_edge(a, b, 0).unwrap();
        let (s1, t1) = normalize_source_sink(&mut g, 0, 0);
        let (s2, t2) = normalize_source_sink(&mut g, 0, 0);
        assert_eq!((s1, t1), (s2, t2));
    }

    #[test]
    #[should_panic(expected = "no sources")]
    fn empty_graph_panics() {
        let mut g: Dag<u8, u8> = Dag::new();
        ensure_single_source(&mut g, 0, 0);
    }
}
