//! Core directed-multigraph type.
//!
//! [`Dag`] is an append-only directed multigraph: nodes and edges are never
//! removed, parallel edges are allowed (the paper's race DAGs use one edge
//! per update, so a node updated `k` times by the same producer carries `k`
//! parallel arcs), and self-loops are rejected. Acyclicity is *not* checked
//! on insertion (that would make construction quadratic); algorithms that
//! require a DAG obtain a topological order via [`crate::topo`] and surface
//! a [`crate::TopoError`] on cyclic input.

use std::fmt;

/// Dense identifier of a node in a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Dense identifier of an edge in a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Errors produced by graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// An edge endpoint does not exist.
    InvalidNode(NodeId),
    /// Self-loops are not representable in a DAG.
    SelfLoop(NodeId),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::InvalidNode(n) => write!(f, "node {n} does not exist"),
            DagError::SelfLoop(n) => write!(f, "self-loop at node {n} is not allowed"),
        }
    }
}

impl std::error::Error for DagError {}

#[derive(Debug, Clone)]
struct EdgeData<E> {
    src: NodeId,
    dst: NodeId,
    weight: E,
}

/// A borrowed view of one edge.
#[derive(Debug, Clone, Copy)]
pub struct EdgeRef<'a, E> {
    /// Edge id.
    pub id: EdgeId,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Edge payload.
    pub weight: &'a E,
}

/// Append-only directed multigraph with node payloads `N` and edge
/// payloads `E`.
#[derive(Debug, Clone, Default)]
pub struct Dag<N, E> {
    nodes: Vec<N>,
    edges: Vec<EdgeData<E>>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl<N, E> Dag<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Dag {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
        }
    }

    /// Creates an empty graph with reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Dag {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_adj: Vec::with_capacity(nodes),
            in_adj: Vec::with_capacity(nodes),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (parallel edges counted individually).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(weight);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a directed edge `src -> dst`.
    ///
    /// Parallel edges are allowed; self-loops and dangling endpoints are
    /// rejected.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: E) -> Result<EdgeId, DagError> {
        if src.index() >= self.nodes.len() {
            return Err(DagError::InvalidNode(src));
        }
        if dst.index() >= self.nodes.len() {
            return Err(DagError::InvalidNode(dst));
        }
        if src == dst {
            return Err(DagError::SelfLoop(src));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData { src, dst, weight });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        Ok(id)
    }

    /// Adds `k` parallel edges `src -> dst` with cloned payloads.
    pub fn add_parallel_edges(
        &mut self,
        src: NodeId,
        dst: NodeId,
        weight: E,
        k: usize,
    ) -> Result<Vec<EdgeId>, DagError>
    where
        E: Clone,
    {
        let mut ids = Vec::with_capacity(k);
        for _ in 0..k {
            ids.push(self.add_edge(src, dst, weight.clone())?);
        }
        Ok(ids)
    }

    /// Node payload accessor.
    #[inline]
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Edge payload accessor.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &E {
        &self.edges[id.index()].weight
    }

    /// Endpoints `(src, dst)` of an edge.
    #[inline]
    pub fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[id.index()];
        (e.src, e.dst)
    }

    /// Source endpoint of an edge.
    #[inline]
    pub fn src(&self, id: EdgeId) -> NodeId {
        self.edges[id.index()].src
    }

    /// Destination endpoint of an edge.
    #[inline]
    pub fn dst(&self, id: EdgeId) -> NodeId {
        self.edges[id.index()].dst
    }

    /// Iterator over all node ids in insertion order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterator over all edges as [`EdgeRef`]s.
    pub fn edge_refs(&self) -> impl ExactSizeIterator<Item = EdgeRef<'_, E>> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| EdgeRef {
            id: EdgeId(i as u32),
            src: e.src,
            dst: e.dst,
            weight: &e.weight,
        })
    }

    /// Outgoing edge ids of `n`.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out_adj[n.index()]
    }

    /// Incoming edge ids of `n`.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.in_adj[n.index()]
    }

    /// Out-degree of `n` (parallel edges counted).
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_adj[n.index()].len()
    }

    /// In-degree of `n` (parallel edges counted). This is the `d_in(x)`
    /// of §1, i.e. the number of updates applied to memory cell `x`.
    #[inline]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.in_adj[n.index()].len()
    }

    /// Successor node ids of `n` (with multiplicity).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_adj[n.index()].iter().map(|&e| self.dst(e))
    }

    /// Predecessor node ids of `n` (with multiplicity).
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_adj[n.index()].iter().map(|&e| self.src(e))
    }

    /// All nodes with in-degree zero.
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.in_degree(n) == 0)
            .collect()
    }

    /// All nodes with out-degree zero.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.out_degree(n) == 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag<&'static str, u32> {
        let mut g = Dag::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_edge(s, a, 1).unwrap();
        g.add_edge(s, b, 2).unwrap();
        g.add_edge(a, t, 3).unwrap();
        g.add_edge(b, t, 4).unwrap();
        g
    }

    #[test]
    fn build_and_query() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.sources(), vec![NodeId(0)]);
        assert_eq!(g.sinks(), vec![NodeId(3)]);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(*g.node(NodeId(1)), "a");
    }

    #[test]
    fn parallel_edges_counted_in_degree() {
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let ids = g.add_parallel_edges(a, b, (), 5).unwrap();
        assert_eq!(ids.len(), 5);
        assert_eq!(g.in_degree(b), 5);
        assert_eq!(g.out_degree(a), 5);
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        assert_eq!(g.add_edge(a, a, ()), Err(DagError::SelfLoop(a)));
    }

    #[test]
    fn dangling_endpoint_rejected() {
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let bogus = NodeId(7);
        assert_eq!(g.add_edge(a, bogus, ()), Err(DagError::InvalidNode(bogus)));
        assert_eq!(g.add_edge(bogus, a, ()), Err(DagError::InvalidNode(bogus)));
    }

    #[test]
    fn endpoints_and_refs_consistent() {
        let g = diamond();
        for er in g.edge_refs() {
            assert_eq!(g.endpoints(er.id), (er.src, er.dst));
            assert_eq!(g.edge(er.id), er.weight);
        }
    }

    #[test]
    fn successors_predecessors_multiplicity() {
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_parallel_edges(a, b, (), 3).unwrap();
        assert_eq!(g.successors(a).count(), 3);
        assert_eq!(g.predecessors(b).count(), 3);
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(EdgeId(9).to_string(), "e9");
    }
}
