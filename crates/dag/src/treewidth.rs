//! Tree decompositions of the *underlying undirected graph* of a DAG.
//!
//! §4.3 of the paper proves weak NP-hardness for DAGs whose underlying
//! undirected graph has bounded treewidth, exhibiting an explicit tree
//! decomposition of width 15 (Figure 16). This module provides the
//! [`TreeDecomposition`] container and a full validity/width checker so
//! the construction in `rtt-hardness::partition` can be verified
//! programmatically rather than by eye.

use crate::graph::{Dag, NodeId};
use std::collections::HashSet;
use std::fmt;

/// A tree decomposition: bags of graph nodes connected by tree edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeDecomposition {
    /// The bags; `bags[i]` is the content of tree node `i`.
    pub bags: Vec<Vec<NodeId>>,
    /// Undirected tree edges between bag indices.
    pub tree_edges: Vec<(usize, usize)>,
}

/// Why a claimed tree decomposition is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwError {
    /// The bag graph is not a tree (wrong edge count or disconnected).
    NotATree,
    /// A tree edge references a bag index that does not exist.
    BadBagIndex(usize),
    /// A graph node appears in no bag.
    NodeUncovered(NodeId),
    /// A graph edge `(u, v)` has no bag containing both endpoints.
    EdgeUncovered(NodeId, NodeId),
    /// The bags containing this node do not form a connected subtree.
    NodeBagsDisconnected(NodeId),
}

impl fmt::Display for TwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TwError::NotATree => write!(f, "bag graph is not a tree"),
            TwError::BadBagIndex(i) => write!(f, "tree edge references missing bag {i}"),
            TwError::NodeUncovered(n) => write!(f, "node {n} appears in no bag"),
            TwError::EdgeUncovered(u, v) => {
                write!(f, "edge ({u},{v}) has no bag containing both endpoints")
            }
            TwError::NodeBagsDisconnected(n) => {
                write!(f, "bags containing node {n} are not connected in the tree")
            }
        }
    }
}

impl std::error::Error for TwError {}

impl TreeDecomposition {
    /// Width = (size of the largest bag) − 1. Zero bags ⇒ width 0.
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(1)
            .saturating_sub(1)
    }

    /// Verifies all three tree-decomposition conditions against the
    /// underlying undirected graph of `g` and returns the width.
    ///
    /// 1. every node of `g` is in some bag;
    /// 2. for every edge of `g`, some bag contains both endpoints;
    /// 3. for every node, the bags containing it induce a connected
    ///    subtree.
    pub fn verify<N, E>(&self, g: &Dag<N, E>) -> Result<usize, TwError> {
        let b = self.bags.len();
        // -- the bag graph must be a tree (or empty alongside an empty g).
        for &(x, y) in &self.tree_edges {
            if x >= b {
                return Err(TwError::BadBagIndex(x));
            }
            if y >= b {
                return Err(TwError::BadBagIndex(y));
            }
        }
        if b > 0 {
            if self.tree_edges.len() != b - 1 {
                return Err(TwError::NotATree);
            }
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); b];
            for &(x, y) in &self.tree_edges {
                adj[x].push(y);
                adj[y].push(x);
            }
            let mut seen = vec![false; b];
            let mut stack = vec![0usize];
            seen[0] = true;
            let mut cnt = 1;
            while let Some(x) = stack.pop() {
                for &y in &adj[x] {
                    if !seen[y] {
                        seen[y] = true;
                        cnt += 1;
                        stack.push(y);
                    }
                }
            }
            if cnt != b {
                return Err(TwError::NotATree);
            }
        } else if g.node_count() > 0 {
            return Err(TwError::NodeUncovered(NodeId(0)));
        }

        // -- node coverage + per-node bag sets.
        let n = g.node_count();
        let mut bags_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, bag) in self.bags.iter().enumerate() {
            let mut seen_in_bag = HashSet::new();
            for &v in bag {
                if v.index() < n && seen_in_bag.insert(v) {
                    bags_of[v.index()].push(i);
                }
            }
        }
        for v in g.node_ids() {
            if bags_of[v.index()].is_empty() {
                return Err(TwError::NodeUncovered(v));
            }
        }

        // -- edge coverage (undirected view; parallel edges collapse).
        for e in g.edge_refs() {
            let (u, v) = (e.src, e.dst);
            let covered = self.bags.iter().any(|bag| {
                let mut has_u = false;
                let mut has_v = false;
                for &x in bag {
                    has_u |= x == u;
                    has_v |= x == v;
                }
                has_u && has_v
            });
            if !covered {
                return Err(TwError::EdgeUncovered(u, v));
            }
        }

        // -- connectivity of each node's bag set within the tree.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); b];
        for &(x, y) in &self.tree_edges {
            adj[x].push(y);
            adj[y].push(x);
        }
        for v in g.node_ids() {
            let with_v: HashSet<usize> = bags_of[v.index()].iter().copied().collect();
            let start = bags_of[v.index()][0];
            let mut seen = HashSet::new();
            seen.insert(start);
            let mut stack = vec![start];
            while let Some(x) = stack.pop() {
                for &y in &adj[x] {
                    if with_v.contains(&y) && seen.insert(y) {
                        stack.push(y);
                    }
                }
            }
            if seen.len() != with_v.len() {
                return Err(TwError::NodeBagsDisconnected(v));
            }
        }

        Ok(self.width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Dag;

    fn chain(n: usize) -> (Dag<(), ()>, Vec<NodeId>) {
        let mut g = Dag::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], ()).unwrap();
        }
        (g, nodes)
    }

    #[test]
    fn trivial_is_valid() {
        // one bag holding every node: width n − 1
        let (g, nodes) = chain(5);
        let td = TreeDecomposition {
            bags: vec![nodes],
            tree_edges: vec![],
        };
        assert_eq!(td.verify(&g).unwrap(), 4);
    }

    #[test]
    fn chain_has_pathwidth_1() {
        // bag i = {v_i, v_{i+1}}, the bags themselves a path
        let (g, nodes) = chain(6);
        let bags: Vec<Vec<NodeId>> = nodes.windows(2).map(<[NodeId]>::to_vec).collect();
        let tree_edges = (1..bags.len()).map(|i| (i - 1, i)).collect();
        let td = TreeDecomposition { bags, tree_edges };
        assert_eq!(td.verify(&g).unwrap(), 1);
    }

    #[test]
    fn uncovered_edge_detected() {
        let (g, nodes) = chain(3);
        let td = TreeDecomposition {
            bags: vec![vec![nodes[0], nodes[1]], vec![nodes[2]]],
            tree_edges: vec![(0, 1)],
        };
        assert_eq!(
            td.verify(&g),
            Err(TwError::EdgeUncovered(nodes[1], nodes[2]))
        );
    }

    #[test]
    fn uncovered_node_detected() {
        let (mut g, nodes) = chain(2);
        let lonely = g.add_node(());
        let td = TreeDecomposition {
            bags: vec![vec![nodes[0], nodes[1]]],
            tree_edges: vec![],
        };
        assert_eq!(td.verify(&g), Err(TwError::NodeUncovered(lonely)));
    }

    #[test]
    fn disconnected_occurrences_detected() {
        let (g, nodes) = chain(3);
        // v0 appears in bags 0 and 2 but not 1 -> violates connectivity.
        let td = TreeDecomposition {
            bags: vec![
                vec![nodes[0], nodes[1]],
                vec![nodes[1], nodes[2]],
                vec![nodes[0], nodes[2]],
            ],
            tree_edges: vec![(0, 1), (1, 2)],
        };
        assert_eq!(td.verify(&g), Err(TwError::NodeBagsDisconnected(nodes[0])));
    }

    #[test]
    fn non_tree_detected() {
        let (g, nodes) = chain(2);
        let td = TreeDecomposition {
            bags: vec![vec![nodes[0], nodes[1]], vec![nodes[0], nodes[1]]],
            tree_edges: vec![], // 2 bags, 0 edges: disconnected
        };
        assert_eq!(td.verify(&g), Err(TwError::NotATree));
    }

    #[test]
    fn bad_bag_index_detected() {
        let (g, nodes) = chain(2);
        let td = TreeDecomposition {
            bags: vec![vec![nodes[0], nodes[1]]],
            tree_edges: vec![(0, 5)],
        };
        assert_eq!(td.verify(&g), Err(TwError::BadBagIndex(5)));
    }

    #[test]
    fn duplicate_nodes_in_bag_do_not_inflate() {
        let (g, nodes) = chain(2);
        let td = TreeDecomposition {
            bags: vec![vec![nodes[0], nodes[1], nodes[0]]],
            tree_edges: vec![],
        };
        // Width still computed from raw bag length (3-1=2), but validity holds.
        assert!(td.verify(&g).is_ok());
    }
}
