//! Two-terminal series-parallel (TTSP) recognition and decomposition.
//!
//! §3.4 of the paper gives a pseudo-polynomial exact algorithm for
//! series-parallel DAGs by decomposing the graph into a rooted binary tree
//! `T_G` of series ("s") and parallel ("p") compositions. This module
//! provides that tree ([`SpTree`], arena-allocated so deep chains cannot
//! overflow the stack) and a recognizer ([`decompose`]) based on the
//! classical series/parallel reduction rules:
//!
//! * **series**: an internal vertex with exactly one incoming and one
//!   outgoing edge is spliced out, concatenating the two activities;
//! * **parallel**: two parallel edges between the same endpoints merge.
//!
//! A single-source/single-sink multidigraph is TTSP iff these rules reduce
//! it to one edge from the source to the sink.

use crate::graph::{Dag, EdgeId};
use crate::topo::is_acyclic;
use std::collections::HashMap;

/// Index of a node inside an [`SpTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpNodeId(pub u32);

impl SpNodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of the decomposition tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpKind {
    /// A leaf: one activity (edge of the original DAG).
    Leaf(EdgeId),
    /// Series composition: left finishes before right starts.
    Series(SpNodeId, SpNodeId),
    /// Parallel composition: left and right run concurrently.
    Parallel(SpNodeId, SpNodeId),
}

/// Arena-allocated binary series-parallel decomposition tree (`T_G`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpTree {
    nodes: Vec<SpKind>,
    root: SpNodeId,
}

impl SpTree {
    /// Creates a tree consisting of a single leaf.
    pub fn leaf(edge: EdgeId) -> Self {
        SpTree {
            nodes: vec![SpKind::Leaf(edge)],
            root: SpNodeId(0),
        }
    }

    /// Combines two trees in series (`self` then `right`).
    pub fn series(self, right: SpTree) -> Self {
        self.combine(right, true)
    }

    /// Combines two trees in parallel.
    pub fn parallel(self, right: SpTree) -> Self {
        self.combine(right, false)
    }

    fn combine(mut self, right: SpTree, series: bool) -> Self {
        let offset = self.nodes.len() as u32;
        self.nodes.extend(right.nodes.into_iter().map(|k| match k {
            SpKind::Leaf(e) => SpKind::Leaf(e),
            SpKind::Series(a, b) => SpKind::Series(SpNodeId(a.0 + offset), SpNodeId(b.0 + offset)),
            SpKind::Parallel(a, b) => {
                SpKind::Parallel(SpNodeId(a.0 + offset), SpNodeId(b.0 + offset))
            }
        }));
        let left_root = self.root;
        let right_root = SpNodeId(right.root.0 + offset);
        let root = SpNodeId(self.nodes.len() as u32);
        self.nodes.push(if series {
            SpKind::Series(left_root, right_root)
        } else {
            SpKind::Parallel(left_root, right_root)
        });
        self.root = root;
        self
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> SpNodeId {
        self.root
    }

    /// The kind of a tree node.
    #[inline]
    pub fn kind(&self, id: SpNodeId) -> SpKind {
        self.nodes[id.index()]
    }

    /// Total number of tree nodes (leaves + internal).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty (never true for a constructed tree).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of leaves (= number of activities).
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|k| matches!(k, SpKind::Leaf(_)))
            .count()
    }

    /// All leaf edge ids, in tree order.
    pub fn leaves(&self) -> Vec<EdgeId> {
        self.post_order()
            .into_iter()
            .filter_map(|id| match self.kind(id) {
                SpKind::Leaf(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    /// Node ids in post-order (children before parents, root last).
    /// Iterative, so arbitrarily deep trees are fine.
    pub fn post_order(&self) -> Vec<SpNodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        // (node, children_done)
        let mut stack = vec![(self.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                out.push(id);
                continue;
            }
            match self.kind(id) {
                SpKind::Leaf(_) => out.push(id),
                SpKind::Series(a, b) | SpKind::Parallel(a, b) => {
                    stack.push((id, true));
                    stack.push((b, false));
                    stack.push((a, false));
                }
            }
        }
        out
    }

    /// Bottom-up fold: `leaf` evaluates activities, `series`/`parallel`
    /// combine child values. This is the skeleton of the §3.4 DP.
    pub fn fold<T>(
        &self,
        mut leaf: impl FnMut(EdgeId) -> T,
        mut series: impl FnMut(T, T) -> T,
        mut parallel: impl FnMut(T, T) -> T,
    ) -> T {
        let order = self.post_order();
        let mut values: Vec<Option<T>> = (0..self.nodes.len()).map(|_| None).collect();
        for id in order {
            let v = match self.kind(id) {
                SpKind::Leaf(e) => leaf(e),
                SpKind::Series(a, b) => {
                    let va = values[a.index()].take().expect("post-order");
                    let vb = values[b.index()].take().expect("post-order");
                    series(va, vb)
                }
                SpKind::Parallel(a, b) => {
                    let va = values[a.index()].take().expect("post-order");
                    let vb = values[b.index()].take().expect("post-order");
                    parallel(va, vb)
                }
            };
            values[id.index()] = Some(v);
        }
        values[self.root.index()].take().expect("root evaluated")
    }

    /// Renders the tree as an S-expression, e.g. `(S e0 (P e1 e2))`.
    /// Iterative (via [`SpTree::fold`]), so deep trees are safe.
    pub fn to_sexpr(&self) -> String {
        self.fold(
            |e| format!("{e}"),
            |a, b| format!("(S {a} {b})"),
            |a, b| format!("(P {a} {b})"),
        )
    }
}

/// Attempts to decompose the DAG `g` (which must be acyclic, with the
/// given source and sink) as a two-terminal series-parallel graph.
///
/// Returns the decomposition tree whose leaves are edge ids of `g`, or
/// `None` if `g` is not TTSP (or not a DAG / not two-terminal).
pub fn decompose<N, E>(
    g: &Dag<N, E>,
    source: crate::NodeId,
    sink: crate::NodeId,
) -> Option<SpTree> {
    if source == sink || g.edge_count() == 0 || !is_acyclic(g) {
        return None;
    }
    // Live super-edges: (src, dst, partial tree). Indexed by slot; dead
    // slots are None.
    struct Super {
        src: u32,
        dst: u32,
        tree: SpTree,
    }
    let mut supers: Vec<Option<Super>> = g
        .edge_refs()
        .map(|e| {
            Some(Super {
                src: e.src.0,
                dst: e.dst.0,
                tree: SpTree::leaf(e.id),
            })
        })
        .collect();

    let n = g.node_count();
    // Incident live super-edge ids per vertex.
    let mut out_inc: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut in_inc: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, s) in supers.iter().enumerate() {
        let s = s.as_ref().unwrap();
        out_inc[s.src as usize].push(i);
        in_inc[s.dst as usize].push(i);
    }

    let compact = |list: &mut Vec<usize>, supers: &[Option<Super>], vertex: u32, outgoing: bool| {
        list.retain(|&i| {
            supers[i].as_ref().is_some_and(|s| {
                if outgoing {
                    s.src == vertex
                } else {
                    s.dst == vertex
                }
            })
        });
    };

    let mut live_edges = supers.len();
    loop {
        let mut changed = false;

        // Parallel pass: bucket live edges by endpoints and merge groups.
        let mut buckets: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
        for (i, s) in supers.iter().enumerate() {
            if let Some(s) = s {
                buckets.entry((s.src, s.dst)).or_default().push(i);
            }
        }
        for ((src, dst), group) in buckets {
            if group.len() < 2 {
                continue;
            }
            changed = true;
            let mut acc = supers[group[0]].take().unwrap().tree;
            for &i in &group[1..] {
                acc = acc.parallel(supers[i].take().unwrap().tree);
                live_edges -= 1;
            }
            let slot = group[0];
            supers[slot] = Some(Super {
                src,
                dst,
                tree: acc,
            });
            // Incidence lists still reference dead slots; they are
            // compacted lazily below.
        }

        // Series pass.
        for v in 0..n as u32 {
            if v == source.0 || v == sink.0 {
                continue;
            }
            compact(&mut in_inc[v as usize], &supers, v, false);
            compact(&mut out_inc[v as usize], &supers, v, true);
            if in_inc[v as usize].len() == 1 && out_inc[v as usize].len() == 1 {
                let ein = in_inc[v as usize][0];
                let eout = out_inc[v as usize][0];
                if ein == eout {
                    continue; // degenerate; cannot happen in a DAG
                }
                let a = supers[ein].take().unwrap();
                let b = supers[eout].take().unwrap();
                debug_assert_eq!(a.dst, v);
                debug_assert_eq!(b.src, v);
                let merged = Super {
                    src: a.src,
                    dst: b.dst,
                    tree: a.tree.series(b.tree),
                };
                let dst = merged.dst;
                supers[ein] = Some(merged);
                live_edges -= 1;
                // `ein` keeps its source, so out_inc[src] already lists it;
                // only the (new) destination list needs the entry. The dst
                // of a super-edge only ever advances to vertices that are
                // then spliced out, so this cannot create duplicates.
                in_inc[dst as usize].push(ein);
                in_inc[v as usize].clear();
                out_inc[v as usize].clear();
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }

    if live_edges != 1 {
        return None;
    }
    let last = supers.into_iter().flatten().next()?;
    if last.src == source.0 && last.dst == sink.0 {
        Some(last.tree)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Dag, NodeId};

    fn two_node() -> (Dag<(), ()>, NodeId, NodeId) {
        let mut g = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        (g, s, t)
    }

    #[test]
    fn single_edge_is_sp() {
        let (mut g, s, t) = two_node();
        let e = g.add_edge(s, t, ()).unwrap();
        let tree = decompose(&g, s, t).unwrap();
        assert_eq!(tree.kind(tree.root()), SpKind::Leaf(e));
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn parallel_edges_are_sp() {
        let (mut g, s, t) = two_node();
        g.add_parallel_edges(s, t, (), 3).unwrap();
        let tree = decompose(&g, s, t).unwrap();
        assert_eq!(tree.leaf_count(), 3);
        assert!(tree.to_sexpr().starts_with("(P"));
    }

    #[test]
    fn chain_is_sp() {
        let mut g: Dag<(), ()> = Dag::new();
        let nodes: Vec<NodeId> = (0..5).map(|_| g.add_node(())).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], ()).unwrap();
        }
        let tree = decompose(&g, nodes[0], nodes[4]).unwrap();
        assert_eq!(tree.leaf_count(), 4);
        assert!(tree.to_sexpr().contains("(S"));
        assert!(!tree.to_sexpr().contains("(P"));
    }

    #[test]
    fn diamond_is_sp() {
        let mut g: Dag<(), ()> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, ()).unwrap();
        g.add_edge(a, t, ()).unwrap();
        g.add_edge(s, b, ()).unwrap();
        g.add_edge(b, t, ()).unwrap();
        let tree = decompose(&g, s, t).unwrap();
        assert_eq!(tree.leaf_count(), 4);
        // Two series chains composed in parallel.
        let sexpr = tree.to_sexpr();
        assert!(sexpr.starts_with("(P"), "{sexpr}");
    }

    #[test]
    fn wheatstone_bridge_is_not_sp() {
        // The classic non-SP witness: s->a, s->b, a->b, a->t, b->t.
        let mut g: Dag<(), ()> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, ()).unwrap();
        g.add_edge(s, b, ()).unwrap();
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(a, t, ()).unwrap();
        g.add_edge(b, t, ()).unwrap();
        assert!(decompose(&g, s, t).is_none());
    }

    #[test]
    fn nested_composition() {
        // s -> m (two parallel chains), m -> t: P then S at the top.
        let mut g: Dag<(), ()> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let m = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, ()).unwrap();
        g.add_edge(a, m, ()).unwrap();
        g.add_edge(s, b, ()).unwrap();
        g.add_edge(b, m, ()).unwrap();
        g.add_edge(m, t, ()).unwrap();
        let tree = decompose(&g, s, t).unwrap();
        assert_eq!(tree.leaf_count(), 5);
    }

    #[test]
    fn fold_computes_longest_path() {
        // Longest path via fold: leaf=weight, series=+, parallel=max.
        let mut g: Dag<(), u64> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, 3).unwrap();
        g.add_edge(a, t, 4).unwrap();
        g.add_edge(s, t, 5).unwrap();
        let tree = decompose(&g, s, t).unwrap();
        let longest = tree.fold(|e| *g.edge(e), |x, y| x + y, |x, y| x.max(y));
        assert_eq!(longest, 7);
    }

    #[test]
    fn manual_builders_match_sexpr() {
        let t = SpTree::leaf(EdgeId(0))
            .series(SpTree::leaf(EdgeId(1)))
            .parallel(SpTree::leaf(EdgeId(2)));
        assert_eq!(t.to_sexpr(), "(P (S e0 e1) e2)");
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.post_order().len(), 5);
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        let mut g: Dag<(), ()> = Dag::new();
        let n = 50_000;
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], ()).unwrap();
        }
        let tree = decompose(&g, nodes[0], nodes[n - 1]).unwrap();
        assert_eq!(tree.leaf_count(), n - 1);
        // post_order and fold are iterative.
        let total = tree.fold(|_| 1u64, |a, b| a + b, |a, b| a + b);
        assert_eq!(total, (n - 1) as u64);
    }

    #[test]
    fn cyclic_input_rejected() {
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(b, c, ()).unwrap();
        g.add_edge(c, b, ()).unwrap();
        assert!(decompose(&g, a, c).is_none());
    }

    #[test]
    fn disconnected_extra_component_rejected() {
        let (mut g, s, t) = two_node();
        g.add_edge(s, t, ()).unwrap();
        let x = g.add_node(());
        let y = g.add_node(());
        g.add_edge(x, y, ()).unwrap();
        assert!(decompose(&g, s, t).is_none());
    }
}
