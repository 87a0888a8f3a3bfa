//! Physical reducer expansion (Figures 2 and 5).
//!
//! A reducer is not only a duration function: it is a concrete rewrite of
//! the race DAG. Putting a recursive binary reducer of height `h` on top
//! of node `v` replaces `v`'s `n` incoming updates by `2^h` leaf cells
//! (each receiving `≈ n/2^h` updates), a binary merge structure, and a
//! final update of `v`. This module performs that rewrite so the paper's
//! analytic formulas (Eq. 3) can be validated against the *longest path
//! of an actual DAG* — exactly the Figure 4 → Figure 5 step where
//! makespan 11 drops to 10.
//!
//! Two constructions are provided:
//!
//! * [`ReducerVariant::Sibling`] — the space-optimal version from §1
//!   ("if a node completes before its sibling it can become its own
//!   parent"): `2^h` cells, each pairwise merge costs one update, total
//!   path contribution `⌈n/2^h⌉ + h + 1` — matching Eq. 3 exactly.
//! * [`ReducerVariant::Tree`] — the naive full binary tree of Figure 2
//!   (left): `2^(h+1) − 2` cells, every internal node receives two
//!   updates, path contribution `⌈n/2^h⌉ + 2h`. Kept as an ablation
//!   baseline for the design choice the paper makes in §1.
//!
//! One function, [`add_reducer_cells`], builds the cells of every
//! Figure 2 reducer in the workspace: those of [`expand_reducers`]
//! here, the recursive-binary gadget of the engine's Observation 1.1
//! certification, and `rtt_sim`'s reducer replay. Their time is
//! written once too, in [`reducer_time`]; the recursive-binary
//! duration family evaluates Eq. 3 through it.

use crate::{ceil_div, Resource, Time};
use rtt_dag::{Dag, NodeId};

/// Which physical reducer construction to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducerVariant {
    /// Space-optimal sibling-merge reducer: `2^h` cells, `⌈n/2^h⌉ + h + 1`.
    Sibling,
    /// Full binary tree reducer: `2^(h+1) − 2` cells, `⌈n/2^h⌉ + 2h`.
    Tree,
}

/// Role of a node in an expanded DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A node of the original DAG.
    Original,
    /// A reducer leaf cell absorbing a share of the original updates.
    Leaf,
    /// A merge step (Sibling: one update; Tree: two updates).
    Merge,
}

/// Node payload of an expanded DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpNode {
    /// The original node this one belongs to (leaves/merges point to the
    /// node whose reducer created them).
    pub origin: NodeId,
    /// Structural role.
    pub role: Role,
    /// Explicit work (number of updates this cell applies).
    pub work: Time,
}

/// Result of [`expand_reducers`].
#[derive(Debug, Clone)]
pub struct Expanded {
    /// The rewritten DAG with explicit per-node work.
    pub dag: Dag<ExpNode, ()>,
    /// Extra space consumed (Sibling: `Σ 2^h`; Tree: `Σ 2^(h+1) − 2`).
    pub extra_space: Resource,
}

impl Expanded {
    /// Makespan of the expanded DAG (longest path over node works).
    pub fn makespan(&self) -> Time {
        rtt_dag::longest_path_nodes(&self.dag, |v| self.dag.node(v).work)
            .expect("expansion preserves acyclicity")
            .weight
    }
}

/// Expands reducers on a DAG whose node works equal their in-degrees
/// (the race-DAG convention of §1: `w_x = d_in(x)`).
///
/// `heights[v] = h` puts a height-`h` reducer on `v` (`0` = none).
/// Original node ids are preserved (node `i` of the input is node `i` of
/// the output); reducer cells are appended after them.
///
/// # Panics
/// If `heights.len() != g.node_count()`, or a reducer is requested on a
/// node with in-degree 0 (there is nothing to reduce).
pub fn expand_reducers<N, E>(g: &Dag<N, E>, heights: &[u32], variant: ReducerVariant) -> Expanded {
    assert_eq!(
        heights.len(),
        g.node_count(),
        "one height per node required"
    );
    let mut out: Dag<ExpNode, ()> = Dag::with_capacity(g.node_count(), g.edge_count());
    // 1. clone original nodes, with work fixed up later
    for v in g.node_ids() {
        let h = heights[v.index()];
        let work = if h == 0 {
            g.in_degree(v) as Time
        } else {
            assert!(
                g.in_degree(v) > 0,
                "cannot put a reducer on {v}: in-degree 0"
            );
            // v receives the final merged value: one update (Sibling) or
            // the two child updates (Tree).
            match variant {
                ReducerVariant::Sibling => 1,
                ReducerVariant::Tree => 2,
            }
        };
        out.add_node(ExpNode {
            origin: v,
            role: Role::Original,
            work,
        });
    }

    let mut extra_space: Resource = 0;
    // 2. per expanded node: build cells and record leaf targets
    // leaf_targets[v] = round-robin list of entry nodes for v's in-edges
    let mut leaf_targets: Vec<Option<Vec<NodeId>>> = vec![None; g.node_count()];
    for v in g.node_ids() {
        let h = heights[v.index()];
        if h == 0 {
            continue;
        }
        let n = g.in_degree(v) as Time;
        let cells = add_reducer_cells(&mut out, n, h, variant, |role, work| ExpNode {
            origin: v,
            role,
            work,
        });
        for &c in &cells.survivors {
            out.add_edge(c, v, ()).expect("fresh nodes");
        }
        extra_space += match variant {
            ReducerVariant::Sibling => 1u64 << h,
            ReducerVariant::Tree => (1u64 << (h + 1)) - 2,
        };
        leaf_targets[v.index()] = Some(cells.leaves);
    }

    // 3. copy original edges, redirecting into leaves where expanded
    let mut next_leaf = vec![0usize; g.node_count()];
    for e in g.edge_refs() {
        let dst = match &leaf_targets[e.dst.index()] {
            None => e.dst,
            Some(leaves) => {
                let i = next_leaf[e.dst.index()];
                next_leaf[e.dst.index()] = i + 1;
                leaves[i % leaves.len()]
            }
        };
        out.add_edge(e.src, dst, ()).expect("ids preserved");
    }

    Expanded {
        dag: out,
        extra_space,
    }
}

/// The cells [`add_reducer_cells`] added for one reducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReducerCells {
    /// The `2^h` leaves; update `j` belongs to leaf `j mod 2^h`.
    pub leaves: Vec<NodeId>,
    /// The cells the shared variable absorbs: one survivor (Sibling)
    /// or the root's two children (Tree).
    pub survivors: Vec<NodeId>,
}

/// Adds the cells of a height-`height` reducer applying `n` updates to
/// `g` (Figure 2 without the shared variable they feed);
/// `cell(role, work)` makes each payload. The `2^h` leaves come first,
/// leaf `i` with its round-robin share `⌊n/2^h⌋ + [i < n mod 2^h]` of
/// the updates; then pairwise merges, level by level, each with an arc
/// from both children: one update per merge down to one survivor
/// (Sibling), two per merge down to two (Tree). The caller connects the
/// survivors to the shared variable, which applies the last update
/// itself. Cells are always added in this order, so ids numbered by
/// insertion are stable.
pub fn add_reducer_cells<N>(
    g: &mut Dag<N, ()>,
    n: Time,
    height: u32,
    variant: ReducerVariant,
    mut cell: impl FnMut(Role, Time) -> N,
) -> ReducerCells {
    let l = 1u64 << height;
    let leaves: Vec<NodeId> = (0..l)
        .map(|i| g.add_node(cell(Role::Leaf, n / l + u64::from(i < n % l))))
        .collect();
    let (merge_work, survivors) = match variant {
        ReducerVariant::Sibling => (1, 1),
        ReducerVariant::Tree => (2, 2),
    };
    let mut level = leaves.clone();
    while level.len() > survivors {
        let mut next = Vec::with_capacity(level.len() / 2);
        for pair in level.chunks(2) {
            let m = g.add_node(cell(Role::Merge, merge_work));
            for &c in pair {
                g.add_edge(c, m, ()).expect("fresh cells");
            }
            next.push(m);
        }
        level = next;
    }
    ReducerCells {
        leaves,
        survivors: level,
    }
}

/// Analytic completion time of a reducer applying `n` updates:
/// Sibling = `⌈n/2^h⌉ + h + 1` (Eq. 3, written only here), Tree =
/// `⌈n/2^h⌉ + 2h`. Height 0 = plain serialization = `n`.
pub fn reducer_time(n: Time, height: u32, variant: ReducerVariant) -> Time {
    if height == 0 {
        return n;
    }
    let leaves = 1u64 << height;
    match variant {
        ReducerVariant::Sibling => ceil_div(n, leaves) + Time::from(height) + 1,
        ReducerVariant::Tree => ceil_div(n, leaves) + 2 * Time::from(height),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 4 DAG (makespan 11, node work = in-degree).
    fn figure4() -> (Dag<&'static str, ()>, [NodeId; 6]) {
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
    fn no_heights_is_identity_makespan() {
        let (g, _) = figure4();
        let exp = expand_reducers(&g, &[0; 6], ReducerVariant::Sibling);
        assert_eq!(exp.makespan(), 11);
        assert_eq!(exp.extra_space, 0);
        assert_eq!(exp.dag.node_count(), 6);
        // s→a, s→b, a→b, a→c ×3, b→c ×3, c→d, d→t
        assert_eq!(exp.dag.edge_count(), 11);
    }

    #[test]
    fn figure5_reducer_on_c_drops_makespan_to_10() {
        let (g, [_, _, _, c, _, _]) = figure4();
        let mut heights = [0u32; 6];
        heights[c.index()] = 1;
        let exp = expand_reducers(&g, &heights, ReducerVariant::Sibling);
        assert_eq!(exp.extra_space, 2, "height-1 reducer uses 2 units");
        assert_eq!(exp.makespan(), 10, "Figure 5: makespan drops 11 -> 10");
    }

    #[test]
    fn sibling_matches_eq3_for_all_heights() {
        // A star: one node receiving n updates from n sources, then a sink.
        for n in [8u64, 100, 1000] {
            for h in 0..=6u32 {
                let mut g: Dag<(), ()> = Dag::new();
                let hub = g.add_node(());
                let t = g.add_node(());
                g.add_edge(hub, t, ()).unwrap();
                let mut srcs = Vec::new();
                for _ in 0..n {
                    let s = g.add_node(());
                    g.add_edge(s, hub, ()).unwrap();
                    srcs.push(s);
                }
                let mut heights = vec![0u32; g.node_count()];
                heights[hub.index()] = h;
                let exp = expand_reducers(&g, &heights, ReducerVariant::Sibling);
                // +1 for the sink node's own single update
                let expected = reducer_time(n, h, ReducerVariant::Sibling) + 1;
                assert_eq!(exp.makespan(), expected, "n={n} h={h}: expansion vs Eq.3");
                // Eq. 3 caps the height at k = ⌊log₂ n − log₂ log₂ e⌋;
                // taller physical reducers are legal but only slower.
                if h <= crate::recursive_binary_max_height(n) {
                    assert_eq!(
                        reducer_time(n, h, ReducerVariant::Sibling),
                        crate::raw_recursive_binary_time(n, h).min(n),
                        "n={n} h={h}: reducer_time vs Eq. 3 below the height cap"
                    );
                }
            }
        }
    }

    #[test]
    fn tree_variant_costs_more_time_and_space() {
        let n = 1024u64;
        let h = 4u32;
        assert_eq!(reducer_time(n, h, ReducerVariant::Sibling), 64 + 5);
        assert_eq!(reducer_time(n, h, ReducerVariant::Tree), 64 + 8);
        let mut g: Dag<(), ()> = Dag::new();
        let hub = g.add_node(());
        for _ in 0..n {
            let s = g.add_node(());
            g.add_edge(s, hub, ()).unwrap();
        }
        let mut heights = vec![0u32; g.node_count()];
        heights[hub.index()] = h;
        let sib = expand_reducers(&g, &heights, ReducerVariant::Sibling);
        let tree = expand_reducers(&g, &heights, ReducerVariant::Tree);
        assert_eq!(sib.extra_space, 16);
        assert_eq!(tree.extra_space, 30);
        assert_eq!(sib.makespan(), 64 + 5);
        assert_eq!(tree.makespan(), 64 + 8);
    }

    #[test]
    fn uneven_distribution_max_leaf_load() {
        // 5 updates over 4 leaves: loads 2,1,1,1 -> ⌈5/4⌉ = 2.
        let mut g: Dag<(), ()> = Dag::new();
        let hub = g.add_node(());
        for _ in 0..5 {
            let s = g.add_node(());
            g.add_edge(s, hub, ()).unwrap();
        }
        let mut heights = vec![0u32; g.node_count()];
        heights[hub.index()] = 2;
        let exp = expand_reducers(&g, &heights, ReducerVariant::Sibling);
        let leaf_works: Vec<u64> = exp
            .dag
            .node_ids()
            .filter(|&v| exp.dag.node(v).role == Role::Leaf)
            .map(|v| exp.dag.node(v).work)
            .collect();
        assert_eq!(leaf_works.iter().sum::<u64>(), 5);
        assert_eq!(*leaf_works.iter().max().unwrap(), 2);
        assert_eq!(exp.makespan(), 2 + 2 + 1); // ⌈5/4⌉ + h + 1
    }

    #[test]
    #[should_panic(expected = "in-degree 0")]
    fn reducer_on_source_rejected() {
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        expand_reducers(&g, &[1, 0], ReducerVariant::Sibling);
    }

    #[test]
    fn expansion_preserves_out_side() {
        let (g, [_, _, _, c, d, _]) = figure4();
        let mut heights = [0u32; 6];
        heights[c.index()] = 2;
        let exp = expand_reducers(&g, &heights, ReducerVariant::Sibling);
        // c still feeds d; d's work unchanged.
        assert!(exp.dag.successors(c).any(|w| w == d));
        assert_eq!(exp.dag.node(d).work, 1);
    }
}
