//! Theorem 4.6 (Figures 15–16): weak NP-hardness on DAGs whose
//! underlying undirected graph has bounded treewidth, by reduction from
//! **Partition**.
//!
//! Per item `i` with value `s_i` (total `B = Σ s_i`):
//!
//! * `s → v1_i` with `{⟨0,M⟩, ⟨s_i,0⟩}` — forces `s_i` units into the
//!   item's gadget (`M > B/2` exceeds the makespan target);
//! * `v1_i → v2_i` (top) and `v1_i → v3_i` (bottom) dummies — the units
//!   choose a side;
//! * two horizontal chains thread all items: the **top path** enters
//!   `v2_i` and leaves `v4_i` through the cost edge
//!   `v2_i→v4_i = {⟨0,s_i⟩, ⟨s_i,0⟩}`; the **bottom path** mirrors it
//!   through `v3_i→v5_i`. Sending the units top makes the top cost 0
//!   and leaves `s_i` on the bottom path, and vice versa;
//! * `v4_i, v5_i → v6_i` dummies and the funnel
//!   `v6_i → v0 = {⟨0,M⟩, ⟨s_i,0⟩}` — the units must exit to the sink
//!   right away ("their resources cannot be passed along to nodes
//!   v(2)_j, v(3)_j to the right").
//!
//! The makespan is `max(Σ_top s_i, Σ_bot s_i) ≥ B/2`, with equality iff
//! the items split into two halves of equal sum. The bags
//! `{s, v0} ∪ gadget_i ∪ {v4_{i−1}, v5_{i−1}}` form a path decomposition
//! of width ≤ 9 — constructed and *verified* by
//! [`tree_decomposition`].

use rtt_core::instance::{Activity, ArcInstance};
use rtt_core::{Duration, Resource, Time};
use rtt_dag::treewidth::TreeDecomposition;
use rtt_dag::{Dag, NodeId};

/// A Partition instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionInstance {
    /// The positive item values.
    pub items: Vec<u64>,
}

impl PartitionInstance {
    /// New instance (items must be positive).
    pub fn new(items: Vec<u64>) -> Self {
        assert!(items.iter().all(|&s| s > 0), "items must be positive");
        PartitionInstance { items }
    }

    /// Total value `B`.
    pub fn total(&self) -> u64 {
        self.items.iter().sum()
    }

    /// Brute-force: a subset summing to `B/2`, as a bitmask, if any.
    pub fn solve(&self) -> Option<u64> {
        let b = self.total();
        if !b.is_multiple_of(2) {
            return None;
        }
        let n = self.items.len();
        assert!(n < 30, "brute force limited to < 30 items");
        (0u64..(1 << n)).find(|mask| {
            let sum: u64 = self
                .items
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &s)| s)
                .sum();
            sum * 2 == b
        })
    }
}

/// Node ids of one item gadget.
#[derive(Debug, Clone, Copy)]
pub struct ItemGadget {
    /// Entry (`v1`).
    pub v1: NodeId,
    /// Top in / bottom in (`v2`, `v3`).
    pub v2: NodeId,
    /// Bottom in.
    pub v3: NodeId,
    /// Top out / bottom out (`v4`, `v5`).
    pub v4: NodeId,
    /// Bottom out.
    pub v5: NodeId,
    /// Funnel (`v6`).
    pub v6: NodeId,
}

/// The Theorem 4.6 reduction output.
#[derive(Debug, Clone)]
pub struct PartitionReduction {
    /// The reduced instance.
    pub arc: ArcInstance,
    /// Budget `B` (every unit is forced anyway).
    pub budget: Resource,
    /// Makespan target `B/2`.
    pub target: Time,
    /// Gadget handles.
    pub gadgets: Vec<ItemGadget>,
    /// Source / sink ids.
    pub terminals: (NodeId, NodeId),
}

/// Builds the reduction. Requires an even total (odd totals are
/// trivially "no" instances of Partition; the caller can pre-check).
pub fn reduce(p: &PartitionInstance) -> PartitionReduction {
    let b = p.total();
    let m: Time = b / 2 + b + 1; // M > B/2, comfortably
    let mut g: Dag<(), Activity> = Dag::new();
    let s = g.add_node(());
    let v0 = g.add_node(());

    let mut gadgets: Vec<ItemGadget> = Vec::with_capacity(p.items.len());
    for (i, &si) in p.items.iter().enumerate() {
        let v1 = g.add_node(());
        let v2 = g.add_node(());
        let v3 = g.add_node(());
        let v4 = g.add_node(());
        let v5 = g.add_node(());
        let v6 = g.add_node(());
        g.add_edge(s, v1, Activity::new(Duration::two_point(m, si, 0)))
            .unwrap();
        g.add_edge(v1, v2, Activity::dummy()).unwrap();
        g.add_edge(v1, v3, Activity::dummy()).unwrap();
        g.add_edge(v2, v4, Activity::new(Duration::two_point(si, si, 0)))
            .unwrap();
        g.add_edge(v3, v5, Activity::new(Duration::two_point(si, si, 0)))
            .unwrap();
        g.add_edge(v4, v6, Activity::dummy()).unwrap();
        g.add_edge(v5, v6, Activity::dummy()).unwrap();
        g.add_edge(v6, v0, Activity::new(Duration::two_point(m, si, 0)))
            .unwrap();
        // horizontal chains
        let (prev_top, prev_bot) = if i == 0 {
            (s, s)
        } else {
            (gadgets[i - 1].v4, gadgets[i - 1].v5)
        };
        g.add_edge(prev_top, v2, Activity::dummy()).unwrap();
        g.add_edge(prev_bot, v3, Activity::dummy()).unwrap();
        gadgets.push(ItemGadget {
            v1,
            v2,
            v3,
            v4,
            v5,
            v6,
        });
    }
    // chain ends reach the sink
    if let Some(last) = gadgets.last() {
        g.add_edge(last.v4, v0, Activity::dummy()).unwrap();
        g.add_edge(last.v5, v0, Activity::dummy()).unwrap();
    } else {
        g.add_edge(s, v0, Activity::dummy()).unwrap();
    }

    let arc = ArcInstance::new(g).expect("valid two-terminal DAG");
    PartitionReduction {
        arc,
        budget: b,
        target: b / 2,
        gadgets,
        terminals: (s, v0),
    }
}

/// The explicit Figure 16 path decomposition:
/// `bag_i = {s, v0} ∪ gadget_i ∪ {v4_{i−1}, v5_{i−1}}` (width ≤ 9).
pub fn tree_decomposition(red: &PartitionReduction) -> TreeDecomposition {
    let (s, v0) = red.terminals;
    let mut bags = Vec::with_capacity(red.gadgets.len().max(1));
    if red.gadgets.is_empty() {
        return TreeDecomposition {
            bags: vec![vec![s, v0]],
            tree_edges: vec![],
        };
    }
    for (i, gd) in red.gadgets.iter().enumerate() {
        let mut bag = vec![s, v0, gd.v1, gd.v2, gd.v3, gd.v4, gd.v5, gd.v6];
        if i > 0 {
            bag.push(red.gadgets[i - 1].v4);
            bag.push(red.gadgets[i - 1].v5);
        }
        bags.push(bag);
    }
    let tree_edges = (0..bags.len() - 1).map(|i| (i, i + 1)).collect();
    TreeDecomposition { bags, tree_edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_core::exact::decide_feasible;
    use rtt_core::solution::validate;

    #[test]
    fn yes_instance_hits_half() {
        let p = PartitionInstance::new(vec![3, 1, 2, 2]); // 4+4
        assert!(p.solve().is_some());
        let red = reduce(&p);
        let sol = decide_feasible(&red.arc, red.budget, red.target)
            .expect("partitionable ⇒ makespan B/2");
        validate(&red.arc, &sol).unwrap();
        assert_eq!(sol.makespan, 4);
    }

    #[test]
    fn no_instance_exceeds_half() {
        let p = PartitionInstance::new(vec![3, 3, 1, 1]); // total 8, no 4-4? {3,1} = 4: yes!
        assert!(p.solve().is_some());
        // a genuine no-instance: {5, 1, 1, 1}: total 8, subsets: 5+1+1+1
        // combos give 5,6,7,8,1,2,3 — 4 unreachable.
        let p = PartitionInstance::new(vec![5, 1, 1, 1]);
        assert!(p.solve().is_none());
        let red = reduce(&p);
        assert!(
            decide_feasible(&red.arc, red.budget, red.target).is_none(),
            "no partition ⇒ makespan > B/2"
        );
        // the best achievable is 5 (put the 5 alone on one side)
        assert!(decide_feasible(&red.arc, red.budget, 5).is_some());
    }

    #[test]
    fn odd_total_never_partitions() {
        let p = PartitionInstance::new(vec![2, 2, 1]);
        assert!(p.solve().is_none());
        let red = reduce(&p);
        assert!(decide_feasible(&red.arc, red.budget, red.target).is_none());
    }

    #[test]
    fn exhaustive_small_instances_equivalence() {
        // all multisets from {1,2,3} of size 3
        for a in 1..=3u64 {
            for b in a..=3 {
                for c in b..=3 {
                    let p = PartitionInstance::new(vec![a, b, c]);
                    let red = reduce(&p);
                    let yes = p.solve().is_some();
                    let feasible = decide_feasible(&red.arc, red.budget, red.target).is_some();
                    assert_eq!(yes, feasible, "items {:?}", p.items);
                }
            }
        }
    }

    #[test]
    fn treewidth_at_most_9_and_valid() {
        let p = PartitionInstance::new(vec![3, 1, 2, 2, 4, 4]);
        let red = reduce(&p);
        let td = tree_decomposition(&red);
        let width = td.verify(red.arc.dag()).expect("valid decomposition");
        assert!(width <= 9, "width {width} (paper's version: 15)");
    }

    #[test]
    fn budget_is_forced_exactly() {
        // the gadget needs *all* of B: feasible at B, infeasible at B−1
        // (decide_feasible is a decision procedure — with surplus budget
        // it may return a wasteful witness, so force the boundary)
        let p = PartitionInstance::new(vec![2, 2]);
        let red = reduce(&p);
        let sol = decide_feasible(&red.arc, red.budget, red.target).unwrap();
        validate(&red.arc, &sol).unwrap();
        assert_eq!(sol.budget_used, red.budget, "all of B is forced through");
        assert!(
            decide_feasible(&red.arc, red.budget - 1, red.target).is_none(),
            "B − 1 units cannot cover the M-edges"
        );
    }
}
