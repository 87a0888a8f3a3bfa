//! §4.2 (Figures 12–14): hardness with recursive-binary and k-way
//! splitting duration functions.
//!
//! Theorem 4.1 uses bespoke `{⟨0,1⟩,⟨1,0⟩}` steps; §4.2 shows the
//! problem stays strongly NP-hard when every improvable duration must
//! come from an *actual reducer*, i.e. Eq. 2/3. The two properties that
//! make the gadgets work:
//!
//! * **1 unit is useless** (`t(1) = t(0)` in both families) — this
//!   replaces the atomicity of the two-tuple edges: allocations are
//!   effectively "2 units or nothing";
//! * with 2 units a base-`d` job drops from `d` to `⌈d/2⌉ + 2` — a gap
//!   of `d/2 − 2` that the wiring turns into a makespan signal.
//!
//! This module reconstructs the §4.2 reduction on the same topology as
//! our Theorem 4.1 gadgets, with every unit edge replaced by a base-8
//! splitting job (covered: 6, uncovered: 8), literal taps delayed by
//! constant chains (the paper's "chains of 4x nodes"), and constant
//! padding so the makespan target discriminates exactly (see DESIGN.md
//! for the constant calibration). Budget `2n + 4m`, target 26.
//!
//! The [`composite_node`] helper is the literal Figure 12 gadget:
//! `k + 2` cells whose work totals `k + 2` serially and `k/2 + 4` with
//! two units of resource under either splitting family.

use crate::sat::{Formula, Lit};
use rtt_core::instance::{Activity, ArcInstance};
use rtt_core::{Duration, Resource, Time};
use rtt_dag::{Dag, NodeId};

/// Which splitting family to build the gadgets from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitFamily {
    /// Eq. 2 (k-way splitting).
    KWay,
    /// Eq. 3 (recursive binary splitting).
    RecursiveBinary,
}

impl SplitFamily {
    /// The duration function of a base-`d` job in this family.
    pub fn duration(self, d: Time) -> Duration {
        match self {
            SplitFamily::KWay => Duration::kway(d),
            SplitFamily::RecursiveBinary => Duration::recursive_binary(d),
        }
    }
}

/// Base duration of every splitting job in the gadgets.
pub const BASE: Time = 8;
/// Covered duration: `⌈8/2⌉ + 2`.
pub const COVERED: Time = 6;
/// Makespan target of the reduction.
pub const TARGET: Time = 26;

/// The §4.2 reduction output.
#[derive(Debug, Clone)]
pub struct SatSplittingReduction {
    /// The reduced instance (all improvable arcs from one family).
    pub arc: ArcInstance,
    /// Budget `2n + 4m`.
    pub budget: Resource,
    /// Makespan target.
    pub target: Time,
    /// Literal tap nodes per variable: `(true tap, false tap)` — the
    /// ends of the delay chains (`V(5)`, `V(6)` in Figure 13).
    pub taps: Vec<(NodeId, NodeId)>,
    /// Pattern vertices per clause (`C(5..7)` analogues).
    pub patterns: Vec<[NodeId; 3]>,
}

fn split_edge(fam: SplitFamily) -> Activity {
    Activity::new(fam.duration(BASE))
}

/// Builds the reduction from `f` with the chosen family.
pub fn reduce(f: &Formula, fam: SplitFamily) -> SatSplittingReduction {
    let mut g: Dag<(), Activity> = Dag::new();
    let s = g.add_node(());
    let t = g.add_node(());

    // ---- variable gadgets (Figure 13 analogue)
    let mut taps = Vec::with_capacity(f.n_vars);
    for _ in 0..f.n_vars {
        let v1 = g.add_node(());
        let v2 = g.add_node(()); // TRUE branch (composite V(2))
        let v3 = g.add_node(()); // FALSE branch (composite V(3))
        let v5 = g.add_node(()); // true tap (end of delay chain)
        let v6 = g.add_node(()); // false tap
        let v4 = g.add_node(()); // merge
        let v7 = g.add_node(()); // tail 1
        let v8 = g.add_node(()); // tail 2
        g.add_edge(s, v1, Activity::dummy()).unwrap();
        g.add_edge(v1, v2, split_edge(fam)).unwrap();
        g.add_edge(v1, v3, split_edge(fam)).unwrap();
        g.add_edge(v2, v5, Activity::new(Duration::constant(COVERED)))
            .unwrap();
        g.add_edge(v3, v6, Activity::new(Duration::constant(COVERED)))
            .unwrap();
        g.add_edge(v5, v4, Activity::dummy()).unwrap();
        g.add_edge(v6, v4, Activity::dummy()).unwrap();
        g.add_edge(v4, v7, split_edge(fam)).unwrap();
        g.add_edge(v7, v8, split_edge(fam)).unwrap();
        g.add_edge(v8, t, Activity::dummy()).unwrap();
        taps.push((v5, v6));
    }

    let lit_tap = |taps: &[(NodeId, NodeId)], l: Lit| {
        if l.positive {
            taps[l.var].0
        } else {
            taps[l.var].1
        }
    };

    // ---- clause gadgets (Figure 14 analogue)
    let mut patterns = Vec::with_capacity(f.n_clauses());
    for clause in &f.clauses {
        let c1 = g.add_node(());
        let c2 = g.add_node(());
        let c3 = g.add_node(());
        let c4 = g.add_node(());
        g.add_edge(s, c1, Activity::dummy()).unwrap();
        g.add_edge(c1, c2, split_edge(fam)).unwrap();
        g.add_edge(c2, c4, split_edge(fam)).unwrap();
        g.add_edge(c1, c3, split_edge(fam)).unwrap();
        g.add_edge(c3, c4, split_edge(fam)).unwrap();
        let mut pats = [NodeId(0); 3];
        for p in 0..3 {
            let pv = g.add_node(());
            let pe = g.add_node(());
            g.add_edge(c4, pv, Activity::dummy()).unwrap();
            for (r, l) in clause.iter().enumerate() {
                let want = if r == p {
                    *l
                } else {
                    Lit {
                        var: l.var,
                        positive: !l.positive,
                    }
                };
                g.add_edge(lit_tap(&taps, want), pv, Activity::dummy())
                    .unwrap();
            }
            g.add_edge(pv, pe, split_edge(fam)).unwrap();
            g.add_edge(pe, t, Activity::new(Duration::constant(COVERED)))
                .unwrap();
            pats[p] = pv;
        }
        patterns.push(pats);
    }

    let arc = ArcInstance::new(g).expect("valid two-terminal DAG");
    SatSplittingReduction {
        arc,
        budget: (2 * f.n_vars + 4 * f.n_clauses()) as Resource,
        target: TARGET,
        taps,
        patterns,
    }
}

/// The Figure 12 **composite node** of order `k` as an
/// activity-on-node DAG: an entry cell (1 write), `k` middle cells
/// (1 write each, in parallel), and a collector cell (`k` writes).
/// Returns the DAG and the collector's node id.
pub fn composite_node(k: usize) -> (Dag<(), ()>, NodeId) {
    let mut g: Dag<(), ()> = Dag::new();
    let entry0 = g.add_node(()); // external writer
    let v1 = g.add_node(());
    g.add_edge(entry0, v1, ()).unwrap();
    let collector = g.add_node(());
    for _ in 0..k {
        let mid = g.add_node(());
        g.add_edge(v1, mid, ()).unwrap();
        g.add_edge(mid, collector, ()).unwrap();
    }
    (g, collector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_core::exact::decide_feasible;
    use rtt_core::solution::validate;
    use rtt_duration::expand::{expand_reducers, ReducerVariant};

    #[test]
    fn covered_and_uncovered_values() {
        for fam in [SplitFamily::KWay, SplitFamily::RecursiveBinary] {
            let d = fam.duration(BASE);
            assert_eq!(d.time(0), 8, "{fam:?}");
            assert_eq!(d.time(1), 8, "one unit is useless ({fam:?})");
            assert_eq!(d.time(2), COVERED, "{fam:?}");
        }
    }

    #[test]
    fn composite_node_times_match_section_4_2() {
        // "a composite node of order k takes (k+2) units of time...
        //  using 2 units of resource all activities can be completed in
        //  (k/2 + 4) time"
        let k = 8usize;
        let (g, collector) = composite_node(k);
        let base = rtt_dag::longest_path_nodes(&g, |v| g.in_degree(v) as u64)
            .unwrap()
            .weight;
        assert_eq!(base, (k + 2) as u64);
        // height-1 reducer on the collector = 2 units of extra space
        let mut heights = vec![0u32; g.node_count()];
        heights[collector.index()] = 1;
        let exp = expand_reducers(&g, &heights, ReducerVariant::Sibling);
        assert_eq!(exp.extra_space, 2);
        assert_eq!(exp.makespan(), (k / 2 + 4) as u64);
    }

    #[test]
    fn paper_example_equivalence_both_families() {
        let f = Formula::paper_example();
        for fam in [SplitFamily::KWay, SplitFamily::RecursiveBinary] {
            let red = reduce(&f, fam);
            assert_eq!(red.budget, 2 * 3 + 4 * 2);
            let sol = decide_feasible(&red.arc, red.budget, red.target)
                .expect("satisfiable ⇒ target reachable");
            validate(&red.arc, &sol).unwrap();
            assert!(sol.budget_used <= red.budget);
            // short one pair of units -> infeasible
            assert!(decide_feasible(&red.arc, red.budget - 2, red.target).is_none());
        }
    }

    #[test]
    fn unsatisfiable_formula_exceeds_target() {
        // (V1∨V1∨V2) ∧ (V1∨V1∨¬V2) has no 1-in-3 assignment: V1 = T
        // makes two literals true, V1 = F forces V2 = T and V2 = F.
        let f = Formula::new(
            2,
            vec![
                [Lit::pos(0), Lit::pos(0), Lit::pos(1)],
                [Lit::pos(0), Lit::pos(0), Lit::neg(1)],
            ],
        );
        assert!(f.solve_1in3().is_none());
        let red = reduce(&f, SplitFamily::RecursiveBinary);
        assert!(
            decide_feasible(&red.arc, red.budget, red.target).is_none(),
            "Lemma 4.5: unsat ⇒ makespan > target"
        );
    }

    /// The 3-variable, 4-clause unsatisfiable instance: the infeasibility
    /// proof explores an exponential search tree on the full-size §4.2
    /// gadget — run with `cargo test -- --ignored`.
    #[test]
    #[ignore = "heavy: minutes of exponential search"]
    fn unsatisfiable_formula_exceeds_target_heavy() {
        let f = Formula::new(
            3,
            vec![
                [Lit::pos(0), Lit::pos(1), Lit::pos(2)],
                [Lit::neg(0), Lit::neg(1), Lit::pos(2)],
                [Lit::pos(0), Lit::neg(1), Lit::neg(2)],
                [Lit::neg(0), Lit::pos(1), Lit::neg(2)],
            ],
        );
        assert!(f.solve_1in3().is_none());
        let red = reduce(&f, SplitFamily::RecursiveBinary);
        assert!(
            decide_feasible(&red.arc, red.budget, red.target).is_none(),
            "Lemma 4.5: unsat ⇒ makespan > target"
        );
        // but slightly above the target it becomes feasible
        assert!(decide_feasible(&red.arc, red.budget, red.target + 2).is_some());
    }

    #[test]
    fn equivalence_on_exhaustive_one_clause_universe() {
        for f in Formula::enumerate_all(3, 1) {
            let red = reduce(&f, SplitFamily::KWay);
            let sat = f.solve_1in3().is_some();
            let feasible = decide_feasible(&red.arc, red.budget, red.target).is_some();
            assert_eq!(sat, feasible, "Lemma 4.5 equivalence for {f:?}");
        }
    }

    /// The Table 3 analogue: pattern-vertex finish times over all 8
    /// assignments show the same early/late structure (one early iff
    /// exactly one literal is true).
    #[test]
    fn table3_pattern_structure() {
        let f = Formula::new(3, vec![[Lit::pos(0), Lit::pos(1), Lit::pos(2)]]);
        let red = reduce(&f, SplitFamily::RecursiveBinary);
        let d = red.arc.dag();
        for mask in 0..8u32 {
            let assignment = [(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0];
            // route honestly: 2 units per var along the truth branch,
            // 2+2 through the clause diamond (stopping the exit choice).
            let mut flows = vec![0u64; d.edge_count()];
            let route = |path: &[NodeId], amount: u64, flows: &mut Vec<u64>| {
                for w in path.windows(2) {
                    let e = d
                        .out_edges(w[0])
                        .iter()
                        .copied()
                        .find(|&e| d.dst(e) == w[1])
                        .unwrap();
                    flows[e.index()] += amount;
                }
            };
            // variable nodes were added in a fixed order: v1 at 2+8i.
            for (i, &val) in assignment.iter().enumerate() {
                let v1 = NodeId(2 + 8 * i as u32);
                let branch = NodeId(v1.0 + if val { 1 } else { 2 });
                let tapn = NodeId(v1.0 + if val { 3 } else { 4 });
                let v4 = NodeId(v1.0 + 5);
                let v7 = NodeId(v1.0 + 6);
                let v8 = NodeId(v1.0 + 7);
                route(
                    &[
                        red.arc.source(),
                        v1,
                        branch,
                        tapn,
                        v4,
                        v7,
                        v8,
                        red.arc.sink(),
                    ],
                    2,
                    &mut flows,
                );
            }
            let times =
                rtt_dag::paths::event_times(d, |e| red.arc.arc_time(e, flows[e.index()])).unwrap();
            // taps: chosen 12, unchosen 14
            for (i, &val) in assignment.iter().enumerate() {
                let (tt, ft) = red.taps[i];
                let (chosen, unchosen) = if val { (tt, ft) } else { (ft, tt) };
                assert_eq!(times[chosen.index()], 12);
                assert_eq!(times[unchosen.index()], 14);
            }
            // Pattern-vertex tap contribution: pattern p is "early" iff
            // all three of its wanted taps are the chosen (time-12) ones,
            // i.e. iff literal p is the unique true literal. This is the
            // Table 3 structure: one early pattern iff exactly one true.
            let true_count = assignment.iter().filter(|&&b| b).count();
            let early_patterns = (0..3)
                .filter(|&p| {
                    (0..3).all(|r| {
                        // wanted polarity for position r in pattern p is
                        // "true" iff r == p; the tap is early iff the
                        // assignment agrees.
                        (r == p) == assignment[r]
                    })
                })
                .count();
            assert_eq!(
                early_patterns,
                usize::from(true_count == 1),
                "exactly-one-true ⟺ exactly one early pattern ({assignment:?})"
            );
        }
    }
}
