//! Appendix A (Figures 17–18): reduction from **numerical
//! 3-dimensional matching** via bipartite matcher gadgets.
//!
//! Given `A, B, C` of `n` positive integers each with
//! `Σ(A∪B∪C) = nT`, decide whether they partition into `n` triples
//! `(a, b, c)` of sum exactly `T`. The reduced DAG routes `n` units of
//! resource through each of `n` parallel lanes:
//!
//! ```text
//! s ──⟨n, a_i⟩──► [bipartite matcher] ──⟨n, b_j⟩──► [matcher] ──⟨n, c_k⟩──► t
//! ```
//!
//! A **bipartite matcher** (Figure 17) forces a perfect matching
//! between its `n` inputs and `n` outputs: input `x_i` fans a unit to
//! each `y^j_i`; exactly one `y^j_i` per row forwards its unit to `y_i`
//! (demanded by `(y_i, z_i) = {⟨0,∞⟩,⟨1,0⟩}`), which leaves that
//! column's `(y^j_i, z'_j) = {⟨0,M⟩,⟨1,0⟩}` uncovered — stamping
//! `EST(x_i) + M` onto output `z_j` — while the other `n−1` rows'
//! units cover `z'_j`'s demand `(z'_j, z_j) = {⟨0,∞⟩,⟨n−1,0⟩}`.
//!
//! The sink's earliest start is `2M + max_matched-triple(a + b + c)`;
//! with budget `n²` the target `2M + T` is reachable **iff** the
//! numerical 3D matching exists (Lemma A.1).

use rtt_core::instance::{Activity, ArcInstance};
use rtt_core::{Duration, Resource, Time, INF};
use rtt_dag::{Dag, NodeId};

/// A numerical 3-dimensional matching instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Numerical3dm {
    /// First coordinate values.
    pub a: Vec<u64>,
    /// Second coordinate values.
    pub b: Vec<u64>,
    /// Third coordinate values.
    pub c: Vec<u64>,
}

impl Numerical3dm {
    /// New instance; all three lists must have the same length.
    pub fn new(a: Vec<u64>, b: Vec<u64>, c: Vec<u64>) -> Self {
        assert_eq!(a.len(), b.len());
        assert_eq!(b.len(), c.len());
        assert!(!a.is_empty());
        Numerical3dm { a, b, c }
    }

    /// Number of triples `n`.
    pub fn n(&self) -> usize {
        self.a.len()
    }

    /// The per-triple target `T` if the totals divide evenly.
    pub fn triple_target(&self) -> Option<u64> {
        let total: u64 = self.a.iter().chain(&self.b).chain(&self.c).sum();
        total
            .is_multiple_of(self.n() as u64)
            .then(|| total / self.n() as u64)
    }

    /// Brute-force: permutations `σ, τ` with
    /// `a_i + b_σ(i) + c_τ(i) = T` for all `i` (n ≤ 6).
    pub fn solve(&self) -> Option<(Vec<usize>, Vec<usize>)> {
        let t = self.triple_target()?;
        let n = self.n();
        assert!(n <= 6, "brute force limited to n ≤ 6");
        let mut sigma: Vec<usize> = (0..n).collect();
        let mut tau: Vec<usize> = (0..n).collect();
        // iterate all permutation pairs via Heap's-style recursion
        fn perms(v: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
            if k == v.len() {
                out.push(v.clone());
                return;
            }
            for i in k..v.len() {
                v.swap(k, i);
                perms(v, k + 1, out);
                v.swap(k, i);
            }
        }
        let mut all_sigma = Vec::new();
        perms(&mut sigma, 0, &mut all_sigma);
        let mut all_tau = Vec::new();
        perms(&mut tau, 0, &mut all_tau);
        for sg in &all_sigma {
            for tu in &all_tau {
                if (0..n).all(|i| self.a[i] + self.b[sg[i]] + self.c[tu[i]] == t) {
                    return Some((sg.clone(), tu.clone()));
                }
            }
        }
        None
    }
}

/// Handles into one bipartite matcher gadget.
#[derive(Debug, Clone)]
pub struct Matcher {
    /// Input vertices `x_i`.
    pub inputs: Vec<NodeId>,
    /// Output vertices `z_j`.
    pub outputs: Vec<NodeId>,
}

/// Builds a bipartite matcher between `inputs` and fresh outputs.
/// `m_big` is the timing constant `M`.
fn build_matcher(g: &mut Dag<(), Activity>, inputs: &[NodeId], m_big: Time) -> Matcher {
    let n = inputs.len();
    // y^j_i grid, y_i row collectors, z'_j column collectors, z_j outputs
    let y_grid: Vec<Vec<NodeId>> = (0..n)
        .map(|_| (0..n).map(|_| g.add_node(())).collect())
        .collect();
    let y_row: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    let z_col: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    let z_out: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    for i in 0..n {
        for j in 0..n {
            // one unit per grid cell
            g.add_edge(
                inputs[i],
                y_grid[i][j],
                Activity::new(Duration::two_point(INF, 1, 0)),
            )
            .unwrap();
            // forward to the row collector (the "matched" route)
            g.add_edge(y_grid[i][j], y_row[i], Activity::dummy())
                .unwrap();
            // or cover the column demand; skipping costs M
            g.add_edge(
                y_grid[i][j],
                z_col[j],
                Activity::new(Duration::two_point(m_big, 1, 0)),
            )
            .unwrap();
        }
    }
    for i in 0..n {
        // the row collector's unit must reach the output row-wise
        g.add_edge(
            y_row[i],
            z_out[i],
            Activity::new(Duration::two_point(INF, 1, 0)),
        )
        .unwrap();
    }
    for j in 0..n {
        // column collectors demand n−1 units
        let need = (n - 1) as Resource;
        let act = if need == 0 {
            Activity::dummy()
        } else {
            Activity::new(Duration::two_point(INF, need, 0))
        };
        g.add_edge(z_col[j], z_out[j], act).unwrap();
    }
    Matcher {
        inputs: inputs.to_vec(),
        outputs: z_out,
    }
}

/// The Appendix A reduction output.
#[derive(Debug, Clone)]
pub struct Matching3dReduction {
    /// The reduced instance.
    pub arc: ArcInstance,
    /// Budget `n²`.
    pub budget: Resource,
    /// Makespan target `2M + T`.
    pub target: Time,
    /// The timing constant `M`.
    pub m_big: Time,
}

/// Builds the reduction; `None` if the totals do not divide (trivially
/// unsolvable — no DAG needed).
pub fn reduce(inst: &Numerical3dm) -> Option<Matching3dReduction> {
    let t_val = inst.triple_target()?;
    let n = inst.n();
    let m_big: Time = inst.a.iter().max().unwrap()
        + inst.b.iter().max().unwrap()
        + inst.c.iter().max().unwrap()
        + 1;
    let mut g: Dag<(), Activity> = Dag::new();
    let s = g.add_node(());

    // a-edges feed matcher 1 inputs
    let a_nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    for (i, &an) in a_nodes.iter().enumerate() {
        g.add_edge(
            s,
            an,
            Activity::new(Duration::two_point(INF, n as Resource, inst.a[i])),
        )
        .unwrap();
    }
    let m1 = build_matcher(&mut g, &a_nodes, m_big);

    // b-edges between the matchers
    let b_nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    for (j, &bn) in b_nodes.iter().enumerate() {
        g.add_edge(
            m1.outputs[j],
            bn,
            Activity::new(Duration::two_point(INF, n as Resource, inst.b[j])),
        )
        .unwrap();
    }
    let m2 = build_matcher(&mut g, &b_nodes, m_big);

    // c-edges to the sink
    let t_node = g.add_node(());
    for (k, &out) in m2.outputs.iter().enumerate() {
        g.add_edge(
            out,
            t_node,
            Activity::new(Duration::two_point(INF, n as Resource, inst.c[k])),
        )
        .unwrap();
    }

    let arc = ArcInstance::new(g).expect("valid two-terminal DAG");
    Some(Matching3dReduction {
        arc,
        budget: (n * n) as Resource,
        target: 2 * m_big + t_val,
        m_big,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_core::exact::decide_feasible;
    use rtt_core::solution::validate;

    #[test]
    fn brute_force_solver() {
        let yes = Numerical3dm::new(vec![1, 2], vec![3, 5], vec![6, 3]);
        // T = (3 + 8 + 9)/2 = 10: (1,3,6)? 1+3+6=10 ✓, (2,5,3)=10 ✓
        assert!(yes.solve().is_some());
        let no = Numerical3dm::new(vec![1, 1], vec![2, 2], vec![2, 6]);
        // total = 14, T = 7: triples need 1+2+4 — no: sums are 1+2+{2,6}:
        // 5, 9 — never 7.
        assert!(no.solve().is_none());
    }

    #[test]
    fn yes_instance_reaches_2m_plus_t() {
        let inst = Numerical3dm::new(vec![1, 2], vec![3, 5], vec![6, 3]);
        let red = reduce(&inst).unwrap();
        assert_eq!(red.budget, 4);
        let sol = decide_feasible(&red.arc, red.budget, red.target)
            .expect("matching exists ⇒ target reachable");
        validate(&red.arc, &sol).unwrap();
    }

    #[test]
    fn no_instance_misses_target() {
        let inst = Numerical3dm::new(vec![1, 1], vec![2, 2], vec![2, 6]);
        let red = reduce(&inst).unwrap();
        assert!(
            decide_feasible(&red.arc, red.budget, red.target).is_none(),
            "no matching ⇒ makespan > 2M + T"
        );
        // it only misses by the triple imbalance, not by M
        assert!(decide_feasible(&red.arc, red.budget, red.target + 2).is_some());
    }

    #[test]
    fn n1_trivial_lane() {
        let inst = Numerical3dm::new(vec![4], vec![5], vec![6]);
        let red = reduce(&inst).unwrap();
        assert_eq!(red.target, 2 * 16 + 15);
        let sol = decide_feasible(&red.arc, 1, red.target).unwrap();
        validate(&red.arc, &sol).unwrap();
    }

    #[test]
    fn indivisible_total_rejected_early() {
        let inst = Numerical3dm::new(vec![1, 2], vec![3, 4], vec![5, 7]);
        // total 22, n = 2 -> T = 11 OK; make an indivisible one:
        let odd = Numerical3dm::new(vec![1, 2], vec![3, 4], vec![5, 6]);
        // total 21, 21/2 not integral
        assert!(odd.triple_target().is_none());
        assert!(reduce(&odd).is_none());
        assert!(reduce(&inst).is_some());
    }

    #[test]
    fn matcher_permutation_structure() {
        // with budget n² and the target, the solution's uncovered
        // M-edges form a permutation (one per row and column of each
        // matcher): check via the witness flows of a yes-instance.
        let inst = Numerical3dm::new(vec![1, 2], vec![3, 5], vec![6, 3]);
        let red = reduce(&inst).unwrap();
        let sol = decide_feasible(&red.arc, red.budget, red.target).unwrap();
        // count M-edges (t0 == m_big) with zero flow: must be exactly
        // n per matcher = 2n total
        let d = red.arc.dag();
        let uncovered_m: usize = d
            .edge_ids()
            .filter(|&e| {
                let dur = &d.edge(e).duration;
                dur.base_time() == red.m_big && sol.arc_flows[e.index()] == 0
            })
            .count();
        assert_eq!(uncovered_m, 2 * 2);
    }
}
