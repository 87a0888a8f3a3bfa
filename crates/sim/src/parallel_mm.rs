//! The Parallel-MM motivating workload (Figure 3 and the §1 analysis).
//!
//! `Parallel-MM` multiplies two n×n matrices with the `i`/`j` loops
//! parallel and the `k` loop racing on `Z[i][j]`: every output cell
//! receives `n` updates. Locking each `Z[i][j]` costs `Θ(n)` time even
//! with unbounded processors; a reducer of height `h` on each cell drops
//! the time to `Θ(n/2^h + h)` at `n²·2^h` extra space:
//!
//! * `h = 1` nearly halves the running time using `2n²` extra space;
//! * `h = ⌊log₂ n⌋` reaches `Θ(log n)` using `Θ(n³)` extra space.
//!
//! This module builds the actual race DAG of the kernel, applies the
//! physical reducer expansion of `rtt-duration`, and measures both the
//! longest path *and* the executed finish time — the expansion runs on
//! the shared [`ExecModel`] core (event-heap engine), so the analytic
//! curve is reproduced end to end and checked against the §1 execution
//! in one sweep.

use crate::model::ExecModel;
use rtt_dag::{Dag, NodeId};
use rtt_duration::expand::{expand_reducers, reducer_time, ReducerVariant};
use rtt_duration::Time;

/// The race DAG of Parallel-MM for n×n matrices.
///
/// Structure: a virtual source (the fork of the parallel loops) updates
/// every input cell `X[i][k]` once; output cell `Z[i][j]` receives one
/// update per `k` (routed from `X[i][k]`; the symmetric `Y[k][j]` read
/// joins the same update, so one arc per update keeps `w = d_in`).
/// The `Z` cells are the sinks — the kernel is done when all are final.
pub struct MmRaceDag {
    /// The DAG (one source, `n²` X cells, `n²` Z sinks).
    pub dag: Dag<(), ()>,
    /// The source node.
    pub source: NodeId,
    /// The `Z[i][j]` cells, row-major.
    pub z_cells: Vec<NodeId>,
}

/// Builds the race DAG (use small `n`; the graph has `Θ(n³)` edges).
pub fn race_dag(n: usize) -> MmRaceDag {
    assert!(n >= 1);
    let mut dag: Dag<(), ()> = Dag::with_capacity(1 + 2 * n * n, n * n + n * n * n);
    let source = dag.add_node(());
    let x: Vec<NodeId> = (0..n * n).map(|_| dag.add_node(())).collect();
    for &xc in &x {
        dag.add_edge(source, xc, ()).unwrap();
    }
    let mut z_cells = Vec::with_capacity(n * n);
    for i in 0..n {
        for _j in 0..n {
            let z = dag.add_node(());
            for k in 0..n {
                dag.add_edge(x[i * n + k], z, ()).unwrap();
            }
            z_cells.push(z);
        }
    }
    MmRaceDag {
        dag,
        source,
        z_cells,
    }
}

/// Analytic completion time with per-cell reducers of height `h`
/// (unbounded processors): 1 tick for the X update, then the reducer.
pub fn analytic_time(n: u64, h: u32) -> Time {
    1 + reducer_time(n, h, ReducerVariant::Sibling)
}

/// The reducer expansion of the n×n kernel with height-`h` reducers on
/// every `Z` cell, built once: its longest-path makespan and the
/// executable [`ExecModel`]. The single construction behind
/// [`measured_time`], [`simulated_time`], and the bench harness (the
/// race DAG has Θ(n³) edges — don't build it twice per curve point).
pub fn expansion_model(n: usize, h: u32) -> (Time, ExecModel) {
    let mm = race_dag(n);
    let mut heights = vec![0u32; mm.dag.node_count()];
    for z in &mm.z_cells {
        heights[z.index()] = h;
    }
    let exp = expand_reducers(&mm.dag, &heights, ReducerVariant::Sibling);
    let works: Vec<Time> = exp.dag.node_ids().map(|v| exp.dag.node(v).work).collect();
    (exp.makespan(), ExecModel::from_works(&exp.dag, &works))
}

/// Measured completion time: build the race DAG, physically expand a
/// height-`h` reducer on every `Z` cell, and take the longest path.
pub fn measured_time(n: usize, h: u32) -> Time {
    expansion_model(n, h).0
}

/// Executed completion time: the same reducer expansion replayed on the
/// event-heap core with unbounded processors. Observation 1.1
/// guarantees `simulated_time ≤ measured_time`; on Parallel-MM the two
/// coincide (all `Z` cells sit in one parallel layer, exactly where the
/// bound is tight).
pub fn simulated_time(n: usize, h: u32) -> Time {
    expansion_model(n, h).1.run_event().finish
}

/// One point of the Figure 3 tradeoff curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmCurvePoint {
    /// Reducer height on every `Z[i][j]`.
    pub height: u32,
    /// Total extra space (`n² · 2^h`; 0 for `h = 0`).
    pub extra_space: u64,
    /// Analytic time `1 + ⌈n/2^h⌉ + h + 1`.
    pub analytic: Time,
    /// Longest path of the physically expanded DAG.
    pub measured: Time,
    /// Executed finish of the expansion on the event core
    /// (Observation 1.1: `≤ measured`; equal on this workload).
    pub simulated: Time,
}

/// Sweeps reducer heights `0..=h_max` for n×n Parallel-MM.
pub fn tradeoff_curve(n: usize, h_max: u32) -> Vec<MmCurvePoint> {
    (0..=h_max)
        .map(|h| {
            let (measured, model) = expansion_model(n, h);
            MmCurvePoint {
                height: h,
                extra_space: if h == 0 {
                    0
                } else {
                    (n * n) as u64 * (1u64 << h)
                },
                analytic: analytic_time(n as u64, h),
                measured,
                simulated: model.run_event().finish,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::UNBOUNDED;

    #[test]
    fn race_dag_shape() {
        let mm = race_dag(4);
        assert_eq!(mm.dag.node_count(), 1 + 16 + 16);
        assert_eq!(mm.dag.edge_count(), 16 + 64);
        for &z in &mm.z_cells {
            assert_eq!(mm.dag.in_degree(z), 4, "each Z gets n updates");
            assert_eq!(mm.dag.out_degree(z), 0, "Z cells are sinks");
        }
    }

    #[test]
    fn lock_only_time_is_theta_n() {
        // Without reducers each Z serializes its n updates: 1 + n.
        for n in [2usize, 4, 8] {
            assert_eq!(measured_time(n, 0), 1 + n as u64);
            let mm = race_dag(n);
            let sim = ExecModel::race_dag(&mm.dag).run(UNBOUNDED);
            assert_eq!(sim.finish, 1 + n as u64);
        }
    }

    #[test]
    fn height_one_nearly_halves() {
        // §1: h = 1 almost halves the running time (2n² extra space).
        let n = 64;
        let t0 = measured_time(n, 0);
        let t1 = measured_time(n, 1);
        assert_eq!(t1, 1 + 32 + 2);
        assert!((t1 as f64) < 0.6 * t0 as f64, "{t1} vs {t0}");
    }

    #[test]
    fn log_height_reaches_theta_log() {
        let n = 64usize;
        let h = 6; // log2(64)
        let t = measured_time(n, h);
        // ⌈64/64⌉ + 6 + 1 + 1 = 9: Θ(log n)
        assert_eq!(t, 9);
    }

    #[test]
    fn measured_matches_analytic_everywhere() {
        for n in [4usize, 7, 16] {
            for h in 0..=3u32 {
                assert_eq!(
                    measured_time(n, h),
                    analytic_time(n as u64, h),
                    "n={n} h={h}"
                );
            }
        }
    }

    #[test]
    fn simulated_coincides_with_measured_on_one_parallel_layer() {
        // All Z cells run in a single parallel layer with uniform
        // arrival times — exactly where Observation 1.1 is tight, so
        // the executed expansion matches the longest path everywhere.
        for n in [4usize, 7, 16] {
            for h in 0..=3u32 {
                let (measured, model) = expansion_model(n, h);
                assert_eq!(model.run_event().finish, measured, "n={n} h={h}");
            }
        }
    }

    #[test]
    fn curve_is_convex_ish_with_sweet_spot() {
        // Time falls as h grows, then the +h term dominates.
        let curve = tradeoff_curve(32, 8);
        let times: Vec<u64> = curve.iter().map(|p| p.measured).collect();
        let min = *times.iter().min().unwrap();
        assert!(times[0] > min, "h=0 is not optimal");
        assert!(
            *times.last().unwrap() >= min,
            "excessive height should not keep helping"
        );
        // space accounting
        assert_eq!(curve[1].extra_space, 32 * 32 * 2);
    }
}
