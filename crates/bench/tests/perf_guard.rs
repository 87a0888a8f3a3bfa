//! Deterministic perf-guard: pins **work counters** (never wall-clock,
//! so it is stable on shared CI runners) on fixed seeded instances.
//!
//! Every counter here is an exact function of the code, so each is
//! pinned to its exact value. The LP pivot counts reach the batch wire
//! as `work`: a change that moves one is a wire change, to be
//! re-measured here together with the goldens and `LP_DIGEST`, with the
//! new numbers in the change description.

use rtt_bench::fixtures::{race_instance, sp_instance};
use rtt_core::lp_build::{solve_min_makespan_lp_with, solve_min_resource_lp};
use rtt_core::regimes::solve_noreuse_lp;
use rtt_core::sp_dp::solve_sp_tree_with_stats;
use rtt_core::transform::expand_two_tuples;
use rtt_core::MakespanLp;
use rtt_dag::sp::decompose;
use rtt_lp::{Engine, WarmStart};

#[test]
fn lp_pivot_counts_stay_in_envelope() {
    // race_instance(16, 16) at budget 16 — the BENCH_pr3.json mid-size point.
    let arc = race_instance(16, 16);
    let tt = expand_two_tuples(&arc);
    let rev = solve_min_makespan_lp_with(&tt, 16, Engine::Revised).unwrap();
    let flat = solve_min_makespan_lp_with(&tt, 16, Engine::Flat).unwrap();

    // determinism first: the counters must reproduce exactly
    let rev2 = solve_min_makespan_lp_with(&tt, 16, Engine::Revised).unwrap();
    assert_eq!(
        rev.pivots, rev2.pivots,
        "revised solve must be deterministic"
    );

    // revised: crash-started phase 2 only; flat: two-phase over bound rows
    assert_eq!(rev.pivots, 97, "revised pivots");
    assert_eq!(flat.pivots, 552, "flat pivots");
    assert_eq!(
        rev.stats.phase1_pivots, 0,
        "the crash basis must skip phase 1"
    );
    // the revised engine must do structurally less work per pivot AND
    // materialize fewer rows
    assert_eq!(rev.stats.bound_rows, 0);
    assert_eq!(flat.stats.rows, rev.stats.rows + rev.stats.bound_cols);
    assert!((rev.makespan - flat.makespan).abs() < 1e-9);
}

#[test]
fn warm_sweep_pivots_stay_in_envelope() {
    let arc = race_instance(16, 16);
    let tt = expand_two_tuples(&arc);
    let grid: Vec<u64> = (0..16).collect();
    let (warm, _) = MakespanLp::new(&tt).solve_sweep(&tt, &grid, None).unwrap();
    let warm_total: u64 = warm.iter().map(|f| f.pivots as u64).sum();
    let cold_total: u64 = grid
        .iter()
        .map(|&b| {
            solve_min_makespan_lp_with(&tt, b, Engine::Revised)
                .unwrap()
                .pivots as u64
        })
        .sum();
    // the warm chain must spend at most half the cold grid's pivots
    assert!(
        warm_total * 2 <= cold_total,
        "warm chain {warm_total} vs cold grid {cold_total}"
    );
    // chained pivots over the 16-point grid
    assert_eq!(warm_total, 132, "warm sweep pivots");
}

#[test]
fn wire_sweep_pivots_stay_in_envelope() {
    // The PR-8 wire-reachable sweep: a batch `budgets` request answered
    // by one self-contained chained delta session. Its summed per-point
    // `work` on the pinned instance/grid must cost no more than the
    // PR-3 warm-sweep counter it is built on (same chain, behind the
    // executor), and match its pinned count.
    let arc = race_instance(16, 16);
    let tt = expand_two_tuples(&arc);
    let grid: Vec<u64> = (0..16).collect();
    let (warm, _) = MakespanLp::new(&tt).solve_sweep(&tt, &grid, None).unwrap();
    let warm_total: u64 = warm.iter().map(|f| f.pivots as u64).sum();

    let wire_total = rtt_bench::fixtures::pinned_chain_pivots();
    // determinism: the wire counter is a pure function of the request
    assert_eq!(
        wire_total,
        rtt_bench::fixtures::pinned_chain_pivots(),
        "wire sweep must be deterministic"
    );
    assert!(
        wire_total <= warm_total,
        "wire sweep {wire_total} pivots exceeds the warm-sweep chain {warm_total}"
    );
    // the same chain behind the executor (BENCH_pr8.json's
    // pinned_chain evidence)
    assert_eq!(wire_total, 132, "wire sweep pivots");
}

#[test]
fn every_chained_sweep_point_is_a_dual_repair() {
    // A bounded dual simplex that flips a zero-cost entering column to
    // its far bound can trade two violated rows back and forth until its
    // iteration cap: on this chain that sent the budget-5 point to a
    // cold re-solve (`Rejected`, 202 pivots) instead of a dual repair.
    let arc = race_instance(5, 8);
    let tt = expand_two_tuples(&arc);
    let grid = [0, 5, 10, 15, 20, 25];
    let (points, _) = MakespanLp::new(&tt).solve_sweep(&tt, &grid, None).unwrap();
    let warm: Vec<WarmStart> = points.iter().map(|f| f.stats.warm).collect();
    assert_eq!(warm[1..], [WarmStart::Dual; 5], "chained points");
    let pivots: Vec<usize> = points.iter().map(|f| f.pivots).collect();
    assert_eq!(pivots, [36, 32, 0, 0, 0, 0], "per-point pivots");
}

#[test]
fn min_resource_and_noreuse_lps_start_from_the_crash() {
    // race_instance(16, 16): the min-resource LP at target 75, between
    // the LP's ideal makespan (42) and its base makespan, so the crash
    // violates the target row; and the no-reuse LP at budget 16.
    // Neither runs phase 1.
    let arc = race_instance(16, 16);
    let tt = expand_two_tuples(&arc);
    let base = solve_min_makespan_lp_with(&tt, 0, Engine::Revised)
        .unwrap()
        .makespan;
    let target = 75;
    assert_eq!(base, 109.0, "base makespan");
    let mr = solve_min_resource_lp(&tt, target, None).unwrap();
    assert_eq!(mr.stats.phase1_pivots, 0, "min-resource phase 1");
    assert_eq!(mr.stats.warm, WarmStart::Dual, "min-resource start");
    assert_eq!(mr.pivots, 144, "min-resource pivots");

    let nr = solve_noreuse_lp(&tt, 16).unwrap();
    assert_eq!(nr.stats.phase1_pivots, 0, "no-reuse phase 1");
    assert_eq!(nr.stats.warm, WarmStart::Primal, "no-reuse start");
    assert_eq!(nr.pivots, 30, "no-reuse pivots");
}

#[test]
fn sim_event_counts_stay_in_envelope() {
    // The BENCH_pr5.json shapes' event counts are exact functions of
    // the model — if one moves, the event engine's cost model changed.
    let chain = rtt_bench::fixtures::long_chain_model(64, 20_000);
    assert_eq!(chain.event_count(), 127, "chain: cells + arcs");
    assert_eq!(chain.update_count(), 1_280_000);
    let star = rtt_bench::fixtures::fanout_star_model(6_000);
    assert_eq!(star.event_count(), 12_001, "star: cells + arcs");

    // The certify path: the routed solution of the fixed BENCH_pr3.json
    // instance expands to an exact event count (85 cells), far below
    // the engine's soft guard.
    let arc = race_instance(16, 16);
    let sol = rtt_core::solve_bicriteria(&arc, 16, 0.5).unwrap();
    let (g, works) =
        rtt_engine::expand_levels(&arc, &sol.solution.edge_times, &sol.solution.arc_flows);
    let model = rtt_sim::ExecModel::from_works(&g, &works);
    assert_eq!(model.event_count(), 553, "certify expansion events");
    assert!(model.event_count() < rtt_engine::SIM_EVENT_GUARD / 1000);
    // and the engines must agree bit for bit on the expansion
    assert_eq!(model.run_event(), model.run_ticks(rtt_sim::UNBOUNDED));
}

#[test]
fn sp_dp_counters_stay_in_envelope() {
    // sp_instance(50, 50) at B = 128 — a BENCH_pr1 point. The monotone
    // merge's counters are exact functions of the instance.
    let arc = sp_instance(50, 50);
    let d = arc.dag();
    let tree = decompose(d, arc.source(), arc.sink()).expect("generated SP");
    let (_, _, stats) = solve_sp_tree_with_stats(&tree, |e| d.edge(e).duration.clone(), 128);
    // committed exact values from BENCH_pr1.json (m=50, B=128)
    assert_eq!(stats.cells, 12771, "DP cell count changed");
    assert_eq!(stats.merge_steps, 3888, "merge-step count changed");
    let nodes = (stats.leaves + stats.series + stats.parallels) as u64;
    let work_per_cell = (stats.cells + stats.merge_steps) as f64 / (nodes * 129) as f64;
    assert!(
        work_per_cell < 1.5,
        "work per (node·budget) {work_per_cell} implies the O(mB) bound broke"
    );
    assert!(
        (stats.peak_live_tables as u64) < stats.leaves as u64 + 2,
        "table arena is no longer bounding live tables"
    );
}
