//! Deterministic perf-guard: pins **work counters** (never wall-clock,
//! so it is stable on shared CI runners) on fixed seeded instances.
//!
//! The envelopes are committed bands around the values measured when
//! the counters were introduced (PR 3). A counter drifting outside its
//! band means an algorithmic regression (or an intentional change —
//! re-measure and update the band in the same PR, with the new numbers
//! in the commit message).

use rtt_bench::fixtures::{race_instance, sp_instance};
use rtt_core::lp_build::{solve_min_makespan_lp_with, solve_min_makespan_sweep};
use rtt_core::sp_dp::solve_sp_tree_with_stats;
use rtt_core::transform::expand_two_tuples;
use rtt_dag::sp::decompose;
use rtt_lp::Engine;

/// Asserts `value` lies in `[lo, hi]` with a named label.
fn within(label: &str, value: u64, lo: u64, hi: u64) {
    assert!(
        (lo..=hi).contains(&value),
        "{label}: {value} outside committed envelope [{lo}, {hi}]"
    );
}

#[test]
fn lp_pivot_counts_stay_in_envelope() {
    // race_instance(16, 16) at budget 16 — the BENCH_pr3.json mid-size point.
    let arc = race_instance(16, 16);
    let tt = expand_two_tuples(&arc);
    let rev = solve_min_makespan_lp_with(&tt, 16, Engine::Revised).unwrap();
    let flat = solve_min_makespan_lp_with(&tt, 16, Engine::Flat).unwrap();

    // determinism first: the counters must reproduce exactly
    let rev2 = solve_min_makespan_lp_with(&tt, 16, Engine::Revised).unwrap();
    assert_eq!(rev.pivots, rev2.pivots, "revised solve must be deterministic");

    // measured at commit time: revised 97 (crash-started phase 2 only),
    // flat 552 (two-phase over bound rows)
    within("revised pivots", rev.pivots as u64, 30, 300);
    within("flat pivots", flat.pivots as u64, 300, 1100);
    assert_eq!(rev.stats.phase1_pivots, 0, "the crash basis must skip phase 1");
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
    let warm = solve_min_makespan_sweep(&tt, &grid).unwrap();
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
    // measured at commit time: 81 chained pivots over the 16-point grid
    within("warm sweep pivots", warm_total, 20, 300);
}

#[test]
fn wire_sweep_pivots_stay_in_envelope() {
    // The PR-8 wire-reachable sweep: a batch `budgets` request answered
    // by one self-contained chained delta session. Its summed per-point
    // `work` on the pinned instance/grid must cost no more than the
    // PR-3 warm-sweep counter it is built on (same chain, behind the
    // executor), and stay inside the same committed envelope.
    let arc = race_instance(16, 16);
    let tt = expand_two_tuples(&arc);
    let grid: Vec<u64> = (0..16).collect();
    let warm = solve_min_makespan_sweep(&tt, &grid).unwrap();
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
    // measured at commit time: 132 chained pivots (BENCH_pr8.json's
    // pinned_chain evidence)
    within("wire sweep pivots", wire_total, 20, 300);
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
    // instance expands within a pinned event envelope (counters, not
    // wall-clock — measured 553 events / 85 cells at commit time), far
    // below the engine's soft guard.
    let arc = race_instance(16, 16);
    let sol = rtt_core::solve_bicriteria(&arc, 16, 0.5).unwrap();
    let (g, works) =
        rtt_engine::expand_levels(&arc, &sol.solution.edge_times, &sol.solution.arc_flows);
    let model = rtt_sim::ExecModel::from_works(&g, &works);
    within("certify expansion events", model.event_count(), 300, 1200);
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
