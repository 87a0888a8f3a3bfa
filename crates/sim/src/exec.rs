//! Update-granular execution of a race DAG with `P` processors — the
//! thin DAG-facing front end of the [`crate::model`] core.

use crate::model::ExecModel;
use rtt_dag::Dag;
use rtt_duration::Time;

/// Processor count standing for "unbounded".
pub const UNBOUNDED: usize = usize::MAX;

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Tick at which the whole DAG completed (the simulated running time).
    pub finish: Time,
    /// Completion tick per node.
    pub node_finish: Vec<Time>,
    /// Total updates applied (= number of edges).
    pub updates_applied: u64,
    /// Peak number of processors simultaneously busy in any tick.
    pub peak_parallelism: usize,
}

/// Simulates the §1 execution model.
///
/// Each node is a memory cell that must apply one update per incoming
/// edge; an update becomes *available* once its source cell is complete
/// (sources with in-degree 0 are complete at tick 0). At most
/// `processors` cells each apply one available update per tick (the
/// per-cell lock serializes, so a cell applies at most one update per
/// tick); under contention, cells are prioritized by remaining work
/// (most-loaded first) — a greedy list schedule.
///
/// With unbounded processors the result is Observation 1.1's refinement:
/// `finish ≤ makespan(D)` (equality on chains, strict when staggered
/// updates pipeline) — and the run is served by the event-heap engine
/// ([`ExecModel::run_event`]), whose cost scales with the DAG's nodes
/// and edges instead of its makespan.
pub fn simulate<N, E>(g: &Dag<N, E>, processors: usize) -> SimResult {
    assert!(processors > 0, "need at least one processor");
    let model = ExecModel::race_dag(g);
    if processors == UNBOUNDED {
        model.run_event()
    } else {
        model.run_ticks(processors)
    }
}

/// [`simulate`] generalized to an explicit per-node work vector — the
/// model the reducer-expanded DAGs of `rtt_duration::expand` (and the
/// engine's simulation certificates) execute under, where a sibling
/// merge costs *one* update despite its two incoming edges.
///
/// The release rule per node is the [`ExecModel`] contract:
///
/// * `works[v] == d_in(v)` (the §1 race-DAG convention): each
///   predecessor completion releases one update — staggered updates
///   pipeline, exactly as in [`simulate`];
/// * `works[v] != d_in(v)`: all `works[v]` updates release only once
///   **every** predecessor has completed (the conservative gate; this is
///   how a sibling merge waits for both children, and how a serialized
///   cell of explicit work `t` waits for its precedences).
///
/// Zero-work nodes complete the instant their last predecessor does.
/// Under both rules a node still applies at most one update per tick
/// behind its cell lock, so Observation 1.1 survives the
/// generalization: with unbounded processors,
/// `finish ≤ longest path of works` (induction: once `v`'s last
/// predecessor finishes, at most `works[v]` of its updates remain).
///
/// Unbounded runs dispatch to the event-heap engine; bounded ones to
/// the tick loop (the per-tick most-loaded-first choice is inherently
/// tick-granular). The two engines agree exactly where both apply —
/// see [`simulate_works_ticks`] and the differential proptests.
pub fn simulate_works<N, E>(g: &Dag<N, E>, works: &[Time], processors: usize) -> SimResult {
    assert!(processors > 0, "need at least one processor");
    let model = ExecModel::from_works(g, works);
    if processors == UNBOUNDED {
        model.run_event()
    } else {
        model.run_ticks(processors)
    }
}

/// [`simulate_works`] forced onto the tick-loop baseline engine
/// (Θ(makespan · nodes)) regardless of the processor count. Public
/// because the differential proptests compare the event engine against
/// it on unbounded runs.
pub fn simulate_works_ticks<N, E>(g: &Dag<N, E>, works: &[Time], processors: usize) -> SimResult {
    ExecModel::from_works(g, works).run_ticks(processors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_dag::{Dag, NodeId};

    /// The Figure 4 DAG.
    fn figure4() -> Dag<(), ()> {
        let mut g = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, ()).unwrap();
        g.add_edge(s, b, ()).unwrap();
        g.add_edge(a, b, ()).unwrap();
        g.add_parallel_edges(a, c, (), 3).unwrap();
        g.add_parallel_edges(b, c, (), 3).unwrap();
        g.add_edge(c, d, ()).unwrap();
        g.add_edge(d, t, ()).unwrap();
        g
    }

    #[test]
    fn chain_matches_makespan_exactly() {
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_parallel_edges(a, b, (), 4).unwrap();
        g.add_parallel_edges(b, c, (), 2).unwrap();
        // wait: parallel edges a->b only become available when a is
        // complete; b applies them serially: 4 ticks; then c: 2. total 6.
        let r = simulate(&g, UNBOUNDED);
        assert_eq!(r.finish, 6);
        assert_eq!(r.updates_applied, 6);
    }

    #[test]
    fn observation_1_1_simulation_at_most_makespan() {
        let g = figure4();
        let makespan = rtt_dag::longest_path_nodes(&g, |v| g.in_degree(v) as u64)
            .unwrap()
            .weight;
        assert_eq!(makespan, 11);
        let r = simulate(&g, UNBOUNDED);
        assert!(
            r.finish <= makespan,
            "Observation 1.1: {} <= {makespan}",
            r.finish
        );
    }

    #[test]
    fn figure4_pipelining_beats_makespan() {
        // In Figure 4, c's updates from a arrive while b is still being
        // updated — the event-level execution pipelines and finishes
        // before the conservative makespan bound of 11.
        let g = figure4();
        let r = simulate(&g, UNBOUNDED);
        assert!(r.finish < 11, "pipelining should beat 11, got {}", r.finish);
    }

    #[test]
    fn single_processor_serializes_everything() {
        let g = figure4();
        let r = simulate(&g, 1);
        // 10 edges = 10 updates, fully serialized (plus idle ticks are
        // impossible: some update is always available).
        assert_eq!(r.finish, g.edge_count() as u64);
        assert_eq!(r.peak_parallelism, 1);
    }

    #[test]
    fn more_processors_never_slower() {
        let g = figure4();
        let mut prev = u64::MAX;
        for p in [1usize, 2, 3, 4, 8] {
            let r = simulate(&g, p);
            assert!(r.finish <= prev, "p={p}: {} > {prev}", r.finish);
            prev = r.finish;
        }
    }

    #[test]
    fn brent_bound_holds() {
        // T_P <= W/P + span for greedy scheduling (Brent/Graham).
        let g = figure4();
        let work = g.edge_count() as u64;
        let span = simulate(&g, UNBOUNDED).finish;
        for p in [1usize, 2, 3] {
            let tp = simulate(&g, p).finish;
            assert!(
                tp <= work / p as u64 + span + 1,
                "p={p}: {tp} > {}",
                work / p as u64 + span
            );
        }
    }

    #[test]
    fn fan_in_star_parallelism() {
        // n sources all feeding one hub: hub applies serially.
        let mut g: Dag<(), ()> = Dag::new();
        let hub = g.add_node(());
        for _ in 0..16 {
            let s = g.add_node(());
            g.add_edge(s, hub, ()).unwrap();
        }
        let r = simulate(&g, UNBOUNDED);
        assert_eq!(r.finish, 16, "per-cell lock serializes all updates");
        assert_eq!(r.peak_parallelism, 1);
    }

    #[test]
    fn works_sibling_merge_waits_for_both_children() {
        // a, b (serialized cells of work 3 and 1) → merge (work 1,
        // in-degree 2) → sink junction (work 0). The merge update only
        // becomes available once BOTH children complete.
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let m = g.add_node(());
        let t = g.add_node(());
        g.add_edge(a, m, ()).unwrap();
        g.add_edge(b, m, ()).unwrap();
        g.add_edge(m, t, ()).unwrap();
        let r = simulate_works(&g, &[3, 1, 1, 0], UNBOUNDED);
        // a finishes at 3, b at 1; merge applies its one update at 4;
        // the zero-work sink completes the same tick.
        assert_eq!(r.node_finish[m.index()], 4);
        assert_eq!(r.finish, 4);
        assert_eq!(r.updates_applied, 5);
    }

    #[test]
    fn works_zero_work_junctions_cascade_in_the_same_tick() {
        // cell(2) → junction → junction → cell(1): junctions add no ticks.
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let j1 = g.add_node(());
        let j2 = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, j1, ()).unwrap();
        g.add_edge(j1, j2, ()).unwrap();
        g.add_edge(j2, c, ()).unwrap();
        let r = simulate_works(&g, &[2, 0, 0, 1], UNBOUNDED);
        assert_eq!(r.node_finish[j2.index()], 2);
        assert_eq!(r.finish, 3);
    }

    #[test]
    fn works_matches_in_degree_semantics_when_equal() {
        // works == in-degrees must be byte-identical to `simulate`.
        let g = figure4();
        let works: Vec<Time> = (0..g.node_count())
            .map(|i| g.in_degree(NodeId(i as u32)) as Time)
            .collect();
        for p in [1usize, 2, 3, UNBOUNDED] {
            assert_eq!(simulate_works(&g, &works, p), simulate(&g, p));
        }
    }

    #[test]
    fn event_engine_matches_tick_baseline_on_unbounded_runs() {
        // the dispatch seam itself: simulate_works (event for ∞) versus
        // the forced tick baseline, on a shape mixing all release rules
        let mut g: Dag<(), ()> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let z = g.add_node(());
        g.add_parallel_edges(s, a, (), 3).unwrap();
        g.add_edge(s, b, ()).unwrap();
        g.add_edge(a, z, ()).unwrap();
        g.add_edge(b, z, ()).unwrap();
        let works: Vec<Time> = vec![0, 3, 5, 2];
        assert_eq!(
            simulate_works(&g, &works, UNBOUNDED),
            simulate_works_ticks(&g, &works, UNBOUNDED)
        );
    }

    #[test]
    fn works_gated_cell_serializes_explicit_work() {
        // one in-edge but work 5: the cell still takes 5 ticks, starting
        // only after its predecessor completes.
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, c, ()).unwrap();
        let r = simulate_works(&g, &[1, 5], UNBOUNDED);
        assert_eq!(r.finish, 6);
        assert_eq!(r.updates_applied, 6);
    }

    #[test]
    fn wide_independent_cells_run_in_parallel() {
        // many (source -> cell) pairs: all cells update simultaneously.
        let mut g: Dag<(), ()> = Dag::new();
        for _ in 0..8 {
            let s = g.add_node(());
            let c = g.add_node(());
            g.add_edge(s, c, ()).unwrap();
        }
        let r = simulate(&g, UNBOUNDED);
        assert_eq!(r.finish, 1);
        assert_eq!(r.peak_parallelism, 8);
        // with 4 processors it takes 2 ticks
        assert_eq!(simulate(&g, 4).finish, 2);
    }
}
