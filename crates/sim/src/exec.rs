//! What a run of the execution model returns ([`SimResult`]) and the
//! processor count standing for "unbounded" ([`UNBOUNDED`]). Runs
//! themselves go through [`crate::model::ExecModel::run`], the one
//! processor dispatch; the tests here drive race DAGs and explicit
//! work vectors through it.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ExecModel;
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
        let r = ExecModel::race_dag(&g).run(UNBOUNDED);
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
        let r = ExecModel::race_dag(&g).run(UNBOUNDED);
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
        let r = ExecModel::race_dag(&g).run(UNBOUNDED);
        assert!(r.finish < 11, "pipelining should beat 11, got {}", r.finish);
    }

    #[test]
    fn single_processor_serializes_everything() {
        let g = figure4();
        let r = ExecModel::race_dag(&g).run(1);
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
            let r = ExecModel::race_dag(&g).run(p);
            assert!(r.finish <= prev, "p={p}: {} > {prev}", r.finish);
            prev = r.finish;
        }
    }

    #[test]
    fn brent_bound_holds() {
        // T_P <= W/P + span for greedy scheduling (Brent/Graham).
        let g = figure4();
        let work = g.edge_count() as u64;
        let span = ExecModel::race_dag(&g).run(UNBOUNDED).finish;
        for p in [1usize, 2, 3] {
            let tp = ExecModel::race_dag(&g).run(p).finish;
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
        let r = ExecModel::race_dag(&g).run(UNBOUNDED);
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
        let r = ExecModel::from_works(&g, &[3, 1, 1, 0]).run(UNBOUNDED);
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
        let r = ExecModel::from_works(&g, &[2, 0, 0, 1]).run(UNBOUNDED);
        assert_eq!(r.node_finish[j2.index()], 2);
        assert_eq!(r.finish, 3);
    }

    #[test]
    fn works_matches_in_degree_semantics_when_equal() {
        // works == in-degrees must be byte-identical to the race-DAG model.
        let g = figure4();
        let works: Vec<Time> = (0..g.node_count())
            .map(|i| g.in_degree(NodeId(i as u32)) as Time)
            .collect();
        let (explicit, race) = (ExecModel::from_works(&g, &works), ExecModel::race_dag(&g));
        for p in [1usize, 2, 3, UNBOUNDED] {
            assert_eq!(explicit.run(p), race.run(p));
        }
    }

    #[test]
    fn event_engine_matches_tick_baseline_on_unbounded_runs() {
        // the dispatch seam itself: run (event for ∞) versus
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
        let m = ExecModel::from_works(&g, &[0, 3, 5, 2]);
        assert_eq!(m.run(UNBOUNDED), m.run_ticks(UNBOUNDED));
    }

    #[test]
    fn works_gated_cell_serializes_explicit_work() {
        // one in-edge but work 5: the cell still takes 5 ticks, starting
        // only after its predecessor completes.
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, c, ()).unwrap();
        let r = ExecModel::from_works(&g, &[1, 5]).run(UNBOUNDED);
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
        let r = ExecModel::race_dag(&g).run(UNBOUNDED);
        assert_eq!(r.finish, 1);
        assert_eq!(r.peak_parallelism, 8);
        // with 4 processors it takes 2 ticks
        assert_eq!(ExecModel::race_dag(&g).run(4).finish, 2);
    }
}
