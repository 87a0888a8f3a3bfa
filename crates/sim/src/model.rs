//! The unified execution model ([`ExecModel`]) and its two engines —
//! the binary-heap **event simulator** ([`ExecModel::run_event`]) and
//! the tick-loop baseline ([`ExecModel::run_ticks`]).
//!
//! Every simulator in this crate — the race-DAG executor of
//! [`crate::exec`], the Figure 2 reducer replay of
//! [`crate::reducer_sim`], and the engine's Observation 1.1
//! certification of reducer-expanded solutions — runs the same physical
//! model: memory cells applying updates one per tick behind their
//! locks. This module is that model's single implementation.
//!
//! # The `ExecModel` contract
//!
//! A model is a DAG of *cells*; cell `v` must apply `works[v]` updates,
//! one per tick, once they are *released*:
//!
//! * **pipelined** (`works[v] == d_in(v)`, the §1 race-DAG convention):
//!   each predecessor completion releases exactly one update, so a cell
//!   drains early arrivals while later predecessors are still running —
//!   this is what lets the simulation beat the makespan bound;
//! * **gated** (`works[v] != d_in(v)`): all `works[v]` updates release
//!   only once *every* predecessor has completed — how a sibling merge
//!   waits for both children, and how a serialized cell of explicit
//!   work `t` waits for its precedences;
//! * **zero-work** cells complete the instant their last predecessor
//!   does (same-tick cascade).
//!
//! Both engines implement this contract exactly; for unbounded
//! processors they are *equal by construction and by differential
//! proptest* (`tests/proptest_obs11.rs`): with no processor limit,
//! cells never contend, so each cell is an independent single-server
//! queue and its busy ticks follow the recurrence
//! `c_i = max(c_{i-1}, t_i) + 1` over its sorted release times `t_i`.
//! The event engine runs that recurrence directly off a completion-time
//! heap — **O((V + E) log V)**, independent of the makespan — while the
//! tick loop rescans every cell every tick, Θ(T·V). `BENCH_pr5.json`
//! records the gap; the tick loop stays in-tree as the measurable
//! baseline and as the only engine for *bounded* processor counts,
//! whose greedy most-loaded-first policy is decided tick by tick.

use crate::exec::SimResult;
use rtt_budget::{BudgetMeter, Exhausted};
use rtt_dag::{Dag, NodeId};
use rtt_duration::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A flattened instance of the update-granular execution model — the
/// DAG shape plus per-cell work, with the release rule per cell
/// precomputed (see the module docs for the contract).
#[derive(Debug, Clone)]
pub struct ExecModel {
    /// Successor cell indices, one entry per update arc (multiplicity
    /// preserved: `k` parallel arcs appear `k` times).
    succs: Vec<Vec<u32>>,
    /// Updates each cell applies.
    works: Vec<Time>,
    /// Incoming update arcs per cell (`d_in`).
    indeg: Vec<usize>,
    /// `works[v] == d_in(v)`: per-update release (§1 pipelining).
    pipelined: Vec<bool>,
    /// Total update arcs (= Σ out-degrees).
    edges: u64,
}

impl ExecModel {
    /// Builds a model from a DAG and an explicit per-cell work vector.
    ///
    /// # Panics
    /// If `works.len() != g.node_count()`. Acyclicity is the caller's
    /// responsibility (checked in debug builds; a cyclic model panics
    /// at execution with "stalled").
    pub fn from_works<N, E>(g: &Dag<N, E>, works: &[Time]) -> Self {
        let n = g.node_count();
        assert_eq!(works.len(), n, "one work value per cell required");
        debug_assert!(rtt_dag::is_acyclic(g), "execution model requires a DAG");
        let succs: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                g.out_edges(NodeId(i as u32))
                    .iter()
                    .map(|&e| g.dst(e).0)
                    .collect()
            })
            .collect();
        let indeg: Vec<usize> = (0..n).map(|i| g.in_degree(NodeId(i as u32))).collect();
        let pipelined: Vec<bool> = (0..n).map(|i| works[i] == indeg[i] as Time).collect();
        ExecModel {
            succs,
            works: works.to_vec(),
            indeg,
            pipelined,
            edges: g.edge_count() as u64,
        }
    }

    /// The §1 race-DAG model: every cell's work is its in-degree (one
    /// update per incoming arc, all cells pipelined).
    pub fn race_dag<N, E>(g: &Dag<N, E>) -> Self {
        let works: Vec<Time> = (0..g.node_count())
            .map(|i| g.in_degree(NodeId(i as u32)) as Time)
            .collect();
        Self::from_works(g, &works)
    }

    /// The Figure 2 sibling reducer applying `n` updates at height
    /// `height`: `2^h` leaf cells splitting the load (ceiling split),
    /// `h` levels of one-update sibling merges gated on both children,
    /// and the final root update of the shared variable. Height 0 is
    /// the plain lock-serialized cell. Completion with unbounded
    /// processors is `⌈n/2^h⌉ + h + 1` (§1, Eq. 3).
    pub fn reducer(n: u64, height: u32) -> Self {
        let mut g: Dag<(), ()> = Dag::new();
        let mut works: Vec<Time> = Vec::new();
        if height == 0 {
            g.add_node(());
            works.push(n);
            return Self::from_works(&g, &works);
        }
        let leaves = 1u64 << height;
        let mut level: Vec<NodeId> = (0..leaves)
            .map(|i| {
                let v = g.add_node(());
                works.push(n / leaves + u64::from(i < n % leaves));
                v
            })
            .collect();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len() / 2);
            for pair in level.chunks(2) {
                let m = g.add_node(());
                works.push(1);
                for &c in pair {
                    g.add_edge(c, m, ()).expect("fresh nodes");
                }
                next.push(m);
            }
            level = next;
        }
        let root = g.add_node(());
        works.push(1);
        g.add_edge(level[0], root, ()).expect("fresh nodes");
        Self::from_works(&g, &works)
    }

    /// Number of cells.
    pub fn node_count(&self) -> usize {
        self.works.len()
    }

    /// Total updates the model applies when run to completion.
    pub fn update_count(&self) -> u64 {
        self.works.iter().sum()
    }

    /// Events the heap engine processes to completion: one completion
    /// per cell plus one release per update arc. This — not the
    /// makespan, not the update count — is what a [`Self::run_event`]
    /// call costs, which is why the engine's certification guard is an
    /// event-count bound.
    pub fn event_count(&self) -> u64 {
        self.works.len() as u64 + self.edges
    }

    /// Executes the model with **unbounded processors** on the
    /// binary-heap event engine: completions pop off a min-heap in time
    /// order, each completion releases updates to its successors, and
    /// every cell advances its single-server recurrence incrementally.
    /// `O((V + E) log V)`; bit-identical to
    /// [`run_ticks(UNBOUNDED)`](Self::run_ticks).
    ///
    /// # Panics
    /// If the model is cyclic ("stalled").
    pub fn run_event(&self) -> SimResult {
        self.run_event_metered(None)
            .expect("an unmetered simulation cannot exhaust")
    }

    /// [`Self::run_event`] under a cooperative budget meter: each popped
    /// completion charges itself plus the releases it fans out (one
    /// batched `sim_events` charge per pop — the same quantity
    /// [`Self::event_count`] bounds a priori), so an over-budget
    /// simulation stops mid-run with a typed [`Exhausted`] instead of
    /// processing its remaining heap.
    ///
    /// # Panics
    /// If the model is cyclic ("stalled") and the meter never trips.
    pub fn run_event_metered(
        &self,
        meter: Option<&BudgetMeter>,
    ) -> Result<SimResult, Exhausted> {
        let (finish, mut deltas) = self.run_event_deltas(meter)?;
        let peak = sweep_peak(&mut deltas);
        Ok(SimResult {
            finish: finish.iter().copied().max().unwrap_or(0),
            node_finish: finish,
            updates_applied: self.update_count(),
            peak_parallelism: peak,
        })
    }

    /// The event engine proper: per-cell finish times plus the raw busy
    /// intervals (as `(tick, ±1)` deltas, unsorted) — the pieces
    /// [`Self::run_event_metered`] sweeps directly and
    /// [`Self::run_event_sharded`] merges across shards.
    fn run_event_deltas(&self, meter: Option<&BudgetMeter>) -> Result<FinishAndDeltas, Exhausted> {
        let n = self.works.len();
        let mut preds_left = self.indeg.clone();
        let mut finish: Vec<Time> = vec![0; n];
        // (completion time, cell) min-heap; ties pop in id order
        let mut heap: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
        // pipelined cells: last busy tick + the open busy-run start
        let mut cursor: Vec<Time> = vec![0; n];
        let mut run_start: Vec<Time> = vec![0; n];
        let mut open: Vec<bool> = vec![false; n];
        // gated cells: latest predecessor completion
        let mut gate: Vec<Time> = vec![0; n];
        // busy intervals (closed [start, end] in ticks) for the peak
        let mut deltas: Vec<(Time, i32)> = Vec::new();
        let busy = |deltas: &mut Vec<(Time, i32)>, s: Time, e: Time| {
            debug_assert!(s >= 1 && s <= e);
            deltas.push((s, 1));
            deltas.push((e + 1, -1));
        };

        for i in 0..n {
            if self.indeg[i] == 0 {
                if self.works[i] == 0 {
                    heap.push(Reverse((0, i as u32)));
                } else {
                    finish[i] = self.works[i];
                    busy(&mut deltas, 1, self.works[i]);
                    heap.push(Reverse((self.works[i], i as u32)));
                }
            }
        }

        let mut completed = 0usize;
        while let Some(Reverse((t, v))) = heap.pop() {
            completed += 1;
            if let Some(m) = meter {
                // this pop plus every release it fans out, in one charge
                m.charge_sim_events(1 + self.succs[v as usize].len() as u64)?;
            }
            for &wi in &self.succs[v as usize] {
                let w = wi as usize;
                preds_left[w] -= 1;
                if self.pipelined[w] {
                    // this completion releases one update; the cell
                    // applies it at the next free tick
                    let nb = cursor[w].max(t) + 1;
                    if !open[w] {
                        open[w] = true;
                        run_start[w] = nb;
                    } else if nb > cursor[w] + 1 {
                        // idle gap: close the finished run
                        busy(&mut deltas, run_start[w], cursor[w]);
                        run_start[w] = nb;
                    }
                    cursor[w] = nb;
                    if preds_left[w] == 0 {
                        // pipelined ⇒ works == d_in: the last release
                        // is the last update
                        finish[w] = nb;
                        busy(&mut deltas, run_start[w], nb);
                        heap.push(Reverse((nb, wi)));
                    }
                } else {
                    gate[w] = gate[w].max(t);
                    if preds_left[w] == 0 {
                        let f = if self.works[w] == 0 {
                            gate[w] // zero-work: same-tick cascade
                        } else {
                            busy(&mut deltas, gate[w] + 1, gate[w] + self.works[w]);
                            gate[w] + self.works[w]
                        };
                        finish[w] = f;
                        heap.push(Reverse((f, wi)));
                    }
                }
            }
        }
        assert_eq!(completed, n, "execution stalled: the model is cyclic");
        Ok((finish, deltas))
    }

    /// Weakly-connected components of the update-arc graph: cells in
    /// different components never exchange releases, so each is an
    /// independent simulation. Components are ordered by their smallest
    /// cell id, cells ascending within each — a pure function of the
    /// model, independent of any thread count.
    fn weak_components(&self) -> Vec<Vec<u32>> {
        let n = self.works.len();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for v in 0..n {
            for wi in 0..self.succs[v].len() {
                let w = self.succs[v][wi];
                let a = find(&mut parent, v as u32);
                let b = find(&mut parent, w);
                if a != b {
                    // union toward the smaller root id — deterministic
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    parent[hi as usize] = lo;
                }
            }
        }
        let mut slot_of_root: Vec<usize> = vec![usize::MAX; n];
        let mut comps: Vec<Vec<u32>> = Vec::new();
        for v in 0..n as u32 {
            let r = find(&mut parent, v) as usize;
            if slot_of_root[r] == usize::MAX {
                slot_of_root[r] = comps.len();
                comps.push(Vec::new());
            }
            comps[slot_of_root[r]].push(v);
        }
        comps
    }

    /// [`Self::run_event`] with weakly-connected components simulated
    /// concurrently — **bit-identical** to the serial engine at any
    /// `threads` value:
    ///
    /// * the component partition is a pure function of the model (see
    ///   `weak_components`);
    /// * each shard is an index-compacted submodel whose cell order
    ///   preserves global id order, so its heap tie-breaks match the
    ///   serial run's and every absolute finish time is unchanged;
    /// * `finish` is the max over per-cell times (order-independent),
    ///   `node_finish` scatters back through the shard's id list,
    ///   `updates_applied` is [`Self::update_count`] (a model property),
    ///   and peak parallelism sweeps the *merged* delta multiset from
    ///   all shards — the same sorted sequence the serial sweep sees.
    ///
    /// Single-component models just run the serial engine. Metered
    /// replay never shards (exhaustion stop-points are wire-visible and
    /// must not depend on shard scheduling); `rtt_engine::certify`
    /// gates accordingly.
    ///
    /// # Panics
    /// If the model is cyclic ("stalled").
    pub fn run_event_sharded(&self, threads: usize) -> SimResult {
        let comps = self.weak_components();
        if comps.len() <= 1 {
            return self.run_event();
        }
        let n = self.works.len();
        let mut local_of: Vec<u32> = vec![0; n];
        for cells in &comps {
            for (l, &g) in cells.iter().enumerate() {
                local_of[g as usize] = l as u32;
            }
        }
        let shards: Vec<ExecModel> = comps
            .iter()
            .map(|cells| {
                let succs: Vec<Vec<u32>> = cells
                    .iter()
                    .map(|&g| {
                        self.succs[g as usize]
                            .iter()
                            .map(|&w| local_of[w as usize])
                            .collect()
                    })
                    .collect();
                let edges = succs.iter().map(|s| s.len() as u64).sum();
                ExecModel {
                    succs,
                    works: cells.iter().map(|&g| self.works[g as usize]).collect(),
                    indeg: cells.iter().map(|&g| self.indeg[g as usize]).collect(),
                    pipelined: cells
                        .iter()
                        .map(|&g| self.pipelined[g as usize])
                        .collect(),
                    edges,
                }
            })
            .collect();
        let parts = rtt_par::map_chunks(shards.len(), 1, threads, |i, _| {
            shards[i]
                .run_event_deltas(None)
                .expect("an unmetered simulation cannot exhaust")
        });
        let mut node_finish: Vec<Time> = vec![0; n];
        let mut deltas: Vec<(Time, i32)> = Vec::new();
        for (cells, (finish, d)) in comps.iter().zip(parts) {
            for (l, &g) in cells.iter().enumerate() {
                node_finish[g as usize] = finish[l];
            }
            deltas.extend(d);
        }
        let peak = sweep_peak(&mut deltas);
        SimResult {
            finish: node_finish.iter().copied().max().unwrap_or(0),
            node_finish,
            updates_applied: self.update_count(),
            peak_parallelism: peak,
        }
    }

    /// Executes the model tick by tick with `processors` processors
    /// (use [`crate::exec::UNBOUNDED`] for ∞): each tick, the at most
    /// `processors` cells with the most remaining work (ties by id)
    /// each apply one released update. Θ(T·V) — the measurable baseline
    /// the event engine is benchmarked against (`BENCH_pr5.json`), and the
    /// reference semantics for bounded processor counts.
    ///
    /// # Panics
    /// If `processors == 0`, or the model is cyclic ("stalled").
    pub fn run_ticks(&self, processors: usize) -> SimResult {
        assert!(processors > 0, "need at least one processor");
        let n = self.works.len();
        let mut preds_left = self.indeg.clone();
        let mut remaining: Vec<Time> = self.works.clone();
        let mut available: Vec<Time> = vec![0; n];
        let mut finish: Vec<Time> = vec![0; n];
        let mut complete: Vec<bool> = vec![false; n];

        // Sources: zero-work ones complete immediately; working ones
        // have their whole load available from tick 1.
        let mut newly_complete: Vec<u32> = Vec::new();
        let mut completed = 0usize;
        for i in 0..n {
            if preds_left[i] == 0 {
                if self.works[i] == 0 {
                    complete[i] = true;
                    newly_complete.push(i as u32);
                    completed += 1;
                } else {
                    available[i] = self.works[i];
                }
            }
        }

        let mut tick: Time = 0;
        let mut updates_applied = 0u64;
        let mut peak = 0usize;

        while completed < n {
            // release updates triggered by completions (zero-work cells
            // cascade within the same tick: they finish when their last
            // predecessor does)
            while let Some(v) = newly_complete.pop() {
                for &wi in &self.succs[v as usize] {
                    let i = wi as usize;
                    preds_left[i] -= 1;
                    if self.pipelined[i] {
                        available[i] += 1;
                    } else if preds_left[i] == 0 {
                        available[i] = remaining[i];
                    }
                    if preds_left[i] == 0 && remaining[i] == 0 && !complete[i] {
                        complete[i] = true;
                        finish[i] = tick;
                        newly_complete.push(wi);
                        completed += 1;
                    }
                }
            }
            if completed == n {
                break;
            }
            tick += 1;
            // pick up to `processors` cells with available updates,
            // most remaining work first (deterministic tie-break by id)
            let mut ready: Vec<usize> = (0..n)
                .filter(|&i| !complete[i] && available[i] > 0)
                .collect();
            // Some incomplete cell has all predecessors complete (the
            // DAG has no cycle), and it always has available updates.
            assert!(!ready.is_empty(), "execution stalled: the model is cyclic");
            ready.sort_by_key(|&i| (Time::MAX - remaining[i], i));
            let used = ready.len().min(processors);
            peak = peak.max(used);
            for &i in ready.iter().take(used) {
                available[i] -= 1;
                remaining[i] -= 1;
                updates_applied += 1;
                if remaining[i] == 0 && preds_left[i] == 0 {
                    complete[i] = true;
                    finish[i] = tick;
                    newly_complete.push(i as u32);
                    completed += 1;
                }
            }
        }

        SimResult {
            finish: finish.iter().copied().max().unwrap_or(0),
            node_finish: finish,
            updates_applied,
            peak_parallelism: peak,
        }
    }
}

/// Per-cell finish times plus the raw `(tick, ±1)` busy-interval
/// deltas (unsorted) — what [`sweep_peak`] consumes, produced by one
/// serial run or concatenated across shards.
type FinishAndDeltas = (Vec<Time>, Vec<(Time, i32)>);

/// Sorts the `(tick, ±1)` busy-interval deltas and sweeps for the
/// maximum concurrent count. Operating on the sorted multiset makes the
/// result independent of how the deltas were produced — one serial run
/// or a concatenation of per-shard runs sweep identically.
fn sweep_peak(deltas: &mut [(Time, i32)]) -> usize {
    deltas.sort_unstable();
    let mut peak = 0i32;
    let mut cur = 0i32;
    let mut i = 0;
    while i < deltas.len() {
        let t = deltas[i].0;
        while i < deltas.len() && deltas[i].0 == t {
            cur += deltas[i].1;
            i += 1;
        }
        peak = peak.max(cur);
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::UNBOUNDED;

    /// The Figure 4 DAG as a race model.
    fn figure4() -> ExecModel {
        let mut g: Dag<(), ()> = Dag::new();
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
        ExecModel::race_dag(&g)
    }

    #[test]
    fn event_equals_ticks_on_figure4() {
        let m = figure4();
        assert_eq!(m.run_event(), m.run_ticks(UNBOUNDED));
    }

    #[test]
    fn event_count_is_nodes_plus_edges() {
        let m = figure4();
        assert_eq!(m.event_count(), 6 + 11);
        assert_eq!(m.update_count(), 11);
    }

    #[test]
    fn event_engine_pipelines_below_the_makespan() {
        // Figure 4's makespan bound is 11; the pipelined execution
        // beats it (same as the tick engine always did).
        let r = figure4().run_event();
        assert!(r.finish < 11, "got {}", r.finish);
    }

    #[test]
    fn gated_and_pipelined_mix_matches_ticks() {
        // a(3), b(1) → merge (work 1, gated) → zero-work junction →
        // pipelined sink of the junction's single arc
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let m = g.add_node(());
        let j = g.add_node(());
        let t = g.add_node(());
        g.add_edge(a, m, ()).unwrap();
        g.add_edge(b, m, ()).unwrap();
        g.add_edge(m, j, ()).unwrap();
        g.add_edge(j, t, ()).unwrap();
        let model = ExecModel::from_works(&g, &[3, 1, 1, 0, 1]);
        let ev = model.run_event();
        assert_eq!(ev, model.run_ticks(UNBOUNDED));
        // a finishes at 3, merge applies at 4, junction cascades at 4,
        // sink applies its one update at 5
        assert_eq!(ev.finish, 5);
        assert_eq!(ev.node_finish[j.index()], 4);
    }

    #[test]
    fn idle_gaps_split_busy_runs_for_the_peak() {
        // hub receives one early update (from a fast chain) and three
        // late ones: its busy run has a gap, and the peak must still
        // count overlapping cells correctly in both engines.
        let mut g: Dag<(), ()> = Dag::new();
        let fast = g.add_node(());
        let slow = g.add_node(());
        let hub = g.add_node(());
        g.add_edge(fast, hub, ()).unwrap();
        g.add_parallel_edges(slow, hub, (), 3).unwrap();
        let model = ExecModel::from_works(&g, &[1, 6, 4]);
        let ev = model.run_event();
        let tk = model.run_ticks(UNBOUNDED);
        assert_eq!(ev, tk);
        // hub applies fast's update at tick 2, idles 3..=6 while slow
        // (gated, 6 ticks) runs, then drains 3 updates at 7, 8, 9
        assert_eq!(ev.finish, 9);
    }

    #[test]
    fn reducer_model_matches_eq3() {
        for (n, h) in [(64u64, 3u32), (100, 2), (1000, 6), (5, 1)] {
            let m = ExecModel::reducer(n, h);
            let r = m.run_event();
            let leaves = 1u64 << h;
            assert_eq!(
                r.finish,
                n.div_ceil(leaves) + u64::from(h) + 1,
                "n={n} h={h}"
            );
            assert_eq!(r.updates_applied, n + (leaves - 1) + 1);
            assert_eq!(r, m.run_ticks(UNBOUNDED));
        }
    }

    #[test]
    fn reducer_height_zero_serializes() {
        let m = ExecModel::reducer(100, 0);
        assert_eq!(m.run_event().finish, 100);
        assert_eq!(m.event_count(), 1);
    }

    #[test]
    fn long_chain_event_cost_is_independent_of_makespan() {
        // 64 cells of 10_000 updates each: the event engine processes
        // 127 events; the tick loop would walk 640_000 ticks. This test
        // runs the event engine only — run_ticks here is exactly what
        // BENCH_pr5.json measured as the baseline.
        let mut g: Dag<(), ()> = Dag::new();
        let mut prev = g.add_node(());
        for _ in 0..63 {
            let v = g.add_node(());
            g.add_edge(prev, v, ()).unwrap();
            prev = v;
        }
        let m = ExecModel::from_works(&g, &vec![10_000u64; 64]);
        assert_eq!(m.event_count(), 64 + 63);
        let r = m.run_event();
        assert_eq!(r.finish, 640_000);
        assert_eq!(r.updates_applied, 640_000);
        assert_eq!(r.peak_parallelism, 1);
    }

    #[test]
    #[should_panic(expected = "one work value per cell")]
    fn wrong_work_length_rejected() {
        let mut g: Dag<(), ()> = Dag::new();
        g.add_node(());
        ExecModel::from_works(&g, &[1, 2]);
    }

    /// Many disconnected diamond components with interleaved node ids
    /// (cells of different components alternate), plus one isolated
    /// zero-work cell — the sharded engine must reconstruct the exact
    /// serial result from per-shard runs.
    fn multi_component(k: usize) -> ExecModel {
        let mut g: Dag<(), ()> = Dag::new();
        let mut works: Vec<Time> = Vec::new();
        let mut roots = Vec::new();
        for c in 0..k as u64 {
            let s = g.add_node(());
            works.push(2 + c % 3);
            roots.push(s);
        }
        for (c, &s) in roots.iter().enumerate() {
            let c = c as u64;
            let a = g.add_node(());
            let b = g.add_node(());
            let t = g.add_node(());
            g.add_edge(s, a, ()).unwrap();
            g.add_edge(s, b, ()).unwrap();
            g.add_parallel_edges(a, t, (), 1 + (c % 2) as usize).unwrap();
            g.add_edge(b, t, ()).unwrap();
            works.push(1); // a: pipelined single update
            works.push(3 + c % 2); // b: gated explicit work
            works.push(5); // t: gated (works != d_in)
        }
        g.add_node(());
        works.push(0); // isolated zero-work cell
        ExecModel::from_works(&g, &works)
    }

    #[test]
    fn sharded_replay_is_bit_identical_to_serial() {
        for k in [2usize, 5, 9] {
            let m = multi_component(k);
            assert_eq!(m.weak_components().len(), k + 1, "k={k}");
            let serial = m.run_event();
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    m.run_event_sharded(threads),
                    serial,
                    "k={k} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sharded_replay_falls_back_on_connected_models() {
        let m = figure4();
        assert_eq!(m.weak_components().len(), 1);
        assert_eq!(m.run_event_sharded(4), m.run_event());
    }

    #[test]
    fn component_partition_is_deterministic_and_id_ordered() {
        let m = multi_component(3);
        let comps = m.weak_components();
        // ordered by smallest cell id; cells ascending within a shard
        let mins: Vec<u32> = comps.iter().map(|c| c[0]).collect();
        assert!(mins.windows(2).all(|w| w[0] < w[1]));
        for c in &comps {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, m.node_count());
    }
}
