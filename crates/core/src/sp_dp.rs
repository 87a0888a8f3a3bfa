//! §3.4: pseudo-polynomial exact algorithm for series-parallel DAGs.
//!
//! A series-parallel graph decomposes into a rooted binary tree `T_G` of
//! series and parallel compositions. With `T(v, λ)` = optimal makespan of
//! the sub-DAG `G_v` using `λ` units,
//!
//! ```text
//! T(leaf j, λ)     = t_j(λ)                      (spend what flows through)
//! T(series,  λ)    = T(left, λ) + T(right, λ)    (reuse over the path!)
//! T(parallel, λ)   = min_{0 ≤ i ≤ λ} max(T(left, i), T(right, λ − i))
//! ```
//!
//! The series rule is where *resource reuse over paths* enters: both
//! children see the full λ.
//!
//! # The series rule by regime
//!
//! The same walk evaluates the classical no-reuse recurrence of
//! Question 1.1 ([`crate::regimes::sp_noreuse_curve`]); the regime
//! changes only the series rule. **Routed** (the paper's regime) hands
//! the full `λ` to both children, as above. **No reuse** splits `λ`
//! with a min-plus scan, `T(series, λ) = min_{0 ≤ i ≤ λ} T(left, i) +
//! T(right, λ − i)`, in `O(B²)`: a sum of monotone tables is not
//! V-shaped, so the two-pointer sweep below does not apply.
//!
//! # The `O(mB)` monotone merge
//!
//! The paper evaluates the parallel rule with an `O(B)` scan per budget,
//! `O(B²)` per parallel node and `O(mB²)` overall. This implementation
//! exploits that every DP table is **nonincreasing in λ** (more budget
//! never hurts) to compute all `B + 1` outputs of a parallel node in a
//! single two-pointer sweep:
//!
//! For fixed `λ`, `f(i) = max(T_x(i), T_y(λ − i))` is the max of a
//! nonincreasing and a nondecreasing sequence in `i`, so it is
//! V-shaped: it equals `T_x(i)` strictly before the *crossing index*
//! `c(λ) = min { i : T_x(i) ≤ T_y(λ − i) }` and `T_y(λ − i)` from `c(λ)`
//! on. The minimum is therefore attained at `c(λ)` or `c(λ) − 1`.
//! Raising `λ` by one only lowers the right-hand side `T_y(λ − i)`, so
//! `c(λ)` is **nondecreasing in λ** — one pointer advancing across the
//! whole sweep visits every crossing index in `O(B)` amortized total
//! steps ([`parallel_merge_monotone`]). That drops the DP to `O(B)` per
//! node and `O(mB)` overall; `tests` and `proptest_invariants.rs` pin it
//! against the naive scan ([`parallel_merge_naive`]).
//!
//! # One walk
//!
//! Every entry point runs one walk: a post-order evaluation on a value
//! stack (exactly `SpTree::post_order`) that owns the node recurrence,
//! the table arena and the per-node `dp_merge_steps` charge, so a
//! metered walk stops at the same node with the same [`Exhausted`]
//! every time. It leaves split choices and leaf durations by node id,
//! and one allocation recovery reads them top-down.
//!
//! # Table arena
//!
//! Child tables are recycled into an arena the moment their parent's
//! table is computed, so the number of *live* `B + 1`-entry tables is
//! bounded by the decomposition-tree depth (plus the arena's free list
//! reusing their allocations) instead of `m`.
//! [`SpDpStats`] reports cells written, merge steps, and the live-table
//! high-water mark; the frozen `BENCH_pr1.json` record holds them as
//! evidence of the `O(mB)` bound, and `rtt_bench`'s `perf_guard` test
//! pins them.

use crate::exact::Regime;
use crate::instance::ArcInstance;
use crate::solution::{routed_solution, Solution};
use rtt_budget::{BudgetMeter, Exhausted};
use rtt_dag::sp::{decompose, SpKind, SpTree};
use rtt_dag::EdgeId;
use rtt_duration::{Duration, Resource, Time};

/// Result of the series-parallel DP.
#[derive(Debug, Clone)]
pub struct SpSolution {
    /// Optimal makespan using the full budget.
    pub makespan: Time,
    /// Optimal makespan for *every* budget `0..=B` (root table) — row
    /// `λ` answers "what if the budget were λ", so one DP run yields the
    /// whole tradeoff curve.
    pub curve: Vec<Time>,
    /// Per-edge resource level in an optimal allocation at budget `B`.
    pub levels: Vec<Resource>,
}

/// Work counters for one DP run (see the module docs; surfaced in
/// `BENCH_pr1.json` to certify the `O(mB)` bound empirically).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpDpStats {
    /// Leaf nodes evaluated.
    pub leaves: usize,
    /// Series compositions merged.
    pub series: usize,
    /// Parallel compositions merged.
    pub parallels: usize,
    /// Table entries written (`(B+1) ·` nodes — the `O(mB)` term).
    pub cells: u64,
    /// Inner-loop steps across all merges that split `λ`: parallel
    /// merges (two-pointer sweeps, `≤ 2(B+1)` per node; the naive scan
    /// pays `Θ(B²)`), and no-reuse series scans.
    pub merge_steps: u64,
    /// High-water mark of simultaneously live DP tables (bounded by the
    /// decomposition-tree depth thanks to the arena, not by `m`).
    pub peak_live_tables: usize,
}

/// Merges two nonincreasing child tables at a parallel node in one
/// two-pointer sweep: `out[λ] = min_i max(tx[i], ty[λ−i])` for every
/// `λ` at once, `O(B)` amortized (see the module docs for the
/// crossing-index argument). `choice[λ]` records an optimal split `i`.
/// Returns the number of inner-loop steps taken.
pub fn parallel_merge_monotone(
    tx: &[Time],
    ty: &[Time],
    out: &mut Vec<Time>,
    choice: &mut Vec<u32>,
) -> u64 {
    debug_assert_eq!(tx.len(), ty.len());
    debug_assert!(
        tx.windows(2).all(|w| w[1] <= w[0]),
        "tx must be nonincreasing"
    );
    debug_assert!(
        ty.windows(2).all(|w| w[1] <= w[0]),
        "ty must be nonincreasing"
    );
    out.clear();
    choice.clear();
    let mut i = 0usize;
    let mut steps = 0u64;
    for l in 0..tx.len() {
        // advance to the crossing index c(l) = min { i : tx[i] ≤ ty[l−i] };
        // c is nondecreasing in l, so `i` never moves backwards
        while i < l && tx[i] > ty[l - i] {
            i += 1;
            steps += 1;
        }
        // the V-shape leaves exactly two candidates: c(l) and c(l) − 1
        let mut best = tx[i].max(ty[l - i]);
        let mut split = i;
        if i > 0 {
            let alt = tx[i - 1].max(ty[l - i + 1]);
            if alt < best {
                best = alt;
                split = i - 1;
            }
        }
        out.push(best);
        choice.push(split as u32);
        steps += 1;
    }
    steps
}

/// The no-reuse series rule (see the module docs): the direct min-plus
/// scan `out[λ] = min_i tx[i] + ty[λ−i]`, `O(B²)`. `choice[λ]` records
/// the first optimal split `i`. Returns the number of inner-loop steps.
fn min_plus_merge(tx: &[Time], ty: &[Time], out: &mut Vec<Time>, choice: &mut Vec<u32>) -> u64 {
    let mut steps = 0u64;
    for l in 0..tx.len() {
        let (mut best, mut split) = (Time::MAX, 0);
        for i in 0..=l {
            let v = tx[i].saturating_add(ty[l - i]);
            if v < best {
                best = v;
                split = i;
            }
        }
        out.push(best);
        choice.push(split as u32);
        steps += l as u64 + 1;
    }
    steps
}

/// The paper's direct `O(B²)` parallel-node scan, retained as the
/// differential-testing and benchmarking baseline for
/// [`parallel_merge_monotone`].
pub fn parallel_merge_naive(tx: &[Time], ty: &[Time]) -> (Vec<Time>, Vec<u32>) {
    debug_assert_eq!(tx.len(), ty.len());
    if tx.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let b = tx.len() - 1;
    let mut t = vec![Time::MAX; b + 1];
    let mut choice = vec![0u32; b + 1];
    for l in 0..=b {
        for i in 0..=l {
            let v = tx[i].max(ty[l - i]);
            if v < t[l] {
                t[l] = v;
                choice[l] = i as u32;
            }
        }
    }
    (t, choice)
}

/// Recycles table allocations so at most tree-depth-many are live.
#[derive(Default)]
struct TableArena {
    free: Vec<Vec<Time>>,
    live: usize,
    peak: usize,
}

impl TableArena {
    fn alloc(&mut self) -> Vec<Time> {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        self.free.pop().unwrap_or_default()
    }

    fn recycle(&mut self, mut table: Vec<Time>) {
        table.clear();
        self.live -= 1;
        self.free.push(table);
    }
}

/// Root table, optimal allocation, and work counters from one DP run —
/// what [`solve_sp_tree_with_stats`] and [`solve_sp_tree_metered`]
/// return.
pub type SpDpSolution = (Vec<Time>, Vec<(EdgeId, Resource)>, SpDpStats);

/// Runs the DP on an explicit decomposition tree, with work counters.
///
/// `duration_of(e)` supplies each leaf's duration function; `budget` is
/// `B`. Returns the root table, an optimal allocation, and the
/// counters.
pub fn solve_sp_tree_with_stats(
    tree: &SpTree,
    duration_of: impl Fn(EdgeId) -> Duration,
    budget: Resource,
) -> SpDpSolution {
    walk_unmetered(tree, Regime::Routed, &duration_of, budget)
}

/// [`solve_sp_tree_with_stats`] under a cooperative budget meter: each
/// parallel merge charges its two-pointer step count to the
/// `dp_merge_steps` dimension (one batched charge per node — the same
/// quantity [`SpDpStats::merge_steps`] reports), so an over-budget DP
/// stops at the next parallel node with a typed [`Exhausted`].
pub fn solve_sp_tree_metered(
    tree: &SpTree,
    duration_of: impl Fn(EdgeId) -> Duration,
    budget: Resource,
    meter: Option<&BudgetMeter>,
) -> Result<SpDpSolution, Exhausted> {
    walk(tree, Regime::Routed, &duration_of, budget, meter)
}

/// The one DP walk (see the module docs): evaluate the tree in
/// post-order on a value stack, leaving split choices and leaf
/// durations by node id, then recover an optimal allocation at `budget`
/// top-down from them. Each merge that splits `λ` charges its steps to
/// `meter` right after it runs.
pub(crate) fn walk(
    tree: &SpTree,
    regime: Regime,
    duration_of: &impl Fn(EdgeId) -> Duration,
    budget: Resource,
    meter: Option<&BudgetMeter>,
) -> Result<SpDpSolution, Exhausted> {
    let b = budget as usize;
    let mut arena = TableArena::default();
    let mut stats = SpDpStats::default();
    let mut splits: Vec<Option<Vec<u32>>> = vec![None; tree.len()];
    let mut durs: Vec<Option<Duration>> = vec![None; tree.len()];
    let mut stack: Vec<Vec<Time>> = Vec::new();
    for id in tree.post_order() {
        let kind = tree.kind(id);
        let mut t = arena.alloc();
        if let SpKind::Leaf(e) = kind {
            let dur = duration_of(e);
            t.extend((0..=b).map(|l| dur.time(l as Resource)));
            durs[id.index()] = Some(dur);
            stats.leaves += 1;
        } else {
            let ty = stack.pop().expect("post-order");
            let tx = stack.pop().expect("post-order");
            match (kind, regime) {
                (SpKind::Series(..), Regime::Routed) => {
                    // reuse over the path: both children see the full λ
                    t.extend(tx.iter().zip(&ty).map(|(&a, &c)| a.saturating_add(c)));
                    stats.series += 1;
                }
                _ => {
                    let mut choice = Vec::with_capacity(b + 1);
                    let steps = if let SpKind::Parallel(..) = kind {
                        stats.parallels += 1;
                        parallel_merge_monotone(&tx, &ty, &mut t, &mut choice)
                    } else {
                        stats.series += 1;
                        min_plus_merge(&tx, &ty, &mut t, &mut choice)
                    };
                    stats.merge_steps += steps;
                    if let Some(m) = meter {
                        m.charge_merge_steps(steps)?;
                    }
                    splits[id.index()] = Some(choice);
                }
            }
            arena.recycle(tx);
            arena.recycle(ty);
        }
        stats.cells += (b + 1) as u64;
        stack.push(t);
    }
    stats.peak_live_tables = arena.peak;
    let root_table = stack.pop().expect("tree evaluated");

    let mut alloc: Vec<(EdgeId, Resource)> = Vec::new();
    let mut todo = vec![(tree.root(), budget)];
    while let Some((id, lambda)) = todo.pop() {
        match tree.kind(id) {
            SpKind::Leaf(e) => {
                // leaf tables were recycled; t(λ) is just the duration
                let dur = durs[id.index()].as_ref().expect("leaf evaluated");
                alloc.push((e, dur.resource_for_time(dur.time(lambda)).unwrap_or(0)));
            }
            SpKind::Series(x, y) | SpKind::Parallel(x, y) => {
                let (lx, ly) = match &splits[id.index()] {
                    Some(choice) => {
                        let i = choice[lambda as usize] as Resource;
                        (i, lambda - i)
                    }
                    // a routed series node: reuse over the path
                    None => (lambda, lambda),
                };
                todo.push((x, lx));
                todo.push((y, ly));
            }
        }
    }
    Ok((root_table, alloc, stats))
}

/// [`walk`] without a meter, which cannot exhaust.
pub(crate) fn walk_unmetered(
    tree: &SpTree,
    regime: Regime,
    duration_of: &impl Fn(EdgeId) -> Duration,
    budget: Resource,
) -> SpDpSolution {
    walk(tree, regime, duration_of, budget, None).expect("an unmetered DP cannot exhaust")
}

/// The pre-optimization DP (per-node `Vec` tables, naive `O(B²)`
/// parallel scans), retained verbatim as the baseline behind the
/// speedup `BENCH_pr1.json` records and so tests can differential-check
/// the fast path.
pub fn solve_sp_tree_naive(
    tree: &SpTree,
    mut duration_of: impl FnMut(EdgeId) -> Duration,
    budget: Resource,
) -> (Vec<Time>, Vec<(EdgeId, Resource)>) {
    let b = budget as usize;
    let order = tree.post_order();
    let mut tables: Vec<Option<Vec<Time>>> = vec![None; tree.len()];
    let mut splits: Vec<Option<Vec<u32>>> = vec![None; tree.len()];
    let mut durs: Vec<Option<Duration>> = vec![None; tree.len()];

    for id in &order {
        let table = match tree.kind(*id) {
            SpKind::Leaf(e) => {
                let dur = duration_of(e);
                let t: Vec<Time> = (0..=b).map(|l| dur.time(l as Resource)).collect();
                durs[id.index()] = Some(dur);
                t
            }
            SpKind::Series(x, y) => {
                let tx = tables[x.index()].as_ref().expect("post-order");
                let ty = tables[y.index()].as_ref().expect("post-order");
                (0..=b).map(|l| tx[l].saturating_add(ty[l])).collect()
            }
            SpKind::Parallel(x, y) => {
                let tx = tables[x.index()].as_ref().expect("post-order");
                let ty = tables[y.index()].as_ref().expect("post-order");
                let (t, choice) = parallel_merge_naive(tx, ty);
                splits[id.index()] = Some(choice);
                t
            }
        };
        tables[id.index()] = Some(table);
    }

    let root_table = tables[tree.root().index()].clone().expect("root computed");

    let mut alloc: Vec<(EdgeId, Resource)> = Vec::new();
    let mut stack = vec![(tree.root(), budget)];
    while let Some((id, lambda)) = stack.pop() {
        match tree.kind(id) {
            SpKind::Leaf(e) => {
                let dur = durs[id.index()].as_ref().expect("leaf evaluated");
                let t = tables[id.index()].as_ref().expect("leaf table")[lambda as usize];
                let spend = dur.resource_for_time(t).unwrap_or(0);
                alloc.push((e, spend));
            }
            SpKind::Series(x, y) => {
                stack.push((x, lambda));
                stack.push((y, lambda));
            }
            SpKind::Parallel(x, y) => {
                let i = splits[id.index()].as_ref().expect("parallel split")[lambda as usize]
                    as Resource;
                stack.push((x, i));
                stack.push((y, lambda - i));
            }
        }
    }
    (root_table, alloc)
}

/// Exact minimum-makespan for a series-parallel [`ArcInstance`]:
/// decomposes the DAG, runs the DP, and certifies the allocation by
/// routing it with a min-flow. Returns `None` if the instance is not
/// two-terminal series-parallel.
pub fn solve_sp_exact(arc: &ArcInstance, budget: Resource) -> Option<(SpSolution, Solution)> {
    let tree = decompose(arc.dag(), arc.source(), arc.sink())?;
    Some(
        solve_sp_exact_with_tree_metered(arc, &tree, budget, None)
            .expect("an unmetered DP cannot exhaust"),
    )
}

/// [`solve_sp_exact`] on a caller-supplied decomposition tree, so one
/// [`decompose`] run can feed many budgets/solves on the same instance
/// (`rtt_engine` shares it through its preprocessing cache), under a
/// cooperative budget meter (see [`solve_sp_tree_metered`] for the
/// charging scheme). The tree must come from decomposing `arc` itself.
pub fn solve_sp_exact_with_tree_metered(
    arc: &ArcInstance,
    tree: &SpTree,
    budget: Resource,
    meter: Option<&BudgetMeter>,
) -> Result<(SpSolution, Solution), Exhausted> {
    let d = arc.dag();
    let (curve, alloc, _) = walk(
        tree,
        Regime::Routed,
        &|e| d.edge(e).duration.clone(),
        budget,
        meter,
    )?;
    let makespan = curve[budget as usize];
    let mut levels = vec![0u64; d.edge_count()];
    for (e, r) in &alloc {
        levels[e.index()] = *r;
    }
    let solution = routed_solution(arc, &levels);
    debug_assert!(
        solution.budget_used <= budget,
        "DP allocation must be routable within B: {} > {budget}",
        solution.budget_used
    );
    debug_assert_eq!(
        solution.makespan, makespan,
        "DP value must match its allocation"
    );
    Ok((
        SpSolution {
            makespan,
            curve,
            levels,
        },
        solution,
    ))
}

/// Exact minimum-resource for a series-parallel instance: the smallest
/// `λ ≤ budget_cap` with `T(root, λ) ≤ target` (one DP run gives the
/// whole curve). `None` if unreachable within the cap or not SP.
pub fn sp_min_resource(arc: &ArcInstance, target: Time, budget_cap: Resource) -> Option<Resource> {
    let d = arc.dag();
    let tree = decompose(d, arc.source(), arc.sink())?;
    let (curve, _, _) = solve_sp_tree_with_stats(&tree, |e| d.edge(e).duration.clone(), budget_cap);
    curve
        .iter()
        .position(|&t| t <= target)
        .map(|i| i as Resource)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;
    use crate::instance::{Activity, Instance, Job};
    use crate::solution::validate;
    use crate::transform::to_arc_form;
    use rtt_dag::Dag;

    fn serial_chain() -> ArcInstance {
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::new(Duration::zero()));
        let x = g.add_node(Job::new(Duration::two_point(10, 4, 0)));
        let y = g.add_node(Job::new(Duration::two_point(8, 4, 2)));
        let t = g.add_node(Job::new(Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(x, y, ()).unwrap();
        g.add_edge(y, t, ()).unwrap();
        to_arc_form(&Instance::new(g).unwrap()).0
    }

    #[test]
    fn chain_curve_and_reuse() {
        let arc = serial_chain();
        let (sp, sol) = solve_sp_exact(&arc, 6).unwrap();
        // curve: λ=0 → 18; λ=4 → 2 (both jobs share the 4 units).
        assert_eq!(sp.curve[0], 18);
        assert_eq!(sp.curve[4], 2);
        assert_eq!(sp.curve[6], 2);
        validate(&arc, &sol).unwrap();
    }

    #[test]
    fn matches_bruteforce_on_chain() {
        let arc = serial_chain();
        for b in 0..=8u64 {
            let (sp, _) = solve_sp_exact(&arc, b).unwrap();
            let ex = solve_exact(&arc, b);
            assert_eq!(
                sp.makespan, ex.solution.makespan,
                "budget {b}: DP vs brute force"
            );
        }
    }

    #[test]
    fn parallel_split_optimal() {
        // Two parallel improvable activities with different gains.
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, Activity::new(Duration::two_point(10, 2, 1)))
            .unwrap();
        g.add_edge(s, t, Activity::new(Duration::two_point(9, 3, 0)))
            .unwrap();
        let arc = ArcInstance::new(g).unwrap();
        let (sp, sol) = solve_sp_exact(&arc, 5).unwrap();
        // λ=5: split 2/3 → max(1, 0) = 1.
        assert_eq!(sp.makespan, 1);
        assert_eq!(sol.budget_used, 5);
        // λ=4: can only fix one: max(1,9)=9 or max(10,0)=10 → 9.
        assert_eq!(sp.curve[4], 9);
        validate(&arc, &sol).unwrap();
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let arc = serial_chain();
        let (sp, _) = solve_sp_exact(&arc, 10).unwrap();
        for w in sp.curve.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn min_resource_from_curve() {
        let arc = serial_chain();
        assert_eq!(sp_min_resource(&arc, 18, 10), Some(0));
        assert_eq!(sp_min_resource(&arc, 2, 10), Some(4));
        assert_eq!(sp_min_resource(&arc, 1, 10), None);
    }

    #[test]
    fn non_sp_instance_returns_none() {
        // Wheatstone bridge is not series-parallel.
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        for (u, v) in [(s, a), (s, b), (a, b), (a, t), (b, t)] {
            g.add_edge(u, v, Activity::new(Duration::constant(1)))
                .unwrap();
        }
        let arc = ArcInstance::new(g).unwrap();
        assert!(solve_sp_exact(&arc, 3).is_none());
    }

    #[test]
    fn budget_zero_table() {
        let arc = serial_chain();
        let (sp, sol) = solve_sp_exact(&arc, 0).unwrap();
        assert_eq!(sp.makespan, 18);
        assert_eq!(sol.budget_used, 0);
        assert_eq!(sp.curve.len(), 1);
    }

    /// Deterministic pseudo-random nonincreasing table.
    fn pseudo_table(seed: u64, len: usize, start: Time) -> Vec<Time> {
        let mut t = start;
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let drop = (state >> 60) % 4;
                t = t.saturating_sub(drop);
                t
            })
            .collect()
    }

    #[test]
    fn monotone_merge_matches_naive_on_random_tables() {
        for seed in 0..200u64 {
            let len = 1 + (seed as usize % 40);
            let tx = pseudo_table(seed * 2 + 1, len, 30 + seed % 50);
            let ty = pseudo_table(seed * 2 + 2, len, 25 + seed % 60);
            let (naive, _) = parallel_merge_naive(&tx, &ty);
            let mut fast = Vec::new();
            let mut choice = Vec::new();
            let steps = parallel_merge_monotone(&tx, &ty, &mut fast, &mut choice);
            assert_eq!(fast, naive, "seed {seed}: tables diverge");
            // the recorded split must achieve the table value
            for l in 0..len {
                let i = choice[l] as usize;
                assert!(i <= l);
                assert_eq!(tx[i].max(ty[l - i]), fast[l], "seed {seed}, λ={l}");
            }
            // O(B): one step per λ plus at most len pointer advances
            assert!(steps <= 2 * len as u64, "seed {seed}: {steps} steps");
        }
    }

    #[test]
    fn merges_accept_empty_tables() {
        let (t, c) = parallel_merge_naive(&[], &[]);
        assert!(t.is_empty() && c.is_empty());
        let mut out = vec![1];
        let mut choice = vec![1];
        parallel_merge_monotone(&[], &[], &mut out, &mut choice);
        assert!(out.is_empty() && choice.is_empty());
    }

    #[test]
    fn monotone_merge_handles_infinite_sentinels() {
        let tx = vec![rtt_duration::INF, 5, 5, 0];
        let ty = vec![rtt_duration::INF, rtt_duration::INF, 3, 3];
        let (naive, _) = parallel_merge_naive(&tx, &ty);
        let mut fast = Vec::new();
        let mut choice = Vec::new();
        parallel_merge_monotone(&tx, &ty, &mut fast, &mut choice);
        assert_eq!(fast, naive);
    }

    #[test]
    fn fast_dp_matches_naive_dp_end_to_end() {
        let arc = serial_chain();
        let d = arc.dag();
        let tree = decompose(d, arc.source(), arc.sink()).unwrap();
        for b in 0..=8u64 {
            let (fast, _, _) = solve_sp_tree_with_stats(&tree, |e| d.edge(e).duration.clone(), b);
            let (naive, _) = solve_sp_tree_naive(&tree, |e| d.edge(e).duration.clone(), b);
            assert_eq!(fast, naive, "budget {b}");
        }
    }

    #[test]
    fn stats_certify_linear_work_and_bounded_liveness() {
        // A wide parallel bundle: every useful level distinct.
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        for i in 0..16u64 {
            g.add_edge(
                s,
                t,
                Activity::new(Duration::two_point(20 + i, 2 + i % 3, 1)),
            )
            .unwrap();
        }
        let arc = ArcInstance::new(g).unwrap();
        let d = arc.dag();
        let tree = decompose(d, arc.source(), arc.sink()).unwrap();
        let budget = 64u64;
        let (_, _, stats) = solve_sp_tree_with_stats(&tree, |e| d.edge(e).duration.clone(), budget);
        assert_eq!(stats.leaves, 16);
        assert_eq!(stats.parallels, 15);
        let nodes = (stats.leaves + stats.series + stats.parallels) as u64;
        assert_eq!(stats.cells, nodes * (budget + 1));
        // O(mB): every parallel merge stays within 2(B+1) steps
        assert!(
            stats.merge_steps <= stats.parallels as u64 * 2 * (budget + 1),
            "{stats:?}"
        );
        // the arena keeps liveness near tree depth, far below m
        assert!(stats.peak_live_tables <= 18, "{stats:?}");
    }

    /// Series chain of parallel bundles: SP by construction, with
    /// stages·width leaves.
    fn staged_instance(stages: usize, width: u64) -> ArcInstance {
        let mut g: Dag<(), Activity> = Dag::new();
        let mut prev = g.add_node(());
        for s in 0..stages as u64 {
            let next = g.add_node(());
            for i in 0..width {
                let base = 8 + (s * 7 + i * 3) % 13;
                let fast = 1 + (s + i) % 4;
                g.add_edge(
                    prev,
                    next,
                    Activity::new(Duration::two_point(base, fast, (i % 3) as Resource)),
                )
                .unwrap();
            }
            prev = next;
        }
        ArcInstance::new(g).unwrap()
    }

    #[test]
    fn metered_walk_stops_mid_walk() {
        let arc = staged_instance(40, 3);
        let d = arc.dag();
        let tree = decompose(d, arc.source(), arc.sink()).unwrap();
        let budget = 24u64;
        let (_, _, stats) = solve_sp_tree_with_stats(&tree, |e| d.edge(e).duration.clone(), budget);
        // a limit that trips mid-walk, well before the last parallel node
        let limit = stats.merge_steps / 2;
        let meter = BudgetMeter::with_limits(None, Some(limit), None, None);
        let stop =
            solve_sp_tree_metered(&tree, |e| d.edge(e).duration.clone(), budget, Some(&meter))
                .expect_err("the limit trips mid-walk");
        assert_eq!(stop.dimension, rtt_budget::Dimension::DpMergeSteps);
        assert_eq!(stop.limit, limit);
        assert!(stop.consumed > limit && stop.consumed < stats.merge_steps);
    }
}
