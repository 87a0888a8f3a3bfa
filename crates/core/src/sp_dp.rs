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
//! # Table arena
//!
//! Child tables are recycled into an arena the moment their parent's
//! table is computed, so the number of *live* `B + 1`-entry tables is
//! bounded by the decomposition-tree depth (plus the arena's free list
//! reusing their allocations) instead of `m`. [`SpDpStats`] reports
//! cells written, merge steps, and the live-table high-water mark; the
//! frozen `BENCH_pr1.json` record holds them as evidence of the `O(mB)`
//! bound, and `rtt_bench`'s `perf_guard` test pins them.

use crate::instance::ArcInstance;
use crate::solution::Solution;
use rtt_budget::{BudgetMeter, Exhausted};
use rtt_dag::sp::{decompose, SpKind, SpTree};
use rtt_dag::EdgeId;
use rtt_duration::{Duration, Resource, Time};
use rtt_flow::{min_flow, BoundedEdge};

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
    /// Inner-loop steps across all parallel merges (two-pointer sweeps:
    /// `≤ 2(B+1)` per parallel node; the naive scan pays `Θ(B²)`).
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
    debug_assert!(tx.windows(2).all(|w| w[1] <= w[0]), "tx must be nonincreasing");
    debug_assert!(ty.windows(2).all(|w| w[1] <= w[0]), "ty must be nonincreasing");
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

/// Runs the DP on an explicit decomposition tree.
///
/// `duration_of(e)` supplies each leaf's duration function; `budget` is
/// `B`. Returns the root table and an optimal allocation.
pub fn solve_sp_tree(
    tree: &SpTree,
    duration_of: impl FnMut(EdgeId) -> Duration,
    budget: Resource,
) -> (Vec<Time>, Vec<(EdgeId, Resource)>) {
    let (table, alloc, _) = solve_sp_tree_with_stats(tree, duration_of, budget);
    (table, alloc)
}

/// [`solve_sp_tree`] with work counters for benchmarking.
pub fn solve_sp_tree_with_stats(
    tree: &SpTree,
    duration_of: impl FnMut(EdgeId) -> Duration,
    budget: Resource,
) -> SpDpSolution {
    solve_sp_tree_metered(tree, duration_of, budget, None)
        .expect("an unmetered DP cannot exhaust")
}

/// [`solve_sp_tree_with_stats`] under a cooperative budget meter: each
/// parallel merge charges its two-pointer step count to the
/// `dp_merge_steps` dimension (one batched charge per node — the same
/// quantity [`SpDpStats::merge_steps`] reports), so an over-budget DP
/// stops at the next parallel node with a typed [`Exhausted`].
pub fn solve_sp_tree_metered(
    tree: &SpTree,
    mut duration_of: impl FnMut(EdgeId) -> Duration,
    budget: Resource,
    meter: Option<&BudgetMeter>,
) -> Result<SpDpSolution, Exhausted> {
    let b = budget as usize;
    let order = tree.post_order();
    let mut stats = SpDpStats::default();
    let mut arena = TableArena::default();
    // tables[node] = Vec<Time> of length b+1, taken (and recycled) by
    // the parent as soon as it has merged them
    let mut tables: Vec<Option<Vec<Time>>> = vec![None; tree.len()];
    // split choice for parallel nodes (per λ), for allocation recovery
    let mut splits: Vec<Option<Vec<u32>>> = vec![None; tree.len()];
    // cached durations for leaves (recovery needs them again)
    let mut durs: Vec<Option<Duration>> = vec![None; tree.len()];

    for id in &order {
        let table = match tree.kind(*id) {
            SpKind::Leaf(e) => {
                let dur = duration_of(e);
                let mut t = arena.alloc();
                t.extend((0..=b).map(|l| dur.time(l as Resource)));
                durs[id.index()] = Some(dur);
                stats.leaves += 1;
                t
            }
            SpKind::Series(x, y) => {
                let tx = tables[x.index()].take().expect("post-order");
                let ty = tables[y.index()].take().expect("post-order");
                let mut t = arena.alloc();
                t.extend(
                    tx.iter()
                        .zip(&ty)
                        .map(|(&a, &b)| a.saturating_add(b)),
                );
                arena.recycle(tx);
                arena.recycle(ty);
                stats.series += 1;
                t
            }
            SpKind::Parallel(x, y) => {
                let tx = tables[x.index()].take().expect("post-order");
                let ty = tables[y.index()].take().expect("post-order");
                let mut t = arena.alloc();
                let mut choice = Vec::with_capacity(b + 1);
                let steps = parallel_merge_monotone(&tx, &ty, &mut t, &mut choice);
                stats.merge_steps += steps;
                if let Some(m) = meter {
                    m.charge_merge_steps(steps)?;
                }
                arena.recycle(tx);
                arena.recycle(ty);
                splits[id.index()] = Some(choice);
                stats.parallels += 1;
                t
            }
        };
        stats.cells += (b + 1) as u64;
        tables[id.index()] = Some(table);
    }
    stats.peak_live_tables = arena.peak;

    let root_table = tables[tree.root().index()].take().expect("root computed");

    // ---- allocation recovery (iterative stack walk)
    let mut alloc: Vec<(EdgeId, Resource)> = Vec::new();
    let mut stack = vec![(tree.root(), budget)];
    while let Some((id, lambda)) = stack.pop() {
        match tree.kind(id) {
            SpKind::Leaf(e) => {
                // leaf tables were recycled; t(λ) is just the duration
                let dur = durs[id.index()].as_ref().expect("leaf evaluated");
                let t = dur.time(lambda);
                let spend = dur.resource_for_time(t).unwrap_or(0);
                alloc.push((e, spend));
            }
            SpKind::Series(x, y) => {
                // reuse over the path: both children get the full λ
                stack.push((x, lambda));
                stack.push((y, lambda));
            }
            SpKind::Parallel(x, y) => {
                let i = splits[id.index()].as_ref().expect("parallel split")
                    [lambda as usize] as Resource;
                stack.push((x, i));
                stack.push((y, lambda - i));
            }
        }
    }
    Ok((root_table, alloc, stats))
}

/// One subtree's evaluation: its root table plus the per-node
/// artifacts ([`SpDpStats`], parallel-split choices, leaf durations)
/// the caller scatters back into id-indexed slots. Keyed by node id,
/// so merging is independent of which worker produced what.
struct SubEval {
    table: Vec<Time>,
    splits: Vec<(u32, Vec<u32>)>,
    durs: Vec<(u32, Duration)>,
    stats: SpDpStats,
}

/// Post-order of the subtree rooted at `root` (iterative — decomposition
/// trees of long chains are spine-deep).
fn subtree_post_order(tree: &SpTree, root: rtt_dag::sp::SpNodeId) -> Vec<rtt_dag::sp::SpNodeId> {
    let mut out = Vec::new();
    let mut stack = vec![(root, false)];
    while let Some((id, expanded)) = stack.pop() {
        if expanded {
            out.push(id);
            continue;
        }
        stack.push((id, true));
        if let SpKind::Series(x, y) | SpKind::Parallel(x, y) = tree.kind(id) {
            stack.push((y, false));
            stack.push((x, false));
        }
    }
    out
}

/// Serially evaluates one subtree with its own [`TableArena`] (the
/// deterministic per-subtree arena handout: a worker's allocations
/// never depend on what other workers are doing). Tables live on a
/// value stack in post-order, so liveness stays bounded by the subtree
/// depth exactly as in the whole-tree walk.
fn eval_subtree_serial(
    tree: &SpTree,
    duration_of: &(impl Fn(EdgeId) -> Duration + Sync),
    b: usize,
    root: rtt_dag::sp::SpNodeId,
) -> SubEval {
    let mut arena = TableArena::default();
    let mut stats = SpDpStats::default();
    let mut splits = Vec::new();
    let mut durs = Vec::new();
    let mut stack: Vec<Vec<Time>> = Vec::new();
    for id in subtree_post_order(tree, root) {
        let table = match tree.kind(id) {
            SpKind::Leaf(e) => {
                let dur = duration_of(e);
                let mut t = arena.alloc();
                t.extend((0..=b).map(|l| dur.time(l as Resource)));
                durs.push((id.index() as u32, dur));
                stats.leaves += 1;
                t
            }
            SpKind::Series(..) => {
                let ty = stack.pop().expect("post-order");
                let tx = stack.pop().expect("post-order");
                let mut t = arena.alloc();
                t.extend(tx.iter().zip(&ty).map(|(&a, &b)| a.saturating_add(b)));
                arena.recycle(tx);
                arena.recycle(ty);
                stats.series += 1;
                t
            }
            SpKind::Parallel(..) => {
                let ty = stack.pop().expect("post-order");
                let tx = stack.pop().expect("post-order");
                let mut t = arena.alloc();
                let mut choice = Vec::with_capacity(b + 1);
                let steps = parallel_merge_monotone(&tx, &ty, &mut t, &mut choice);
                stats.merge_steps += steps;
                arena.recycle(tx);
                arena.recycle(ty);
                splits.push((id.index() as u32, choice));
                stats.parallels += 1;
                t
            }
        };
        stats.cells += (b + 1) as u64;
        stack.push(table);
    }
    stats.peak_live_tables = arena.peak;
    SubEval {
        table: stack.pop().expect("subtree evaluated"),
        splits,
        durs,
        stats,
    }
}

/// Subtree sizes (node counts), id-indexed.
fn subtree_sizes(tree: &SpTree) -> Vec<u32> {
    let mut sizes = vec![1u32; tree.len()];
    for id in tree.post_order() {
        if let SpKind::Series(x, y) | SpKind::Parallel(x, y) = tree.kind(id) {
            sizes[id.index()] = 1 + sizes[x.index()] + sizes[y.index()];
        }
    }
    sizes
}

/// Don't split a subtree smaller than this (the pieces would be all
/// handout overhead), and stop once the frontier reaches this many
/// pieces (enough slack for [`rtt_par::MAX_THREADS`] without shredding
/// locality).
const SPLIT_MIN_NODES: u32 = 64;
const FRONTIER_TARGET: usize = 32;

/// [`solve_sp_tree_with_stats`] with independent subtrees evaluated
/// concurrently. Bit-identical output at any `threads` value:
///
/// * the tree is cut into a **frontier** of subtrees by repeatedly
///   splitting the largest piece (ties to the smaller node id) — a
///   pure function of the tree, *independent of the thread count*, so
///   even the work counters don't vary with `threads`;
/// * frontier subtrees evaluate in parallel (`rtt_par::map_chunks`,
///   one chunk per subtree, each with its own deterministic
///   [`TableArena`]), producing per-node artifacts keyed by node id;
/// * the **crown** — the internal nodes above the frontier — merges
///   serially in post-order on the calling thread.
///
/// `cells` and `merge_steps` (and therefore any `dp_merge_steps`
/// charging built on them) equal the serial walk's exactly; only
/// `peak_live_tables` differs (the whole frontier is live at the crown,
/// where the serial walk recycles as it goes) — and deterministically
/// so, since the frontier doesn't depend on `threads`. Metered runs
/// stay on the serial walk (see [`solve_sp_exact_with_tree_metered`]):
/// mid-solve exhaustion points must not depend on evaluation order.
pub fn solve_sp_tree_par(
    tree: &SpTree,
    duration_of: impl Fn(EdgeId) -> Duration + Sync,
    budget: Resource,
    threads: usize,
) -> SpDpSolution {
    let b = budget as usize;
    let sizes = subtree_sizes(tree);

    // ---- fixed frontier: split the largest piece until pieces run out
    let mut frontier = vec![tree.root()];
    let mut crown: Vec<bool> = vec![false; tree.len()];
    while frontier.len() < FRONTIER_TARGET {
        let candidate = frontier
            .iter()
            .enumerate()
            .filter(|(_, id)| {
                sizes[id.index()] >= SPLIT_MIN_NODES
                    && !matches!(tree.kind(**id), SpKind::Leaf(_))
            })
            .max_by_key(|(_, id)| (sizes[id.index()], std::cmp::Reverse(id.index())));
        let Some((slot, _)) = candidate else { break };
        let id = frontier.swap_remove(slot);
        crown[id.index()] = true;
        let (SpKind::Series(x, y) | SpKind::Parallel(x, y)) = tree.kind(id) else {
            unreachable!("leaf filtered above");
        };
        frontier.push(x);
        frontier.push(y);
    }
    frontier.sort_by_key(|id| id.index());

    // ---- evaluate the frontier (one chunk per subtree, in order)
    let evals = rtt_par::map_chunks(frontier.len(), 1, threads, |i, _| {
        eval_subtree_serial(tree, &duration_of, b, frontier[i])
    });

    // ---- scatter artifacts; merge the crown serially in post-order
    let mut stats = SpDpStats::default();
    let mut tables: Vec<Option<Vec<Time>>> = vec![None; tree.len()];
    let mut splits: Vec<Option<Vec<u32>>> = vec![None; tree.len()];
    let mut durs: Vec<Option<Duration>> = vec![None; tree.len()];
    let frontier_live = evals.len();
    for (root, eval) in frontier.iter().zip(evals) {
        let SubEval {
            table,
            splits: s,
            durs: d,
            stats: st,
        } = eval;
        tables[root.index()] = Some(table);
        for (idx, choice) in s {
            splits[idx as usize] = Some(choice);
        }
        for (idx, dur) in d {
            durs[idx as usize] = Some(dur);
        }
        stats.leaves += st.leaves;
        stats.series += st.series;
        stats.parallels += st.parallels;
        stats.cells += st.cells;
        stats.merge_steps += st.merge_steps;
        stats.peak_live_tables = stats.peak_live_tables.max(st.peak_live_tables);
    }
    stats.peak_live_tables = stats.peak_live_tables.max(frontier_live);
    for id in tree.post_order() {
        if !crown[id.index()] {
            continue;
        }
        let (SpKind::Series(x, y) | SpKind::Parallel(x, y)) = tree.kind(id) else {
            unreachable!("crown nodes are internal");
        };
        let tx = tables[x.index()].take().expect("crown child evaluated");
        let ty = tables[y.index()].take().expect("crown child evaluated");
        let table = match tree.kind(id) {
            SpKind::Series(..) => {
                stats.series += 1;
                tx.iter()
                    .zip(&ty)
                    .map(|(&a, &b)| a.saturating_add(b))
                    .collect()
            }
            SpKind::Parallel(..) => {
                let mut t = Vec::with_capacity(b + 1);
                let mut choice = Vec::with_capacity(b + 1);
                stats.merge_steps += parallel_merge_monotone(&tx, &ty, &mut t, &mut choice);
                splits[id.index()] = Some(choice);
                stats.parallels += 1;
                t
            }
            SpKind::Leaf(_) => unreachable!("crown nodes are internal"),
        };
        stats.cells += (b + 1) as u64;
        tables[id.index()] = Some(table);
    }

    let root_table = tables[tree.root().index()].take().expect("root computed");

    // ---- allocation recovery: identical to the serial walk's
    let mut alloc: Vec<(EdgeId, Resource)> = Vec::new();
    let mut stack = vec![(tree.root(), budget)];
    while let Some((id, lambda)) = stack.pop() {
        match tree.kind(id) {
            SpKind::Leaf(e) => {
                let dur = durs[id.index()].as_ref().expect("leaf evaluated");
                let t = dur.time(lambda);
                let spend = dur.resource_for_time(t).unwrap_or(0);
                alloc.push((e, spend));
            }
            SpKind::Series(x, y) => {
                stack.push((x, lambda));
                stack.push((y, lambda));
            }
            SpKind::Parallel(x, y) => {
                let i = splits[id.index()].as_ref().expect("parallel split")
                    [lambda as usize] as Resource;
                stack.push((x, i));
                stack.push((y, lambda - i));
            }
        }
    }
    (root_table, alloc, stats)
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
                (0..=b)
                    .map(|l| tx[l].saturating_add(ty[l]))
                    .collect()
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
                let i = splits[id.index()].as_ref().expect("parallel split")
                    [lambda as usize] as Resource;
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
    Some(solve_sp_exact_with_tree(arc, &tree, budget))
}

/// [`solve_sp_exact`] on a caller-supplied decomposition tree, so one
/// [`decompose`] run can feed many budgets/solves on the same instance
/// (`rtt_engine` shares it through its preprocessing cache). The tree
/// must come from decomposing `arc` itself.
pub fn solve_sp_exact_with_tree(
    arc: &ArcInstance,
    tree: &SpTree,
    budget: Resource,
) -> (SpSolution, Solution) {
    solve_sp_exact_with_tree_metered(arc, tree, budget, None)
        .expect("an unmetered DP cannot exhaust")
}

/// [`solve_sp_exact_with_tree`] under a cooperative budget meter (see
/// [`solve_sp_tree_metered`] for the charging scheme).
pub fn solve_sp_exact_with_tree_metered(
    arc: &ArcInstance,
    tree: &SpTree,
    budget: Resource,
    meter: Option<&BudgetMeter>,
) -> Result<(SpSolution, Solution), Exhausted> {
    let d = arc.dag();
    // Parallel subtree evaluation only when unmetered: exhaustion
    // stop-points are wire-visible and must not depend on which worker
    // charged first. (`BudgetContext` hands out no meter whenever the
    // request declared no budget — the common case.)
    let (curve, alloc, _) = if meter.is_none() && rtt_par::parallel_enabled() {
        solve_sp_tree_par(
            tree,
            |e| d.edge(e).duration.clone(),
            budget,
            rtt_par::current(),
        )
    } else {
        solve_sp_tree_metered(tree, |e| d.edge(e).duration.clone(), budget, meter)?
    };
    let makespan = curve[budget as usize];
    let mut levels = vec![0u64; d.edge_count()];
    for (e, r) in &alloc {
        levels[e.index()] = *r;
    }
    // route the allocation (must fit in the budget by DP correctness)
    let edges: Vec<BoundedEdge> = d
        .edge_refs()
        .map(|e| BoundedEdge::at_least(e.src.index(), e.dst.index(), levels[e.id.index()]))
        .collect();
    let flow = min_flow(
        d.node_count(),
        &edges,
        arc.source().index(),
        arc.sink().index(),
    )
    .expect("lower bounds only");
    debug_assert!(
        flow.value <= budget,
        "DP allocation must be routable within B: {} > {budget}",
        flow.value
    );
    let edge_times: Vec<Time> = d
        .edge_ids()
        .map(|e| d.edge(e).duration.time(levels[e.index()]))
        .collect();
    let recomputed = rtt_dag::longest_path_edges(d, |e| edge_times[e.index()])
        .expect("acyclic")
        .weight;
    debug_assert_eq!(recomputed, makespan, "DP value must match its allocation");
    Ok((
        SpSolution {
            makespan,
            curve,
            levels,
        },
        Solution {
            arc_flows: flow.edge_flow,
            edge_times,
            makespan: recomputed,
            budget_used: flow.value,
        },
    ))
}

/// Exact minimum-resource for a series-parallel instance: the smallest
/// `λ ≤ budget_cap` with `T(root, λ) ≤ target` (one DP run gives the
/// whole curve). `None` if unreachable within the cap or not SP.
pub fn sp_min_resource(
    arc: &ArcInstance,
    target: Time,
    budget_cap: Resource,
) -> Option<Resource> {
    sp_min_resource_metered(arc, target, budget_cap, None)
        .expect("an unmetered DP cannot exhaust")
}

/// [`sp_min_resource`] under a cooperative budget meter (see
/// [`solve_sp_tree_metered`] for the charging scheme).
pub fn sp_min_resource_metered(
    arc: &ArcInstance,
    target: Time,
    budget_cap: Resource,
    meter: Option<&BudgetMeter>,
) -> Result<Option<Resource>, Exhausted> {
    let d = arc.dag();
    let Some(tree) = decompose(d, arc.source(), arc.sink()) else {
        return Ok(None);
    };
    // same unmetered-only gate as `solve_sp_exact_with_tree_metered`
    let (curve, _, _) = if meter.is_none() && rtt_par::parallel_enabled() {
        solve_sp_tree_par(
            &tree,
            |e| d.edge(e).duration.clone(),
            budget_cap,
            rtt_par::current(),
        )
    } else {
        solve_sp_tree_metered(&tree, |e| d.edge(e).duration.clone(), budget_cap, meter)?
    };
    Ok(curve
        .iter()
        .position(|&t| t <= target)
        .map(|i| i as Resource))
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
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
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
            let (fast, _) = solve_sp_tree(&tree, |e| d.edge(e).duration.clone(), b);
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
            g.add_edge(s, t, Activity::new(Duration::two_point(20 + i, 2 + i % 3, 1)))
                .unwrap();
        }
        let arc = ArcInstance::new(g).unwrap();
        let d = arc.dag();
        let tree = decompose(d, arc.source(), arc.sink()).unwrap();
        let budget = 64u64;
        let (_, _, stats) =
            solve_sp_tree_with_stats(&tree, |e| d.edge(e).duration.clone(), budget);
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

    /// Series chain of parallel bundles: SP by construction, and big
    /// enough (stages·width leaves) that the frontier actually splits.
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
    fn parallel_tree_eval_is_bit_identical_to_serial() {
        let arc = staged_instance(40, 3);
        let d = arc.dag();
        let tree = decompose(d, arc.source(), arc.sink()).unwrap();
        assert!(tree.len() as u32 > 2 * SPLIT_MIN_NODES, "tree too small to split");
        let budget = 24u64;
        let (table, alloc, stats) =
            solve_sp_tree_with_stats(&tree, |e| d.edge(e).duration.clone(), budget);
        for threads in [1usize, 2, 4] {
            let (pt, pa, ps) =
                solve_sp_tree_par(&tree, |e| d.edge(e).duration.clone(), budget, threads);
            assert_eq!(pt, table, "threads={threads}: root table diverged");
            assert_eq!(pa, alloc, "threads={threads}: allocation diverged");
            // work counters are thread-count-independent and equal the
            // serial walk's; only liveness accounting may differ
            assert_eq!(ps.leaves, stats.leaves, "threads={threads}");
            assert_eq!(ps.series, stats.series, "threads={threads}");
            assert_eq!(ps.parallels, stats.parallels, "threads={threads}");
            assert_eq!(ps.cells, stats.cells, "threads={threads}");
            assert_eq!(ps.merge_steps, stats.merge_steps, "threads={threads}");
        }
    }

    #[test]
    fn parallel_tree_eval_handles_small_trees() {
        // below SPLIT_MIN_NODES the frontier is just the root
        let arc = serial_chain();
        let d = arc.dag();
        let tree = decompose(d, arc.source(), arc.sink()).unwrap();
        for b in 0..=8u64 {
            let (st, sa, _) =
                solve_sp_tree_with_stats(&tree, |e| d.edge(e).duration.clone(), b);
            let (pt, pa, _) =
                solve_sp_tree_par(&tree, |e| d.edge(e).duration.clone(), b, 4);
            assert_eq!(pt, st, "budget {b}");
            assert_eq!(pa, sa, "budget {b}");
        }
    }
}
