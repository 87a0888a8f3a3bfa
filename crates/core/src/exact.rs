//! Exponential-time exact reference solvers.
//!
//! The approximation-quality experiments (Table 1) need true optima on
//! small instances, and the §4 hardness gadgets need a decision
//! procedure. W.l.o.g. an optimal solution allocates each job one of its
//! canonical tuple levels, so exhaustive search over level assignments
//! is exact. Exponential, but fine for the instance sizes where it is
//! used (≲ a dozen improvable jobs).
//!
//! # One search
//!
//! Every entry point here, and the no-reuse searches of
//! [`crate::regimes`], is a one-call wrapper around one depth-first
//! branch-and-bound. It decides the improvable jobs in edge order, each
//! at its canonical levels in increasing order, and takes two
//! parameters:
//!
//! * a **cost regime**, which says how a level vector is paid for:
//!   *routed* (Question 1.3) counts the min-flow value of the levels as
//!   arc demands, *no-reuse* (Question 1.1) their sum;
//! * a **goal**: the least makespan at cost `≤ B`, starting from the
//!   all-zero incumbent; the least cost at makespan `≤ T`; or the first
//!   witness meeting both bounds ([`decide_feasible`]).
//!
//! Both costs are monotone in the levels, and level 0 leaves them
//! unchanged, so a zero level carries its parent's cost over for free.
//! Monotonicity is what makes the prunes sound. A node's cost (undecided
//! jobs at level 0) bounds every completion's cost from below, and its
//! makespan bound (undecided jobs at their fastest duration) bounds every
//! completion's makespan from below. So a child over the budget `B` is
//! never entered (nor is any higher level of the same job), a node whose
//! cost already reaches a min-cost incumbent's is cut, and a node whose
//! makespan bound cannot beat the min-makespan incumbent, or exceeds the
//! target `T`, is cut. A leaf that survives the prunes strictly improves
//! on the incumbent. A cost past `u64::MAX` is over every budget: the
//! no-reuse sum is checked, and so is the routed value.
//!
//! # What a node costs to price
//!
//! Neither half of a node is computed from scratch:
//!
//! * the **makespan bound** is one pass over flat arrays built once per
//!   search — the edges in topological order, each at its bound time (a
//!   decided job at its level's duration, an undecided job at its
//!   fastest, an unimprovable edge at its base time) — into a reused
//!   event-time buffer. Deciding or undeciding a job rewrites one entry;
//! * the **routed cost** is a minimum flow kept incrementally
//!   ([`rtt_flow::UncappedDag`]): the search holds one minimum-flow
//!   witness per depth, and a child with a nonzero level copies its
//!   parent's witness and raises its job's lower bound. If the witness
//!   already carries the level, the child costs what its parent did;
//!   otherwise the shortfall is pushed along fixed source→job→sink
//!   routes and t→s augmenting paths cancel what they can. The
//!   minimum's value is unique, so every cost, prune and count is the
//!   one a fresh min-flow per node gives.
//!
//! Every node entered charges one `dp_merge_steps` unit to the optional
//! [`BudgetMeter`] before any prune, so a runaway search stops with a
//! typed [`Exhausted`]; every leaf reached counts toward
//! [`ExactSolution::explored`]. The winning levels are routed once, at
//! the end, by a fresh min-flow whose value equals the cost the leaf
//! was priced at.

use crate::instance::ArcInstance;
use crate::solution::{routed_solution, Solution};
use rtt_budget::{BudgetMeter, Exhausted};
use rtt_dag::EdgeId;
use rtt_duration::{Resource, Time};
use rtt_flow::{MinFlowWitness, UncappedDag};

/// Result of an exact search.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// The certified optimal solution.
    pub solution: Solution,
    /// Per-edge resource levels the optimum assigns (0 on dummies).
    pub levels: Vec<Resource>,
    /// Number of complete assignments evaluated (diagnostics).
    pub explored: u64,
}

/// How the search counts a level vector's cost. `crate::lp_build`
/// takes the same regime to build LP 6–10's routed or no-reuse form.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Regime {
    /// Question 1.3: the min-flow value of the levels as arc demands.
    Routed,
    /// Question 1.1: the sum of the levels.
    NoReuse,
}

/// What the search looks for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Goal {
    /// The least makespan at cost `≤ budget`.
    MinMakespan { budget: Resource },
    /// The least cost at makespan `≤ target`.
    MinCost { target: Time },
    /// The first levels with cost `≤ budget` and makespan `≤ target`.
    Witness { budget: Resource, target: Time },
}

/// The levels a search settled on.
pub(crate) struct Found {
    /// Per-edge resource levels (0 on dummies).
    pub(crate) levels: Vec<Resource>,
    /// Leaves reached, plus one for a min-makespan search's all-zero
    /// incumbent.
    pub(crate) explored: u64,
}

/// The best complete assignment so far.
struct Incumbent {
    levels: Vec<Resource>,
    makespan: Time,
    cost: Resource,
}

/// The makespan bound as one pass over flat arrays: the edges in
/// topological order, each at its bound time.
struct FlatBound {
    /// `(tail, head)` of the `k`-th edge in that order.
    ends: Vec<(usize, usize)>,
    /// Bound time of the `k`-th edge: a decided job's at its level, an
    /// undecided job's fastest, an unimprovable edge's base time.
    time: Vec<Time>,
    /// Each edge's position in that order.
    position: Vec<usize>,
    /// Per-node event times, reused by every pass.
    event: Vec<Time>,
    sink: usize,
}

impl FlatBound {
    /// The bound with every job undecided.
    fn new(arc: &ArcInstance) -> Self {
        let d = arc.dag();
        // tails in topological order: an edge comes after every edge
        // into its tail
        let order: Vec<EdgeId> = rtt_dag::topo_order(d)
            .expect("acyclic")
            .into_iter()
            .flat_map(|v| d.out_edges(v).iter().copied())
            .collect();
        let mut position = vec![0; d.edge_count()];
        for (k, e) in order.iter().enumerate() {
            position[e.index()] = k;
        }
        FlatBound {
            ends: order
                .iter()
                .map(|&e| (d.src(e).index(), d.dst(e).index()))
                .collect(),
            time: order
                .iter()
                .map(|&e| {
                    let dur = &d.edge(e).duration;
                    if d.edge(e).improvable() {
                        dur.min_time()
                    } else {
                        dur.time(0)
                    }
                })
                .collect(),
            position,
            event: vec![0; d.node_count()],
            sink: arc.sink().index(),
        }
    }

    /// Sets edge `e`'s bound time.
    fn set(&mut self, e: EdgeId, time: Time) {
        self.time[self.position[e.index()]] = time;
    }

    /// Optimistic completion bound: the longest path of the bound times
    /// (saturating, as `rtt_dag::longest_path_edges` sums). Every node
    /// reaches the sink, so the sink's event time is that path. Exact
    /// once every job is decided.
    fn makespan(&mut self) -> Time {
        self.event.fill(0);
        for (&(u, v), &time) in self.ends.iter().zip(&self.time) {
            let reach = self.event[u].saturating_add(time);
            if reach > self.event[v] {
                self.event[v] = reach;
            }
        }
        self.event[self.sink]
    }
}

/// The routed regime's cost: the instance's min-flow network and one
/// minimum-flow witness per search depth.
struct Routing {
    net: UncappedDag,
    witness: Vec<MinFlowWitness>,
}

impl Routing {
    fn new(arc: &ArcInstance, depths: usize) -> Self {
        let d = arc.dag();
        let edges: Vec<(usize, usize)> = d
            .edge_refs()
            .map(|e| (e.src.index(), e.dst.index()))
            .collect();
        let net = UncappedDag::new(
            d.node_count(),
            &edges,
            arc.source().index(),
            arc.sink().index(),
        );
        let witness = vec![net.zero_flow(); depths];
        Routing { net, witness }
    }

    /// The cost of the child that raises `job` to `level` over the
    /// witness in slot `parent`: the witness is copied into slot `child`
    /// and raised there. `None` past `u64::MAX`, which is over every
    /// budget.
    fn raise(
        &mut self,
        parent: usize,
        child: usize,
        job: EdgeId,
        level: Resource,
    ) -> Option<Resource> {
        let (done, rest) = self.witness.split_at_mut(child);
        let w = &mut rest[0];
        w.clone_from(&done[parent]);
        self.net.raise(w, job.index(), level);
        Resource::try_from(w.value()).ok()
    }
}

struct Search<'a> {
    arc: &'a ArcInstance,
    goal: Goal,
    meter: Option<&'a BudgetMeter>,
    jobs: Vec<EdgeId>,
    /// Levels of the decided jobs; 0 elsewhere.
    levels: Vec<Resource>,
    bound: FlatBound,
    /// `None` in the no-reuse regime, whose cost is a checked sum.
    routing: Option<Routing>,
    best: Option<Incumbent>,
    explored: u64,
}

/// The branch-and-bound behind every exact search (see the module
/// docs). `None` when no level vector meets the goal; a min-makespan
/// search always finds one.
pub(crate) fn branch_and_bound(
    arc: &ArcInstance,
    regime: Regime,
    goal: Goal,
    meter: Option<&BudgetMeter>,
) -> Result<Option<Found>, Exhausted> {
    if let Goal::MinCost { target } | Goal::Witness { target, .. } = goal {
        if arc.ideal_makespan() > target {
            return Ok(None); // even unlimited resources miss the target
        }
    }
    let d = arc.dag();
    let seeded = matches!(goal, Goal::MinMakespan { .. });
    let jobs = arc.improvable_edges();
    let mut search = Search {
        arc,
        goal,
        meter,
        routing: matches!(regime, Regime::Routed).then(|| Routing::new(arc, jobs.len() + 1)),
        jobs,
        levels: vec![0; d.edge_count()],
        bound: FlatBound::new(arc),
        best: seeded.then(|| Incumbent {
            levels: vec![0; d.edge_count()],
            makespan: arc.base_makespan(),
            cost: 0,
        }),
        explored: u64::from(seeded),
    };
    search.dfs(0, 0, 0)?;
    Ok(search.best.map(|b| Found {
        levels: b.levels,
        explored: search.explored,
    }))
}

impl Search<'_> {
    /// Searches below the node that decides `jobs[idx]` next, costs
    /// `cost`, and (routed) keeps its witness in slot `slot`: a zero
    /// level shares its parent's slot, any other child at depth
    /// `idx + 1` writes slot `idx + 1`, which no ancestor holds.
    /// `Ok(true)` ends the search on a witness.
    fn dfs(&mut self, idx: usize, cost: Resource, slot: usize) -> Result<bool, Exhausted> {
        if let Some(m) = self.meter {
            m.charge_merge_steps(1)?;
        }
        // the cost cut first: it is free, the makespan bound is a pass
        let best = self.best.as_ref();
        if matches!(self.goal, Goal::MinCost { .. }) && best.is_some_and(|b| cost >= b.cost) {
            return Ok(false);
        }
        let lb = self.bound.makespan();
        let (budget, cut) = match self.goal {
            Goal::MinMakespan { budget } => (Some(budget), best.is_some_and(|b| lb >= b.makespan)),
            Goal::MinCost { target } => (None, lb > target),
            Goal::Witness { budget, target } => (Some(budget), lb > target),
        };
        if cut {
            return Ok(false);
        }
        if idx == self.jobs.len() {
            self.explored += 1;
            self.best = Some(Incumbent {
                levels: self.levels.clone(),
                makespan: lb,
                cost,
            });
            return Ok(matches!(self.goal, Goal::Witness { .. }));
        }
        let arc = self.arc;
        let job = self.jobs[idx];
        let duration = &arc.dag().edge(job).duration;
        for level in duration.useful_levels() {
            if budget.is_some_and(|b| level > b) {
                break; // a single job can never use more
            }
            self.levels[job.index()] = level;
            self.bound.set(job, duration.time(level));
            let child = match &mut self.routing {
                _ if level == 0 => Some((cost, slot)),
                Some(routing) => routing
                    .raise(slot, idx + 1, job, level)
                    .map(|c| (c, idx + 1)),
                None => cost.checked_add(level).map(|c| (c, slot)),
            };
            let Some((child, child_slot)) = child.filter(|&(c, _)| budget.is_none_or(|b| c <= b))
            else {
                break; // costs are monotone: no higher level fits either
            };
            if self.dfs(idx + 1, child, child_slot)? {
                return Ok(true);
            }
        }
        self.levels[job.index()] = 0;
        self.bound.set(job, duration.min_time());
        Ok(false)
    }
}

/// Exact minimum-makespan under budget `B` (Question 1.3 semantics:
/// resources reused over source→sink paths).
pub fn solve_exact(arc: &ArcInstance, budget: Resource) -> ExactSolution {
    solve_exact_metered(arc, budget, None).expect("an unmetered search cannot exhaust")
}

/// [`solve_exact`] under a cooperative budget meter: every search node
/// charges one `dp_merge_steps` unit (the combinatorial-work dimension
/// shared with the SP-DP), so the exponential search bails out with a
/// typed [`Exhausted`] instead of running away.
pub fn solve_exact_metered(
    arc: &ArcInstance,
    budget: Resource,
    meter: Option<&BudgetMeter>,
) -> Result<ExactSolution, Exhausted> {
    let found = branch_and_bound(arc, Regime::Routed, Goal::MinMakespan { budget }, meter)?
        .expect("the all-zero incumbent always stands");
    Ok(ExactSolution {
        solution: routed_solution(arc, &found.levels),
        levels: found.levels,
        explored: found.explored,
    })
}

/// Decision procedure: is there a routing within `budget` achieving
/// makespan `≤ target`? Returns a witness solution if so.
///
/// Much faster than [`solve_exact`] for gadget validation because it
/// prunes on *both* criteria: partial makespan lower bounds (optimistic
/// completion) against `target`, and partial min-flow lower bounds
/// (covering only the already-decided demands) against `budget` — the
/// latter cuts over-covering branches early, which is where the
/// hardness-gadget search trees explode. Both bounds are incremental
/// (see the module docs), and it stops at the first witness, which is
/// routed by a fresh min-flow.
pub fn decide_feasible(
    arc: &ArcInstance,
    budget: Resource,
    target: Time,
) -> Option<Solution> {
    branch_and_bound(arc, Regime::Routed, Goal::Witness { budget, target }, None)
        .expect("an unmetered search cannot exhaust")
        .map(|found| routed_solution(arc, &found.levels))
}

/// Exact minimum-resource: the least budget whose optimal makespan is
/// `≤ target`, or `None` if even unlimited resources cannot reach it.
pub fn solve_exact_min_resource(
    arc: &ArcInstance,
    target: Time,
) -> Option<(Resource, Solution)> {
    solve_exact_min_resource_metered(arc, target, None)
        .expect("an unmetered search cannot exhaust")
}

/// [`solve_exact_min_resource`] under a cooperative budget meter (one
/// `dp_merge_steps` charge per search node, as in [`solve_exact_metered`]).
pub fn solve_exact_min_resource_metered(
    arc: &ArcInstance,
    target: Time,
    meter: Option<&BudgetMeter>,
) -> Result<Option<(Resource, Solution)>, Exhausted> {
    let found = branch_and_bound(arc, Regime::Routed, Goal::MinCost { target }, meter)?;
    Ok(found.map(|found| {
        let solution = routed_solution(arc, &found.levels);
        (solution.budget_used, solution)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, Job};
    use crate::solution::validate;
    use crate::transform::to_arc_form;
    use rtt_dag::Dag;
    use rtt_duration::Duration;

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

    fn parallel_pair() -> ArcInstance {
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::new(Duration::zero()));
        let x = g.add_node(Job::new(Duration::two_point(10, 4, 0)));
        let y = g.add_node(Job::new(Duration::two_point(10, 4, 0)));
        let t = g.add_node(Job::new(Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(s, y, ()).unwrap();
        g.add_edge(x, t, ()).unwrap();
        g.add_edge(y, t, ()).unwrap();
        to_arc_form(&Instance::new(g).unwrap()).0
    }

    #[test]
    fn serial_reuse_found() {
        let arc = serial_chain();
        // 4 units serve both jobs on the path: makespan 0 + 2 = 2.
        let r = solve_exact(&arc, 4);
        assert_eq!(r.solution.makespan, 2);
        assert!(r.solution.budget_used <= 4);
        validate(&arc, &r.solution).unwrap();
    }

    #[test]
    fn parallel_needs_double_budget() {
        let arc = parallel_pair();
        // 4 units can only fix one branch: makespan stays 10.
        assert_eq!(solve_exact(&arc, 4).solution.makespan, 10);
        // 8 units fix both: makespan 0.
        let r8 = solve_exact(&arc, 8);
        assert_eq!(r8.solution.makespan, 0);
        validate(&arc, &r8.solution).unwrap();
    }

    #[test]
    fn budget_zero_is_base_makespan() {
        let arc = serial_chain();
        let r = solve_exact(&arc, 0);
        assert_eq!(r.solution.makespan, arc.base_makespan());
        assert_eq!(r.solution.budget_used, 0);
    }

    #[test]
    fn monotone_in_budget() {
        let arc = serial_chain();
        let mut prev = Time::MAX;
        for b in 0..=8 {
            let ms = solve_exact(&arc, b).solution.makespan;
            assert!(ms <= prev, "budget {b}: {ms} > {prev}");
            prev = ms;
        }
    }

    #[test]
    fn exact_min_resource_inverse_of_makespan() {
        let arc = serial_chain();
        // target 18 (base): 0 units; target 2: 4 units (reuse);
        let (r0, _) = solve_exact_min_resource(&arc, 18).unwrap();
        assert_eq!(r0, 0);
        let (r2, sol2) = solve_exact_min_resource(&arc, 2).unwrap();
        assert_eq!(r2, 4);
        validate(&arc, &sol2).unwrap();
        // unreachable target
        assert!(solve_exact_min_resource(&arc, 1).is_none());
    }

    #[test]
    fn min_resource_parallel_no_reuse() {
        let arc = parallel_pair();
        let (r, sol) = solve_exact_min_resource(&arc, 0).unwrap();
        assert_eq!(r, 8, "parallel branches cannot share units");
        validate(&arc, &sol).unwrap();
    }
}
