//! Bit-exact exact-search oracle: one FNV-1a digest over the complete
//! output of the five exact searches on a fixed, seeded instance set.
//!
//! The exact searches are the ground truth of this repository: they
//! score the approximation ratios of Table 1, certify the §4 hardness
//! gadgets through `decide_feasible`, and answer the `exact` and
//! `noreuse-exact` solvers, whose `work` column is the search's
//! `explored` count and whose exhaustion stop points are counted in
//! `dp_merge_steps` (one charge per search node). A change to the
//! branch-and-bound (state layout, pruning plumbing, where routing is
//! computed) must therefore leave every answer and every counter
//! **bit-identical**. This test folds, for every call, the levels, arc
//! flows, edge times, makespan, budget used, `explored`, and the
//! `dp_merge_steps` a limitless [`BudgetMeter`] counted, and compares
//! the digest with the committed value.
//!
//! The set: seeded race DAGs (4 nodes + 5 extra edges and 5 + 7, with
//! parallel updates and recursive-binary durations), series-parallel
//! fixtures at 3–8 leaves, and Partition reductions of one or two
//! items, keeping instances with at most nine improvable jobs. Per
//! instance it calls
//!
//! * both min-makespan searches at every budget up to
//!   `min(saturation_budget, 14)`;
//! * both min-cost searches at `ideal − 1`, `ideal`, `base`, and at each
//!   optimum the min-makespan searches found and one above it;
//! * `decide_feasible` at three budgets per target: one below the
//!   routed min-cost answer, the answer itself, and one above (or `0`,
//!   half the saturation budget and the saturation budget when the
//!   target is out of reach).
//!
//! A mismatch means a search changed bits. If that is intended, the
//! change is a wire change: re-measure, update the goldens and the
//! digest together, and say so in the change description.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtt_bench::fixtures::sp_instance;
use rtt_budget::BudgetMeter;
use rtt_core::exact::{
    decide_feasible, solve_exact_metered, solve_exact_min_resource_metered, ExactSolution,
};
use rtt_core::regimes::{solve_noreuse_exact_metered, solve_noreuse_exact_min_resource_metered};
use rtt_core::{to_arc_form, ArcInstance, Instance, NoReuseSolution, Resource, Solution, Time};
use rtt_dag::gen;
use rtt_duration::Duration;
use rtt_hardness::partition::{reduce, PartitionInstance};
use std::collections::BTreeSet;

/// The digest measured on the commit that introduced this test.
const EXACT_DIGEST: u64 = 0x4544_ab12_7c91_4165;

/// Instances with more improvable jobs are left out: the searches are
/// exponential in the job count.
const MAX_JOBS: usize = 9;

/// The largest min-makespan budget swept per instance.
const MAX_BUDGET: Resource = 14;

/// FNV-1a 64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, xs: &[u64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x);
        }
    }

    fn solution(&mut self, s: &Solution) {
        self.words(&s.arc_flows);
        self.words(&s.edge_times);
        self.word(s.makespan);
        self.word(s.budget_used);
    }

    fn exact(&mut self, ex: &ExactSolution) {
        self.solution(&ex.solution);
        self.words(&ex.levels);
        self.word(ex.explored);
    }

    fn noreuse(&mut self, s: &NoReuseSolution) {
        self.words(&s.levels);
        self.words(&s.edge_times);
        self.word(s.makespan);
        self.word(s.budget_used);
    }
}

/// Counts what the digest covered, for the mismatch message.
#[derive(Default)]
struct Tally {
    instances: usize,
    calls: usize,
    nodes: u64,
}

impl Tally {
    /// Runs one metered search under a fresh limitless meter and folds
    /// the nodes it charged.
    fn metered<T>(&mut self, fnv: &mut Fnv, search: impl FnOnce(&BudgetMeter) -> T) -> T {
        let meter = BudgetMeter::unlimited();
        let out = search(&meter);
        let nodes = meter.consumed().dp_merge_steps;
        fnv.word(nodes);
        self.nodes += nodes;
        self.calls += 1;
        out
    }
}

/// A seeded race DAG of `nodes` nodes and `extra` extra edges, every
/// edge repeated 1–5 times (parallel updates to one cell), with
/// recursive-binary durations.
fn race(seed: u64, nodes: usize, extra: usize) -> ArcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tt = gen::random_race_dag(&mut rng, nodes, extra);
    let mut g = rtt_dag::Dag::new();
    for _ in tt.dag.node_ids() {
        g.add_node(());
    }
    for e in tt.dag.edge_refs() {
        let copies = rng.random_range(1..6usize);
        g.add_parallel_edges(e.src, e.dst, (), copies).unwrap();
    }
    let inst = Instance::race_dag(&g, Duration::recursive_binary).unwrap();
    to_arc_form(&inst).0
}

fn instances() -> Vec<ArcInstance> {
    let mut out = Vec::new();
    for seed in 0..24u64 {
        out.push(race(seed, 4, 5));
        out.push(race(1000 + seed, 5, 7));
    }
    for seed in 0..10u64 {
        for leaves in 3..=8usize {
            out.push(sp_instance(seed * 100 + leaves as u64, leaves));
        }
    }
    for items in [
        vec![1],
        vec![2],
        vec![1, 1],
        vec![1, 2],
        vec![1, 3],
        vec![2, 2],
        vec![2, 3],
        vec![3, 1],
    ] {
        out.push(reduce(&PartitionInstance::new(items)).arc);
    }
    out.retain(|arc| arc.improvable_edges().len() <= MAX_JOBS);
    out
}

fn digest_instance(arc: &ArcInstance, fnv: &mut Fnv, tally: &mut Tally) {
    let saturation = arc.saturation_budget();
    let ideal = arc.ideal_makespan();
    let base = arc.base_makespan();
    fnv.word(arc.improvable_edges().len() as u64);

    let mut targets: BTreeSet<Time> = [ideal, base].into_iter().collect();
    targets.extend(ideal.checked_sub(1));
    for budget in 0..=saturation.min(MAX_BUDGET) {
        let ex = tally
            .metered(fnv, |m| solve_exact_metered(arc, budget, Some(m)))
            .expect("a limitless meter cannot exhaust");
        fnv.exact(&ex);
        let nr = tally
            .metered(fnv, |m| solve_noreuse_exact_metered(arc, budget, Some(m)))
            .expect("a limitless meter cannot exhaust");
        fnv.noreuse(&nr);
        for opt in [ex.solution.makespan, nr.makespan] {
            targets.insert(opt);
            targets.insert(opt + 1);
        }
    }

    for &target in &targets {
        fnv.word(target);
        let routed = tally
            .metered(fnv, |m| {
                solve_exact_min_resource_metered(arc, target, Some(m))
            })
            .expect("a limitless meter cannot exhaust");
        match &routed {
            Some((need, sol)) => {
                fnv.word(1);
                fnv.word(*need);
                fnv.solution(sol);
            }
            None => fnv.word(0),
        }
        let noreuse = tally
            .metered(fnv, |m| {
                solve_noreuse_exact_min_resource_metered(arc, target, Some(m))
            })
            .expect("a limitless meter cannot exhaust");
        match &noreuse {
            Some(sol) => {
                fnv.word(1);
                fnv.noreuse(sol);
            }
            None => fnv.word(0),
        }

        let budgets = match routed {
            Some((need, _)) => [need.saturating_sub(1), need, need + 1],
            None => [0, saturation / 2, saturation],
        };
        for budget in budgets {
            tally.calls += 1;
            match decide_feasible(arc, budget, target) {
                Some(sol) => {
                    fnv.word(1);
                    fnv.solution(&sol);
                }
                None => fnv.word(0),
            }
        }
    }
}

#[test]
fn exact_search_output_is_bit_identical() {
    let mut fnv = Fnv::new();
    let mut tally = Tally::default();
    for arc in instances() {
        digest_instance(&arc, &mut fnv, &mut tally);
        tally.instances += 1;
    }
    for v in [tally.instances as u64, tally.calls as u64, tally.nodes] {
        fnv.word(v);
    }
    assert_eq!(
        fnv.0, EXACT_DIGEST,
        "exact-search output changed: digest {:#018x} over {} instances, {} calls and {} \
         search nodes; committed {EXACT_DIGEST:#018x}",
        fnv.0, tally.instances, tally.calls, tally.nodes
    );
}
