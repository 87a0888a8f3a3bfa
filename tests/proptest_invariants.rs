//! Property-based invariants across the whole stack.

use proptest::prelude::*;
use resource_time_tradeoff::core::exact::solve_exact;
use resource_time_tradeoff::core::instance::{Activity, ArcInstance};
use resource_time_tradeoff::core::sp_dp::solve_sp_exact;
use resource_time_tradeoff::core::transform::{expand_two_tuples, to_arc_form};
use resource_time_tradeoff::core::{solve_bicriteria, validate, Instance};
use resource_time_tradeoff::dag::{gen, Dag};
use resource_time_tradeoff::duration::{Duration, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resource_time_tradeoff::flow::{min_flow, BoundedEdge, MinFlowWitness, UncappedDag};

/// Random canonical step function described by seed data.
fn arb_duration() -> impl Strategy<Value = Duration> {
    (
        1u64..30,
        proptest::collection::vec((1u64..6, 1u64..8), 0..4),
    )
        .prop_map(|(base, steps)| {
            let mut tuples = vec![Tuple::new(0, base)];
            let mut r = 0;
            let mut t = base;
            for (dr, dt) in steps {
                r += dr;
                t = t.saturating_sub(dt);
                tuples.push(Tuple::new(r, t));
            }
            Duration::step(tuples).expect("constructed non-increasing")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn duration_time_is_monotone_nonincreasing(d in arb_duration(), r1 in 0u64..40, r2 in 0u64..40) {
        let (lo, hi) = (r1.min(r2), r1.max(r2));
        prop_assert!(d.time(hi) <= d.time(lo));
        // resource_for_time inverts time()
        let t = d.time(hi);
        let r = d.resource_for_time(t).expect("achieved time is achievable");
        prop_assert!(r <= hi);
        prop_assert_eq!(d.time(r), t);
    }

    #[test]
    fn sp_dp_matches_bruteforce_on_random_sp(seed in 0u64..500, budget in 0u64..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gsp = gen::random_sp(&mut rng, 5);
        // attach pseudo-random durations derived from the seed
        let mut g: Dag<(), Activity> = Dag::new();
        for _ in gsp.tt.dag.node_ids() {
            g.add_node(());
        }
        for e in gsp.tt.dag.edge_refs() {
            let base = 3 + (seed + e.id.index() as u64 * 7) % 12;
            let gap = 1 + (seed + e.id.index() as u64 * 3) % 4;
            let rest = base.saturating_sub(1 + (seed % 3));
            g.add_edge(e.src, e.dst, Activity::new(Duration::two_point(base, gap, rest)))
                .unwrap();
        }
        let arc = ArcInstance::new(g).unwrap();
        let (sp, sol) = solve_sp_exact(&arc, budget).expect("generated SP instance");
        validate(&arc, &sol).unwrap();
        let ex = solve_exact(&arc, budget);
        prop_assert_eq!(sp.makespan, ex.solution.makespan,
            "DP vs brute force at B={}", budget);
    }

    /// The monotone two-pointer parallel merge must produce tables
    /// identical to the naive O(B²) scan on random SP trees — the whole
    /// tradeoff curve, every budget, every node shape.
    #[test]
    fn monotone_dp_tables_match_naive_on_random_sp(seed in 0u64..400, budget in 0u64..24) {
        use resource_time_tradeoff::core::sp_dp::{solve_sp_tree_naive, solve_sp_tree_with_stats};
        use resource_time_tradeoff::dag::sp::decompose;
        let mut rng = StdRng::seed_from_u64(seed);
        let leaves = 2 + (seed as usize % 9);
        let gsp = gen::random_sp(&mut rng, leaves);
        let mut g: Dag<(), Activity> = Dag::new();
        for _ in gsp.tt.dag.node_ids() {
            g.add_node(());
        }
        for e in gsp.tt.dag.edge_refs() {
            let base = 2 + (seed + e.id.index() as u64 * 11) % 20;
            let gap = 1 + (seed + e.id.index() as u64 * 5) % 6;
            let rest = base.saturating_sub(1 + (seed % 4));
            g.add_edge(e.src, e.dst, Activity::new(Duration::two_point(base, gap, rest)))
                .unwrap();
        }
        let arc = ArcInstance::new(g).unwrap();
        let d = arc.dag();
        let tree = decompose(d, arc.source(), arc.sink()).expect("generated SP");
        let (fast, fast_alloc, _) =
            solve_sp_tree_with_stats(&tree, |e| d.edge(e).duration.clone(), budget);
        let (naive, _) = solve_sp_tree_naive(&tree, |e| d.edge(e).duration.clone(), budget);
        prop_assert_eq!(&fast, &naive, "root tables diverge at B={}", budget);
        // the fast path's recovered allocation must stay within budget
        // at every leaf (the min-flow in solve_sp_exact certifies the
        // routed total)
        for &(_, r) in &fast_alloc {
            prop_assert!(r <= budget);
        }
        let (sp, sol) = solve_sp_exact(&arc, budget).expect("still SP");
        prop_assert_eq!(sp.makespan, fast[budget as usize]);
        validate(&arc, &sol).unwrap();
    }

    #[test]
    fn two_tuple_expansion_preserves_base_and_ideal(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tt0 = gen::random_race_dag(&mut rng, 4, 4);
        let inst = Instance::race_dag(&tt0.dag, Duration::recursive_binary).unwrap();
        let (arc, _) = to_arc_form(&inst);
        let tt = expand_two_tuples(&arc);
        // no purchases: D'' makespan equals D' base makespan
        let zero = vec![0u64; tt.dag.edge_count()];
        prop_assert_eq!(tt.makespan_with_flows(&zero), arc.base_makespan());
        // saturating every chain reproduces the ideal makespan
        let full: Vec<u64> = tt
            .dag
            .edge_ids()
            .map(|e| tt.dag.edge(e).buy.map_or(0, |(r, _)| r))
            .collect();
        prop_assert_eq!(tt.makespan_with_flows(&full), arc.ideal_makespan());
    }

    #[test]
    fn bicriteria_always_validates(seed in 0u64..200, budget in 0u64..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tt0 = gen::random_race_dag(&mut rng, 4, 5);
        let inst = Instance::race_dag(&tt0.dag, Duration::kway).unwrap();
        let (arc, _) = to_arc_form(&inst);
        let r = solve_bicriteria(&arc, budget, 0.5).unwrap();
        prop_assert!(validate(&arc, &r.solution).is_ok());
        // LP lower-bounds the achieved integral makespan
        prop_assert!(r.lp_makespan <= r.solution.makespan as f64 + 1e-6);
    }

    #[test]
    fn exact_solution_flows_decompose_into_paths(seed in 0u64..100, budget in 0u64..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tt0 = gen::random_race_dag(&mut rng, 4, 4);
        let inst = Instance::race_dag(&tt0.dag, Duration::recursive_binary).unwrap();
        let (arc, _) = to_arc_form(&inst);
        let r = solve_exact(&arc, budget);
        // validate() already checks path-decomposability; assert the
        // budget equals the decomposed amount
        let d = arc.dag();
        let edges: Vec<(usize, usize)> = d
            .edge_refs()
            .map(|e| (e.src.index(), e.dst.index()))
            .collect();
        let paths = resource_time_tradeoff::flow::decompose_paths(
            d.node_count(),
            &edges,
            &r.solution.arc_flows,
            arc.source().index(),
            arc.sink().index(),
        ).unwrap();
        let total: u64 = paths.iter().map(|p| p.amount).sum();
        prop_assert_eq!(total, r.solution.budget_used);
    }
}

/// Asserts that `w` is a minimum flow for its own lower bounds: it
/// meets every bound, conserves, has its value, and that value is what
/// a fresh `min_flow` finds.
fn assert_minimum(n: usize, edges: &[(usize, usize)], s: usize, t: usize, w: &MinFlowWitness) {
    let bounded: Vec<BoundedEdge> = edges
        .iter()
        .zip(w.lower())
        .map(|(&(u, v), &l)| BoundedEdge::at_least(u, v, l))
        .collect();
    let fresh = min_flow(n, &bounded, s, t).expect("lower bounds only: feasible");
    assert_eq!(
        w.value(),
        u128::from(fresh.value),
        "lower bounds {:?}",
        w.lower()
    );
    let mut net = vec![0i128; n];
    for ((&(u, v), &f), &l) in edges.iter().zip(w.edge_flow()).zip(w.lower()) {
        assert!(f >= u128::from(l), "flow {f} below lower bound {l}");
        let f = i128::try_from(f).unwrap();
        net[u] -= f;
        net[v] += f;
    }
    let value = i128::try_from(w.value()).unwrap();
    for (v, &x) in net.iter().enumerate() {
        let want = if v == s {
            -value
        } else if v == t {
            value
        } else {
            0
        };
        assert_eq!(x, want, "imbalance at node {v}");
    }
}

/// The incremental min-flow the exact search prices its nodes with,
/// against a fresh `min_flow` after every raise: seeded race DAGs,
/// raise sequences that backtrack to earlier witnesses as the search
/// does, raises the witness already carries (δ = 0), and shortfalls on
/// edges it over-covers as well as on tight ones.
#[test]
fn incremental_min_flow_matches_a_fresh_min_flow() {
    let mut rng = StdRng::seed_from_u64(0x5eed_f10e);
    // no-op, carried (δ = 0), shortfall over-covered, shortfall tight
    let mut kinds = [0u32; 4];
    for _ in 0..150 {
        let inner = rng.random_range(2..8usize);
        let extra = rng.random_range(0..8usize);
        let tt = gen::random_race_dag(&mut rng, inner, extra);
        let d = &tt.dag;
        let n = d.node_count();
        let edges: Vec<(usize, usize)> = d
            .edge_refs()
            .map(|e| (e.src.index(), e.dst.index()))
            .collect();
        let (s, t) = (tt.source.index(), tt.sink.index());
        let mut net = UncappedDag::new(n, &edges, s, t);
        let mut stack = vec![net.zero_flow()];
        for _ in 0..40 {
            if stack.len() > 1 && rng.random_range(0..4u32) == 0 {
                let depth = rng.random_range(1..stack.len());
                stack.truncate(depth);
            }
            let mut w = stack.last().expect("the zero flow stays").clone();
            let e = rng.random_range(0..edges.len());
            let lower = w.lower()[e];
            let flow = u64::try_from(w.edge_flow()[e]).unwrap();
            let raised = match rng.random_range(0..3u32) {
                0 => lower,
                1 => rng.random_range(lower..=flow),
                _ => flow + rng.random_range(1..6u64),
            };
            kinds[match raised {
                r if r == lower => 0,
                r if r <= flow => 1,
                _ if flow > lower => 2,
                _ => 3,
            }] += 1;
            net.raise(&mut w, e, raised);
            assert_minimum(n, &edges, s, t, &w);
            stack.push(w);
        }
    }
    assert!(kinds.iter().all(|&k| k >= 100), "raise kinds {kinds:?}");
}
