//! Property-based invariants for the reuse-regime baselines
//! (Questions 1.1/1.2) and the Question 1.3 routing certificates.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use resource_time_tradeoff::core::exact::solve_exact;
use resource_time_tradeoff::core::regimes::{
    global_reuse_schedule, solve_noreuse_bicriteria, solve_noreuse_exact,
    solve_noreuse_exact_min_resource, sp_noreuse_curve, validate_noreuse, verify_global_schedule,
    GlobalPolicy,
};
use resource_time_tradeoff::core::routing_plan;
use resource_time_tradeoff::core::sp_dp::solve_sp_exact;
use resource_time_tradeoff::core::transform::to_arc_form;
use resource_time_tradeoff::core::{ArcInstance, Instance};
use resource_time_tradeoff::dag::gen;
use resource_time_tradeoff::duration::Duration;

fn random_arc(seed: u64) -> ArcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tt0 = gen::random_race_dag(&mut rng, 4, 5);
    let inst = Instance::race_dag(&tt0.dag, Duration::recursive_binary).unwrap();
    to_arc_form(&inst).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Question 1.1 can never beat Question 1.3: a dedicated allocation
    /// is a special case of a routed one.
    #[test]
    fn noreuse_never_beats_path_reuse(seed in 0u64..300, budget in 0u64..8) {
        let arc = random_arc(seed);
        let nr = solve_noreuse_exact(&arc, budget);
        validate_noreuse(&arc, &nr).unwrap();
        prop_assert!(nr.budget_used <= budget);
        let pr = solve_exact(&arc, budget);
        prop_assert!(nr.makespan >= pr.solution.makespan,
            "no-reuse {} < path-reuse {} at B={}", nr.makespan, pr.solution.makespan, budget);
    }

    /// The no-reuse bi-criteria bounds of Theorem 3.4 hold for the
    /// sum-budget LP too.
    #[test]
    fn noreuse_bicriteria_within_bounds(seed in 0u64..200, budget in 0u64..8) {
        let arc = random_arc(seed);
        let alpha = 0.5;
        let r = solve_noreuse_bicriteria(&arc, budget, alpha).unwrap();
        validate_noreuse(&arc, &r.solution).unwrap();
        prop_assert!(
            (r.solution.budget_used as f64) <= budget as f64 / (1.0 - alpha) + 1e-6
        );
        prop_assert!(
            r.solution.makespan as f64 <= r.lp_makespan / alpha + 1e-6
        );
        // the LP lower-bounds the exact no-reuse optimum
        let exact = solve_noreuse_exact(&arc, budget);
        prop_assert!(r.lp_makespan <= exact.makespan as f64 + 1e-6);
    }

    /// Greedy global schedules are always feasible; the eager policy
    /// never idles, so it cannot exceed the zero-resource makespan.
    #[test]
    fn global_schedules_always_verify(seed in 0u64..300, budget in 0u64..10) {
        let arc = random_arc(seed);
        for policy in [GlobalPolicy::Eager, GlobalPolicy::Patient] {
            let s = global_reuse_schedule(&arc, budget, policy);
            verify_global_schedule(&arc, budget, &s).unwrap();
            prop_assert!(s.peak_in_use <= budget);
        }
        let eager = global_reuse_schedule(&arc, budget, GlobalPolicy::Eager);
        prop_assert!(eager.makespan <= arc.base_makespan());
    }

    /// Exact min-resource inverts exact min-makespan in the no-reuse
    /// regime: spending the returned budget reaches the target.
    #[test]
    fn noreuse_min_resource_inverts(seed in 0u64..150, budget in 0u64..6) {
        let arc = random_arc(seed);
        let ms = solve_noreuse_exact(&arc, budget).makespan;
        let back = solve_noreuse_exact_min_resource(&arc, ms)
            .expect("achieved makespans are reachable");
        prop_assert!(back.budget_used <= budget,
            "needed {} > spent {}", back.budget_used, budget);
        prop_assert!(back.makespan <= ms);
    }

    /// Routing plans cover the solution flow exactly, edge by edge.
    #[test]
    fn routing_plans_cover_flows(seed in 0u64..300, budget in 0u64..8) {
        let arc = random_arc(seed);
        let r = solve_exact(&arc, budget);
        let plan = routing_plan(&arc, &r.solution).unwrap();
        prop_assert_eq!(plan.total(), r.solution.budget_used);
        let mut covered = vec![0u64; arc.dag().edge_count()];
        for route in &plan.routes {
            for &e in &route.edges {
                covered[e] += route.amount;
            }
        }
        prop_assert_eq!(covered, r.solution.arc_flows.clone());
        // every route is a real source→sink path
        for route in &plan.routes {
            let d = arc.dag();
            let first = rtt_edge_src(&arc, route.edges[0]);
            prop_assert_eq!(first, arc.source());
            let last = rtt_edge_dst(&arc, *route.edges.last().unwrap());
            prop_assert_eq!(last, arc.sink());
            for w in route.edges.windows(2) {
                prop_assert_eq!(rtt_edge_dst(&arc, w[0]), rtt_edge_src(&arc, w[1]));
            }
            let _ = d;
        }
    }

    /// On series-parallel instances the no-reuse DP curve dominates the
    /// reuse curve pointwise and both are monotone.
    #[test]
    fn sp_curves_ordered_and_monotone(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gsp = gen::random_sp(&mut rng, 4);
        let mut g: resource_time_tradeoff::dag::Dag<(), resource_time_tradeoff::core::Activity> =
            resource_time_tradeoff::dag::Dag::new();
        for _ in gsp.tt.dag.node_ids() {
            g.add_node(());
        }
        for e in gsp.tt.dag.edge_refs() {
            let base = 2 + (seed + e.id.index() as u64 * 5) % 10;
            let gap = 1 + (seed + e.id.index() as u64 * 3) % 3;
            g.add_edge(
                e.src,
                e.dst,
                resource_time_tradeoff::core::Activity::new(Duration::two_point(base, gap, 0)),
            )
            .unwrap();
        }
        let arc = ArcInstance::new(g).unwrap();
        let budget = 8u64;
        let (reuse, _) = solve_sp_exact(&arc, budget).expect("generated SP");
        let noreuse = sp_noreuse_curve(&arc, budget).expect("generated SP");
        prop_assert_eq!(reuse.curve.len(), noreuse.len());
        for b in 0..noreuse.len() {
            prop_assert!(noreuse[b] >= reuse.curve[b], "b={}", b);
            prop_assert_eq!(noreuse[b], solve_noreuse_exact(&arc, b as u64).makespan, "b={}", b);
            if b > 0 {
                prop_assert!(noreuse[b] <= noreuse[b - 1]);
                prop_assert!(reuse.curve[b] <= reuse.curve[b - 1]);
            }
        }
    }
}

fn rtt_edge_src(arc: &ArcInstance, e: usize) -> resource_time_tradeoff::dag::NodeId {
    arc.dag().src(resource_time_tradeoff::dag::EdgeId(e as u32))
}

fn rtt_edge_dst(arc: &ArcInstance, e: usize) -> resource_time_tradeoff::dag::NodeId {
    arc.dag().dst(resource_time_tradeoff::dag::EdgeId(e as u32))
}
