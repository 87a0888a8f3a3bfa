//! α-rounding of the LP solution and min-flow re-routing (§3.1).

use crate::lp_build::FractionalSolution;
use crate::transform::TwoTupleInstance;
use rtt_duration::Resource;
use rtt_flow::{min_flow, BoundedEdge};

/// Rounds the fractional LP durations with threshold `α ∈ (0, 1)`:
/// an arc whose relaxed duration lies in the lower α-fraction of its
/// range `[t1, t0]` is rounded *down* (buy the full `r_e`; requirement
/// `f'_e = r_e`), otherwise *up* (requirement `f'_e = 0`, duration `t0`).
///
/// Returns the integral per-edge resource requirements `f'_e`.
/// Guarantees (Theorem 3.4): rounding up inflates the duration by at most
/// `1/α`; rounding down inflates the resource by at most `1/(1−α)`.
pub fn alpha_round(tt: &TwoTupleInstance, frac: &FractionalSolution, alpha: f64) -> Vec<Resource> {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    tt.dag
        .edge_refs()
        .map(|e| {
            let a = e.weight;
            match a.buy {
                None => 0,
                Some((r, t1)) => {
                    // Interpolate on the same clamped scale the LP used
                    // (∞ durations are LP_BIG inside the relaxation).
                    let clamp = |t: rtt_duration::Time| {
                        if rtt_duration::is_infinite(t) {
                            crate::lp_build::LP_BIG
                        } else {
                            t as f64
                        }
                    };
                    let t0f = clamp(a.t0);
                    let t1f = clamp(t1);
                    let frac_bought = (frac.flows[e.id.index()] / r as f64).clamp(0.0, 1.0);
                    let achieved = t0f - (t0f - t1f) * frac_bought;
                    let threshold = t1f + alpha * (t0f - t1f);
                    if achieved < threshold - 1e-9 {
                        r
                    } else {
                        0
                    }
                }
            }
        })
        .collect()
}

/// Routes the rounded requirements with a minimum flow (LP 11–13):
/// the flow on every edge must be `≥ lower[e]`; the result is the least
/// total resource entering at the source that satisfies all requirements
/// simultaneously, reusing units along paths.
///
/// Returns `(budget_needed, per-edge integral flow)`.
pub fn route_min_flow(tt: &TwoTupleInstance, lower: &[Resource]) -> (Resource, Vec<Resource>) {
    let d = &tt.dag;
    assert_eq!(lower.len(), d.edge_count());
    let edges: Vec<BoundedEdge> = d
        .edge_refs()
        .map(|e| BoundedEdge::at_least(e.src.index(), e.dst.index(), lower[e.id.index()]))
        .collect();
    let r = min_flow(d.node_count(), &edges, tt.source.index(), tt.sink.index())
        .expect("lower bounds without upper bounds are always feasible");
    (r.value, r.edge_flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, Job};
    use crate::lp_build::solve_min_makespan_lp;
    use crate::transform::{expand_two_tuples, to_arc_form};
    use rtt_dag::Dag;
    use rtt_duration::Duration;

    fn chain_two_jobs() -> TwoTupleInstance {
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::new(Duration::zero()));
        let x = g.add_node(Job::new(Duration::two_point(10, 4, 0)));
        let y = g.add_node(Job::new(Duration::two_point(8, 4, 0)));
        let t = g.add_node(Job::new(Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(x, y, ()).unwrap();
        g.add_edge(y, t, ()).unwrap();
        let inst = Instance::new(g).unwrap();
        let (arc, _) = to_arc_form(&inst);
        expand_two_tuples(&arc)
    }

    #[test]
    fn full_budget_rounds_down_everything() {
        let tt = chain_two_jobs();
        let frac = solve_min_makespan_lp(&tt, 4, None).unwrap();
        assert!(frac.makespan.abs() < 1e-6);
        let lower = alpha_round(&tt, &frac, 0.5);
        // both purchase edges demand their full gap of 4
        let total: u64 = lower.iter().sum();
        assert_eq!(total, 8);
        let (budget, flows) = route_min_flow(&tt, &lower);
        // reuse over the serial path: 4 units serve both jobs
        assert_eq!(budget, 4);
        assert_eq!(tt.makespan_with_flows(&flows), 0);
    }

    #[test]
    fn zero_budget_rounds_up_everything() {
        let tt = chain_two_jobs();
        let frac = solve_min_makespan_lp(&tt, 0, None).unwrap();
        let lower = alpha_round(&tt, &frac, 0.5);
        assert!(lower.iter().all(|&l| l == 0));
        let (budget, flows) = route_min_flow(&tt, &lower);
        assert_eq!(budget, 0);
        assert_eq!(tt.makespan_with_flows(&flows), 18);
    }

    #[test]
    fn alpha_extremes_change_aggressiveness() {
        let tt = chain_two_jobs();
        // Budget 2: LP buys half of the first job's gap (fractional).
        let frac = solve_min_makespan_lp(&tt, 2, None).unwrap();
        // α near 1: almost any improvement is kept (round down).
        let aggressive = alpha_round(&tt, &frac, 0.99);
        // α near 0: only near-complete improvements are kept.
        let timid = alpha_round(&tt, &frac, 0.01);
        let sum_a: u64 = aggressive.iter().sum();
        let sum_t: u64 = timid.iter().sum();
        assert!(sum_a >= sum_t);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1)")]
    fn invalid_alpha_rejected() {
        let tt = chain_two_jobs();
        let frac = solve_min_makespan_lp(&tt, 0, None).unwrap();
        alpha_round(&tt, &frac, 1.0);
    }

    #[test]
    fn min_flow_budget_never_exceeds_sum_of_demands() {
        let tt = chain_two_jobs();
        let frac = solve_min_makespan_lp(&tt, 8, None).unwrap();
        let lower = alpha_round(&tt, &frac, 0.5);
        let (budget, flows) = route_min_flow(&tt, &lower);
        assert!(budget <= lower.iter().sum());
        for (f, l) in flows.iter().zip(&lower) {
            assert!(f >= l);
        }
    }
}
