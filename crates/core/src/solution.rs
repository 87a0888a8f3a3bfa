//! Certified solutions on an [`ArcInstance`].

use crate::instance::ArcInstance;
use rtt_duration::{Resource, Time};
use rtt_flow::{decompose_paths, min_flow, BoundedEdge, FlowPath};
use std::fmt;
use std::fmt::Write as _;

/// A solution to the resource-time tradeoff on an arc instance:
/// an integral resource routing plus the achieved per-arc durations.
///
/// `arc_flows` is the flow (units of resource) through each `D'` edge;
/// `edge_times` is the duration each activity actually runs at. The two
/// are kept separately because a purchase can be *partial* in terms of
/// the collapsed flow (e.g. resource passing through an arc en route to
/// a later job still shows up in its flow); `edge_times[e]` must simply
/// be achievable with `arc_flows[e]` units, i.e.
/// `duration.time(arc_flows[e]) ≤ edge_times[e] ≤ duration.time(0)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Integral flow per `D'` edge.
    pub arc_flows: Vec<Resource>,
    /// Achieved duration per `D'` edge.
    pub edge_times: Vec<Time>,
    /// Makespan: longest path of `edge_times`.
    pub makespan: Time,
    /// Total resource leaving the source (the budget actually consumed).
    pub budget_used: Resource,
}

/// Why a claimed solution is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Vector lengths don't match the instance.
    ShapeMismatch,
    /// Flow conservation fails at an internal node.
    NotConserved {
        /// Node index in the arc instance.
        node: usize,
    },
    /// The source emits more than the claimed budget.
    BudgetExceeded {
        /// Source outflow (`Resource::MAX` when it exceeds that).
        actual: Resource,
        /// Claimed budget.
        claimed: Resource,
    },
    /// An arc claims a duration faster than its flow can buy.
    TimeTooOptimistic {
        /// Edge index.
        edge: usize,
        /// Claimed duration.
        claimed: Time,
        /// Best achievable with the routed flow.
        achievable: Time,
    },
    /// An arc claims a duration slower than its zero-resource time
    /// (impossible: resources never hurt).
    TimeTooPessimistic {
        /// Edge index.
        edge: usize,
    },
    /// The claimed makespan does not equal the longest path of the
    /// claimed durations.
    MakespanMismatch {
        /// Claimed makespan.
        claimed: Time,
        /// Recomputed makespan.
        recomputed: Time,
    },
    /// The flow could not be decomposed into source→sink paths.
    NotRoutable,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::ShapeMismatch => write!(f, "solution shape mismatch"),
            ValidationError::NotConserved { node } => {
                write!(f, "flow not conserved at node {node}")
            }
            ValidationError::BudgetExceeded { actual, claimed } => {
                write!(f, "source emits {actual} > claimed budget {claimed}")
            }
            ValidationError::TimeTooOptimistic {
                edge,
                claimed,
                achievable,
            } => write!(
                f,
                "edge {edge} claims duration {claimed} < achievable {achievable}"
            ),
            ValidationError::TimeTooPessimistic { edge } => {
                write!(f, "edge {edge} claims duration above its zero-resource time")
            }
            ValidationError::MakespanMismatch { claimed, recomputed } => {
                write!(f, "claimed makespan {claimed} != recomputed {recomputed}")
            }
            ValidationError::NotRoutable => {
                write!(f, "flow cannot be decomposed into source-sink paths")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// The durations per-arc `levels` buy, and the longest path of those.
pub(crate) fn level_times(arc: &ArcInstance, levels: &[Resource]) -> (Vec<Time>, Time) {
    let d = arc.dag();
    let edge_times: Vec<Time> = d
        .edge_ids()
        .map(|e| arc.arc_time(e, levels[e.index()]))
        .collect();
    let makespan = rtt_dag::longest_path_edges(d, |e| edge_times[e.index()])
        .expect("acyclic")
        .weight;
    (edge_times, makespan)
}

/// The routed solution of per-arc `levels` — their min-flow (the
/// cheapest routing, Question 1.3, of the levels as arc demands), the
/// durations they buy, and the longest path of those. Every solver that
/// settles on levels (the exact search, the SP DP, the family roundings)
/// ends here, with levels whose routing fits its budget.
pub(crate) fn routed_solution(arc: &ArcInstance, levels: &[Resource]) -> Solution {
    let d = arc.dag();
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
    .expect("lower bounds only: feasible, and within a u64 budget");
    let (edge_times, makespan) = level_times(arc, levels);
    Solution {
        arc_flows: flow.edge_flow,
        edge_times,
        makespan,
        budget_used: flow.value,
    }
}

/// Fully certifies a solution against its instance:
///
/// 1. shapes match;
/// 2. the flow conserves at internal nodes and is path-decomposable
///    (every unit travels a source→sink path — Question 1.3);
/// 3. the source outflow equals `budget_used` (and is the budget the
///    caller should compare against `B`);
/// 4. every claimed duration is achievable: within
///    `[t_e(flow_e), t_e(0)]`;
/// 5. the claimed makespan equals the longest path of claimed durations.
pub fn validate(arc: &ArcInstance, sol: &Solution) -> Result<(), ValidationError> {
    let d = arc.dag();
    if sol.arc_flows.len() != d.edge_count() || sol.edge_times.len() != d.edge_count() {
        return Err(ValidationError::ShapeMismatch);
    }
    // conservation (in i128, so flows of 2^63 and more keep their sign)
    let mut net = vec![0i128; d.node_count()];
    for e in d.edge_refs() {
        let f = i128::from(sol.arc_flows[e.id.index()]);
        net[e.src.index()] -= f;
        net[e.dst.index()] += f;
    }
    for v in d.node_ids() {
        if v != arc.source() && v != arc.sink() && net[v.index()] != 0 {
            return Err(ValidationError::NotConserved { node: v.index() });
        }
    }
    let outflow: u128 = d
        .out_edges(arc.source())
        .iter()
        .map(|&e| u128::from(sol.arc_flows[e.index()]))
        .sum();
    if outflow > u128::from(sol.budget_used) {
        return Err(ValidationError::BudgetExceeded {
            actual: Resource::try_from(outflow).unwrap_or(Resource::MAX),
            claimed: sol.budget_used,
        });
    }
    // routability (paths)
    let edge_list: Vec<(usize, usize)> = d
        .edge_refs()
        .map(|e| (e.src.index(), e.dst.index()))
        .collect();
    if decompose_paths(
        d.node_count(),
        &edge_list,
        &sol.arc_flows,
        arc.source().index(),
        arc.sink().index(),
    )
    .is_err()
    {
        return Err(ValidationError::NotRoutable);
    }
    // per-edge duration achievability
    for e in d.edge_ids() {
        let i = e.index();
        let best = arc.arc_time(e, sol.arc_flows[i]);
        let worst = arc.arc_time(e, 0);
        if sol.edge_times[i] < best {
            return Err(ValidationError::TimeTooOptimistic {
                edge: i,
                claimed: sol.edge_times[i],
                achievable: best,
            });
        }
        if sol.edge_times[i] > worst {
            return Err(ValidationError::TimeTooPessimistic { edge: i });
        }
    }
    // makespan
    let recomputed = rtt_dag::longest_path_edges(d, |e| sol.edge_times[e.index()])
        .expect("acyclic")
        .weight;
    if recomputed != sol.makespan {
        return Err(ValidationError::MakespanMismatch {
            claimed: sol.makespan,
            recomputed,
        });
    }
    Ok(())
}

/// One route of the plan: `amount` units travelling a source→sink path,
/// together with the jobs they actually expedite on the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Edge indices of the path, source→sink order.
    pub edges: Vec<usize>,
    /// Units of resource travelling this route together.
    pub amount: Resource,
    /// Indices (into `edges`) of the arcs where the route's units take
    /// part in a purchase — the arc runs faster than its zero-resource
    /// duration in the solution.
    pub serves: Vec<usize>,
}

/// The per-unit routing certificate of Question 1.3: a decomposition of
/// the solution's flow into weighted source→sink paths. Every unit of the
/// consumed budget travels exactly one route and may speed up several
/// jobs along it — this is the object the paper's "space flows along the
/// edges, splitting and merging" story describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingPlan {
    /// The routes; amounts sum to the solution's `budget_used`.
    pub routes: Vec<Route>,
}

impl RoutingPlan {
    /// Total units routed (= the solution's consumed budget).
    pub fn total(&self) -> Resource {
        self.routes.iter().map(|r| r.amount).sum()
    }

    /// Human-readable rendering with arc labels from the instance.
    pub fn render(&self, arc: &ArcInstance) -> String {
        let d = arc.dag();
        let mut out = String::new();
        for (i, r) in self.routes.iter().enumerate() {
            let _ = write!(out, "route {i}: {} unit(s) via ", r.amount);
            for (j, &e) in r.edges.iter().enumerate() {
                if j > 0 {
                    out.push_str(" → ");
                }
                let a = d.edge(rtt_dag::EdgeId(e as u32));
                if a.label.is_empty() {
                    let _ = write!(out, "e{e}");
                } else {
                    out.push_str(&a.label);
                }
                if r.serves.contains(&j) {
                    out.push('*');
                }
            }
            out.push('\n');
        }
        let _ = write!(out, "total routed: {} unit(s); * = expedites the job", self.total());
        out
    }
}

/// Decomposes a (valid) solution's flow into the per-unit routes of
/// Question 1.3. Fails with [`ValidationError::NotRoutable`] if the flow
/// does not conserve or cannot be decomposed (i.e. [`validate`] would
/// reject it too).
pub fn routing_plan(arc: &ArcInstance, sol: &Solution) -> Result<RoutingPlan, ValidationError> {
    let d = arc.dag();
    if sol.arc_flows.len() != d.edge_count() {
        return Err(ValidationError::ShapeMismatch);
    }
    let edge_list: Vec<(usize, usize)> = d
        .edge_refs()
        .map(|e| (e.src.index(), e.dst.index()))
        .collect();
    let paths: Vec<FlowPath> = decompose_paths(
        d.node_count(),
        &edge_list,
        &sol.arc_flows,
        arc.source().index(),
        arc.sink().index(),
    )
    .map_err(|_| ValidationError::NotRoutable)?;
    let routes = paths
        .into_iter()
        .map(|p| {
            let serves = p
                .edges
                .iter()
                .enumerate()
                .filter(|&(_, &e)| {
                    let id = rtt_dag::EdgeId(e as u32);
                    sol.edge_times[e] < arc.arc_time(id, 0)
                })
                .map(|(j, _)| j)
                .collect();
            Route {
                edges: p.edges,
                amount: p.amount,
                serves,
            }
        })
        .collect();
    Ok(RoutingPlan { routes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Activity;
    use rtt_dag::Dag;
    use rtt_duration::Duration;

    /// s -> m -> t; first arc improvable {<0,9>,<2,3>}, second constant 4.
    fn two_arc_instance() -> ArcInstance {
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let m = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, m, Activity::new(Duration::two_point(9, 2, 3)))
            .unwrap();
        g.add_edge(m, t, Activity::new(Duration::constant(4)))
            .unwrap();
        ArcInstance::new(g).unwrap()
    }

    fn good_solution() -> Solution {
        Solution {
            arc_flows: vec![2, 2],
            edge_times: vec![3, 4],
            makespan: 7,
            budget_used: 2,
        }
    }

    #[test]
    fn valid_solution_accepted() {
        let arc = two_arc_instance();
        validate(&arc, &good_solution()).unwrap();
    }

    #[test]
    fn conservation_checked() {
        let arc = two_arc_instance();
        let mut sol = good_solution();
        sol.arc_flows = vec![2, 1];
        assert_eq!(
            validate(&arc, &sol),
            Err(ValidationError::NotConserved { node: 1 })
        );
    }

    #[test]
    fn budget_checked() {
        let arc = two_arc_instance();
        let mut sol = good_solution();
        sol.budget_used = 1;
        assert!(matches!(
            validate(&arc, &sol),
            Err(ValidationError::BudgetExceeded {
                actual: 2,
                claimed: 1
            })
        ));
    }

    #[test]
    fn optimistic_time_rejected() {
        let arc = two_arc_instance();
        let mut sol = good_solution();
        sol.arc_flows = vec![0, 0];
        sol.budget_used = 0;
        // claims duration 3 with zero flow: too optimistic
        assert!(matches!(
            validate(&arc, &sol),
            Err(ValidationError::TimeTooOptimistic { edge: 0, .. })
        ));
    }

    #[test]
    fn pessimistic_time_rejected() {
        let arc = two_arc_instance();
        let mut sol = good_solution();
        sol.edge_times = vec![10, 4];
        sol.makespan = 14;
        assert_eq!(
            validate(&arc, &sol),
            Err(ValidationError::TimeTooPessimistic { edge: 0 })
        );
    }

    #[test]
    fn makespan_mismatch_rejected() {
        let arc = two_arc_instance();
        let mut sol = good_solution();
        sol.makespan = 6;
        assert!(matches!(
            validate(&arc, &sol),
            Err(ValidationError::MakespanMismatch {
                claimed: 6,
                recomputed: 7
            })
        ));
    }

    #[test]
    fn wasteful_but_valid_solution_accepted() {
        let arc = two_arc_instance();
        // routes 2 units but claims the unimproved duration: wasteful, valid
        let sol = Solution {
            arc_flows: vec![2, 2],
            edge_times: vec![9, 4],
            makespan: 13,
            budget_used: 2,
        };
        validate(&arc, &sol).unwrap();
    }

    #[test]
    fn shape_mismatch_rejected() {
        let arc = two_arc_instance();
        let mut sol = good_solution();
        sol.arc_flows.push(0);
        assert_eq!(validate(&arc, &sol), Err(ValidationError::ShapeMismatch));
    }

    #[test]
    fn routing_plan_covers_the_flow() {
        let arc = two_arc_instance();
        let sol = good_solution();
        let plan = routing_plan(&arc, &sol).unwrap();
        assert_eq!(plan.total(), 2);
        // re-accumulate per-edge coverage and compare to the flow
        let mut covered = vec![0u64; sol.arc_flows.len()];
        for r in &plan.routes {
            for &e in &r.edges {
                covered[e] += r.amount;
            }
        }
        assert_eq!(covered, sol.arc_flows);
    }

    #[test]
    fn routing_plan_marks_served_jobs() {
        let arc = two_arc_instance();
        let sol = good_solution();
        let plan = routing_plan(&arc, &sol).unwrap();
        // edge 0 runs at 3 < 9: served; edge 1 is constant: not served
        assert_eq!(plan.routes.len(), 1);
        assert_eq!(plan.routes[0].serves, vec![0]);
        let text = plan.render(&arc);
        assert!(text.contains("2 unit(s)"));
        assert!(text.contains('*'));
    }

    #[test]
    fn routing_plan_rejects_unroutable_flow() {
        let arc = two_arc_instance();
        let mut sol = good_solution();
        sol.arc_flows = vec![2, 1]; // conservation broken at the middle
        assert_eq!(
            routing_plan(&arc, &sol),
            Err(ValidationError::NotRoutable)
        );
    }

    #[test]
    fn routing_plan_empty_for_zero_budget() {
        let arc = two_arc_instance();
        let sol = Solution {
            arc_flows: vec![0, 0],
            edge_times: vec![9, 4],
            makespan: 13,
            budget_used: 0,
        };
        let plan = routing_plan(&arc, &sol).unwrap();
        assert!(plan.routes.is_empty());
        assert_eq!(plan.total(), 0);
    }

    #[test]
    fn routing_plan_on_exact_solver_output() {
        // end to end: solver → plan; amounts must equal the budget used
        use crate::exact::solve_exact;
        use crate::instance::{Instance, Job};
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::new(Duration::zero()));
        let x = g.add_node(Job::new(Duration::two_point(10, 4, 0)));
        let y = g.add_node(Job::new(Duration::two_point(8, 4, 2)));
        let t = g.add_node(Job::new(Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(x, y, ()).unwrap();
        g.add_edge(y, t, ()).unwrap();
        let (arc, _) = crate::transform::to_arc_form(&Instance::new(g).unwrap());
        let r = solve_exact(&arc, 4);
        let plan = routing_plan(&arc, &r.solution).unwrap();
        assert_eq!(plan.total(), r.solution.budget_used);
        // the same 4 units serve both jobs along one route
        assert_eq!(plan.routes.len(), 1);
        assert_eq!(plan.routes[0].amount, 4);
        assert_eq!(plan.routes[0].serves.len(), 2);
    }
}
