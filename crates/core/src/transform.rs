//! DAG transformations of §2 and §3.1 (Figures 6 and 7).

use crate::instance::{Activity, ArcInstance, Instance};
use rtt_dag::{Dag, EdgeId, NodeId};
use rtt_duration::{Resource, Time};

/// Mapping produced by [`to_arc_form`]: where each original job went.
#[derive(Debug, Clone)]
pub struct ArcFormMap {
    /// `job_arc[v]` = the arc of `D'` carrying node `v`'s activity.
    pub job_arc: Vec<EdgeId>,
    /// `(a_v, b_v)` endpoints per original node.
    pub split: Vec<(NodeId, NodeId)>,
}

/// Activity-on-node → activity-on-arc (the `D → D'` reduction of §2).
///
/// Each node `v` becomes an arc `e_v = (a_v, b_v)` carrying `v`'s
/// duration function; each precedence edge `(u, v)` of `D` becomes a
/// zero-duration dummy arc `(b_u, a_v)`.
pub fn to_arc_form(inst: &Instance) -> (ArcInstance, ArcFormMap) {
    let d = inst.dag();
    let mut out: Dag<(), Activity> =
        Dag::with_capacity(2 * d.node_count(), d.node_count() + d.edge_count());
    let mut split = Vec::with_capacity(d.node_count());
    for _v in d.node_ids() {
        let a = out.add_node(());
        let b = out.add_node(());
        split.push((a, b));
    }
    let mut job_arc = Vec::with_capacity(d.node_count());
    for v in d.node_ids() {
        let (a, b) = split[v.index()];
        let job = d.node(v);
        let e = out
            .add_edge(
                a,
                b,
                Activity {
                    duration: job.duration.clone(),
                    origin: Some(v),
                    label: job.label.clone(),
                },
            )
            .expect("fresh nodes");
        job_arc.push(e);
    }
    for e in d.edge_refs() {
        let (_, bu) = split[e.src.index()];
        let (av, _) = split[e.dst.index()];
        out.add_edge(bu, av, Activity::dummy())
            .expect("fresh nodes");
    }
    let arc = ArcInstance::new(out).expect("transformation preserves the two-terminal DAG shape");
    (arc, ArcFormMap { job_arc, split })
}

/// One arc of the two-tuple form `D''`: `⟨0, t0⟩` plus an optional
/// purchase `⟨r, t1⟩` (buy `r` units through this arc to cut the
/// duration from `t0` to `t1`). §3.1 produces `t1 = 0`, but gadget-built
/// instances may use arbitrary `t1 ≤ t0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoTuple {
    /// Duration with no resource.
    pub t0: Time,
    /// Optional `(resource, improved duration)` pair.
    pub buy: Option<(Resource, Time)>,
}

impl TwoTuple {
    /// A fixed-duration arc.
    pub fn constant(t0: Time) -> Self {
        TwoTuple { t0, buy: None }
    }

    /// Duration at integral flow `f`.
    pub fn time(&self, f: Resource) -> Time {
        match self.buy {
            Some((r, t1)) if f >= r => t1,
            _ => self.t0,
        }
    }

    /// Duration at fractional flow `f` under the §3.1 linear relaxation
    /// (Eq. 4/5): linear interpolation between the two tuples.
    pub fn relaxed_time(&self, f: f64) -> f64 {
        match self.buy {
            None => self.t0 as f64,
            Some((r, t1)) => {
                let frac = (f / r as f64).clamp(0.0, 1.0);
                self.t0 as f64 - (self.t0 as f64 - t1 as f64) * frac
            }
        }
    }
}

/// Provenance of each `D''` job arc back to the `D'` job it came from.
#[derive(Debug, Clone)]
pub struct ChainInfo {
    /// The `D'` edge this chain bundle expands.
    pub arc_edge: EdgeId,
    /// First edges of the parallel chains (the ones carrying tuples);
    /// `chain_edges[i]` corresponds to tuple index `i` of the canonical
    /// duration function.
    pub chain_edges: Vec<EdgeId>,
}

impl ChainInfo {
    /// The job's total of a per-`D''`-edge quantity `v` (a flow, a
    /// purchase, a rounded requirement): its sum over the job's
    /// parallel chains.
    pub(crate) fn sum<T: Copy + std::iter::Sum>(&self, v: &[T]) -> T {
        self.chain_edges.iter().map(|ce| v[ce.index()]).sum()
    }
}

/// The `D''` instance (§3.1): every arc has at most two resource-time
/// tuples; job arcs of `D'` with `l ≥ 2` tuples appear as `l` parallel
/// two-edge chains.
#[derive(Debug, Clone)]
pub struct TwoTupleInstance {
    /// The graph; edge payloads are the two-tuple activities.
    pub dag: Dag<(), TwoTuple>,
    /// Source (same role as in `D'`).
    pub source: NodeId,
    /// Sink.
    pub sink: NodeId,
    /// One entry per improvable `D'` job arc (`l ≥ 2` tuples).
    pub chains: Vec<ChainInfo>,
    /// For each `D'` edge: its identity image in `D''` if it was copied
    /// verbatim (dummies and single-tuple arcs), else `None` (expanded).
    pub copied: Vec<Option<EdgeId>>,
}

impl TwoTupleInstance {
    /// Makespan induced by integral per-edge flows.
    pub fn makespan_with_flows(&self, flows: &[Resource]) -> Time {
        assert_eq!(flows.len(), self.dag.edge_count());
        rtt_dag::longest_path_edges(&self.dag, |e| self.dag.edge(e).time(flows[e.index()]))
            .expect("acyclic")
            .weight
    }

    /// Collapses a `D''` per-edge flow to a `D'` per-edge flow: chain
    /// bundle flows sum onto the original job arc; copied edges map 1:1.
    pub fn collapse_flow(&self, arc: &ArcInstance, flows: &[Resource]) -> Vec<Resource> {
        assert_eq!(flows.len(), self.dag.edge_count());
        let mut out = vec![0; arc.dag().edge_count()];
        for (e, img) in self.copied.iter().enumerate() {
            if let Some(img) = img {
                out[e] = flows[img.index()];
            }
        }
        for info in &self.chains {
            out[info.arc_edge.index()] = info.sum(flows);
        }
        out
    }
}

/// Expands a `D'` instance into its two-tuple form `D''` (§3.1, Fig. 6).
///
/// For a job with canonical tuples `⟨r_1=0, t_1⟩ … ⟨r_l, t_l⟩` (`l ≥ 2`)
/// between `u` and `v`, we create `l` chains `u → u_i → v`:
///
/// * chain `i < l`: first edge `{⟨0, t_i⟩, ⟨r_{i+1} − r_i, 0⟩}` — paying
///   the tuple-gap resource kills this chain's contribution;
/// * chain `l`: first edge `⟨0, t_l⟩` (cannot be improved further);
/// * second edges `(u_i, v)` are free `⟨0, 0⟩`.
///
/// The max over chains reproduces the original step function under the
/// canonical prefix-purchase mapping (Lemma 3.1), and uncapped chains let
/// surplus resource *pass through* for reuse further down the path.
pub fn expand_two_tuples(arc: &ArcInstance) -> TwoTupleInstance {
    let d = arc.dag();
    let mut out: Dag<(), TwoTuple> = Dag::with_capacity(d.node_count(), d.edge_count());
    for _ in d.node_ids() {
        out.add_node(());
    }
    let mut chains = Vec::new();
    let mut copied = vec![None; d.edge_count()];
    for e in d.edge_refs() {
        let dur = &e.weight.duration;
        let tuples = dur.tuples();
        if tuples.len() < 2 {
            let img = out
                .add_edge(e.src, e.dst, TwoTuple::constant(dur.base_time()))
                .expect("same node set");
            copied[e.id.index()] = Some(img);
            continue;
        }
        let l = tuples.len();
        let mut chain_edges = Vec::with_capacity(l);
        for i in 0..l {
            let mid = out.add_node(());
            let tt = if i + 1 < l {
                TwoTuple {
                    t0: tuples[i].time,
                    buy: Some((tuples[i + 1].resource - tuples[i].resource, 0)),
                }
            } else {
                TwoTuple::constant(tuples[i].time)
            };
            let first = out.add_edge(e.src, mid, tt).expect("fresh node");
            out.add_edge(mid, e.dst, TwoTuple::constant(0))
                .expect("fresh node");
            chain_edges.push(first);
        }
        chains.push(ChainInfo {
            arc_edge: e.id,
            chain_edges,
        });
    }
    TwoTupleInstance {
        dag: out,
        source: arc.source(),
        sink: arc.sink(),
        chains,
        copied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Job;
    use rtt_duration::{Duration, Tuple};

    fn tiny_instance() -> Instance {
        // s -> x -> t, x improvable with 3 tuples.
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::labeled("s", Duration::zero()));
        let x = g.add_node(Job::labeled(
            "x",
            Duration::step(vec![Tuple::new(0, 10), Tuple::new(2, 6), Tuple::new(5, 1)]).unwrap(),
        ));
        let t = g.add_node(Job::labeled("t", Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(x, t, ()).unwrap();
        Instance::new(g).unwrap()
    }

    #[test]
    fn arc_form_shape() {
        let inst = tiny_instance();
        let (arc, map) = to_arc_form(&inst);
        // 3 nodes -> 6 nodes; 3 job arcs + 2 dummies.
        assert_eq!(arc.dag().node_count(), 6);
        assert_eq!(arc.dag().edge_count(), 5);
        assert_eq!(map.job_arc.len(), 3);
        // makespans agree (base)
        assert_eq!(arc.base_makespan(), inst.base_makespan());
        assert_eq!(arc.base_makespan(), 10);
        // job arcs carry the original durations
        let x_arc = map.job_arc[1];
        assert_eq!(arc.dag().edge(x_arc).duration.time(0), 10);
        assert_eq!(arc.dag().edge(x_arc).origin, Some(NodeId(1)));
    }

    #[test]
    fn arc_form_preserves_makespan_under_allocation() {
        let inst = tiny_instance();
        let (arc, map) = to_arc_form(&inst);
        let mut flows = vec![0; arc.dag().edge_count()];
        flows[map.job_arc[1].index()] = 2;
        assert_eq!(arc.makespan_with_flows(&flows), 6);
        flows[map.job_arc[1].index()] = 5;
        assert_eq!(arc.makespan_with_flows(&flows), 1);
    }

    #[test]
    fn two_tuple_expansion_shape() {
        let inst = tiny_instance();
        let (arc, _) = to_arc_form(&inst);
        let tt = expand_two_tuples(&arc);
        // x has 3 tuples -> 3 chains (6 edges) replacing 1 edge;
        // 2 constant job arcs (s, t) + 2 dummies copied verbatim.
        assert_eq!(tt.chains.len(), 1);
        assert_eq!(tt.chains[0].chain_edges.len(), 3);
        assert_eq!(tt.dag.edge_count(), 4 + 6);
        assert_eq!(tt.dag.node_count(), 6 + 3);
        // every edge of D'' has at most two tuples by construction (type-
        // level guarantee); check the chain contents match Fig. 6:
        let ce = &tt.chains[0].chain_edges;
        assert_eq!(
            *tt.dag.edge(ce[0]),
            TwoTuple {
                t0: 10,
                buy: Some((2, 0))
            }
        );
        assert_eq!(
            *tt.dag.edge(ce[1]),
            TwoTuple {
                t0: 6,
                buy: Some((3, 0))
            }
        );
        assert_eq!(*tt.dag.edge(ce[2]), TwoTuple::constant(1));
    }

    #[test]
    fn prefix_purchase_reproduces_step_function_lemma31() {
        // Lemma 3.1's canonical mapping: buying the first i chain gaps
        // yields duration t(r_{i+1}) at cost r_{i+1}.
        let inst = tiny_instance();
        let (arc, _) = to_arc_form(&inst);
        let tt = expand_two_tuples(&arc);
        let ce = &tt.chains[0].chain_edges;
        let mut flows = vec![0; tt.dag.edge_count()];
        // no purchase: max(10, 6, 1) = 10
        assert_eq!(tt.makespan_with_flows(&flows), 10);
        // buy chain 0 (2 units): max(0, 6, 1) = 6
        flows[ce[0].index()] = 2;
        assert_eq!(tt.makespan_with_flows(&flows), 6);
        // buy chains 0 and 1 (2 + 3 = 5 units): max(0, 0, 1) = 1
        flows[ce[1].index()] = 3;
        assert_eq!(tt.makespan_with_flows(&flows), 1);
    }

    #[test]
    fn collapse_flow_sums_chains() {
        let inst = tiny_instance();
        let (arc, map) = to_arc_form(&inst);
        let tt = expand_two_tuples(&arc);
        let ce = &tt.chains[0].chain_edges;
        let mut flows = vec![0; tt.dag.edge_count()];
        flows[ce[0].index()] = 2;
        flows[ce[1].index()] = 3;
        let collapsed = tt.collapse_flow(&arc, &flows);
        assert_eq!(collapsed[map.job_arc[1].index()], 5);
    }

    #[test]
    fn relaxed_time_interpolates() {
        let tt = TwoTuple {
            t0: 10,
            buy: Some((4, 0)),
        };
        assert_eq!(tt.relaxed_time(0.0), 10.0);
        assert_eq!(tt.relaxed_time(2.0), 5.0);
        assert_eq!(tt.relaxed_time(4.0), 0.0);
        assert_eq!(tt.relaxed_time(9.0), 0.0); // clamped
        let c = TwoTuple::constant(7);
        assert_eq!(c.relaxed_time(3.0), 7.0);
        // integral evaluation
        assert_eq!(tt.time(3), 10);
        assert_eq!(tt.time(4), 0);
    }

    #[test]
    fn recursive_binary_expansion_matches_figure7() {
        // Fig. 7: a rec-binary arc with k+1 tuples becomes parallel
        // chains with gaps 2, 2, 4, 8, ... (tuple levels 0,2,4,8,16...).
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::new(Duration::zero()));
        let x = g.add_node(Job::new(Duration::recursive_binary(64)));
        let t = g.add_node(Job::new(Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(x, t, ()).unwrap();
        let inst = Instance::new(g).unwrap();
        let (arc, _) = to_arc_form(&inst);
        let tt = expand_two_tuples(&arc);
        let gaps: Vec<u64> = tt.chains[0]
            .chain_edges
            .iter()
            .filter_map(|&e| tt.dag.edge(e).buy.map(|(r, _)| r))
            .collect();
        // levels 0,2,4,8,16,32 -> gaps 2,2,4,8,16
        assert_eq!(gaps, vec![2, 2, 4, 8, 16]);
    }
}
