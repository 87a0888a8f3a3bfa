//! Problem instances: activity-on-node and activity-on-arc forms.

use rtt_dag::{is_acyclic, Dag, EdgeId, NodeId};
use rtt_duration::{Duration, DurationKind, Resource, Time};
use std::fmt;

/// A job: a named activity with a duration function (activity-on-node).
#[derive(Debug, Clone)]
pub struct Job {
    /// Human-readable label (used in DOT exports and traces).
    pub label: String,
    /// The job's duration function `t_v(r)`.
    pub duration: Duration,
}

impl Job {
    /// Job with an auto-generated label.
    pub fn new(duration: Duration) -> Self {
        Job {
            label: String::new(),
            duration,
        }
    }

    /// Job with an explicit label.
    pub fn labeled(label: impl Into<String>, duration: Duration) -> Self {
        Job {
            label: label.into(),
            duration,
        }
    }
}

/// Errors when constructing an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// The graph contains a cycle.
    Cyclic,
    /// The graph does not have exactly one source.
    NotSingleSource(usize),
    /// The graph does not have exactly one sink.
    NotSingleSink(usize),
    /// The graph is empty.
    Empty,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::Cyclic => write!(f, "instance graph contains a cycle"),
            InstanceError::NotSingleSource(k) => write!(f, "expected 1 source, found {k}"),
            InstanceError::NotSingleSink(k) => write!(f, "expected 1 sink, found {k}"),
            InstanceError::Empty => write!(f, "instance graph is empty"),
        }
    }
}

impl std::error::Error for InstanceError {}

/// An activity-on-node instance: the natural form of a race DAG `D(P)`
/// (§1–2). Nodes are jobs; edges are precedences (parallel edges model
/// repeated updates).
#[derive(Debug, Clone)]
pub struct Instance {
    dag: Dag<Job, ()>,
    source: NodeId,
    sink: NodeId,
}

impl Instance {
    /// Wraps a job DAG, checking it is acyclic with one source and one
    /// sink (§2 assumes this w.l.o.g.; use `rtt_dag::normalize` first if
    /// needed).
    pub fn new(dag: Dag<Job, ()>) -> Result<Self, InstanceError> {
        if dag.node_count() == 0 {
            return Err(InstanceError::Empty);
        }
        if !is_acyclic(&dag) {
            return Err(InstanceError::Cyclic);
        }
        let sources = dag.sources();
        if sources.len() != 1 {
            return Err(InstanceError::NotSingleSource(sources.len()));
        }
        let sinks = dag.sinks();
        if sinks.len() != 1 {
            return Err(InstanceError::NotSingleSink(sinks.len()));
        }
        Ok(Instance {
            source: sources[0],
            sink: sinks[0],
            dag,
        })
    }

    /// Builds the race-DAG instance of §1 from a bare precedence DAG:
    /// every node's work is its in-degree (`w_x = d_in(x)`), and its
    /// duration function is drawn from `family`.
    ///
    /// `family` receives the node's work and returns its duration
    /// function — pass e.g. `Duration::recursive_binary` or
    /// `Duration::kway`, or a closure building step functions.
    pub fn race_dag<N, E>(
        dag: &Dag<N, E>,
        mut family: impl FnMut(Time) -> Duration,
    ) -> Result<Self, InstanceError> {
        let mut out: Dag<Job, ()> = Dag::with_capacity(dag.node_count(), dag.edge_count());
        for v in dag.node_ids() {
            let w = dag.in_degree(v) as Time;
            out.add_node(Job::labeled(format!("{v}"), family(w)));
        }
        for e in dag.edge_refs() {
            out.add_edge(e.src, e.dst, ()).expect("same node set");
        }
        Instance::new(out)
    }

    /// Like [`Instance::race_dag`], but accepts a raw extracted race DAG
    /// with any number of sources/sinks: work values are the in-degrees
    /// *of the input graph* (each arc = one update, §1), and a zero-work
    /// super-source/super-sink is added if needed. The normalization
    /// arcs are pure precedences — they are not updates and add no work
    /// (the dummy-arc convention of §2).
    pub fn race_dag_normalized<N, E>(
        dag: &Dag<N, E>,
        mut family: impl FnMut(Time) -> Duration,
    ) -> Result<Self, InstanceError> {
        if dag.node_count() == 0 {
            return Err(InstanceError::Empty);
        }
        if !is_acyclic(dag) {
            return Err(InstanceError::Cyclic);
        }
        let mut out: Dag<Job, ()> = Dag::with_capacity(dag.node_count() + 2, dag.edge_count() + 2);
        for v in dag.node_ids() {
            let w = dag.in_degree(v) as Time;
            out.add_node(Job::labeled(format!("{v}"), family(w)));
        }
        for e in dag.edge_refs() {
            out.add_edge(e.src, e.dst, ()).expect("same node set");
        }
        rtt_dag::normalize_source_sink(&mut out, Job::labeled("⊥", Duration::zero()), ());
        Instance::new(out)
    }

    /// The underlying DAG.
    pub fn dag(&self) -> &Dag<Job, ()> {
        &self.dag
    }

    /// The unique source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The unique sink.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Number of jobs (nodes).
    pub fn job_count(&self) -> usize {
        self.dag.node_count()
    }

    /// Makespan with a fixed per-node resource allocation (no routing
    /// feasibility implied): longest path of `t_v(alloc_v)`.
    pub fn makespan_with(&self, alloc: &[Resource]) -> Time {
        assert_eq!(alloc.len(), self.dag.node_count());
        rtt_dag::longest_path_nodes(&self.dag, |v| {
            self.dag.node(v).duration.time(alloc[v.index()])
        })
        .expect("instance is acyclic")
        .weight
    }

    /// Zero-resource makespan (every job at `t_v(0)`).
    pub fn base_makespan(&self) -> Time {
        self.makespan_with(&vec![0; self.dag.node_count()])
    }

    /// Sum of all maximal useful resources — a trivially sufficient
    /// budget upper bound for experiments.
    pub fn saturation_budget(&self) -> Resource {
        self.dag
            .node_ids()
            .map(|v| self.dag.node(v).duration.max_useful_resource())
            .sum()
    }
}

/// An activity on an arc of an [`ArcInstance`].
#[derive(Debug, Clone)]
pub struct Activity {
    /// Duration function of this activity.
    pub duration: Duration,
    /// The activity-on-node job this arc represents (`None` for dummy
    /// precedence arcs and for arcs built directly, e.g. gadgets).
    pub origin: Option<NodeId>,
    /// Label for exports.
    pub label: String,
}

impl Activity {
    /// A dummy (zero-duration) precedence arc.
    pub fn dummy() -> Self {
        Activity {
            duration: Duration::zero(),
            origin: None,
            label: String::new(),
        }
    }

    /// An activity with the given duration function.
    pub fn new(duration: Duration) -> Self {
        Activity {
            duration,
            origin: None,
            label: String::new(),
        }
    }

    /// An activity with a label.
    pub fn labeled(label: impl Into<String>, duration: Duration) -> Self {
        Activity {
            duration,
            origin: None,
            label: label.into(),
        }
    }

    /// Whether extra resources can ever help this activity.
    pub fn improvable(&self) -> bool {
        self.duration.len() > 1
    }
}

/// An activity-on-arc instance (`D'` of §2/§3.1): durations live on the
/// edges, the makespan is the longest path of arc durations, and the
/// resource is routed as a flow on these same arcs.
#[derive(Debug, Clone)]
pub struct ArcInstance {
    dag: Dag<(), Activity>,
    source: NodeId,
    sink: NodeId,
}

impl ArcInstance {
    /// Wraps an activity DAG (single source/sink, acyclic).
    pub fn new(dag: Dag<(), Activity>) -> Result<Self, InstanceError> {
        if dag.node_count() == 0 {
            return Err(InstanceError::Empty);
        }
        if !is_acyclic(&dag) {
            return Err(InstanceError::Cyclic);
        }
        let sources = dag.sources();
        if sources.len() != 1 {
            return Err(InstanceError::NotSingleSource(sources.len()));
        }
        let sinks = dag.sinks();
        if sinks.len() != 1 {
            return Err(InstanceError::NotSingleSink(sinks.len()));
        }
        Ok(ArcInstance {
            source: sources[0],
            sink: sinks[0],
            dag,
        })
    }

    /// The underlying DAG.
    pub fn dag(&self) -> &Dag<(), Activity> {
        &self.dag
    }

    /// The unique source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The unique sink.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Duration of arc `e` when the flow through it is `f` (Question 1.3:
    /// a job may use exactly the resource routed through it).
    pub fn arc_time(&self, e: EdgeId, f: Resource) -> Time {
        self.dag.edge(e).duration.time(f)
    }

    /// Makespan induced by a per-edge flow (longest path of arc
    /// durations). Does *not* check that `flows` is a valid flow — use
    /// [`crate::solution::validate`] for certification.
    pub fn makespan_with_flows(&self, flows: &[Resource]) -> Time {
        assert_eq!(flows.len(), self.dag.edge_count());
        rtt_dag::longest_path_edges(&self.dag, |e| self.arc_time(e, flows[e.index()]))
            .expect("instance is acyclic")
            .weight
    }

    /// Zero-resource makespan.
    pub fn base_makespan(&self) -> Time {
        self.makespan_with_flows(&vec![0; self.dag.edge_count()])
    }

    /// Makespan when every activity gets unlimited resources — the best
    /// conceivably achievable (infinite budget).
    pub fn ideal_makespan(&self) -> Time {
        rtt_dag::longest_path_edges(&self.dag, |e| self.dag.edge(e).duration.min_time())
            .expect("instance is acyclic")
            .weight
    }

    /// Edges whose duration can actually be improved by resources
    /// (the "jobs" the solvers enumerate).
    pub fn improvable_edges(&self) -> Vec<EdgeId> {
        self.dag
            .edge_ids()
            .filter(|&e| self.dag.edge(e).improvable())
            .collect()
    }

    /// Sum of per-edge maximal useful resources (loose budget bound).
    pub fn saturation_budget(&self) -> Resource {
        self.dag
            .edge_ids()
            .map(|e| self.dag.edge(e).duration.max_useful_resource())
            .sum()
    }

    /// The dominant duration-function family among improvable arcs, if
    /// unique. Solver dispatch helpers use this.
    pub fn dominant_kind(&self) -> Option<DurationKind> {
        let mut kinds = self
            .improvable_edges()
            .into_iter()
            .map(|e| self.dag.edge(e).duration.kind());
        let first = kinds.next()?;
        let same = |a: DurationKind, b: DurationKind| {
            matches!(
                (a, b),
                (DurationKind::Step, DurationKind::Step)
                    | (DurationKind::KWay { .. }, DurationKind::KWay { .. })
                    | (
                        DurationKind::RecursiveBinary { .. },
                        DurationKind::RecursiveBinary { .. }
                    )
            )
        };
        kinds.all(|k| same(k, first)).then_some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_duration::Tuple;

    fn diamond_instance() -> Instance {
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::labeled("s", Duration::zero()));
        let a = g.add_node(Job::labeled("a", Duration::two_point(10, 2, 4)));
        let b = g.add_node(Job::labeled("b", Duration::constant(6)));
        let t = g.add_node(Job::labeled("t", Duration::zero()));
        g.add_edge(s, a, ()).unwrap();
        g.add_edge(s, b, ()).unwrap();
        g.add_edge(a, t, ()).unwrap();
        g.add_edge(b, t, ()).unwrap();
        Instance::new(g).unwrap()
    }

    #[test]
    fn construction_checks() {
        let mut g: Dag<Job, ()> = Dag::new();
        assert!(matches!(
            Instance::new(g.clone()),
            Err(InstanceError::Empty)
        ));
        let a = g.add_node(Job::new(Duration::zero()));
        let b = g.add_node(Job::new(Duration::zero()));
        // two sources (and two sinks): source error reported first
        assert!(matches!(
            Instance::new(g.clone()),
            Err(InstanceError::NotSingleSource(2))
        ));
        g.add_edge(a, b, ()).unwrap();
        assert!(Instance::new(g).is_ok());
    }

    #[test]
    fn race_dag_uses_in_degree() {
        let mut g: Dag<(), ()> = Dag::new();
        let s = g.add_node(());
        let x = g.add_node(());
        let t = g.add_node(());
        g.add_parallel_edges(s, x, (), 6).unwrap();
        g.add_edge(x, t, ()).unwrap();
        let inst = Instance::race_dag(&g, Duration::recursive_binary).unwrap();
        // x has work 6: base 6, with 2 units -> ⌈6/2⌉+2 = 5
        assert_eq!(inst.dag().node(x).duration.time(0), 6);
        assert_eq!(inst.dag().node(x).duration.time(2), 5);
        assert_eq!(inst.base_makespan(), 6 + 1);
    }

    #[test]
    fn makespan_with_allocation() {
        let inst = diamond_instance();
        assert_eq!(inst.base_makespan(), 10);
        // give job a two units: t_a = 4, path b now critical (6)
        let mut alloc = vec![0; 4];
        alloc[1] = 2;
        assert_eq!(inst.makespan_with(&alloc), 6);
        assert_eq!(inst.saturation_budget(), 2);
    }

    #[test]
    fn arc_instance_basics() {
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let m = g.add_node(());
        let t = g.add_node(());
        let e1 = g
            .add_edge(s, m, Activity::new(Duration::two_point(8, 3, 1)))
            .unwrap();
        g.add_edge(m, t, Activity::dummy()).unwrap();
        let inst = ArcInstance::new(g).unwrap();
        assert_eq!(inst.base_makespan(), 8);
        assert_eq!(inst.ideal_makespan(), 1);
        assert_eq!(inst.arc_time(e1, 2), 8);
        assert_eq!(inst.arc_time(e1, 3), 1);
        assert_eq!(inst.improvable_edges(), vec![e1]);
        let mut flows = vec![0, 0];
        flows[e1.index()] = 3;
        assert_eq!(inst.makespan_with_flows(&flows), 1);
    }

    #[test]
    fn dominant_kind_detection() {
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, Activity::new(Duration::kway(100)))
            .unwrap();
        g.add_edge(s, t, Activity::new(Duration::kway(50))).unwrap();
        g.add_edge(s, t, Activity::dummy()).unwrap(); // not improvable
        let inst = ArcInstance::new(g).unwrap();
        assert!(matches!(
            inst.dominant_kind(),
            Some(DurationKind::KWay { .. })
        ));

        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, Activity::new(Duration::kway(100)))
            .unwrap();
        g.add_edge(
            s,
            t,
            Activity::new(Duration::step(vec![Tuple::new(0, 9), Tuple::new(1, 2)]).unwrap()),
        )
        .unwrap();
        let inst = ArcInstance::new(g).unwrap();
        assert_eq!(inst.dominant_kind(), None);
    }

    #[test]
    fn cyclic_arc_instance_rejected() {
        let mut g: Dag<(), Activity> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, Activity::dummy()).unwrap();
        g.add_edge(b, c, Activity::dummy()).unwrap();
        g.add_edge(c, b, Activity::dummy()).unwrap();
        assert!(matches!(ArcInstance::new(g), Err(InstanceError::Cyclic)));
    }
}
