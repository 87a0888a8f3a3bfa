//! The on-disk instance format: a small JSON schema for activity-on-node
//! and activity-on-arc instances, round-trippable to the `rtt-core`
//! types.
//!
//! ```json
//! {
//!   "form": "node",
//!   "nodes": [
//!     { "label": "s", "duration": { "kind": "zero" } },
//!     { "label": "x", "duration": { "kind": "recbinary", "work": 64 } },
//!     { "label": "t", "duration": { "kind": "zero" } }
//!   ],
//!   "edges": [ { "src": 0, "dst": 1 }, { "src": 1, "dst": 2 } ]
//! }
//! ```
//!
//! `form: "arc"` puts the durations on the edges instead (the `D'` form
//! gadgets are built in); nodes then need no payload and `nodes` is just
//! a count.

use crate::json::{Json, JsonError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtt_core::{Activity, ArcInstance, Instance, InstanceError, Job, ReducerFamily};
use rtt_dag::Dag;
use rtt_duration::{Duration, Time, Tuple};
use std::fmt;

/// A duration function, as serialized (`{"kind": "...", ...}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurationSpec {
    /// `t(r) = 0` everywhere.
    Zero,
    /// Constant duration `t`.
    Constant {
        /// The duration.
        t: Time,
    },
    /// General non-increasing step function (Eq. 1): explicit tuples.
    Step {
        /// `[resource, time]` pairs, strictly increasing resource,
        /// non-increasing time, first resource 0.
        tuples: Vec<(u64, Time)>,
    },
    /// k-way splitting (Eq. 2) for a job of `work` updates.
    Kway {
        /// Zero-resource duration `t_v(0)`.
        work: Time,
    },
    /// Recursive binary splitting (Eq. 3) for a job of `work` updates.
    Recbinary {
        /// Zero-resource duration `t_v(0)`.
        work: Time,
    },
}

impl DurationSpec {
    /// Builds the in-memory duration function.
    pub fn build(&self) -> Result<Duration, SpecError> {
        match self {
            DurationSpec::Zero => Ok(Duration::zero()),
            DurationSpec::Constant { t } => Ok(Duration::constant(*t)),
            DurationSpec::Step { tuples } => {
                let ts: Vec<Tuple> = tuples.iter().map(|&(r, t)| Tuple::new(r, t)).collect();
                Duration::step(ts).map_err(|e| SpecError::BadDuration(e.to_string()))
            }
            DurationSpec::Kway { work } => Ok(Duration::kway(*work)),
            DurationSpec::Recbinary { work } => Ok(Duration::recursive_binary(*work)),
        }
    }

    /// Serializes an in-memory duration. The reducer families keep
    /// their tags (`kway`/`recbinary` documents rebuild to the *same*
    /// family, so family-specific solvers still apply after a
    /// round-trip — race-derived instances depend on this); general
    /// step functions serialize as `step`/`constant`/`zero`.
    pub fn from_duration(d: &Duration) -> DurationSpec {
        use rtt_duration::DurationKind;
        match d.kind() {
            DurationKind::KWay { base } => return DurationSpec::Kway { work: base },
            DurationKind::RecursiveBinary { base } => {
                return DurationSpec::Recbinary { work: base }
            }
            DurationKind::Step => {}
        }
        let tuples: Vec<(u64, Time)> = d.tuples().iter().map(|t| (t.resource, t.time)).collect();
        if tuples.len() == 1 && tuples[0].1 == 0 {
            DurationSpec::Zero
        } else if tuples.len() == 1 {
            DurationSpec::Constant { t: tuples[0].1 }
        } else {
            DurationSpec::Step { tuples }
        }
    }
}

/// A node of a `form: "node"` instance.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Display label (optional; defaults to empty).
    pub label: String,
    /// The node's duration function.
    pub duration: DurationSpec,
}

/// An edge; `duration` is used only by `form: "arc"` instances.
#[derive(Debug, Clone)]
pub struct EdgeSpec {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Activity duration (arc form only; omit for precedence-only edges
    /// in node form).
    pub duration: Option<DurationSpec>,
    /// Display label (optional; omitted from JSON when empty).
    pub label: String,
}

/// Whether jobs live on nodes (`D`) or on arcs (`D'`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// Activity-on-node (the natural race-DAG form).
    Node,
    /// Activity-on-arc (`D'`; gadgets serialize this way).
    Arc,
}

/// The serialized instance.
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// Node vs arc form.
    pub form: Form,
    /// Node payloads (node form) — for arc form, only the length is
    /// used and durations may be `zero`.
    pub nodes: Vec<NodeSpec>,
    /// Edges (with durations in arc form).
    pub edges: Vec<EdgeSpec>,
}

/// Errors loading a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A duration failed validation.
    BadDuration(String),
    /// An edge references a missing node.
    BadEdge {
        /// Index of the offending edge.
        edge: usize,
    },
    /// Arc-form edge without a duration.
    MissingArcDuration {
        /// Index of the offending edge.
        edge: usize,
    },
    /// The graph is not a two-terminal DAG.
    BadInstance(String),
    /// The JSON text does not match the instance schema.
    BadJson(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadDuration(e) => write!(f, "invalid duration: {e}"),
            SpecError::BadEdge { edge } => write!(f, "edge {edge} references a missing node"),
            SpecError::MissingArcDuration { edge } => {
                write!(f, "arc-form edge {edge} has no duration")
            }
            SpecError::BadInstance(e) => write!(f, "invalid instance: {e}"),
            SpecError::BadJson(e) => write!(f, "invalid JSON: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<InstanceError> for SpecError {
    fn from(e: InstanceError) -> Self {
        SpecError::BadInstance(e.to_string())
    }
}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::BadJson(e.to_string())
    }
}

impl InstanceSpec {
    /// Builds the arc-form instance (node-form specs are transformed via
    /// `to_arc_form`). Returns the instance plus per-node labels for
    /// rendering.
    pub fn build(&self) -> Result<ArcInstance, SpecError> {
        match self.form {
            Form::Node => {
                let mut g: Dag<Job, ()> = Dag::new();
                for n in &self.nodes {
                    g.add_node(Job::labeled(n.label.clone(), n.duration.build()?));
                }
                for (i, e) in self.edges.iter().enumerate() {
                    if e.src >= self.nodes.len() || e.dst >= self.nodes.len() {
                        return Err(SpecError::BadEdge { edge: i });
                    }
                    g.add_edge(
                        rtt_dag::NodeId(e.src as u32),
                        rtt_dag::NodeId(e.dst as u32),
                        (),
                    )
                    .map_err(|_| SpecError::BadEdge { edge: i })?;
                }
                let inst = Instance::new(g)?;
                Ok(rtt_core::to_arc_form(&inst).0)
            }
            Form::Arc => {
                let mut g: Dag<(), Activity> = Dag::new();
                for _ in &self.nodes {
                    g.add_node(());
                }
                for (i, e) in self.edges.iter().enumerate() {
                    if e.src >= self.nodes.len() || e.dst >= self.nodes.len() {
                        return Err(SpecError::BadEdge { edge: i });
                    }
                    let dur = e
                        .duration
                        .as_ref()
                        .ok_or(SpecError::MissingArcDuration { edge: i })?
                        .build()?;
                    g.add_edge(
                        rtt_dag::NodeId(e.src as u32),
                        rtt_dag::NodeId(e.dst as u32),
                        Activity::labeled(e.label.clone(), dur),
                    )
                    .map_err(|_| SpecError::BadEdge { edge: i })?;
                }
                Ok(ArcInstance::new(g)?)
            }
        }
    }

    /// Serializes to pretty-printed JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Parses an instance from JSON text.
    pub fn from_json_str(text: &str) -> Result<InstanceSpec, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Serializes to a JSON tree.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("form".into(), self.form.to_json()),
            (
                "nodes".into(),
                Json::Arr(self.nodes.iter().map(NodeSpec::to_json).collect()),
            ),
            (
                "edges".into(),
                Json::Arr(self.edges.iter().map(EdgeSpec::to_json).collect()),
            ),
        ])
    }

    /// Reads an instance from a JSON tree.
    pub fn from_json(v: &Json) -> Result<InstanceSpec, SpecError> {
        let form = Form::from_json(v.require("form")?)?;
        let nodes = v
            .require("nodes")?
            .as_arr()?
            .iter()
            .map(NodeSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let edges = v
            .require("edges")?
            .as_arr()?
            .iter()
            .map(EdgeSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(InstanceSpec { form, nodes, edges })
    }

    /// Serializes an arc instance.
    pub fn from_arc(arc: &ArcInstance) -> InstanceSpec {
        let d = arc.dag();
        InstanceSpec {
            form: Form::Arc,
            nodes: d
                .node_ids()
                .map(|_| NodeSpec {
                    label: String::new(),
                    duration: DurationSpec::Zero,
                })
                .collect(),
            edges: d
                .edge_refs()
                .map(|e| EdgeSpec {
                    src: e.src.index(),
                    dst: e.dst.index(),
                    duration: Some(DurationSpec::from_duration(&e.weight.duration)),
                    label: e.weight.label.clone(),
                })
                .collect(),
        }
    }
}

/// Serializes a race-derived [`Instance`] (activity on nodes) through
/// its arc form — the canonical on-disk shape every race gen kind
/// shares.
fn spec_from_instance(inst: &Instance) -> InstanceSpec {
    InstanceSpec::from_arc(&rtt_core::to_arc_form(inst).0)
}

/// The Figure 3 **Parallel-MM race workload**: the naive fully-parallel
/// `n×n` matrix multiply races on every output cell; its race DAG
/// (`w_Z = n` updates per `Z[i][j]`, X cells as pure inputs) becomes an
/// instance with `family` duration functions. This is the paper's
/// motivating program served as a first-class workload — `rtt gen
/// --kind race-mm`.
pub fn race_mm_spec(n: u64, family: ReducerFamily) -> Result<InstanceSpec, SpecError> {
    if n == 0 {
        return Err(SpecError::BadInstance(
            "race-mm needs a matrix dimension ≥ 1".into(),
        ));
    }
    let (prog, _) = rtt_race::mm::parallel_mm_racy(n);
    let inst = rtt_core::instance_from_program(&prog, family)
        .map_err(|e| SpecError::BadInstance(e.to_string()))?;
    Ok(spec_from_instance(&inst))
}

/// A seeded random **fork-join race program** (`rtt gen --kind
/// race-forkjoin`): `stages` parallel stages of `width` cells, each
/// receiving up to `contention` logically parallel updates — see
/// [`rtt_race::gen::random_fork_join`]. The program's race DAG becomes
/// an instance with `family` duration functions.
pub fn race_forkjoin_spec(
    seed: u64,
    stages: usize,
    width: usize,
    contention: usize,
    family: ReducerFamily,
) -> Result<InstanceSpec, SpecError> {
    if stages == 0 || width == 0 || contention == 0 {
        return Err(SpecError::BadInstance(
            "race-forkjoin needs stages, width, and contention ≥ 1".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let prog = rtt_race::gen::random_fork_join(&mut rng, stages, width, contention);
    let inst = rtt_core::instance_from_program(&prog, family)
        .map_err(|e| SpecError::BadInstance(e.to_string()))?;
    Ok(spec_from_instance(&inst))
}

impl Form {
    fn to_json(self) -> Json {
        Json::Str(
            match self {
                Form::Node => "node",
                Form::Arc => "arc",
            }
            .into(),
        )
    }

    fn from_json(v: &Json) -> Result<Form, SpecError> {
        match v.as_str()? {
            "node" => Ok(Form::Node),
            "arc" => Ok(Form::Arc),
            other => Err(SpecError::BadJson(format!("unknown form `{other}`"))),
        }
    }
}

impl NodeSpec {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".into(), Json::Str(self.label.clone())),
            ("duration".into(), self.duration.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<NodeSpec, SpecError> {
        Ok(NodeSpec {
            label: match v.get("label") {
                Some(l) => l.as_str()?.to_string(),
                None => String::new(),
            },
            duration: DurationSpec::from_json(v.require("duration")?)?,
        })
    }
}

impl EdgeSpec {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("src".into(), Json::UInt(self.src as u64)),
            ("dst".into(), Json::UInt(self.dst as u64)),
        ];
        if let Some(d) = &self.duration {
            fields.push(("duration".into(), d.to_json()));
        }
        if !self.label.is_empty() {
            fields.push(("label".into(), Json::Str(self.label.clone())));
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<EdgeSpec, SpecError> {
        Ok(EdgeSpec {
            src: v.require("src")?.as_usize()?,
            dst: v.require("dst")?.as_usize()?,
            duration: match v.get("duration") {
                None | Some(Json::Null) => None,
                Some(d) => Some(DurationSpec::from_json(d)?),
            },
            label: match v.get("label") {
                Some(l) => l.as_str()?.to_string(),
                None => String::new(),
            },
        })
    }
}

impl DurationSpec {
    fn to_json(&self) -> Json {
        let kind = |k: &str| ("kind".to_string(), Json::Str(k.into()));
        match self {
            DurationSpec::Zero => Json::Obj(vec![kind("zero")]),
            DurationSpec::Constant { t } => {
                Json::Obj(vec![kind("constant"), ("t".into(), Json::UInt(*t))])
            }
            DurationSpec::Step { tuples } => Json::Obj(vec![
                kind("step"),
                (
                    "tuples".into(),
                    Json::Arr(
                        tuples
                            .iter()
                            .map(|&(r, t)| Json::Arr(vec![Json::UInt(r), Json::UInt(t)]))
                            .collect(),
                    ),
                ),
            ]),
            DurationSpec::Kway { work } => {
                Json::Obj(vec![kind("kway"), ("work".into(), Json::UInt(*work))])
            }
            DurationSpec::Recbinary { work } => {
                Json::Obj(vec![kind("recbinary"), ("work".into(), Json::UInt(*work))])
            }
        }
    }

    fn from_json(v: &Json) -> Result<DurationSpec, SpecError> {
        match v.require("kind")?.as_str()? {
            "zero" => Ok(DurationSpec::Zero),
            "constant" => Ok(DurationSpec::Constant {
                t: v.require("t")?.as_u64()?,
            }),
            "step" => Ok(DurationSpec::Step {
                tuples: v
                    .require("tuples")?
                    .as_arr()?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr()?;
                        if pair.len() != 2 {
                            return Err(JsonError::shape("step tuple must be [resource, time]"));
                        }
                        Ok((pair[0].as_u64()?, pair[1].as_u64()?))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "kway" => Ok(DurationSpec::Kway {
                work: v.require("work")?.as_u64()?,
            }),
            "recbinary" => Ok(DurationSpec::Recbinary {
                work: v.require("work")?.as_u64()?,
            }),
            other => Err(SpecError::BadJson(format!(
                "unknown duration kind `{other}`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_spec() -> InstanceSpec {
        InstanceSpec {
            form: Form::Node,
            nodes: vec![
                NodeSpec {
                    label: "s".into(),
                    duration: DurationSpec::Zero,
                },
                NodeSpec {
                    label: "x".into(),
                    duration: DurationSpec::Step {
                        tuples: vec![(0, 10), (4, 0)],
                    },
                },
                NodeSpec {
                    label: "t".into(),
                    duration: DurationSpec::Zero,
                },
            ],
            edges: vec![
                EdgeSpec {
                    src: 0,
                    dst: 1,
                    duration: None,
                    label: String::new(),
                },
                EdgeSpec {
                    src: 1,
                    dst: 2,
                    duration: None,
                    label: String::new(),
                },
            ],
        }
    }

    #[test]
    fn node_form_builds_and_solves() {
        let arc = chain_spec().build().unwrap();
        assert_eq!(arc.base_makespan(), 10);
        let r = rtt_core::exact::solve_exact(&arc, 4);
        assert_eq!(r.solution.makespan, 0);
    }

    #[test]
    fn json_round_trip() {
        let spec = chain_spec();
        let text = spec.to_json_string();
        let back = InstanceSpec::from_json_str(&text).unwrap();
        let a = spec.build().unwrap();
        let b = back.build().unwrap();
        assert_eq!(a.base_makespan(), b.base_makespan());
        assert_eq!(a.dag().edge_count(), b.dag().edge_count());
    }

    #[test]
    fn legacy_serde_format_still_parses() {
        // A document exactly as the previous serde-based build wrote it.
        let text = r#"{
  "form": "node",
  "nodes": [
    { "label": "s", "duration": { "kind": "zero" } },
    { "label": "x", "duration": { "kind": "step", "tuples": [[0, 10], [4, 0]] } },
    { "duration": { "kind": "recbinary", "work": 64 } }
  ],
  "edges": [ { "src": 0, "dst": 1 }, { "src": 1, "dst": 2, "label": "hot" } ]
}"#;
        let spec = InstanceSpec::from_json_str(text).unwrap();
        assert_eq!(spec.nodes.len(), 3);
        assert_eq!(spec.nodes[2].label, "");
        assert_eq!(spec.edges[1].label, "hot");
        spec.build().unwrap();
    }

    #[test]
    fn arc_round_trip_preserves_durations() {
        let arc = chain_spec().build().unwrap();
        let spec = InstanceSpec::from_arc(&arc);
        let rebuilt = spec.build().unwrap();
        assert_eq!(rebuilt.base_makespan(), arc.base_makespan());
        assert_eq!(rebuilt.ideal_makespan(), arc.ideal_makespan());
        assert_eq!(rebuilt.dag().edge_count(), arc.dag().edge_count());
    }

    #[test]
    fn bad_edge_rejected() {
        let mut spec = chain_spec();
        spec.edges[1].dst = 99;
        assert_eq!(spec.build().unwrap_err(), SpecError::BadEdge { edge: 1 });
    }

    #[test]
    fn arc_form_requires_durations() {
        let mut spec = chain_spec();
        spec.form = Form::Arc;
        assert_eq!(
            spec.build().unwrap_err(),
            SpecError::MissingArcDuration { edge: 0 }
        );
    }

    #[test]
    fn bad_step_function_rejected() {
        let spec = DurationSpec::Step {
            tuples: vec![(0, 5), (2, 9)], // increasing time: invalid
        };
        assert!(matches!(spec.build(), Err(SpecError::BadDuration(_))));
    }

    #[test]
    fn cyclic_instance_rejected() {
        let mut spec = chain_spec();
        spec.edges.push(EdgeSpec {
            src: 2,
            dst: 0,
            duration: None,
            label: String::new(),
        });
        assert!(matches!(spec.build(), Err(SpecError::BadInstance(_))));
    }

    #[test]
    fn race_mm_spec_round_trips_and_builds() {
        let n = 3u64;
        let spec = race_mm_spec(n, ReducerFamily::RecursiveBinary).unwrap();
        // 2n² cells + two normalization terminals, each split into an
        // in/out pair by the activity-on-arc transformation
        assert_eq!(spec.nodes.len() as u64, 2 * (2 * n * n + 2));
        let arc = spec.build().unwrap();
        assert_eq!(arc.base_makespan(), n, "one Z cell's n updates");
        let back = InstanceSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back.build().unwrap().base_makespan(), n);
        // n = 8 has improvable recbinary cells: a real tradeoff exists
        let big = race_mm_spec(8, ReducerFamily::RecursiveBinary)
            .unwrap()
            .build()
            .unwrap();
        assert!(!big.improvable_edges().is_empty());
        assert!(big.ideal_makespan() < big.base_makespan());
        assert!(race_mm_spec(0, ReducerFamily::KWay).is_err());
    }

    #[test]
    fn family_tags_survive_serialization() {
        // the family solvers dispatch on the duration *kind*, so a
        // kway/recbinary instance must still be kway/recbinary after a
        // gen → JSON → build round-trip
        use rtt_duration::DurationKind;
        let spec = race_mm_spec(8, ReducerFamily::RecursiveBinary).unwrap();
        let rebuilt = InstanceSpec::from_json_str(&spec.to_json_string())
            .unwrap()
            .build()
            .unwrap();
        assert!(matches!(
            rebuilt.dominant_kind(),
            Some(DurationKind::RecursiveBinary { .. })
        ));
        let spec = race_mm_spec(9, ReducerFamily::KWay).unwrap();
        assert!(matches!(
            spec.build().unwrap().dominant_kind(),
            Some(DurationKind::KWay { .. })
        ));
    }

    #[test]
    fn race_forkjoin_spec_is_seed_deterministic() {
        let a = race_forkjoin_spec(9, 2, 3, 8, ReducerFamily::RecursiveBinary).unwrap();
        let b = race_forkjoin_spec(9, 2, 3, 8, ReducerFamily::RecursiveBinary).unwrap();
        assert_eq!(a.to_json_string(), b.to_json_string());
        let c = race_forkjoin_spec(10, 2, 3, 8, ReducerFamily::RecursiveBinary).unwrap();
        assert_ne!(a.to_json_string(), c.to_json_string(), "seed must matter");
        a.build().unwrap();
        assert!(race_forkjoin_spec(1, 0, 3, 8, ReducerFamily::KWay).is_err());
    }

    #[test]
    fn duration_spec_families_build() {
        assert_eq!(
            DurationSpec::Kway { work: 100 }.build().unwrap().time(0),
            100
        );
        assert_eq!(
            DurationSpec::Recbinary { work: 64 }
                .build()
                .unwrap()
                .time(0),
            64
        );
        assert_eq!(DurationSpec::Constant { t: 7 }.build().unwrap().time(9), 7);
    }
}
