//! # rtt-dag — DAG substrate for the resource-time tradeoff problem
//!
//! A self-contained directed-multigraph library tailored to the needs of
//! the SPAA '19 paper *"Data Races and the Discrete Resource-time Tradeoff
//! Problem with Resource Reuse over Paths"* (Das et al.):
//!
//! * [`Dag`] — an append-only directed multigraph with node and edge
//!   payloads, parallel edges, and O(1) id-indexed access. All problem
//!   DAGs in the paper (race DAGs, activity-on-arc transforms, hardness
//!   gadgets) are built on this type.
//! * [`topo`] — topological ordering, cycle detection, layering.
//! * [`paths`] — longest (critical) paths with node or edge weights, i.e.
//!   the *makespan* of §2.
//! * [`normalize`] — single-source / single-sink normalization (the paper
//!   assumes w.l.o.g. one source and one sink).
//! * [`sp`] — two-terminal series-parallel recognition and the binary
//!   decomposition tree `T_G` used by the exact DP of §3.4.
//! * [`treewidth`] — tree decompositions and a width/validity checker,
//!   used to verify the explicit width-15 decomposition of Figure 16.
//! * [`gen`] — seeded random DAG generators (layered, series-parallel,
//!   chains) used by the Table 1 ratio experiments.
//! * [`dot`] — Graphviz export for every figure-style construction.
//!
//! The library is deliberately free of external graph dependencies; it is
//! part of the reproduced substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
pub mod gen;
pub mod graph;
pub mod normalize;
pub mod paths;
pub mod sp;
pub mod topo;
pub mod treewidth;

pub use graph::{Dag, DagError, EdgeId, EdgeRef, NodeId};
pub use normalize::{ensure_single_sink, ensure_single_source, normalize_source_sink};
pub use paths::{longest_path_edges, longest_path_nodes, CriticalPath};
pub use sp::{SpKind, SpTree};
pub use topo::{is_acyclic, topo_order, TopoError};
pub use treewidth::TreeDecomposition;
