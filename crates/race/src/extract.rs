//! Extraction of the race DAG `D(P)` from a program (§1, Figure 4).
//!
//! Nodes are the memory locations touched by updates; each update
//! contributes one arc from the location whose value it consumes to its
//! target, so the in-degree of a node is exactly the number of updates
//! applied to it (`w_x = d_in(x)`). Locations never updated (pure
//! inputs) become sources. The paper assumes no cyclic read-write
//! dependencies; extraction fails if the program violates that.

use crate::program::{flatten, Loc, Op, Prog};
use rtt_dag::{is_acyclic, Dag, NodeId};
use std::collections::HashMap;

/// The extracted race DAG.
#[derive(Debug, Clone)]
pub struct RaceDag {
    /// Nodes carry their location id.
    pub dag: Dag<Loc, ()>,
    /// Location → node mapping.
    pub node_of: HashMap<Loc, NodeId>,
}

/// Extraction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// The read-write dependencies are cyclic (out of the paper's model).
    CyclicDependencies,
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::CyclicDependencies => {
                write!(f, "program has cyclic read-write dependencies")
            }
        }
    }
}

impl std::error::Error for ExtractError {}

/// Builds `D(P)` from the updates of `prog`. `Read`/`Write` ops do not
/// create arcs (they are the "O(1) other operations" of §1); every
/// `Update` contributes one arc `from → target` (updates by constants,
/// `from = None`, only raise the target's implicit work through... no:
/// they are *not representable as arcs*, so they are rejected — give
/// constants a dedicated input location instead).
pub fn extract_race_dag(prog: &Prog) -> Result<RaceDag, ExtractError> {
    let f = flatten(prog);
    let mut dag: Dag<Loc, ()> = Dag::new();
    let mut node_of: HashMap<Loc, NodeId> = HashMap::new();
    let node = |dag: &mut Dag<Loc, ()>, node_of: &mut HashMap<Loc, NodeId>, l: Loc| {
        *node_of.entry(l).or_insert_with(|| dag.add_node(l))
    };
    for ops in &f.strands {
        for op in ops {
            if let Op::Update { target, from, .. } = op {
                let from = from.expect(
                    "updates by constants need a dedicated input location \
                     to be representable in the race DAG",
                );
                let u = node(&mut dag, &mut node_of, from);
                let v = node(&mut dag, &mut node_of, *target);
                dag.add_edge(u, v, ())
                    .map_err(|_| ExtractError::CyclicDependencies)?;
            }
        }
    }
    if !is_acyclic(&dag) {
        return Err(ExtractError::CyclicDependencies);
    }
    Ok(RaceDag { dag, node_of })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_of_updates() {
        // 8 parallel updates of location 100 from inputs 0..8 (Figure 2
        // left: "a memory location with eight updates").
        let p = Prog::Par((0..8).map(|i| Prog::update(100, Some(i), vec![])).collect());
        let rd = extract_race_dag(&p).unwrap();
        let a = rd.node_of[&100];
        assert_eq!(rd.dag.in_degree(a), 8, "w_a = d_in(a) = 8");
        assert_eq!(rd.dag.node_count(), 9);
    }

    #[test]
    fn chain_of_updates() {
        // x0 -> x1 -> x2: sequential dataflow
        let p = Prog::Seq(vec![
            Prog::update(1, Some(0), vec![]),
            Prog::update(2, Some(1), vec![]),
        ]);
        let rd = extract_race_dag(&p).unwrap();
        assert_eq!(rd.dag.node_count(), 3);
        assert_eq!(rd.dag.in_degree(rd.node_of[&2]), 1);
        assert_eq!(rd.dag.out_degree(rd.node_of[&0]), 1);
    }

    #[test]
    fn parallel_edges_for_repeated_updates() {
        // the same producer updates the same target 3 times
        let p = Prog::Seq((0..3).map(|_| Prog::update(9, Some(1), vec![])).collect());
        let rd = extract_race_dag(&p).unwrap();
        assert_eq!(rd.dag.in_degree(rd.node_of[&9]), 3);
        assert_eq!(rd.dag.edge_count(), 3);
    }

    #[test]
    fn cyclic_dataflow_rejected() {
        let p = Prog::Seq(vec![
            Prog::update(1, Some(0), vec![]),
            Prog::update(0, Some(1), vec![]),
        ]);
        assert!(matches!(
            extract_race_dag(&p),
            Err(ExtractError::CyclicDependencies)
        ));
    }

    #[test]
    fn reads_do_not_create_arcs() {
        let p = Prog::Strand(vec![
            Op::Read(5),
            Op::Update {
                target: 1,
                from: Some(0),
                reads: vec![5],
            },
        ]);
        let rd = extract_race_dag(&p).unwrap();
        // location 5 is only read: not even a node (never in an update
        // arc) — the race DAG tracks update dataflow only.
        assert!(!rd.node_of.contains_key(&5));
        assert_eq!(rd.dag.edge_count(), 1);
    }
}
