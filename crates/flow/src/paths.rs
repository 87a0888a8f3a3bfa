//! Decomposition of an integral DAG flow into source→sink paths.
//!
//! Question 1.3 routes every unit of resource along a source→sink path;
//! a solver however produces per-edge flow values. This module recovers
//! the actual routes: any non-negative integral flow with conservation on
//! a DAG decomposes into at most `|E|` weighted paths.

use std::fmt;

/// One route: a sequence of edge indices carrying `amount` units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPath {
    /// Edge indices (into the caller's edge list), s→t order.
    pub edges: Vec<usize>,
    /// Units routed along this path.
    pub amount: u64,
}

/// Errors from [`decompose_paths`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecomposeError {
    /// Conservation violated at a node (non-zero net flow).
    NotConserved {
        /// The offending node.
        node: usize,
        /// Its net inflow − outflow.
        imbalance: i128,
    },
    /// A positive-flow walk failed to reach the sink (graph not a DAG or
    /// flow inconsistent).
    Stuck {
        /// Node where the walk got stuck.
        node: usize,
    },
}

impl fmt::Display for DecomposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecomposeError::NotConserved { node, imbalance } => {
                write!(f, "flow not conserved at node {node} (imbalance {imbalance})")
            }
            DecomposeError::Stuck { node } => {
                write!(f, "path walk stuck at node {node}")
            }
        }
    }
}

impl std::error::Error for DecomposeError {}

/// Decomposes an integral flow into weighted source→sink paths.
///
/// `edges[i] = (u, v)` with `flow[i]` units. Requires conservation at all
/// nodes except `s`/`t` and an acyclic support (guaranteed when the edges
/// come from a DAG). The returned paths sum to the flow exactly:
/// `Σ_path amount · [i ∈ path] = flow[i]` for every edge `i`.
pub fn decompose_paths(
    n: usize,
    edges: &[(usize, usize)],
    flow: &[u64],
    s: usize,
    t: usize,
) -> Result<Vec<FlowPath>, DecomposeError> {
    assert_eq!(edges.len(), flow.len());
    assert!(s < n && t < n);
    // check conservation (in i128: a node may pass more than i64 holds)
    let mut net = vec![0i128; n];
    for (&(u, v), &f) in edges.iter().zip(flow) {
        net[u] -= i128::from(f);
        net[v] += i128::from(f);
    }
    for v in 0..n {
        if v != s && v != t && net[v] != 0 {
            return Err(DecomposeError::NotConserved {
                node: v,
                imbalance: net[v],
            });
        }
    }

    let mut rem: Vec<u64> = flow.to_vec();
    // out adjacency of edge indices, with a cursor skipping drained edges
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &(u, _)) in edges.iter().enumerate() {
        out[u].push(i);
    }
    let mut cursor = vec![0usize; n];
    let mut paths = Vec::new();
    let step_cap = edges.len() + 1;
    loop {
        // find a live edge out of s
        while cursor[s] < out[s].len() && rem[out[s][cursor[s]]] == 0 {
            cursor[s] += 1;
        }
        if cursor[s] >= out[s].len() {
            break;
        }
        let mut path = Vec::new();
        let mut amount = u64::MAX;
        let mut v = s;
        let mut steps = 0usize;
        while v != t {
            steps += 1;
            if steps > step_cap {
                return Err(DecomposeError::Stuck { node: v });
            }
            while cursor[v] < out[v].len() && rem[out[v][cursor[v]]] == 0 {
                cursor[v] += 1;
            }
            let Some(&e) = out[v].get(cursor[v]) else {
                return Err(DecomposeError::Stuck { node: v });
            };
            amount = amount.min(rem[e]);
            path.push(e);
            v = edges[e].1;
        }
        for &e in &path {
            rem[e] -= amount;
        }
        // Reset cursors touched? Not needed: a cursor only skips fully
        // drained edges, and draining is monotone *per edge*, but an edge
        // may drain partially; cursors only advance past rem == 0 edges,
        // so partially drained edges are revisited. Correct as-is.
        paths.push(FlowPath {
            edges: path,
            amount,
        });
    }
    // all edges must be drained (otherwise there was a cycle of flow,
    // impossible on a DAG, or flow into s)
    if let Some(i) = rem.iter().position(|&r| r > 0) {
        return Err(DecomposeError::Stuck { node: edges[i].0 });
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path() {
        let edges = [(0, 1), (1, 2)];
        let paths = decompose_paths(3, &edges, &[4, 4], 0, 2).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].amount, 4);
        assert_eq!(paths[0].edges, vec![0, 1]);
    }

    #[test]
    fn split_and_merge() {
        // diamond: 0->1->3 carries 2, 0->2->3 carries 3
        let edges = [(0, 1), (1, 3), (0, 2), (2, 3)];
        let paths = decompose_paths(4, &edges, &[2, 2, 3, 3], 0, 3).unwrap();
        let total: u64 = paths.iter().map(|p| p.amount).sum();
        assert_eq!(total, 5);
        // each edge covered exactly
        let mut covered = vec![0u64; edges.len()];
        for p in &paths {
            for &e in &p.edges {
                covered[e] += p.amount;
            }
        }
        assert_eq!(covered, vec![2, 2, 3, 3]);
    }

    #[test]
    fn partial_drain_revisits_edge() {
        // 0->1 carries 5; it splits at 1 into 2 and 3.
        let edges = [(0, 1), (1, 2), (2, 4), (1, 3), (3, 4)];
        let flow = [5, 2, 2, 3, 3];
        let paths = decompose_paths(5, &edges, &flow, 0, 4).unwrap();
        let mut covered = vec![0u64; edges.len()];
        for p in &paths {
            for &e in &p.edges {
                covered[e] += p.amount;
            }
        }
        assert_eq!(covered.to_vec(), flow.to_vec());
    }

    #[test]
    fn zero_flow_no_paths() {
        let edges = [(0, 1), (1, 2)];
        let paths = decompose_paths(3, &edges, &[0, 0], 0, 2).unwrap();
        assert!(paths.is_empty());
    }

    #[test]
    fn conservation_violation_detected() {
        let edges = [(0, 1), (1, 2)];
        let err = decompose_paths(3, &edges, &[4, 3], 0, 2).unwrap_err();
        assert_eq!(
            err,
            DecomposeError::NotConserved {
                node: 1,
                imbalance: 1
            }
        );
    }

    #[test]
    fn path_count_at_most_edges() {
        // a ladder with many distinct routes; decomposition stays small
        let edges = [(0, 1), (0, 1), (1, 2), (1, 2)];
        let paths = decompose_paths(3, &edges, &[1, 1, 1, 1], 0, 2).unwrap();
        assert!(paths.len() <= edges.len());
        let total: u64 = paths.iter().map(|p| p.amount).sum();
        assert_eq!(total, 2);
    }
}
