//! Dinic's max-flow algorithm.

use crate::CAP_INF;

/// Result of a max-flow computation.
#[derive(Debug, Clone)]
pub struct MaxFlowResult {
    /// The flow value.
    pub value: u64,
    /// Flow on each input edge, in input order.
    pub edge_flow: Vec<u64>,
}

#[derive(Debug, Clone)]
struct Arc {
    to: usize,
    cap: u64,
    /// Index of the reverse arc in `arcs`.
    rev: usize,
}

/// Reusable Dinic max-flow structure.
///
/// Arcs are added with [`Dinic::add_edge`], which returns a handle for
/// later flow queries; residual capacities persist between calls so flows
/// can be augmented incrementally (used by the min-flow transformation).
#[derive(Debug, Clone)]
pub struct Dinic {
    n: usize,
    arcs: Vec<Arc>,
    adj: Vec<Vec<usize>>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

/// Handle to an edge added to a [`Dinic`] network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeHandle(usize);

impl Dinic {
    /// New network with `n` nodes.
    pub fn new(n: usize) -> Self {
        Dinic {
            n,
            arcs: Vec::new(),
            adj: vec![Vec::new(); n],
            level: vec![-1; n],
            iter: vec![0; n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Adds a directed edge `u -> v` with capacity `cap`.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: u64) -> EdgeHandle {
        assert!(u < self.n && v < self.n, "endpoint out of range");
        let a = self.arcs.len();
        self.arcs.push(Arc {
            to: v,
            cap,
            rev: a + 1,
        });
        self.arcs.push(Arc {
            to: u,
            cap: 0,
            rev: a,
        });
        self.adj[u].push(a);
        self.adj[v].push(a + 1);
        EdgeHandle(a)
    }

    /// Current flow on an edge (original capacity − residual capacity,
    /// read from the reverse arc).
    pub fn flow_on(&self, e: EdgeHandle) -> u64 {
        self.arcs[self.arcs[e.0].rev].cap
    }

    /// Remaining capacity of an edge.
    pub fn residual(&self, e: EdgeHandle) -> u64 {
        self.arcs[e.0].cap
    }

    /// Sets the *remaining* capacity of an edge (used to delete auxiliary
    /// arcs in the min-flow transformation). Does not touch accumulated
    /// flow on the reverse arc.
    pub fn set_residual(&mut self, e: EdgeHandle, cap: u64) {
        self.arcs[e.0].cap = cap;
    }

    /// Zeroes the recorded flow of an edge (reverse-arc capacity).
    pub fn clear_flow(&mut self, e: EdgeHandle) {
        let r = self.arcs[e.0].rev;
        self.arcs[r].cap = 0;
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = std::collections::VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &ai in &self.adj[u] {
                let arc = &self.arcs[ai];
                if arc.cap > 0 && self.level[arc.to] < 0 {
                    self.level[arc.to] = self.level[u] + 1;
                    queue.push_back(arc.to);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, u: usize, t: usize, pushed: u64) -> u64 {
        if u == t {
            return pushed;
        }
        while self.iter[u] < self.adj[u].len() {
            let ai = self.adj[u][self.iter[u]];
            let (to, cap) = (self.arcs[ai].to, self.arcs[ai].cap);
            if cap > 0 && self.level[to] == self.level[u] + 1 {
                let d = self.dfs(to, t, pushed.min(cap));
                if d > 0 {
                    self.arcs[ai].cap -= d;
                    let rev = self.arcs[ai].rev;
                    self.arcs[rev].cap += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    /// Augments the current flow to a maximum s→t flow; returns the
    /// *additional* flow pushed by this call, saturating at `u64::MAX`
    /// (only a network whose cut capacities sum past it gets there).
    pub fn run(&mut self, s: usize, t: usize) -> u64 {
        assert!(s < self.n && t < self.n && s != t);
        let mut total = 0u64;
        while self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = self.dfs(s, t, CAP_INF);
                if pushed == 0 {
                    break;
                }
                total = total.saturating_add(pushed);
            }
        }
        total
    }

    /// Nodes reachable from `s` in the residual graph (the min-cut side).
    pub fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        seen[s] = true;
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for &ai in &self.adj[u] {
                let arc = &self.arcs[ai];
                if arc.cap > 0 && !seen[arc.to] {
                    seen[arc.to] = true;
                    stack.push(arc.to);
                }
            }
        }
        seen
    }
}

/// Convenience one-shot max-flow on an edge list.
pub fn max_flow(n: usize, edges: &[(usize, usize, u64)], s: usize, t: usize) -> MaxFlowResult {
    let mut d = Dinic::new(n);
    let handles: Vec<_> = edges
        .iter()
        .map(|&(u, v, c)| d.add_edge(u, v, c))
        .collect();
    let value = d.run(s, t);
    MaxFlowResult {
        value,
        edge_flow: handles.iter().map(|&h| d.flow_on(h)).collect(),
    }
}

/// Max-flow value together with a minimum cut: `cut[v]` is true iff `v`
/// is on the source side.
pub fn min_cut(
    n: usize,
    edges: &[(usize, usize, u64)],
    s: usize,
    t: usize,
) -> (u64, Vec<bool>) {
    let mut d = Dinic::new(n);
    for &(u, v, c) in edges {
        d.add_edge(u, v, c);
    }
    let value = d.run(s, t);
    (value, d.residual_reachable(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let r = max_flow(2, &[(0, 1, 7)], 0, 1);
        assert_eq!(r.value, 7);
        assert_eq!(r.edge_flow, vec![7]);
    }

    #[test]
    fn series_bottleneck() {
        let r = max_flow(3, &[(0, 1, 5), (1, 2, 3)], 0, 2);
        assert_eq!(r.value, 3);
        assert_eq!(r.edge_flow, vec![3, 3]);
    }

    #[test]
    fn parallel_paths_sum() {
        let r = max_flow(4, &[(0, 1, 2), (1, 3, 2), (0, 2, 3), (2, 3, 3)], 0, 3);
        assert_eq!(r.value, 5);
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS figure 26.6 flow network; max flow 23.
        let edges = [
            (0, 1, 16),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ];
        let r = max_flow(6, &edges, 0, 5);
        assert_eq!(r.value, 23);
    }

    #[test]
    fn disconnected_zero_flow() {
        let r = max_flow(4, &[(0, 1, 5), (2, 3, 5)], 0, 3);
        assert_eq!(r.value, 0);
    }

    #[test]
    fn min_cut_capacity_equals_flow() {
        let edges = [
            (0, 1, 3),
            (0, 2, 2),
            (1, 2, 1),
            (1, 3, 2),
            (2, 3, 3),
        ];
        let (value, cut) = min_cut(4, &edges, 0, 3);
        assert_eq!(value, 5);
        assert!(cut[0] && !cut[3]);
        let cut_cap: u64 = edges
            .iter()
            .filter(|&&(u, v, _)| cut[u] && !cut[v])
            .map(|&(_, _, c)| c)
            .sum();
        assert_eq!(cut_cap, value);
    }

    #[test]
    fn conservation_holds() {
        let edges = [
            (0, 1, 4),
            (0, 2, 4),
            (1, 2, 2),
            (1, 3, 3),
            (2, 3, 5),
        ];
        let r = max_flow(4, &edges, 0, 3);
        let mut net = [0i64; 4];
        for (i, &(u, v, _)) in edges.iter().enumerate() {
            net[u] -= r.edge_flow[i] as i64;
            net[v] += r.edge_flow[i] as i64;
        }
        assert_eq!(net[1], 0);
        assert_eq!(net[2], 0);
        assert_eq!(net[0], -(r.value as i64));
        assert_eq!(net[3], r.value as i64);
    }

    #[test]
    fn incremental_augmentation() {
        let mut d = Dinic::new(3);
        let e01 = d.add_edge(0, 1, 10);
        let e12 = d.add_edge(1, 2, 4);
        assert_eq!(d.run(0, 2), 4);
        // raise the bottleneck and re-run: only the delta is returned
        d.set_residual(e12, 3); // 4 already used; 3 more allowed
        assert_eq!(d.run(0, 2), 3);
        assert_eq!(d.flow_on(e01), 7);
        assert_eq!(d.flow_on(e12), 7);
    }

    #[test]
    fn infinite_capacity_edges() {
        let r = max_flow(3, &[(0, 1, CAP_INF), (1, 2, 9)], 0, 2);
        assert_eq!(r.value, 9);
    }
}
