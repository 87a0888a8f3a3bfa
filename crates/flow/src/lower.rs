//! Minimum s–t flow with per-edge lower bounds (LP 11–13, solved
//! combinatorially).

use crate::dinic::Dinic;
use crate::CAP_INF;

/// An edge with flow bounds `lower ≤ f ≤ upper`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedEdge {
    /// Tail.
    pub from: usize,
    /// Head.
    pub to: usize,
    /// Lower bound (the rounded resource requirement `f'_e` of §3.1).
    pub lower: u64,
    /// Upper bound (use [`CAP_INF`] for unbounded).
    pub upper: u64,
}

impl BoundedEdge {
    /// Edge with a lower bound only.
    pub fn at_least(from: usize, to: usize, lower: u64) -> Self {
        BoundedEdge {
            from,
            to,
            lower,
            upper: CAP_INF,
        }
    }
}

/// Result of [`min_flow`].
#[derive(Debug, Clone)]
pub struct MinFlowResult {
    /// The minimum s→t flow value (the resource budget actually needed).
    pub value: u64,
    /// A witnessing integral flow per input edge (`≥ lower`).
    pub edge_flow: Vec<u64>,
}

/// Computes a minimum s→t flow satisfying all lower/upper bounds, or
/// `None` if no feasible flow exists or the minimum's value does not
/// fit a `u64`.
///
/// Classical reduction: (1) find *any* feasible flow by rebalancing the
/// lower-bound excesses through a super source/sink plus a `t→s` return
/// arc; (2) minimize by cancelling as much s→t flow as possible, i.e. a
/// max-flow from `t` to `s` in the residual network. Both phases are
/// Dinic runs on the same structure, so the result is integral — the
/// "integral optimality" the paper's Lemma 3.3 relies on. Excesses and
/// the value are summed in `i128`, so uncapped edges may carry any
/// `u64` lower bound.
pub fn min_flow(
    n: usize,
    edges: &[BoundedEdge],
    s: usize,
    t: usize,
) -> Option<MinFlowResult> {
    assert!(s < n && t < n && s != t, "need distinct s, t in range");
    for (i, e) in edges.iter().enumerate() {
        assert!(
            e.lower <= e.upper,
            "edge {i}: lower {} > upper {}",
            e.lower,
            e.upper
        );
        assert!(e.from < n && e.to < n, "edge {i}: endpoint out of range");
    }
    let ss = n;
    let tt = n + 1;
    let mut d = Dinic::new(n + 2);
    let mut excess = vec![0i128; n];
    let handles: Vec<_> = edges
        .iter()
        .map(|e| {
            excess[e.to] += i128::from(e.lower);
            excess[e.from] -= i128::from(e.lower);
            d.add_edge(e.from, e.to, e.upper - e.lower)
        })
        .collect();
    let ts = d.add_edge(t, s, CAP_INF);
    let mut supply = Vec::new();
    for (v, &x) in excess.iter().enumerate() {
        // an excess past u64::MAX takes several arcs
        let mut rest = x.unsigned_abs();
        while rest > 0 {
            let cap = u64::try_from(rest).unwrap_or(u64::MAX);
            if x > 0 {
                supply.push(d.add_edge(ss, v, cap));
            } else {
                d.add_edge(v, tt, cap);
            }
            rest -= u128::from(cap);
        }
    }
    d.run(ss, tt);
    if supply.iter().any(|&a| d.residual(a) > 0) {
        return None; // lower bounds unsatisfiable
    }
    // Feasible flow found. Remove the return arc entirely (forward and
    // residual directions).
    d.set_residual(ts, 0);
    d.clear_flow(ts);
    // Cancel surplus circulation: max-flow t→s in the residual network.
    d.run(t, s);
    let edge_flow: Vec<u64> = handles
        .iter()
        .zip(edges)
        .map(|(&h, e)| e.lower + d.flow_on(h))
        .collect();
    // the value is the source's net outflow
    let value: i128 = edges
        .iter()
        .zip(&edge_flow)
        .map(|(e, &f)| i128::from(f) * (i128::from(e.from == s) - i128::from(e.to == s)))
        .sum();
    Some(MinFlowResult {
        value: u64::try_from(value).ok()?,
        edge_flow,
    })
}

/// A node a route tree or the residual search has not reached.
const UNREACHED: usize = usize::MAX;

/// An uncapped DAG with one source and one sink, on which
/// [`MinFlowWitness`]es are kept minimal as lower bounds rise.
///
/// It holds the topology (both adjacencies, flat), one fixed route from
/// the source to every node and from every node to the sink, and the
/// scratch of the residual search, so a raise allocates nothing.
#[derive(Debug, Clone)]
pub struct UncappedDag {
    s: usize,
    t: usize,
    from: Vec<usize>,
    to: Vec<usize>,
    /// Out-edges of node `v`: `out_edge[out_start[v]..out_start[v + 1]]`.
    out_start: Vec<usize>,
    out_edge: Vec<usize>,
    /// In-edges of node `v`, laid out the same way.
    in_start: Vec<usize>,
    in_edge: Vec<usize>,
    /// The edge entering each node on its fixed route from the source.
    route_in: Vec<usize>,
    /// The edge leaving each node on its fixed route to the sink.
    route_out: Vec<usize>,
    /// Per node, the residual arc the search reached it by: `2a`
    /// forward over edge `a`, `2a + 1` backward over it.
    reached: Vec<usize>,
    queue: Vec<usize>,
}

/// A minimum s→t flow of an [`UncappedDag`] under per-edge lower bounds
/// (and no upper bounds), kept minimal by [`UncappedDag::raise`].
///
/// Flows and the value are `u128`: a raise may push a flow past
/// `u64::MAX` before its cancellation brings it back, and the minimum
/// itself may exceed it.
#[derive(Debug)]
pub struct MinFlowWitness {
    lower: Vec<u64>,
    flow: Vec<u128>,
    value: u128,
}

impl Clone for MinFlowWitness {
    fn clone(&self) -> Self {
        MinFlowWitness {
            lower: self.lower.clone(),
            flow: self.flow.clone(),
            value: self.value,
        }
    }

    /// Copies in place, reusing the allocations (one copy per search
    /// node).
    fn clone_from(&mut self, source: &Self) {
        self.lower.clone_from(&source.lower);
        self.flow.clone_from(&source.flow);
        self.value = source.value;
    }
}

impl MinFlowWitness {
    /// The minimum flow's value.
    pub fn value(&self) -> u128 {
        self.value
    }

    /// The witnessing flow per edge (`≥` its lower bound).
    pub fn edge_flow(&self) -> &[u128] {
        &self.flow
    }

    /// The lower bound per edge.
    pub fn lower(&self) -> &[u64] {
        &self.lower
    }
}

impl UncappedDag {
    /// The network of `edges` (`(tail, head)` pairs) between source `s`
    /// and sink `t`. Panics unless it is acyclic and every node lies on
    /// an s→t path.
    pub fn new(n: usize, edges: &[(usize, usize)], s: usize, t: usize) -> Self {
        assert!(s < n && t < n && s != t, "need distinct s, t in range");
        assert!(
            edges.iter().all(|&(u, v)| u < n && v < n),
            "endpoint out of range"
        );
        let from: Vec<usize> = edges.iter().map(|&(u, _)| u).collect();
        let to: Vec<usize> = edges.iter().map(|&(_, v)| v).collect();
        let (out_start, out_edge) = csr(n, &from);
        let (in_start, in_edge) = csr(n, &to);
        // Kahn's count: every node leaves the queue iff the graph is acyclic
        let mut indeg: Vec<usize> = (0..n).map(|v| in_start[v + 1] - in_start[v]).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &a in &out_edge[out_start[v]..out_start[v + 1]] {
                indeg[to[a]] -= 1;
                if indeg[to[a]] == 0 {
                    queue.push(to[a]);
                }
            }
        }
        assert_eq!(queue.len(), n, "the network must be acyclic");
        let route_in = routes(s, &out_start, &out_edge, &to);
        let route_out = routes(t, &in_start, &in_edge, &from);
        assert!(
            (0..n)
                .all(|v| (v == s || route_in[v] != UNREACHED)
                    && (v == t || route_out[v] != UNREACHED)),
            "every node must lie on an s→t path"
        );
        UncappedDag {
            s,
            t,
            from,
            to,
            out_start,
            out_edge,
            in_start,
            in_edge,
            route_in,
            route_out,
            reached: vec![UNREACHED; n],
            queue,
        }
    }

    /// The witness of all-zero lower bounds: the zero flow.
    pub fn zero_flow(&self) -> MinFlowWitness {
        MinFlowWitness {
            lower: vec![0; self.from.len()],
            flow: vec![0; self.from.len()],
            value: 0,
        }
    }

    /// Raises edge `e`'s lower bound in `w` to `lower` and restores a
    /// minimum flow.
    ///
    /// If the witness already carries `lower` on `e` it stays feasible,
    /// and since the minimum is monotone in the lower bounds it stays
    /// minimal. Otherwise the shortfall δ travels the fixed source→tail
    /// route, `e` and the fixed head→sink route, and t→s augmenting
    /// paths in the residual network cancel what they can: forward arcs
    /// are uncapped, the arc backwards over an edge is capped at its
    /// flow minus its lower bound. The value becomes the old one plus δ
    /// minus what was cancelled.
    pub fn raise(&mut self, w: &mut MinFlowWitness, e: usize, lower: u64) {
        assert!(lower >= w.lower[e], "a raise may not lower a bound");
        w.lower[e] = lower;
        let Some(delta) = u128::from(lower).checked_sub(w.flow[e]).filter(|&d| d > 0) else {
            return;
        };
        w.flow[e] += delta;
        let mut v = self.from[e];
        while v != self.s {
            let a = self.route_in[v];
            w.flow[a] += delta;
            v = self.from[a];
        }
        let mut v = self.to[e];
        while v != self.t {
            let a = self.route_out[v];
            w.flow[a] += delta;
            v = self.to[a];
        }
        w.value += delta;
        while let Some(cancelled) = self.cancel_path(w) {
            w.value -= cancelled;
        }
    }

    /// Finds a shortest t→s path in the residual network of `w` and
    /// cancels its bottleneck along it; `None` when there is none, i.e.
    /// when `w` is minimal.
    fn cancel_path(&mut self, w: &mut MinFlowWitness) -> Option<u128> {
        let (s, t) = (self.s, self.t);
        self.reached.fill(UNREACHED);
        self.reached[t] = 0; // any mark: the walk back stops at t
        self.queue.clear();
        self.queue.push(t);
        let mut head = 0;
        'search: while let Some(&v) = self.queue.get(head) {
            head += 1;
            for &a in &self.in_edge[self.in_start[v]..self.in_start[v + 1]] {
                let u = self.from[a];
                if self.reached[u] == UNREACHED && w.flow[a] > u128::from(w.lower[a]) {
                    self.reached[u] = 2 * a + 1;
                    if u == s {
                        break 'search;
                    }
                    self.queue.push(u);
                }
            }
            // the source has no in-edges, so forward arcs never reach it
            for &a in &self.out_edge[self.out_start[v]..self.out_start[v + 1]] {
                let x = self.to[a];
                if self.reached[x] == UNREACHED {
                    self.reached[x] = 2 * a;
                    self.queue.push(x);
                }
            }
        }
        if self.reached[s] == UNREACHED {
            return None;
        }
        // The path has a backward arc (the sink has no out-edges), so
        // the bottleneck is finite.
        let mut amount = u128::MAX;
        let mut v = s;
        while v != t {
            let (a, backward) = (self.reached[v] / 2, self.reached[v] % 2 == 1);
            if backward {
                amount = amount.min(w.flow[a] - u128::from(w.lower[a]));
                v = self.to[a];
            } else {
                v = self.from[a];
            }
        }
        let mut v = s;
        while v != t {
            let (a, backward) = (self.reached[v] / 2, self.reached[v] % 2 == 1);
            if backward {
                w.flow[a] -= amount;
                v = self.to[a];
            } else {
                w.flow[a] += amount;
                v = self.from[a];
            }
        }
        Some(amount)
    }
}

/// Compressed adjacency: the edges grouped by `key[edge]`, in edge
/// order within a group.
fn csr(n: usize, key: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut start = vec![0; n + 1];
    for &k in key {
        start[k + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut fill = start.clone();
    let mut edge = vec![0; key.len()];
    for (a, &k) in key.iter().enumerate() {
        edge[fill[k]] = a;
        fill[k] += 1;
    }
    (start, edge)
}

/// A breadth-first route tree from `root` over the adjacency
/// `start`/`edge` whose far ends are `end`: per node, the edge it was
/// first reached by (`UNREACHED` at the root and unreached nodes).
fn routes(root: usize, start: &[usize], edge: &[usize], end: &[usize]) -> Vec<usize> {
    let mut via = vec![UNREACHED; start.len() - 1];
    let mut seen = vec![false; via.len()];
    seen[root] = true;
    let mut queue = vec![root];
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        for &a in &edge[start[v]..start[v + 1]] {
            if !seen[end[a]] {
                seen[end[a]] = true;
                via[end[a]] = a;
                queue.push(end[a]);
            }
        }
    }
    via
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts `r` is a valid flow for `edges` with the given value.
    fn check(n: usize, edges: &[BoundedEdge], s: usize, t: usize, r: &MinFlowResult) {
        let mut net = vec![0i128; n];
        for (e, &f) in edges.iter().zip(&r.edge_flow) {
            assert!(f >= e.lower, "flow {f} below lower bound {}", e.lower);
            assert!(f <= e.upper, "flow {f} above upper bound {}", e.upper);
            net[e.from] -= i128::from(f);
            net[e.to] += i128::from(f);
        }
        for v in 0..n {
            if v == s {
                assert_eq!(net[v], -i128::from(r.value), "source imbalance");
            } else if v == t {
                assert_eq!(net[v], i128::from(r.value), "sink imbalance");
            } else {
                assert_eq!(net[v], 0, "conservation violated at {v}");
            }
        }
    }

    #[test]
    fn single_edge_lower_bound() {
        let edges = [BoundedEdge::at_least(0, 1, 5)];
        let r = min_flow(2, &edges, 0, 1).unwrap();
        assert_eq!(r.value, 5);
        check(2, &edges, 0, 1, &r);
    }

    #[test]
    fn chain_takes_max_of_lower_bounds() {
        let edges = [
            BoundedEdge::at_least(0, 1, 2),
            BoundedEdge::at_least(1, 2, 7),
            BoundedEdge::at_least(2, 3, 4),
        ];
        let r = min_flow(4, &edges, 0, 3).unwrap();
        assert_eq!(r.value, 7, "a path must carry the max demand on it");
        check(4, &edges, 0, 3, &r);
    }

    #[test]
    fn parallel_demands_add() {
        // Two disjoint s->t paths with demands 3 and 4: min flow 7.
        let edges = [
            BoundedEdge::at_least(0, 1, 3),
            BoundedEdge::at_least(1, 3, 3),
            BoundedEdge::at_least(0, 2, 4),
            BoundedEdge::at_least(2, 3, 4),
        ];
        let r = min_flow(4, &edges, 0, 3).unwrap();
        assert_eq!(r.value, 7);
        check(4, &edges, 0, 3, &r);
    }

    #[test]
    fn reuse_over_path_shares_units() {
        // Diamond where both middle edges on *one* path demand 5 but the
        // other path demands nothing: the same 5 units serve both legs of
        // the demanding path (resource reuse over paths!).
        let edges = [
            BoundedEdge::at_least(0, 1, 5),
            BoundedEdge::at_least(1, 3, 5),
            BoundedEdge::at_least(0, 2, 0),
            BoundedEdge::at_least(2, 3, 0),
        ];
        let r = min_flow(4, &edges, 0, 3).unwrap();
        assert_eq!(r.value, 5);
        check(4, &edges, 0, 3, &r);
    }

    #[test]
    fn zero_demands_zero_flow() {
        let edges = [
            BoundedEdge::at_least(0, 1, 0),
            BoundedEdge::at_least(1, 2, 0),
        ];
        let r = min_flow(3, &edges, 0, 2).unwrap();
        assert_eq!(r.value, 0);
    }

    #[test]
    fn upper_bounds_can_make_infeasible() {
        // Demand 5 through a middle edge capped at 3.
        let edges = [
            BoundedEdge {
                from: 0,
                to: 1,
                lower: 0,
                upper: 3,
            },
            BoundedEdge::at_least(1, 2, 5),
        ];
        assert!(min_flow(3, &edges, 0, 2).is_none());
    }

    #[test]
    fn feasible_with_tight_upper_bounds() {
        let edges = [
            BoundedEdge {
                from: 0,
                to: 1,
                lower: 2,
                upper: 2,
            },
            BoundedEdge {
                from: 1,
                to: 2,
                lower: 2,
                upper: 2,
            },
        ];
        let r = min_flow(3, &edges, 0, 2).unwrap();
        assert_eq!(r.value, 2);
        assert_eq!(r.edge_flow, vec![2, 2]);
    }

    #[test]
    fn min_flow_not_fooled_by_slack_capacity() {
        // Wide edges everywhere, single demand of 1 somewhere in the
        // middle; minimum is 1, not the max-flow value.
        let mut edges = vec![
            BoundedEdge {
                from: 0,
                to: 1,
                lower: 0,
                upper: 100,
            },
            BoundedEdge {
                from: 1,
                to: 2,
                lower: 1,
                upper: 100,
            },
            BoundedEdge {
                from: 2,
                to: 3,
                lower: 0,
                upper: 100,
            },
        ];
        edges.push(BoundedEdge {
            from: 0,
            to: 3,
            lower: 0,
            upper: 100,
        });
        let r = min_flow(4, &edges, 0, 3).unwrap();
        assert_eq!(r.value, 1);
        check(4, &edges, 0, 3, &r);
    }

    #[test]
    fn merging_demands_from_two_branches() {
        // s->a (demand 3), s->b (demand 2), a->t and b->t free:
        // min flow = 5 (units split at the source).
        let edges = [
            BoundedEdge::at_least(0, 1, 3),
            BoundedEdge::at_least(0, 2, 2),
            BoundedEdge::at_least(1, 3, 0),
            BoundedEdge::at_least(2, 3, 0),
        ];
        let r = min_flow(4, &edges, 0, 3).unwrap();
        assert_eq!(r.value, 5);
        check(4, &edges, 0, 3, &r);
    }

    #[test]
    fn diamond_shared_then_split() {
        // Demands on the two middle edges (3 and 4) of a diamond plus a
        // demand 6 on a common first edge: 6 units enter, split 3/4
        // ... but 6 < 3+4 = 7 so the minimum is 7 driven by the split.
        let edges = [
            BoundedEdge::at_least(0, 1, 6),
            BoundedEdge::at_least(1, 2, 3),
            BoundedEdge::at_least(1, 3, 4),
            BoundedEdge::at_least(2, 4, 0),
            BoundedEdge::at_least(3, 4, 0),
        ];
        let r = min_flow(5, &edges, 0, 4).unwrap();
        assert_eq!(r.value, 7);
        check(5, &edges, 0, 4, &r);
    }

    #[test]
    fn uncapped_edges_take_any_u64_lower_bound() {
        for lower in [1 << 61, 1 << 62, 1 << 63, u64::MAX] {
            let edges = [
                BoundedEdge::at_least(0, 1, 0),
                BoundedEdge::at_least(1, 2, lower),
                BoundedEdge::at_least(2, 3, 0),
            ];
            let r = min_flow(4, &edges, 0, 3).unwrap();
            assert_eq!(r.value, lower);
            check(4, &edges, 0, 3, &r);
        }
    }

    #[test]
    fn series_demands_past_i64_share_one_route() {
        // the excesses sum to 2^64, the minimum is 2^63
        let edges = [
            BoundedEdge::at_least(0, 1, 0),
            BoundedEdge::at_least(1, 2, 1 << 63),
            BoundedEdge::at_least(2, 3, 0),
            BoundedEdge::at_least(3, 4, 1 << 63),
            BoundedEdge::at_least(4, 5, 0),
        ];
        let r = min_flow(6, &edges, 0, 5).unwrap();
        assert_eq!(r.value, 1 << 63);
        check(6, &edges, 0, 5, &r);
    }

    #[test]
    fn value_past_u64_is_none() {
        let edges = [
            BoundedEdge::at_least(0, 1, 1 << 63),
            BoundedEdge::at_least(0, 1, 1 << 63),
        ];
        assert!(min_flow(2, &edges, 0, 1).is_none());
    }

    #[test]
    fn excess_past_u64_spreads_over_supply_arcs() {
        // three demands of 2^63 into node 3 return over two uncapped
        // arcs: node 3's excess is 3 * 2^63, the s→t value stays 1
        let mut edges = vec![BoundedEdge::at_least(2, 3, 1 << 63); 3];
        edges.push(BoundedEdge::at_least(3, 2, 0));
        edges.push(BoundedEdge::at_least(3, 2, 0));
        edges.push(BoundedEdge::at_least(0, 1, 1));
        let r = min_flow(4, &edges, 0, 1).unwrap();
        assert_eq!(r.value, 1);
        check(4, &edges, 0, 1, &r);
    }

    #[test]
    fn raise_cancels_a_pushed_route() {
        // s=0 -> a=1, s -> b=2, a -> c=3, b -> c, c -> t=4
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)];
        let mut net = UncappedDag::new(5, &edges, 0, 4);
        let mut w = net.zero_flow();
        net.raise(&mut w, 4, 5);
        assert_eq!(w.value(), 5);
        // b -> c's shortfall travels s -> b and c -> t; the units the
        // first raise routed through a are cancelled
        net.raise(&mut w, 3, 5);
        assert_eq!(w.value(), 5);
        assert_eq!(w.edge_flow(), &[0, 5, 0, 5, 5]);
        // a raise the witness carries is free
        net.raise(&mut w, 1, 5);
        assert_eq!(w.value(), 5);
        // a parallel demand adds up
        net.raise(&mut w, 2, 3);
        assert_eq!(w.value(), 8);
        assert_eq!(w.lower(), &[0, 5, 3, 5, 5]);
    }

    #[test]
    fn raise_keeps_values_past_u64() {
        let edges = [(0, 1), (0, 1), (0, 1)];
        let mut net = UncappedDag::new(2, &edges, 0, 1);
        let mut w = net.zero_flow();
        for e in 0..3 {
            net.raise(&mut w, e, 1 << 63);
        }
        assert_eq!(w.value(), 3 << 63);
    }

    #[test]
    #[should_panic(expected = "s→t path")]
    fn uncapped_dag_needs_every_node_on_a_route() {
        UncappedDag::new(3, &[(0, 1)], 0, 1);
    }
}
