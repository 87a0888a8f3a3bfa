//! Differential property test for the PR 7 cache contract: **a cache
//! may change what a run costs, never what it emits.**
//!
//! On corpora of duplicated, *relabeled*, and duration-perturbed
//! instances, plus a min-resource line and a budget sweep per base
//! instance, the rendered NDJSON report stream must be byte-identical
//! with the reuse cache on or off, at every batch worker count — and
//! reordering the corpus must permute the report lines without
//! changing a single byte of any line.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtt_cli::batch::{build_requests, report_line};
use rtt_cli::spec::{DurationSpec, EdgeSpec, InstanceSpec};
use rtt_core::ArcInstance;
use rtt_dag::gen;
use rtt_duration::Duration;
use rtt_engine::{run_batch_cached, PrepCache, Registry, ReuseCache};

/// Small random instance (sizes keep the exact solver in the `all`
/// fan-out tractable).
fn generate(kind: usize, family: usize, seed: u64) -> ArcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tt = match kind % 3 {
        0 => gen::random_sp(&mut rng, 3).tt,
        1 => gen::layered(&mut rng, 3, 2, 0.4),
        _ => gen::chain(2 + (seed as usize % 3)),
    };
    let fam: fn(u64) -> Duration = match family % 2 {
        0 => Duration::recursive_binary,
        _ => Duration::kway,
    };
    let inst = rtt_core::Instance::race_dag(&tt.dag, fam).expect("generated DAG is valid");
    rtt_core::to_arc_form(&inst).0
}

fn fisher_yates<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// A node/arc relabeling of `spec`: same instance up to isomorphism,
/// different document. The canonical fingerprint must see through it.
fn relabel(spec: &InstanceSpec, rng: &mut StdRng) -> InstanceSpec {
    let n = spec.nodes.len();
    let mut perm: Vec<usize> = (0..n).collect();
    fisher_yates(&mut perm, rng);
    let mut edges: Vec<EdgeSpec> = spec
        .edges
        .iter()
        .map(|e| EdgeSpec {
            src: perm[e.src],
            dst: perm[e.dst],
            duration: e.duration.clone(),
            label: e.label.clone(),
        })
        .collect();
    fisher_yates(&mut edges, rng);
    InstanceSpec {
        form: spec.form,
        nodes: spec.nodes.clone(),
        edges,
    }
}

/// A duration-perturbed sibling: same topology, every finite duration
/// nudged — a *different* canonical instance that must never alias the
/// original in any cache tier the batch path can reach.
fn perturb(spec: &InstanceSpec) -> InstanceSpec {
    let edges = spec
        .edges
        .iter()
        .map(|e| EdgeSpec {
            src: e.src,
            dst: e.dst,
            label: e.label.clone(),
            duration: e.duration.as_ref().map(|d| match d {
                DurationSpec::Zero => DurationSpec::Zero,
                DurationSpec::Constant { t } => DurationSpec::Constant { t: t + 1 },
                DurationSpec::Step { tuples } => DurationSpec::Step {
                    tuples: tuples.iter().map(|&(r, t)| (r, t + 1)).collect(),
                },
                DurationSpec::Kway { work } => DurationSpec::Kway { work: work + 1 },
                DurationSpec::Recbinary { work } => DurationSpec::Recbinary { work: work + 1 },
            }),
        })
        .collect();
    InstanceSpec {
        form: spec.form,
        nodes: spec.nodes.clone(),
        edges,
    }
}

/// Runs the full batch pipeline (parse → prep cache → executor →
/// report rendering) and returns the NDJSON output.
fn render(lines: &[String], threads: usize, cached: bool) -> String {
    let corpus = lines.join("\n");
    let registry = Registry::standard();
    let cache = PrepCache::with_capacity(64);
    let reuse = cached.then(|| ReuseCache::new(64));
    let requests = build_requests(&corpus, &cache, None, &registry).expect("corpus parses");
    let out = run_batch_cached(&registry, requests, threads, reuse.as_ref());
    let mut s = String::new();
    for r in &out.reports {
        s.push_str(&report_line(r));
        s.push('\n');
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cache_changes_cost_never_bytes(
        kind in 0usize..3,
        family in 0usize..2,
        seed in 0u64..1_000,
        budget in 0u64..8,
        order_seed in 0u64..1_000,
    ) {
        // two base instances, each contributing an original, an exact
        // duplicate, two relabelings (one at a perturbed budget), a
        // duration-perturbed sibling, a min-resource line and a sweep —
        // every wire form the executor can emit
        let mut lines = Vec::new();
        for (i, s) in [seed, seed + 7919].into_iter().enumerate() {
            let spec = InstanceSpec::from_arc(&generate(kind, family, s));
            let mut rng = StdRng::seed_from_u64(s ^ 0xD1F);
            let rel = relabel(&spec, &mut rng).to_json().compact();
            let per = perturb(&spec).to_json().compact();
            let doc = spec.to_json().compact();
            lines.push(format!(r#"{{"id":"b{i}-orig","instance":{doc},"budget":{budget}}}"#));
            lines.push(format!(r#"{{"id":"b{i}-dup","instance":{doc},"budget":{budget}}}"#));
            lines.push(format!(r#"{{"id":"b{i}-rel","instance":{rel},"budget":{budget}}}"#));
            lines.push(format!(
                r#"{{"id":"b{i}-relb","instance":{rel},"budget":{}}}"#,
                budget + 1
            ));
            lines.push(format!(r#"{{"id":"b{i}-per","instance":{per},"budget":{budget}}}"#));
            lines.push(format!(r#"{{"id":"b{i}-mr","instance":{doc},"target":3}}"#));
            lines.push(format!(
                r#"{{"id":"b{i}-sweep","instance":{doc},"budgets":[0,{},{}]}}"#,
                budget + 1,
                budget + 3
            ));
        }

        let baseline = render(&lines, 1, false);
        for threads in [2usize, 8] {
            prop_assert_eq!(
                render(&lines, threads, false),
                baseline.clone(),
                "cache-off diverged at {} threads", threads
            );
        }
        for threads in [1usize, 2, 4, 8] {
            prop_assert_eq!(
                render(&lines, threads, true),
                baseline.clone(),
                "cache-on diverged at {} threads", threads
            );
        }

        // reordering the corpus permutes the lines, byte-for-byte — and
        // cache-on/off still agree on the reordered corpus exactly
        let mut shuffled = lines.clone();
        let mut rng = StdRng::seed_from_u64(order_seed);
        fisher_yates(&mut shuffled, &mut rng);
        let off = render(&shuffled, 1, false);
        let on = render(&shuffled, 4, true);
        prop_assert_eq!(on.clone(), off, "cache-on diverged on the reordered corpus");
        let mut a: Vec<&str> = baseline.lines().collect();
        let mut b: Vec<&str> = on.lines().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "reordering changed report bytes, not just their order");
    }
}
