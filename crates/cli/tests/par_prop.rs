//! Differential property tests for intra-solve parallelism: **a
//! thread count may change what a run costs, never what it emits.**
//!
//! Two layers, same shape as `reuse_prop.rs`:
//!
//! * the SP-DP evaluator (`rtt_core::sp_dp`): on random SP instances,
//!   the subtree-parallel evaluation must match the serial walk's root
//!   table, allocation, and work counters exactly at 1/2/4 threads and
//!   under forced chunking;
//! * the batch wire: on corpora mixing single solves and curve sweeps,
//!   the rendered NDJSON must be byte-identical with
//!   `SolveRequest::intra_threads` set to 1, 2, or 4 on every request
//!   (the `--solve-threads` flag in flight) — exercising parallel
//!   pricing, parallel SP-DP, and sharded certification replay behind
//!   the real executor, across batch worker threads.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtt_cli::batch::{build_requests, report_line};
use rtt_cli::spec::InstanceSpec;
use rtt_core::{ArcInstance, Duration};
use rtt_dag::gen;
use rtt_dag::sp::decompose;
use rtt_engine::{run_batch_cached, PrepCache, Registry};

fn generate(kind: usize, family: usize, seed: u64) -> ArcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tt = match kind % 3 {
        0 => gen::random_sp(&mut rng, 4).tt,
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

/// Full batch pipeline at a given intra-solve thread count (applied to
/// every request, exactly as `rtt batch --solve-threads N` does).
fn render(lines: &[String], workers: usize, intra: Option<usize>) -> String {
    let corpus = lines.join("\n");
    let registry = Registry::standard();
    let cache = PrepCache::with_capacity(64);
    let mut requests =
        build_requests(&corpus, &cache, None, &registry).expect("corpus parses");
    if let Some(n) = intra {
        for req in &mut requests {
            req.intra_threads = Some(n);
        }
    }
    let out = run_batch_cached(&registry, requests, workers, None);
    let mut s = String::new();
    for r in &out.reports {
        s.push_str(&report_line(r));
        s.push('\n');
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sp_dp_parallel_eval_matches_serial(
        leaves in 2usize..12,
        family in 0usize..2,
        seed in 0u64..1_000,
        budget in 1u64..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tt = gen::random_sp(&mut rng, leaves).tt;
        let fam: fn(u64) -> Duration = match family {
            0 => Duration::recursive_binary,
            _ => Duration::kway,
        };
        let inst = rtt_core::Instance::race_dag(&tt.dag, fam).expect("valid");
        let (arc, _) = rtt_core::to_arc_form(&inst);
        let d = arc.dag();
        let tree = decompose(d, arc.source(), arc.sink()).expect("race SP stays SP");
        let (table, alloc, stats) = rtt_core::sp_dp::solve_sp_tree_with_stats(
            &tree,
            |e| d.edge(e).duration.clone(),
            budget,
        );
        for threads in [1usize, 2, 4] {
            let (pt, pa, ps) = rtt_par::with_threads(threads, || {
                rtt_core::sp_dp::solve_sp_tree_with_stats(
                    &tree,
                    |e| d.edge(e).duration.clone(),
                    budget,
                )
            });
            prop_assert_eq!(&pt, &table, "table diverged at {} threads", threads);
            prop_assert_eq!(&pa, &alloc, "alloc diverged at {} threads", threads);
            prop_assert_eq!(ps.cells, stats.cells);
            prop_assert_eq!(ps.merge_steps, stats.merge_steps);
        }
        // the chunked path at 1 thread, as the overhead bench drives it
        let (ft, fa, _) = rtt_par::with_forced_chunking(|| {
            rtt_par::with_threads(1, || {
                rtt_core::sp_dp::solve_sp_tree_with_stats(
                    &tree,
                    |e| d.edge(e).duration.clone(),
                    budget,
                )
            })
        });
        prop_assert_eq!(&ft, &table, "forced chunking diverged");
        prop_assert_eq!(&fa, &alloc, "forced chunking diverged");
    }

    #[test]
    fn intra_solve_threads_never_touch_the_wire(
        kind in 0usize..3,
        family in 0usize..2,
        seed in 0u64..1_000,
        budget in 0u64..8,
    ) {
        // single solves (all-solver fan-out), a min-resource line, and
        // a curve sweep — every wire form the executor can emit
        let mut lines = Vec::new();
        for (i, s) in [seed, seed + 7919].into_iter().enumerate() {
            let spec = InstanceSpec::from_arc(&generate(kind, family, s));
            let doc = spec.to_json().compact();
            lines.push(format!(r#"{{"id":"p{i}-mm","instance":{doc},"budget":{budget}}}"#));
            lines.push(format!(r#"{{"id":"p{i}-mr","instance":{doc},"target":3}}"#));
            lines.push(format!(
                r#"{{"id":"p{i}-sweep","instance":{doc},"budgets":[0,{},{}]}}"#,
                budget + 1,
                budget + 3
            ));
        }
        let baseline = render(&lines, 1, None);
        for intra in [1usize, 2, 4] {
            // across batch workers too: knobs are per-request
            // thread-locals and must not leak between workers
            for workers in [1usize, 2] {
                prop_assert_eq!(
                    render(&lines, workers, Some(intra)),
                    baseline.clone(),
                    "wire diverged: {} intra-solve threads, {} workers",
                    intra, workers
                );
            }
        }
    }
}
