//! PR-9 differential property test: the static summary-based race
//! analyzer reports **exactly** the dynamic detector's deduplicated
//! witness set — `(loc, min strand, max strand, write_write)` — on
//! seeded random fork-join programs and on the Parallel-MM family.
//! This is the contract that lets the benchmark (and any future
//! admission pre-pass) substitute summaries for concrete accesses.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtt_analyze::race::{analyze_races, dynamic_witness_set, witness_set};
use rtt_race::gen::random_fork_join;
use rtt_race::{detect_races, Prog};

fn assert_witnesses_match(prog: &Prog) {
    let static_w = witness_set(&analyze_races(prog));
    let dynamic_w = dynamic_witness_set(&detect_races(prog));
    assert_eq!(
        static_w, dynamic_w,
        "static summaries must expand to the dynamic witness set"
    );
}

proptest! {
    #[test]
    fn static_matches_dynamic_on_fork_join(
        seed in 0u64..256,
        stages in 1usize..5,
        width in 1usize..6,
        contention in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = random_fork_join(&mut rng, stages, width, contention);
        assert_witnesses_match(&prog);
    }
}

#[test]
fn static_matches_dynamic_on_parallel_mm_racy() {
    for n in [1u64, 2, 3, 4, 6, 8] {
        let (prog, _) = rtt_race::mm::parallel_mm_racy(n);
        assert_witnesses_match(&prog);
        // and the witness count is the closed form the paper implies:
        // C(n,2) write-write pairs per output cell, n² cells
        let sums = analyze_races(&prog);
        let expect = n * (n - 1) / 2 * n * n;
        assert_eq!(rtt_analyze::race::witness_count(&sums), expect, "n={n}");
    }
}

#[test]
fn static_matches_dynamic_on_parallel_mm_safe() {
    for n in [1u64, 2, 4] {
        let (prog, _) = rtt_race::mm::parallel_mm(n);
        assert!(
            analyze_races(&prog).is_empty(),
            "safe MM n={n} must be race-free"
        );
        assert_witnesses_match(&prog);
    }
}

#[test]
fn dense_contention_fork_join_pinned_case() {
    // the benchmark's dense-contention shape, pinned at a fixed seed so
    // a regression in either analyzer surfaces as a visible diff here
    let mut rng = StdRng::seed_from_u64(42);
    let prog = random_fork_join(&mut rng, 3, 8, 6);
    let sums = analyze_races(&prog);
    assert!(!sums.is_empty(), "dense contention must race");
    assert_witnesses_match(&prog);
    // repeated runs are byte-identical (detect_races order satellite)
    assert_eq!(analyze_races(&prog), sums);
    assert_eq!(detect_races(&prog), detect_races(&prog));
}
