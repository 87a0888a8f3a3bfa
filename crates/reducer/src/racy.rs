//! The Figure 1 data race, reproduced observably (and safely).
//!
//! Figure 1 of the paper shows two threads executing `r ← x; r ← r + 1;
//! x ← r` concurrently: unless the threads serialize, one increment is
//! lost. Rust will not compile an actual unsynchronized data race, so we
//! stage the *same interleaving* with a relaxed atomic: each increment
//! is a separate load followed by a separate store — not a
//! read-modify-write — so two threads can still read the same value and
//! both write `v + 1`. The lost-update behaviour of the C code is
//! reproduced exactly, with defined semantics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Runs `threads` threads, each performing `per_thread` *racy*
/// increments (separate load and store), and returns the final counter
/// value. With more than one thread the result is typically *less* than
/// `threads · per_thread`: updates get lost, exactly as in Figure 1.
///
/// The threads start their increments together behind a [`Barrier`]:
/// spawned one after another, each thread's loop could finish before
/// the next one starts on a busy machine, and then nothing races.
pub fn racy_counter(threads: usize, per_thread: u64) -> u64 {
    let x = AtomicU64::new(0);
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                start.wait();
                for _ in 0..per_thread {
                    let r = x.load(Ordering::Relaxed); // r1 = x
                    std::hint::black_box(&r);
                    x.store(r + 1, Ordering::Relaxed); // x = r1 + 1
                }
            });
        }
    });
    x.load(Ordering::Relaxed)
}

/// The race-free control: the same increments via atomic
/// read-modify-write. Always returns `threads · per_thread`.
pub fn atomic_counter(threads: usize, per_thread: u64) -> u64 {
    let x = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..per_thread {
                    x.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    x.load(Ordering::Relaxed)
}

/// Statistics from repeated racy runs (for the Figure 1 experiment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceStats {
    /// Expected count (`threads · per_thread`).
    pub expected: u64,
    /// Minimum observed final value.
    pub min_observed: u64,
    /// Number of runs (out of `runs`) that lost at least one update.
    pub runs_with_lost_updates: usize,
    /// Total runs.
    pub runs: usize,
}

/// Repeats [`racy_counter`] and tallies lost updates.
pub fn race_experiment(threads: usize, per_thread: u64, runs: usize) -> RaceStats {
    let expected = threads as u64 * per_thread;
    let mut min_observed = u64::MAX;
    let mut lost = 0;
    for _ in 0..runs {
        let v = racy_counter(threads, per_thread);
        min_observed = min_observed.min(v);
        if v < expected {
            lost += 1;
        }
    }
    RaceStats {
        expected,
        min_observed,
        runs_with_lost_updates: lost,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_never_loses() {
        assert_eq!(racy_counter(1, 10_000), 10_000);
    }

    #[test]
    fn atomic_control_is_exact() {
        assert_eq!(atomic_counter(4, 50_000), 200_000);
    }

    #[test]
    fn racy_result_never_exceeds_expected() {
        for _ in 0..5 {
            assert!(racy_counter(4, 10_000) <= 40_000);
        }
    }

    #[test]
    fn races_actually_lose_updates() {
        // A run loses updates only when the scheduler overlaps the
        // threads' loops, and runs that lose none come in streaks (the
        // longest seen on a 2-vCPU machine was 51), so run until one
        // loses updates, up to a cap far past that. (If every run were
        // perfect, there was effectively no concurrency to race.)
        const MAX_RUNS: usize = 200;
        let mut runs = 0;
        let mut lost = false;
        while !lost && runs < MAX_RUNS {
            runs += 1;
            lost = racy_counter(4, 100_000) < 400_000;
        }
        assert!(
            lost || num_cpus_is_one(),
            "no lost updates across {runs} runs of 4x100k racy increments"
        );
    }

    fn num_cpus_is_one() -> bool {
        std::thread::available_parallelism()
            .map(|n| n.get() == 1)
            .unwrap_or(true)
    }
}
