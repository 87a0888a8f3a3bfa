//! Exhaustive interleaving exploration for the Figure 1 race.
//!
//! Figure 1 executes `r ← x; r ← r + 1; x ← r` on two parallel threads.
//! The printed value depends on the schedule: sequential execution gives
//! 2, the racy overlap gives 1. This module enumerates *all*
//! interleavings of `t` threads each performing `k` such load-increment-
//! store sequences and returns the set of possible final values —
//! turning the paper's "depends on how the two threads are scheduled"
//! into an exhaustively verified statement.

use std::collections::BTreeSet;

/// One thread's program: `k` repetitions of (load; store).
#[derive(Debug, Clone, Copy)]
struct ThreadState {
    /// Completed increments.
    done: u32,
    /// Register value if mid-increment (loaded but not stored).
    reg: Option<u64>,
}

/// Enumerates all interleavings of `threads` threads each performing
/// `increments` racy `x++` operations (each = one load + one store).
/// Returns the set of possible final values of `x`.
///
/// State space is exponential; keep `threads · increments ≤ ~8`.
pub fn counter_outcomes(threads: usize, increments: u32) -> BTreeSet<u64> {
    let mut outcomes = BTreeSet::new();
    let mut memo = std::collections::HashSet::new();
    let state = vec![ThreadState { done: 0, reg: None }; threads];
    explore(0, &state, increments, &mut outcomes, &mut memo);
    outcomes
}

/// Visited `(cell value, per-thread state)` configurations.
type ExploreMemo = std::collections::HashSet<(u64, Vec<(u32, Option<u64>)>)>;

fn encode(x: u64, st: &[ThreadState]) -> (u64, Vec<(u32, Option<u64>)>) {
    (x, st.iter().map(|t| (t.done, t.reg)).collect())
}

fn explore(
    x: u64,
    st: &[ThreadState],
    k: u32,
    outcomes: &mut BTreeSet<u64>,
    memo: &mut ExploreMemo,
) {
    if !memo.insert(encode(x, st)) {
        return;
    }
    let mut progressed = false;
    for (i, t) in st.iter().enumerate() {
        match t.reg {
            Some(r) => {
                // store step
                let mut next = st.to_vec();
                next[i] = ThreadState {
                    done: t.done + 1,
                    reg: None,
                };
                progressed = true;
                explore(r + 1, &next, k, outcomes, memo);
            }
            None if t.done < k => {
                // load step
                let mut next = st.to_vec();
                next[i] = ThreadState {
                    done: t.done,
                    reg: Some(x),
                };
                progressed = true;
                explore(x, &next, k, outcomes, memo);
            }
            None => {}
        }
    }
    if !progressed {
        outcomes.insert(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_prints_1_or_2() {
        // Two threads, one increment each: exactly {1, 2} — the paper's
        // "will print an incorrect result (either 1 or 2)".
        let outcomes = counter_outcomes(2, 1);
        assert_eq!(outcomes.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn single_thread_deterministic() {
        let outcomes = counter_outcomes(1, 4);
        assert_eq!(outcomes.into_iter().collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn three_threads_lose_up_to_two() {
        let outcomes = counter_outcomes(3, 1);
        // minimum 1 (all read 0), maximum 3 (serialized)
        assert_eq!(outcomes.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn two_threads_two_increments_full_range() {
        let outcomes = counter_outcomes(2, 2);
        // Known result for 2 threads × k increments: k'..=2k possible
        // with enough overlap patterns; at minimum the extremes exist.
        assert!(outcomes.contains(&4), "serialized value present");
        assert!(*outcomes.iter().next().unwrap() < 4, "lost updates exist");
        // final value can never exceed total increments
        assert!(outcomes.iter().all(|&v| (1..=4).contains(&v)));
    }

    #[test]
    fn outcome_count_grows_with_contention() {
        let two = counter_outcomes(2, 1).len();
        let three = counter_outcomes(3, 1).len();
        assert!(three >= two);
    }
}
