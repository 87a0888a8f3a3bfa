//! # rtt-par — deterministic intra-solve parallelism
//!
//! One shared utility for every parallel loop inside a solve:
//! [`map_chunks`] partitions an index range into **fixed chunks**
//! (boundaries depend only on the length and the chunk size, never on
//! the thread count), evaluates each chunk with a pure function, and
//! returns the per-chunk results **in chunk order** so the caller's
//! reduction is a deterministic left fold. Under the repo's standing
//! contract — *a thread count may change what a run costs, never what
//! it emits* — this is the only shape of parallelism the wire-visible
//! solvers are allowed: per-item arithmetic is identical at any thread
//! count, and selection/accumulation happens in index order on the
//! calling thread. Unordered idioms (unscoped `spawn` joins,
//! nondeterministic channel drains) are rejected by
//! `rtt_analyze::source_lint`'s `unordered-parallel-reduction` rule.
//!
//! # The knob
//!
//! The intra-solve thread count is resolved per *calling thread*:
//! an explicit [`with_threads`] scope (how `rtt_engine`'s executor
//! applies `SolveRequest::intra_threads`) wins over the
//! `RTT_SOLVE_THREADS` environment variable, which defaults to 1
//! (serial). Values clamp to `1..=`[`MAX_THREADS`]. The knob is
//! execution telemetry, not semantics: it must never appear on the
//! NDJSON wire (see `rtt_cli::batch`).
//!
//! [`with_forced_chunking`] additionally forces callers down their
//! chunked code path even at 1 thread — how benches measure the
//! 1-thread overhead of the parallel path and how differential tests
//! exercise chunked selection without spawning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::ops::Range;

/// Hard ceiling on the intra-solve thread count (a knob, not a
/// scheduler: oversubscribing beyond this only adds join overhead).
pub const MAX_THREADS: usize = 64;

/// Environment variable consulted when no [`with_threads`] scope is
/// active.
pub const ENV_VAR: &str = "RTT_SOLVE_THREADS";

/// Default columns/items per chunk: large enough that chunk bookkeeping
/// amortizes, small enough that typical pricing loops split across
/// threads.
pub const DEFAULT_CHUNK: usize = 256;

thread_local! {
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
    static FORCE_CHUNKED: Cell<bool> = const { Cell::new(false) };
}

fn clamp_threads(n: usize) -> usize {
    n.clamp(1, MAX_THREADS)
}

fn env_threads() -> usize {
    std::env::var(ENV_VAR)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map(clamp_threads)
        .unwrap_or(1)
}

/// The intra-solve thread count in effect on this thread: the
/// innermost [`with_threads`] scope, else `RTT_SOLVE_THREADS`, else 1.
pub fn current() -> usize {
    CURRENT.with(|c| c.get()).unwrap_or_else(env_threads)
}

/// Host parallelism (`std::thread::available_parallelism`), 1 when
/// unknown. Callers derive *defaults* from this; the value itself is
/// telemetry and must stay off the wire.
pub fn available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Restore(
    &'static std::thread::LocalKey<Cell<Option<usize>>>,
    Option<usize>,
);

impl Drop for Restore {
    fn drop(&mut self) {
        self.0.with(|c| c.set(self.1));
    }
}

struct RestoreFlag(&'static std::thread::LocalKey<Cell<bool>>, bool);

impl Drop for RestoreFlag {
    fn drop(&mut self) {
        self.0.with(|c| c.set(self.1));
    }
}

/// Runs `f` with the intra-solve thread count set to `n` (clamped) on
/// this thread, restoring the previous value afterwards — panic-safe,
/// so an isolated solver panic cannot leak its knob into the next
/// request on the same worker.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT.with(|c| c.replace(Some(clamp_threads(n))));
    let _restore = Restore(&CURRENT, prev);
    f()
}

/// [`with_threads`] when the override is optional: `None` leaves the
/// ambient resolution (enclosing scope or environment) untouched.
pub fn with_threads_opt<R>(n: Option<usize>, f: impl FnOnce() -> R) -> R {
    match n {
        Some(n) => with_threads(n, f),
        None => f(),
    }
}

/// Whether chunked code paths are forced on (see
/// [`with_forced_chunking`]).
pub fn chunking_forced() -> bool {
    FORCE_CHUNKED.with(|c| c.get())
}

/// Runs `f` with chunked code paths forced on for this thread, even at
/// 1 thread ([`map_chunks`] then runs every chunk inline, in order, on
/// the calling thread — the "parallel path at 1 thread" the bench
/// bounds against serial). Restores on exit, panic-safe.
pub fn with_forced_chunking<R>(f: impl FnOnce() -> R) -> R {
    let prev = FORCE_CHUNKED.with(|c| c.replace(true));
    let _restore = RestoreFlag(&FORCE_CHUNKED, prev);
    f()
}

/// The single gate call sites use: take the chunked path when more
/// than one intra-solve thread is in effect, or when chunking is
/// forced for overhead measurement / differential testing.
pub fn parallel_enabled() -> bool {
    current() > 1 || chunking_forced()
}

/// Number of fixed chunks a range of `len` items splits into.
pub fn chunk_count(len: usize, chunk_size: usize) -> usize {
    len.div_ceil(chunk_size.max(1))
}

fn chunk_range(c: usize, chunk_size: usize, len: usize) -> Range<usize> {
    let start = c * chunk_size;
    start..(start + chunk_size).min(len)
}

/// Evaluates `f(chunk_index, index_range)` over fixed chunks of
/// `0..len` and returns the results **in chunk order**.
///
/// Chunk boundaries are a pure function of `(len, chunk_size)` — the
/// thread count only distributes chunks over workers (static
/// round-robin on the scoped threads of the `crossbeam` shim), so per-
/// chunk results are bit-identical at any thread count and the caller
/// reduces them as an ordered left fold. With `threads <= 1` (or a
/// single chunk) every chunk runs inline on the calling thread in
/// order: same results, no spawn.
///
/// `f` must be pure with respect to chunk scheduling (it may read
/// shared state, including relaxed atomic *cost* counters, but
/// wire-visible values must depend only on its arguments).
///
/// A panic in any chunk propagates to the caller after all workers
/// join, preserving the executor's panic-isolation semantics.
pub fn map_chunks<R, F>(len: usize, chunk_size: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let chunk_size = chunk_size.max(1);
    let n_chunks = chunk_count(len, chunk_size);
    let workers = clamp_threads(threads).min(n_chunks.max(1));
    if workers <= 1 {
        return (0..n_chunks)
            .map(|c| f(c, chunk_range(c, chunk_size, len)))
            .collect();
    }
    let parts: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut c = w;
                    while c < n_chunks {
                        out.push((c, f(c, chunk_range(c, chunk_size, len))));
                        c += workers;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // scatter back into chunk order — the ordered reduction happens in
    // the caller's fold over this Vec, never in arrival order
    let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
    for part in parts {
        for (c, r) in part {
            slots[c] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every chunk evaluated exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_boundaries_are_a_function_of_len_only() {
        for threads in [1usize, 2, 4, 7] {
            let ranges = map_chunks(1000, 256, threads, |c, r| (c, r.start, r.end));
            assert_eq!(
                ranges,
                vec![(0, 0, 256), (1, 256, 512), (2, 512, 768), (3, 768, 1000)],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn results_arrive_in_chunk_order_at_any_thread_count() {
        let serial: Vec<u64> = map_chunks(5000, 64, 1, |_, r| r.map(|i| i as u64 * 3).sum());
        for threads in [2usize, 3, 4, 8] {
            let par: Vec<u64> = map_chunks(5000, 64, threads, |_, r| r.map(|i| i as u64 * 3).sum());
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn ordered_argmax_reduction_is_thread_count_invariant() {
        // a synthetic pricing loop: first index attaining the max wins
        let score = |j: usize| ((j * 7919) % 1000) as f64;
        let pick = |threads: usize| -> Option<usize> {
            let parts = map_chunks(10_000, 128, threads, |_, r| {
                let mut best: Option<(f64, usize)> = None;
                for j in r {
                    let v = score(j);
                    if best.is_none_or(|(b, _)| v > b) {
                        best = Some((v, j));
                    }
                }
                best
            });
            let mut best: Option<(f64, usize)> = None;
            for part in parts.into_iter().flatten() {
                if best.is_none_or(|(b, _)| part.0 > b) {
                    best = Some(part);
                }
            }
            best.map(|(_, j)| j)
        };
        let serial = pick(1);
        assert!(serial.is_some());
        for threads in [2usize, 4, 16] {
            assert_eq!(pick(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_chunk_inputs() {
        let empty: Vec<usize> = map_chunks(0, 256, 4, |_, r| r.len());
        assert!(empty.is_empty());
        let single: Vec<usize> = map_chunks(10, 256, 4, |_, r| r.len());
        assert_eq!(single, vec![10]);
    }

    #[test]
    fn with_threads_scopes_nest_and_restore() {
        assert_eq!(current(), env_threads());
        with_threads(4, || {
            assert_eq!(current(), 4);
            with_threads(2, || assert_eq!(current(), 2));
            assert_eq!(current(), 4);
            with_threads_opt(None, || assert_eq!(current(), 4));
        });
        assert_eq!(current(), env_threads());
    }

    #[test]
    fn with_threads_clamps_and_survives_panics() {
        with_threads(0, || assert_eq!(current(), 1));
        with_threads(1_000_000, || assert_eq!(current(), MAX_THREADS));
        let caught = std::panic::catch_unwind(|| {
            with_threads(8, || panic!("solver panic"));
        });
        assert!(caught.is_err());
        assert_eq!(current(), env_threads(), "knob must not leak past a panic");
    }

    #[test]
    fn forced_chunking_is_scoped() {
        assert!(!chunking_forced());
        with_forced_chunking(|| {
            assert!(chunking_forced());
            assert!(parallel_enabled());
        });
        assert!(!chunking_forced());
    }

    #[test]
    fn worker_panics_propagate_after_join() {
        let caught = std::panic::catch_unwind(|| {
            map_chunks(1000, 10, 4, |c, _| {
                if c == 57 {
                    panic!("chunk 57 panicked");
                }
                c
            })
        });
        assert!(caught.is_err());
    }
}
