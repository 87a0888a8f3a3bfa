//! # rtt-par — host parallelism
//!
//! Every solve runs one serial path; the only parallelism is
//! request-level, `rtt_engine::run_batch`'s worker pool. This crate
//! keeps just [`available`], the default for `rtt batch --threads`.
//! It stays a workspace member only because the `perfbench` lockfile
//! still records it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Host parallelism (`std::thread::available_parallelism`), 1 when
/// unknown. Callers derive *defaults* from this; the value itself is
/// telemetry and must stay off the wire.
pub fn available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
