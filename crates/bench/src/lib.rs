//! # rtt-bench — the reproduction harness
//!
//! One function per table/figure of the paper; each returns the rows it
//! printed so tests can assert on them. The `repro` binary dispatches to
//! these. [`fixtures`] holds the seeded instances the counter envelopes
//! and the LP oracle pin; criterion benches for the substrates and
//! solvers live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fixtures;
pub mod table;

pub use experiments::*;
