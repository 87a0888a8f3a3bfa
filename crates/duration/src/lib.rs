//! # rtt-duration — duration functions of the resource-time tradeoff
//!
//! §2 of the paper defines, for each job `v`, a non-increasing *duration
//! function* `t_v(r)`: the time to complete `v` using `r` units of
//! resource. Three families are considered:
//!
//! * **general non-increasing step functions** (Eq. 1), given by a list of
//!   resource-time tuples `⟨r_{v,i}, t_v(r_{v,i})⟩`;
//! * **k-way splitting** (Eq. 2), the duration induced by a k-way split
//!   reducer: `⌈d/k⌉ + k` for `2 ≤ k ≤ ⌊√d⌋`;
//! * **recursive binary splitting** (Eq. 3), the duration induced by a
//!   recursive binary reducer of height `i` using `2^i` cells:
//!   `⌈d/2^i⌉ + i + 1`.
//!
//! [`Duration`] canonicalizes all three to a validated step function whose
//! breakpoints are exactly the *useful* resource levels (strictly
//! decreasing times), while retaining the family tag and raw formulas the
//! single-criteria approximation algorithms rely on.
//!
//! The module [`expand`] performs the *physical* reducer expansion of
//! Figures 2 and 5: rewriting a DAG node into leaves + merge chain so that
//! the longest path through the expansion reproduces Eq. 3 exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expand;
mod function;

pub use function::{
    raw_kway_time, raw_recursive_binary_time, recursive_binary_max_height, Duration, DurationKind,
    StepError, Tuple,
};

/// Time in abstract ticks (one tick = one update application, §1).
pub type Time = u64;

/// Resource units (units of extra space, §1).
pub type Resource = u64;

/// Sentinel for the paper's `∞` durations (Appendix A gadgets).
///
/// Chosen far below `u64::MAX` so that saturating sums of many `INF`
/// values stay `≥ INF` and are still recognized by [`is_infinite`].
pub const INF: Time = u64::MAX / 4;

/// Whether a time value represents the `∞` sentinel (or a sum involving it).
#[inline]
pub fn is_infinite(t: Time) -> bool {
    t >= INF
}

/// `⌈a / b⌉` for `b > 0`.
#[inline]
pub fn ceil_div(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    a.div_ceil(b)
}
