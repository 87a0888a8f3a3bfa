//! Minimal stand-in for `proptest` (offline build; see `shims/README.md`).
//!
//! Implements the surface the workspace's property tests use: the
//! [`proptest!`] macro with an optional `#![proptest_config(..)]`
//! attribute, [`Strategy`] with `prop_map` / `prop_flat_map`, range and
//! tuple strategies, [`collection::vec`], [`option::of`], and the
//! `prop_assert*` macros. Generation is seeded and deterministic; there
//! is **no shrinking** — a failure reports the case index *and the
//! case's RNG seed*, and setting `RTT_PROPTEST_SEED=<seed>` replays
//! exactly that seeded case (combine with the test's name filter, e.g.
//! `RTT_PROPTEST_SEED=0x… cargo test my_property`).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};
use std::ops::Range;

/// Deterministic RNG handed to strategies by the [`proptest!`] runner.
pub struct TestRng(StdRng);

impl TestRng {
    /// The seed [`TestRng::for_case`] derives for a (test, case) pair —
    /// exposed so failure messages can print it and
    /// [`replay_seed`]-driven reruns can reconstruct the exact stream.
    pub fn seed_for(test_name: &str, case: u32) -> u64 {
        // FNV-1a over the test name keeps distinct tests on distinct
        // streams while staying fully deterministic run-to-run.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        h ^ (case as u64).wrapping_mul(0x9E37_79B9)
    }

    /// Fixed-seed RNG; `case` perturbs the stream per test case.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        Self::from_seed(Self::seed_for(test_name, case))
    }

    /// RNG reconstructed from a reported seed (see [`replay_seed`]).
    pub fn from_seed(seed: u64) -> Self {
        TestRng(StdRng::seed_from_u64(seed))
    }

    fn range<T: SampleUniform>(&mut self, lo: T, hi_incl: T) -> T {
        T::sample_inclusive(&mut self.0, lo, hi_incl)
    }

    fn random_usize(&mut self, range: Range<usize>) -> usize {
        self.0.random_range(range)
    }

    fn random_bool_half(&mut self) -> bool {
        self.0.random_bool(0.5)
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let hi = T::half_open_hi(self.end).expect("empty strategy range");
        rng.range(self.start, hi)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length specifications accepted by [`vec()`] (upstream `SizeRange`).
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            SizeRange(lo..hi + 1)
        }
    }

    /// `Vec` strategy with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into().0,
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.random_usize(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use super::{Strategy, TestRng};

    /// `Some` with probability 1/2.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.random_bool_half() {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Runner configuration (subset of upstream's fields).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

pub mod test_runner {
    //! Re-exports for macro use.
    pub use super::{ProptestConfig, TestRng};
}

/// Parses a reported seed: `0x`-prefixed hex (the format failure
/// messages print) or plain decimal.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("RTT_PROPTEST_SEED: cannot parse {s:?} as a u64 seed"))
}

/// The seed from `RTT_PROPTEST_SEED`, if set: the [`proptest!`] runner
/// then replays exactly one case with that seed instead of the full
/// sweep. A malformed value panics rather than silently running the
/// normal sweep — a replay that quietly ignores its seed would report
/// "fixed" for a bug that was never rerun.
pub fn replay_seed() -> Option<u64> {
    let raw = std::env::var("RTT_PROPTEST_SEED").ok()?;
    Some(parse_seed(&raw).unwrap_or_else(|e| panic!("{e}")))
}

pub mod prelude {
    //! The usual imports.
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property test (panics like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn holds(x in 0u64..10, v in proptest::collection::vec(0i32..5, 0..4)) {
///         prop_assert!(x < 10 && v.len() < 4);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = (<$crate::ProptestConfig as ::std::default::Default>::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                if let Some(seed) = $crate::replay_seed() {
                    // single-case replay of a reported failure; combine
                    // with the harness name filter to target one test
                    eprintln!(
                        "proptest shim: '{}' replaying one case from RTT_PROPTEST_SEED=0x{seed:016x}",
                        stringify!($name)
                    );
                    let mut __rng = $crate::test_runner::TestRng::from_seed(seed);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                    return;
                }
                for case in 0..config.cases {
                    let seed = $crate::test_runner::TestRng::seed_for(stringify!($name), case);
                    let mut __rng = $crate::test_runner::TestRng::from_seed(seed);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    let run = ::std::panic::AssertUnwindSafe(|| { $body });
                    if let Err(e) = ::std::panic::catch_unwind(run) {
                        eprintln!(
                            "proptest shim: '{}' failed at case {} of {}; replay just this case with RTT_PROPTEST_SEED=0x{seed:016x}",
                            stringify!($name), case, config.cases
                        );
                        ::std::panic::resume_unwind(e);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_and_collections(x in 1u64..30, v in crate::collection::vec((1u64..6, -3i32..4), 0..5), o in crate::option::of(0u8..6)) {
            prop_assert!((1..30).contains(&x));
            prop_assert!(v.len() < 5);
            for (a, b) in &v {
                prop_assert!((1..6).contains(a) && (-3..4).contains(b));
            }
            if let Some(u) = o {
                prop_assert!(u < 6);
            }
        }

        #[test]
        fn flat_map_dependent_lengths(v in (1usize..5).prop_flat_map(|n| crate::collection::vec(0i32..10, n..n + 1))) {
            prop_assert!((1..5).contains(&v.len()));
        }
    }

    #[test]
    fn reported_seed_reconstructs_the_exact_stream() {
        let seed = crate::TestRng::seed_for("some_property", 17);
        let strat = (1u64..1000, crate::collection::vec(0i32..50, 0..8));
        let mut by_case = crate::TestRng::for_case("some_property", 17);
        let mut by_seed = crate::TestRng::from_seed(seed);
        let a = crate::Strategy::generate(&strat, &mut by_case);
        let b = crate::Strategy::generate(&strat, &mut by_seed);
        assert_eq!(
            a, b,
            "replaying the seed must regenerate the failing inputs"
        );
        // distinct cases / names stay on distinct streams
        assert_ne!(seed, crate::TestRng::seed_for("some_property", 18));
        assert_ne!(seed, crate::TestRng::seed_for("other_property", 17));
    }

    #[test]
    fn seed_parsing_accepts_hex_and_decimal() {
        assert_eq!(crate::parse_seed("0x00000000000000ff"), Ok(255));
        assert_eq!(crate::parse_seed("0XFF"), Ok(255));
        assert_eq!(crate::parse_seed(" 255 "), Ok(255));
        assert!(crate::parse_seed("za").is_err());
        assert!(crate::parse_seed("").is_err());
        // round trip through the failure-message format
        let seed = crate::TestRng::seed_for("p", 3);
        assert_eq!(crate::parse_seed(&format!("0x{seed:016x}")), Ok(seed));
    }
}
