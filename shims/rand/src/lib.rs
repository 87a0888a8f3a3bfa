//! Minimal stand-in for `rand` 0.9 (offline build; see `shims/README.md`).
//!
//! Provides the exact surface the workspace uses: the [`Rng`] trait with
//! `random_range` / `random_bool`, [`SeedableRng::seed_from_u64`], and a
//! deterministic [`rngs::StdRng`] (xoshiro256++ seeded via SplitMix64).
//! Seeded streams differ from upstream `rand`; only determinism is
//! promised.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of randomness.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling methods (blanket-implemented for every
/// [`RngCore`], mirroring rand 0.9's `Rng`).
pub trait Rng: RngCore {
    /// Uniform sample from a `lo..hi` or `lo..=hi` range.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Constructs the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Maps 64 random bits to `[0, 1)` with 53-bit precision.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types uniformly sampleable from a range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample from `[lo, hi]` (both inclusive).
    fn sample_inclusive<G: RngCore + ?Sized>(rng: &mut G, lo: Self, hi: Self) -> Self;
    /// The predecessor of `hi`, for half-open ranges. `None` if empty.
    fn half_open_hi(hi: Self) -> Option<Self>;
}

macro_rules! impl_sample_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<G: RngCore + ?Sized>(rng: &mut G, lo: Self, hi: Self) -> Self {
                debug_assert!(lo <= hi, "empty sample range");
                let span = (hi as u128) - (lo as u128) + 1;
                // widening multiply keeps modulo bias below 2^-64
                let wide = (rng.next_u64() as u128).wrapping_mul(span);
                lo + ((wide >> 64) as $t)
            }
            fn half_open_hi(hi: Self) -> Option<Self> {
                hi.checked_sub(1)
            }
        }
    )*};
}
impl_sample_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<G: RngCore + ?Sized>(rng: &mut G, lo: Self, hi: Self) -> Self {
                debug_assert!(lo <= hi, "empty sample range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let wide = (rng.next_u64() as u128).wrapping_mul(span);
                (lo as i128 + (wide >> 64) as i128) as $t
            }
            fn half_open_hi(hi: Self) -> Option<Self> {
                hi.checked_sub(1)
            }
        }
    )*};
}
impl_sample_int!(i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_inclusive<G: RngCore + ?Sized>(rng: &mut G, lo: Self, hi: Self) -> Self {
        debug_assert!(lo <= hi, "empty sample range");
        lo + unit_f64(rng.next_u64()) * (hi - lo)
    }
    fn half_open_hi(hi: Self) -> Option<Self> {
        // Half-open float ranges sample [lo, hi); the measure-zero
        // endpoint is ignored rather than excluded bit-exactly.
        Some(hi)
    }
}

impl SampleUniform for f32 {
    fn sample_inclusive<G: RngCore + ?Sized>(rng: &mut G, lo: Self, hi: Self) -> Self {
        lo + (unit_f64(rng.next_u64()) as f32) * (hi - lo)
    }
    fn half_open_hi(hi: Self) -> Option<Self> {
        Some(hi)
    }
}

/// Range forms accepted by [`Rng::random_range`].
pub trait SampleRange<T: SampleUniform> {
    /// Uniform sample from the range.
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> T {
        let hi = T::half_open_hi(self.end).expect("empty sample range");
        T::sample_inclusive(rng, self.start, hi)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(rng, lo, hi)
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stand-in for rand's
    /// `StdRng`; different stream, same determinism guarantees).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random_range(0..1000u64), b.random_range(0..1000u64));
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let v = rng.random_range(3..17usize);
            assert!((3..17).contains(&v));
            let w = rng.random_range(-6i32..10);
            assert!((-6..10).contains(&w));
            let x = rng.random_range(2..=5u64);
            assert!((2..=5).contains(&x));
            let f = rng.random_range(1.0..10.0f64);
            assert!((1.0..10.0).contains(&f));
        }
    }

    #[test]
    fn bool_probabilities_sane() {
        let mut rng = StdRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((1500..3500).contains(&hits), "{hits}");
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn generic_rng_bound_usable() {
        fn takes_rng<R: Rng>(rng: &mut R) -> u64 {
            rng.random_range(0..10u64)
        }
        let mut rng = StdRng::seed_from_u64(3);
        assert!(takes_rng(&mut rng) < 10);
    }
}
