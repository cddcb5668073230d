//! Offline shim for the `rand` crate.
//!
//! Implements the API subset the CrowdWiFi workspace uses — `RngCore`,
//! `Rng`, `SeedableRng`, uniform `random_range` over float and
//! integer ranges, `random_bool`, and `seq::SliceRandom::shuffle` — on
//! top of a single `next_u64` primitive. The uniform-sampling
//! conventions match `rand` (53-bit floats in `[0, 1)`, widening-multiply
//! integer reduction), though the streams of concrete generators are not
//! bit-compatible with upstream.

use std::ops::{Range, RangeInclusive};

/// The random-source primitive: a stream of uniform `u64`s.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from `range` (half-open or inclusive).
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction, from a bare `u64`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range that can produce one uniform sample.
pub trait SampleRange<T> {
    /// Draws one sample from `rng`.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// `u64 -> f64` in `[0, 1)` with 53 bits of precision.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty f64 sample range");
        let u = unit_f64(rng.next_u64());
        let v = self.start + u * (self.end - self.start);
        // Floating rounding can land exactly on `end`; fold it back.
        if v >= self.end {
            self.start
                .max(self.end - (self.end - self.start) * f64::EPSILON)
        } else {
            v
        }
    }
}

/// Unbiased-enough uniform integer in `[0, span)` via 128-bit
/// widening multiply (Lemire reduction without the rejection loop; the
/// bias is < 2⁻⁶⁴ per draw, far below anything the simulations resolve).
#[inline]
fn uniform_below(rng: &mut (impl RngCore + ?Sized), span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty integer sample range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive sample range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Slice shuffling.
pub mod seq {
    use super::Rng;

    /// Random slice operations (Fisher–Yates shuffling).
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = super::uniform_below(&mut *rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }
    }
}

/// The conventional convenience import.
pub mod prelude {
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SampleRange, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u64(&mut self) -> u64 {
            // A weak mixer is plenty for the range-contract tests.
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = Counter(42);
        for _ in 0..10_000 {
            let x: f64 = rng.random_range(-3.0..7.0);
            assert!((-3.0..7.0).contains(&x));
            let tiny: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            assert!(tiny > 0.0 && tiny < 1.0);
        }
    }

    #[test]
    fn integer_ranges_cover_and_stay_in_bounds() {
        let mut rng = Counter(7);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let v: usize = rng.random_range(0..5);
            seen[v] = true;
            let w: usize = rng.random_range(1..=3usize);
            assert!((1..=3).contains(&w));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        use seq::SliceRandom;
        let mut rng = Counter(1);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn random_bool_extremes() {
        let mut rng = Counter(3);
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }
}
