//! Offline shim for `proptest`: a deterministic mini property-testing
//! harness covering the API subset this workspace uses.
//!
//! Differences from real proptest, by design:
//!
//! * **Deterministic sampling.** Case `i` of test `t` draws from a
//!   SplitMix64 stream seeded by `hash(t) ⊕ i` — every run explores the
//!   same inputs, so a failure reproduces without a persistence file.
//! * **No shrinking.** The failing case prints its index; inputs are
//!   re-derivable from (test name, index).
//!
//! Supported: range strategies over floats and integers, tuples,
//! `collection::vec`, `any::<bool>()`, `Just`, `prop_map`,
//! `prop_flat_map`, `proptest!` with an optional
//! `#![proptest_config(...)]` header, and `prop_assert!`/`prop_assert_eq!`.

use std::fmt;
use std::ops::Range;

/// Deterministic sample source handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Builds the stream for one (test, case) pair.
    pub fn deterministic(case: u64, test_name: &str) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, span: u64) -> u64 {
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// A recoverable test-case failure (what `prop_assert!` produces).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError(message.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Per-`proptest!` configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values for property tests.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// A strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty f64 strategy range");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive strategy range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($s:ident.$idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
);

/// Marker for [`any`]-style strategies.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// The canonical strategy for `T` (only `bool` is needed here).
pub fn any<T>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Anything that can pick a vector length.
    pub trait SizeRange {
        /// Draws a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty vec length range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    /// Strategy for vectors of `element` with length drawn from `size`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Runs one property over `config.cases` deterministic cases.
/// Used by the `proptest!` macro expansion; not part of the public
/// proptest API.
pub fn run_property<F>(config: &ProptestConfig, test_name: &str, mut property: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    for case in 0..config.cases {
        let mut rng = TestRng::deterministic(case as u64, test_name);
        if let Err(e) = property(&mut rng) {
            panic!("property `{test_name}` failed at deterministic case {case}: {e}");
        }
    }
}

/// Declares property tests. Supports the optional
/// `#![proptest_config(...)]` header of real proptest.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { (<$crate::ProptestConfig as ::std::default::Default>::default()); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($cfg:expr); $( $(#[$meta:meta])+ fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_property(&config, stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::sample(&($strat), __rng);)+
                    $body
                    Ok(())
                });
            }
        )*
    };
}

/// Asserts inside a property; failure aborts only the current case
/// with a diagnostic rather than panicking the harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: `{:?}` != `{:?}`",
            lhs,
            rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(lhs == rhs, $($fmt)*);
    }};
}

/// The conventional convenience import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Just, ProptestConfig, Strategy, TestCaseError,
        TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in -5.0..5.0f64, n in 1usize..10) {
            prop_assert!((-5.0..5.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        #[test]
        fn vec_lengths_in_range(v in collection::vec(0.0..1.0f64, 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
            for x in &v {
                prop_assert!((0.0..1.0).contains(x));
            }
        }

        #[test]
        fn flat_map_chains(m in (1usize..4, 1usize..4).prop_flat_map(|(r, c)| {
            collection::vec(0u32..10, r * c).prop_map(move |data| (r, c, data))
        })) {
            let (r, c, data) = m;
            prop_assert_eq!(data.len(), r * c);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let s = collection::vec(0.0..1.0f64, 5);
        let a = Strategy::sample(&s, &mut TestRng::deterministic(3, "t"));
        let b = Strategy::sample(&s, &mut TestRng::deterministic(3, "t"));
        assert_eq!(a, b);
    }
}
