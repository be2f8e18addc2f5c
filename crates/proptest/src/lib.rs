//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate reimplements
//! the subset of the proptest API the workspace's property tests use:
//!
//! * the [`proptest!`] macro (including `#![proptest_config(..)]`),
//! * [`Strategy`] with `prop_map`, ranges, tuples, [`Just`], [`any`],
//!   [`collection::vec`], [`prop_oneof!`], and [`sample::Index`],
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * [`ProptestConfig::with_cases`].
//!
//! Differences from real proptest: cases are sampled from a seed derived
//! deterministically from the test's module path and name (stable across runs
//! and platforms), and there is **no shrinking** — a failure reports the case
//! number so it can be re-examined, but the input is not minimized.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RNG driving test-case generation.
pub type TestRng = StdRng;

/// Per-test configuration (subset of proptest's).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

/// A generator of values for property tests.
///
/// Unlike real proptest there is no value tree or shrinking: a strategy is
/// just a pure sampling function over a deterministic RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// Box a strategy as a trait object (used by [`prop_oneof!`]).
pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(s)
}

/// Strategy adapter produced by [`Strategy::prop_map`].
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

/// Strategy that always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (built by [`prop_oneof!`]).
pub struct OneOf<V> {
    arms: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> OneOf<V> {
    /// Build from a non-empty arm list.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.start..self.end)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, f32, f64);

macro_rules! impl_range_inclusive_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                if hi == <$t>::MAX {
                    // Avoid overflow of the exclusive bound; MAX itself is
                    // unreachable in that (never used here) corner.
                    rng.gen_range(lo..hi)
                } else {
                    rng.gen_range(lo..hi + 1)
                }
            }
        }
    )*};
}

impl_range_inclusive_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Sample an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy generating any value of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Size specification for [`vec()`]: an exact length or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.hi - self.size.lo <= 1 {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// `Vec` strategy: each element from `elem`, length from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// Sampling helpers (subset of `proptest::sample`).
pub mod sample {
    use super::{Arbitrary, TestRng};
    use rand::Rng;

    /// An arbitrary index, resolved against a collection length at use time.
    #[derive(Debug, Clone, Copy)]
    pub struct Index {
        raw: usize,
    }

    impl Index {
        /// Map this index into `0..len`. Panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            self.raw % len
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index {
                raw: rng.gen_range(0..usize::MAX),
            }
        }
    }
}

/// Path-style re-exports so `prop::sample::Index` etc. resolve.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// The glob-import module, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, Just,
        ProptestConfig, Strategy,
    };
}

/// Derive a stable 64-bit seed from a test identifier (FNV-1a).
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// Build the RNG for one test case.
pub fn new_rng(seed: u64, case: u32) -> TestRng {
    StdRng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Assert a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::boxed($arm)),+])
    };
}

/// Define property tests: each `fn name(arg in strategy, ..) { body }` becomes
/// a `#[test]` running `body` over deterministically generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let __seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::new_rng(__seed, __case);
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)*
                    let __outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| { $body })
                    );
                    if let Err(err) = __outcome {
                        eprintln!(
                            "proptest stand-in: test {} failed at case {}/{} (seed {:#x})",
                            stringify!($name), __case, __cfg.cases, __seed
                        );
                        ::std::panic::resume_unwind(err);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn seeds_are_stable() {
        assert_eq!(crate::seed_for("abc"), crate::seed_for("abc"));
        assert_ne!(crate::seed_for("abc"), crate::seed_for("abd"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..10, y in -2.0f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn vec_and_map_compose(v in prop::collection::vec((0u32..5, 1usize..4).prop_map(|(a, b)| a as usize + b), 0..20)) {
            prop_assert!(v.len() < 20);
            for x in v {
                prop_assert!(x <= 7);
            }
        }

        #[test]
        fn oneof_and_just(o in prop_oneof![Just(None), (1usize..4).prop_map(Some)]) {
            if let Some(v) = o {
                prop_assert!((1..4).contains(&v));
            }
        }

        #[test]
        fn index_resolves(ix in any::<prop::sample::Index>()) {
            prop_assert!(ix.index(17) < 17);
        }
    }
}
