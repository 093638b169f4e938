//! # propcheck — a zero-dependency property-testing shim
//!
//! The workspace's property tests were written against the [proptest]
//! crate, which the offline build environment cannot download. This crate
//! re-implements the *subset* of proptest's API those tests use — range,
//! tuple, `vec` and `bool` strategies, `prop_map`/`prop_flat_map`
//! combinators, the `proptest!` macro and the `prop_assert*`/`prop_assume!`
//! assertion family — on top of a small deterministic xorshift64* generator,
//! with no dependencies at all.
//!
//! The workspace imports it under the name `proptest` (Cargo dependency
//! renaming), so test files keep their original `use proptest::prelude::*`
//! imports and would keep compiling against the real crate.
//!
//! Deliberate differences from proptest:
//!
//! * **No shrinking.** A failing case reports the generated inputs via
//!   `Debug`; the generation is deterministic per test (seeded from the
//!   test's name), so failures reproduce exactly on re-run.
//! * **Deterministic by default.** Set `PROPCHECK_SEED` to explore a
//!   different part of the input space, and `PROPCHECK_CASES` to override
//!   every test's case count.
//!
//! [proptest]: https://crates.io/crates/proptest

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;
use std::ops::Range;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic xorshift64* generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator (0 is remapped to a fixed odd constant).
    pub fn new(seed: u64) -> Self {
        TestRng { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Modulo bias is negligible for the small ranges tests use.
        self.next_u64() % bound
    }
}

/// FNV-1a hash of a string — used to derive a per-test seed from its name.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Resolves the RNG for a test: `PROPCHECK_SEED` xor the test-name hash.
pub fn rng_for_test(test_name: &str) -> TestRng {
    let env_seed =
        std::env::var("PROPCHECK_SEED").ok().and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    TestRng::new(env_seed ^ fnv1a(test_name))
}

// ---------------------------------------------------------------------------
// Config and error types
// ---------------------------------------------------------------------------

/// Per-test configuration (mirrors `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// The effective case count: `PROPCHECK_CASES` overrides the config.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPCHECK_CASES")
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .unwrap_or(self.cases)
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a test case did not pass (mirrors `proptest::test_runner::TestCaseError`).
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case failed an assertion — the property is violated.
    Fail(String),
    /// The case was rejected by `prop_assume!` — skip it, try another.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail<S: Into<String>>(msg: S) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection (assumption not met) with the given message.
    pub fn reject<S: Into<String>>(msg: S) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A generator of random values (the shim's take on `proptest::Strategy`).
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Feeds generated values into a strategy-producing `f` and samples the
    /// produced strategy.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }

    /// Boxes the strategy (API-compatibility helper).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy { inner: Box::new(self) }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.base.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.base.sample(rng)).sample(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T> {
    inner: Box<dyn ErasedStrategy<T>>,
}

trait ErasedStrategy<T> {
    fn sample_erased(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> ErasedStrategy<S::Value> for S {
    fn sample_erased(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        self.inner.sample_erased(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Debug + Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// Integer range strategies: uniform over [start, end).
macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.next_f64() as f32) * (self.end - self.start)
    }
}

// Tuple strategies.
macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4);
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::fmt::Debug;
    use std::ops::Range;

    /// Anything that can serve as a length specification for [`vec()`].
    pub trait IntoLenRange {
        /// Lower (inclusive) and upper (exclusive) length bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoLenRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    impl IntoLenRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    /// A strategy yielding `Vec`s of values from `element` with a length
    /// drawn from `len`.
    pub fn vec<S: Strategy, L: IntoLenRange>(element: S, len: L) -> VecStrategy<S> {
        let (lo, hi) = len.bounds();
        assert!(lo < hi, "empty length range");
        VecStrategy { element, lo, hi }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.hi - self.lo) as u64;
            let n = self.lo + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Boolean strategies (`proptest::bool`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// A fair coin.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The fair-coin strategy, named as proptest names it.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Numeric sub-modules (`proptest::num`) — only what the workspace needs.
pub mod num {
    /// f64 strategies.
    pub mod f64 {
        use crate::{Strategy, TestRng};

        /// Uniform over the unit interval (stand-in for proptest's ANY,
        /// which the workspace only uses for plain magnitudes).
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        impl Strategy for Any {
            type Value = f64;
            fn sample(&self, rng: &mut TestRng) -> f64 {
                rng.next_f64()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// The test-defining macro (mirrors `proptest::proptest!`).
///
/// Supported grammar — the subset the workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     /// Doc comments carry over.
///     #[test]
///     fn my_property(x in 0usize..10, v in proptest::collection::vec(0u8..4, 1..30)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__propcheck_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__propcheck_items!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal item-by-item expansion of [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __propcheck_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let cases = config.effective_cases();
            let mut rng = $crate::rng_for_test(concat!(module_path!(), "::", stringify!($name)));
            let mut rejected: u32 = 0;
            for case in 0..cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                let inputs = format!(
                    concat!($("\n  ", stringify!($arg), " = {:?}",)+),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || { $body ::std::result::Result::Ok(()) })();
                match outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {
                        rejected += 1;
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "property `{}` failed at case {}/{}: {}\ninputs:{}",
                            stringify!($name), case + 1, cases, msg, inputs
                        );
                    }
                }
            }
            // Purely informational; mirrors proptest's too-many-rejects
            // guard loosely (all-rejected is almost certainly a test bug).
            assert!(
                rejected < cases || cases == 0,
                "property `{}` rejected all {} cases — assumption never held",
                stringify!($name), cases
            );
        }
        $crate::__propcheck_items!{ ($cfg) $($rest)* }
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), left, right
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), left, right
            )));
        }
    }};
}

/// Fails the current case if the two values compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                left
            )));
        }
    }};
}

/// Rejects the current case (skips it) unless the assumption holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(format!(
                "assumption failed: {}",
                stringify!($cond)
            )));
        }
    };
}

// ---------------------------------------------------------------------------
// Decoder mutations (an extension: not part of proptest's API)
// ---------------------------------------------------------------------------

/// Corrupted copies of a valid encoding, for checking that a decoder
/// answers each with a value or an error and never panics. This is the one
/// item of the shim that proptest does not have.
pub mod mutate {
    /// The bytes each position of an encoding is replaced with: the
    /// delimiters the workspace's JSON and `;`-separated wire decoders
    /// split on, the ASCII unit separator, NUL, a sign and a letter that is
    /// no hex digit (the last two turn a number field negative or
    /// unparseable).
    pub const REPLACEMENTS: [u8; 10] = [b'"', b'\\', b',', b'[', b']', b';', 0x1f, 0, b'-', b'x'];

    /// One corrupted copy of a valid encoding.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Mutant {
        /// A proper prefix (possibly empty).
        Prefix(String),
        /// The encoding with one byte replaced by one of [`REPLACEMENTS`].
        Replaced(String),
    }

    impl Mutant {
        /// The corrupted text.
        pub fn text(&self) -> &str {
            match self {
                Mutant::Prefix(text) | Mutant::Replaced(text) => text,
            }
        }
    }

    /// Every proper prefix of `valid`, shortest first, then every copy with
    /// one byte replaced by a different byte of [`REPLACEMENTS`]. Copies
    /// that are not UTF-8 (a cut or a replacement inside a multi-byte
    /// character) are left out, since the decoders read `&str`.
    pub fn mutants(valid: &str) -> impl Iterator<Item = Mutant> + '_ {
        let bytes = valid.as_bytes();
        let prefixes =
            (0..bytes.len()).filter_map(|n| Some(Mutant::Prefix(valid.get(..n)?.to_string())));
        let replaced = (0..bytes.len()).flat_map(move |at| {
            REPLACEMENTS.iter().filter(move |&&b| b != bytes[at]).filter_map(move |&b| {
                let mut copy = bytes.to_vec();
                copy[at] = b;
                String::from_utf8(copy).ok().map(Mutant::Replaced)
            })
        });
        prefixes.chain(replaced)
    }
}

/// The glob-importable prelude (mirrors `proptest::prelude`).
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;
    use crate as proptest; // the workspace imports this crate as `proptest`

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let x = Strategy::sample(&(3usize..17), &mut rng);
            assert!((3..17).contains(&x));
            let y = Strategy::sample(&(-8i32..8), &mut rng);
            assert!((-8..8).contains(&y));
        }
    }

    #[test]
    fn f64_range_stays_in_bounds() {
        let mut rng = TestRng::new(9);
        for _ in 0..1000 {
            let x = Strategy::sample(&(0.01f64..0.30), &mut rng);
            assert!((0.01..0.30).contains(&x));
        }
    }

    #[test]
    fn vec_respects_length_bounds() {
        let mut rng = TestRng::new(11);
        let strat = proptest::collection::vec(0u8..4, 1..30);
        for _ in 0..200 {
            let v = Strategy::sample(&strat, &mut rng);
            assert!((1..30).contains(&v.len()));
            assert!(v.iter().all(|&b| b < 4));
        }
        let fixed = proptest::collection::vec(0u8..4, 5usize);
        assert_eq!(Strategy::sample(&fixed, &mut rng).len(), 5);
    }

    #[test]
    fn mutants_cover_prefixes_and_replacements() {
        use super::mutate::{mutants, Mutant, REPLACEMENTS};
        let all: Vec<Mutant> = mutants("a;").collect();
        assert_eq!(all[..2], [Mutant::Prefix(String::new()), Mutant::Prefix("a".into())]);
        // Every replacement of `a`, all but one of `;` (replacing it with
        // itself is no mutant).
        assert_eq!(all.len(), 2 + REPLACEMENTS.len() * 2 - 1);
        assert!(all.contains(&Mutant::Replaced("\u{1f};".into())));
        assert!(!all.contains(&Mutant::Replaced("a;".into())));
        // A cut or replacement inside `é` is not UTF-8 and is left out.
        let texts: Vec<String> = mutants("é").map(|m| m.text().to_string()).collect();
        assert_eq!(texts, [""]);
    }

    #[test]
    fn combinators_compose() {
        let mut rng = TestRng::new(13);
        let strat = (2usize..6)
            .prop_flat_map(|n| proptest::collection::vec(0usize..n, n).prop_map(move |v| (n, v)));
        for _ in 0..100 {
            let (n, v) = Strategy::sample(&strat, &mut rng);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x < n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro wires arguments, assertions and config together.
        #[test]
        fn macro_end_to_end(x in 0usize..100, pair in (0u8..4, 1u32..10)) {
            prop_assert!(x < 100);
            prop_assert_eq!((pair.0 as u32) / 4, 0);
            prop_assert_ne!(pair.1, 0);
        }

        /// Assumptions reject without failing.
        #[test]
        fn assume_rejects(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed")]
    fn failing_property_panics_with_inputs() {
        // No `#[test]` on the inner property: test attributes on items
        // nested inside a function are unnameable, we call it by hand.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(x in 0usize..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
