//! # proptest (workspace shim)
//!
//! A self-contained, dependency-free stand-in for the parts of the real
//! `proptest` crate this workspace uses. The build environment has no
//! network access and no vendored registry, so the property tests run on
//! this shim instead: same `proptest!` / `Strategy` / `prop_oneof!` API,
//! deterministic xorshift generation (seeded per test name), no shrinking.
//!
//! Determinism is a feature here, not a limitation: the batch-engine
//! determinism tests require `cargo test` to behave identically across
//! runs and machines.

use std::sync::Arc;

/// Deterministic xorshift64* generator.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeded constructor (`seed` is mixed so 0 is fine).
    pub fn new(seed: u64) -> Self {
        TestRng(seed ^ 0x9E37_79B9_7F4A_7C15 | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, n)` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// FNV-1a of a string, used to derive per-test seeds.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A failed property-test case.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Build from any message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Result type property-test bodies evaluate to.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration (`cases` is the only knob the workspace uses;
/// `max_shrink_iters` exists for API compatibility with call sites written
/// against the real crate and is ignored by this shim's runner).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
    /// Accepted, ignored (the shim does not shrink).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// Object-safe generation trait behind [`BoxedStrategy`].
trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Arc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T: 'static> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

/// A value generator. Unlike real proptest there is no shrinking; a
/// strategy is just a deterministic function of the RNG stream.
pub trait Strategy: Clone {
    /// Generated value type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Value) -> U + Clone,
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Recursive strategies: `self` is the leaf; `recurse` builds one level
    /// on top of an inner strategy. `depth` bounds the nesting; the size
    /// hints of the real API are accepted and ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            let deeper = recurse(cur).boxed();
            cur = Union {
                arms: vec![leaf.clone(), deeper],
            }
            .boxed();
        }
        cur
    }

    /// Type-erase.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U + Clone,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between boxed arms (built by `prop_oneof!`).
pub struct Union<T> {
    /// the alternatives
    pub arms: Vec<BoxedStrategy<T>>,
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
        }
    }
}

impl<T: 'static> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let k = rng.below(self.arms.len() as u64) as usize;
        self.arms[k].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as i128;
                let hi = self.end as i128;
                let span = (hi - lo).max(1) as u64;
                (lo + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, usize);

macro_rules! tuple_strategy {
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

tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + Clone + 'static {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arb_int!(i8, i16, i32, i64, u8, u16, u32, u64);

/// Strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the full domain of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// `vec(element, len_range)` as in real proptest.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a test file needs.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union { arms: vec![$($crate::Strategy::boxed($arm)),+] }
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}", l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), l, r
            )));
        }
    }};
}

#[doc(hidden)]
pub fn __run_case<F: FnOnce() -> TestCaseResult>(
    test_name: &str,
    case: u32,
    args_desc: &str,
    body: F,
) {
    if let Err(e) = body() {
        panic!("proptest {test_name} failed at case {case}:\n{e}\nargs: {args_desc}");
    }
}

/// The property-test harness macro. Supports the subset used here: an
/// optional `#![proptest_config(..)]` header followed by `#[test]` fns
/// (optionally `#[ignore]`d, for long runs selected with `--ignored`) with
/// `name in strategy` bindings and a `Result`-free body.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[doc = $doc:expr])*
            #[test]
            $(#[$ignore:ident])?
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[doc = $doc])*
            #[test]
            $(#[$ignore])?
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::new($crate::fnv1a(concat!(
                    module_path!(), "::", stringify!($name)
                )));
                for case in 0..cfg.cases {
                    $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)+
                    let desc = format!(concat!($(stringify!($arg), " = {:?} ",)+), $(&$arg),+);
                    $crate::__run_case(stringify!($name), case, &desc, move || {
                        $body
                        Ok(())
                    });
                }
            }
        )*
    };
    (
        $(
            $(#[doc = $doc:expr])*
            #[test]
            $(#[$ignore:ident])?
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[doc = $doc])*
                #[test]
                $(#[$ignore])?
                fn $name($($arg in $strat),+) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(7);
        for _ in 0..1000 {
            let v = (-50i64..50).generate(&mut rng);
            assert!((-50..50).contains(&v));
            let u = (0u8..4).generate(&mut rng);
            assert!(u < 4);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = crate::TestRng::new(42);
        let mut b = crate::TestRng::new(42);
        let s = crate::collection::vec(0i32..100, 1..8);
        for _ in 0..100 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn macro_roundtrip(xs in crate::collection::vec(0i64..10, 1..5), flip in any::<bool>()) {
            prop_assert!(!xs.is_empty());
            prop_assert_eq!(xs.len(), xs.len());
            if flip { return Ok(()); }
        }
    }
}
