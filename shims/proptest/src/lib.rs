//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach crates.io, so this crate vendors the
//! slice of proptest's API that the ARCS test suite uses: the
//! [`proptest!`] macro, [`prop_assert!`]/[`prop_assert_eq!`], range and
//! tuple strategies, [`collection::vec`], [`strategy::Just`],
//! `any::<T>()`, a small character-class regex string strategy, and
//! `prop_map`/`prop_flat_map` combinators.
//!
//! Differences from real proptest, deliberate for an offline shim:
//!
//! * **No shrinking.** A failing case reports the exact generated input
//!   (all strategy values are `Debug`) but is not minimised.
//! * **No persistence.** `*.proptest-regressions` files are ignored;
//!   generation is deterministic per test (a fixed base seed), so every
//!   run explores the same cases and failures reproduce immediately.
//! * **Regex strategies** support character classes with ranges and
//!   escapes, literals, and the `{m,n}` / `{n}` / `*` / `+` / `?`
//!   repetitions — enough for test-suite identifier fuzzing, not a full
//!   regex engine.

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Collection strategies.

    use crate::strategy::{SizeRange, Strategy, VecStrategy};

    /// Strategy for a `Vec` whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        let size = size.into();
        VecStrategy { element, size }
    }
}

pub mod arbitrary {
    //! The [`Arbitrary`] trait and `any`.

    use crate::strategy::Strategy;

    /// Types with a canonical strategy over their whole value space.
    pub trait Arbitrary: Sized + std::fmt::Debug {
        /// The canonical strategy type.
        type Strategy: Strategy<Value = Self>;
        /// The canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// The canonical strategy for `A` (e.g. `any::<bool>()`).
    pub fn any<A: Arbitrary>() -> A::Strategy {
        A::arbitrary()
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                type Strategy = std::ops::RangeInclusive<$t>;
                fn arbitrary() -> Self::Strategy {
                    <$t>::MIN..=<$t>::MAX
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

    impl Arbitrary for bool {
        type Strategy = crate::strategy::AnyBool;
        fn arbitrary() -> Self::Strategy {
            crate::strategy::AnyBool
        }
    }
}

pub mod prelude {
    //! Everything a `proptest!` test module needs in scope.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    /// Re-export under the name the real crate uses in `prelude`.
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::{TestCaseError, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body across generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let strategy = ($($strat,)+);
            let mut runner = $crate::test_runner::TestRunner::new(config);
            let result = runner.run(&strategy, |($($arg,)+)| {
                $body
                ::core::result::Result::Ok(())
            });
            if let ::core::result::Result::Err(message) = result {
                ::core::panic!("{}", message);
            }
        }
    )*};
}

/// Asserts a condition inside a property test, failing the case (with
/// the generated inputs reported) instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)*);
    }};
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left != *right, $($fmt)*);
    }};
}
