//! The workspace's property-test harness, under the dependency name
//! `proptest` so the `proptest!` files keep their syntax.
//!
//! It is not the published crate: it covers what the tree's tests use
//! (the macro, [`Strategy`] for ranges, tuples, [`collection`],
//! [`any`]`::<bool | u64>`, `prop_map`, `prop_flat_map`, the
//! `prop_assert*` and `prop_assume` macros and
//! [`ProptestConfig::with_cases`]) and does **not shrink**. What it
//! gives instead is replay: the cases of a test are a pure function of
//! its path, so two runs of one binary try identical inputs, and a
//! failure names the seed of its case — [`replay`] with that seed
//! regenerates the same counter-example.

use plb_rng::{ChaCha8Rng, SampleRange};
use std::fmt::{self, Debug};
use std::marker::PhantomData;
use std::ops::Range;

/// Why one case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// `prop_assume!` turned the input away; it counts for nothing.
    Reject,
    /// A `prop_assert*` did not hold.
    Fail(String),
}

/// How many cases a property runs.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Cases that must pass (rejected inputs are not counted).
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig::with_cases(256)
    }
}

/// Rejected inputs a property may draw before it is declared vacuous.
const MAX_REJECTS: u32 = 1024;

/// A recipe for random values of one type.
pub trait Strategy {
    /// What the strategy generates.
    type Value: Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut ChaCha8Rng) -> Self::Value;

    /// The strategy of `f(value)`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }

    /// The strategy that draws a value, then draws from the strategy
    /// `f` builds out of it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { source: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut ChaCha8Rng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut ChaCha8Rng) -> T::Value {
        (self.f)(self.source.generate(rng)).generate(rng)
    }
}

/// `a..b` draws uniformly from the range, for every type the generator
/// samples.
impl<T: Debug + Clone> Strategy for Range<T>
where
    Range<T>: SampleRange<T>,
{
    type Value = T;
    fn generate(&self, rng: &mut ChaCha8Rng) -> T {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut ChaCha8Rng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// See [`any`].
pub struct Any<T>(PhantomData<T>);

/// Any value of `T` (`bool` and `u64`), all equally likely.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut ChaCha8Rng) -> bool {
        rng.next_u32() & 1 == 1
    }
}

impl Strategy for Any<u64> {
    type Value = u64;
    fn generate(&self, rng: &mut ChaCha8Rng) -> u64 {
        rng.next_u64()
    }
}

/// Strategies for collections.
pub mod collection {
    use super::*;
    use std::collections::BTreeSet;

    /// A collection length: exactly `n`, or uniform in `a..b`.
    #[derive(Debug, Clone)]
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange(r)
        }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` of `element`s whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut ChaCha8Rng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.0.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `BTreeSet` of distinct `element`s whose size is drawn from
    /// `size`; `element` must have that many distinct values.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut ChaCha8Rng) -> BTreeSet<S::Value> {
            let len = rng.gen_range(self.size.0.clone());
            let mut set = BTreeSet::new();
            while set.len() < len {
                set.insert(self.element.generate(rng));
            }
            set
        }
    }
}

/// A property that did not hold, with what replays it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Seed of the failing case; [`replay`] takes it.
    pub seed: u64,
    /// The assertion's message.
    pub message: String,
    /// `Debug` text of the generated input.
    pub input: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\n  case seed: {:#018x} (proptest::replay regenerates this input)\n  input: {}",
            self.message, self.seed, self.input
        )
    }
}

/// Names the running case if the test body panics instead of returning
/// a [`TestCaseError`] (a plain `assert!`, an `unwrap`).
struct NameSeedOnPanic(u64);

impl Drop for NameSeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("proptest: panicked in the case with seed {:#018x}", self.0);
        }
    }
}

/// Run the one case `seed` names: `Ok(true)` passed, `Ok(false)`
/// rejected by `prop_assume!`.
fn run_case<S: Strategy>(
    seed: u64,
    strategy: &S,
    test: &impl Fn(S::Value) -> Result<(), TestCaseError>,
) -> Result<bool, Failure> {
    let input = strategy.generate(&mut ChaCha8Rng::seed_from_u64(seed));
    let guard = NameSeedOnPanic(seed);
    let outcome = test(input);
    drop(guard);
    match outcome {
        Ok(()) => Ok(true),
        Err(TestCaseError::Reject) => Ok(false),
        Err(TestCaseError::Fail(message)) => Err(Failure {
            seed,
            message,
            // The test consumed its input; the seed gives it back.
            input: format!(
                "{:?}",
                strategy.generate(&mut ChaCha8Rng::seed_from_u64(seed))
            ),
        }),
    }
}

/// Check `test` on `config.cases` inputs drawn from `strategy`. The
/// case seeds are the stream of the generator seeded with the FNV-1a
/// hash of `path`, so they depend on nothing but the test's name.
pub fn check<S: Strategy>(
    path: &str,
    config: &ProptestConfig,
    strategy: &S,
    test: impl Fn(S::Value) -> Result<(), TestCaseError>,
) -> Result<(), Failure> {
    let hash = path.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut seeds = ChaCha8Rng::seed_from_u64(hash);
    let (mut passed, mut rejected) = (0, 0);
    while passed < config.cases {
        if run_case(seeds.next_u64(), strategy, &test)? {
            passed += 1;
        } else {
            rejected += 1;
            assert!(
                rejected <= MAX_REJECTS,
                "{path}: prop_assume! rejected {rejected} inputs against {passed} accepted"
            );
        }
    }
    Ok(())
}

/// Run `test` on the input the case seed `seed` generates — the seed a
/// [`Failure`] printed. A rejected input passes.
pub fn replay<S: Strategy>(
    seed: u64,
    strategy: &S,
    test: impl Fn(S::Value) -> Result<(), TestCaseError>,
) -> Result<(), Failure> {
    run_case(seed, strategy, &test).map(|_| ())
}

/// Define `#[test]` functions whose arguments are drawn from
/// strategies: `fn name(a in 0u64..10, v in collection::vec(..)) { .. }`,
/// optionally after `#![proptest_config(ProptestConfig::with_cases(n))]`.
#[macro_export]
macro_rules! proptest {
    (@tests ($config:expr)
        $($(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block)*
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let outcome = $crate::check(
                concat!(module_path!(), "::", stringify!($name)),
                &$config,
                &($($strategy,)+),
                |($($arg,)+)| {
                    let _: () = $body;
                    Ok(())
                },
            );
            if let Err(failure) = outcome {
                panic!("{failure}");
            }
        }
    )*};
    (#![proptest_config($config:expr)] $($tests:tt)*) => {
        $crate::proptest!(@tests ($config) $($tests)*);
    };
    ($(#[$meta:meta])* fn $($tests:tt)*) => {
        $crate::proptest!(@tests ($crate::ProptestConfig::default()) $(#[$meta])* fn $($tests)*);
    };
}

/// Fail the case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fail the case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "assertion failed: `left == right`")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "{}\n  left: {:?}\n right: {:?}",
            format_args!($($fmt)+),
            left,
            right
        );
    }};
}

/// Turn the input away without counting it as a case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// The usual glob import.
pub mod prelude {
    pub use crate::{any, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::cell::{Cell, RefCell};

    /// False from 500 up, so most cases pass and some case must not.
    fn below_500(x: u64) -> Result<(), TestCaseError> {
        prop_assert!(x < 500, "{x} is not below 500");
        Ok(())
    }

    #[test]
    fn a_false_property_fails_naming_a_seed_that_replays_the_counter_example() {
        let strategy = (0u64..1_000,);
        let failure = check(
            "tests::false",
            &ProptestConfig::default(),
            &strategy,
            |(x,)| below_500(x),
        )
        .expect_err("about half the inputs falsify it");
        let x: u64 = strategy
            .generate(&mut ChaCha8Rng::seed_from_u64(failure.seed))
            .0;
        assert!(x >= 500);
        assert_eq!(failure.message, format!("{x} is not below 500"));
        assert_eq!(failure.input, format!("({x},)"));
        let shown = failure.to_string();
        assert!(
            shown.contains(&format!("{:#018x}", failure.seed)),
            "{shown}"
        );
        // The seed alone gives the counter-example back.
        let replayed = replay(failure.seed, &strategy, |(x,)| below_500(x));
        assert_eq!(replayed, Err(failure));
    }

    #[test]
    fn with_cases_runs_that_many_cases() {
        for n in [1, 7, 300] {
            let ran = Cell::new(0);
            let outcome = check(
                "tests::count",
                &ProptestConfig::with_cases(n),
                &(0u8..9,),
                |_| {
                    ran.set(ran.get() + 1);
                    Ok(())
                },
            );
            assert_eq!((outcome, ran.get()), (Ok(()), n));
        }
    }

    #[test]
    fn rejected_inputs_do_not_count_as_cases() {
        let (accepted, drawn) = (Cell::new(0), Cell::new(0));
        let outcome = check(
            "tests::assume",
            &ProptestConfig::with_cases(50),
            &(0u32..4,),
            |(x,)| {
                drawn.set(drawn.get() + 1);
                prop_assume!(x != 0);
                accepted.set(accepted.get() + 1);
                Ok(())
            },
        );
        assert_eq!((outcome, accepted.get()), (Ok(()), 50));
        assert!(drawn.get() > 50, "a quarter of the draws are turned away");
    }

    #[test]
    fn two_runs_generate_identical_cases_and_the_path_tells_tests_apart() {
        let strategy = (
            collection::vec((0usize..2, -1.0f64..1.0), 1..24),
            any::<bool>(),
            any::<u64>(),
            (2usize..6).prop_flat_map(|k| collection::vec(0u8..4, k)),
            collection::btree_set(1u32..100_000, 3..12),
        );
        let cases_of = |path| {
            let seen = RefCell::new(Vec::new());
            let outcome = check(path, &ProptestConfig::with_cases(32), &strategy, |case| {
                seen.borrow_mut().push(format!("{case:?}"));
                Ok(())
            });
            assert_eq!(outcome, Ok(()));
            seen.into_inner()
        };
        assert_eq!(cases_of("tests::a"), cases_of("tests::a"));
        assert_ne!(cases_of("tests::a"), cases_of("tests::b"));
        // And across processes: the cases are a function of the path,
        // so they can be written down.
        let seen = RefCell::new(Vec::new());
        let pinned = (0u64..1_000, any::<bool>());
        check(
            "tests::pinned",
            &ProptestConfig::with_cases(4),
            &pinned,
            |case| {
                seen.borrow_mut().push(case);
                Ok(())
            },
        )
        .expect("nothing asserted");
        assert_eq!(seen.into_inner(), PINNED);
    }

    const PINNED: [(u64, bool); 4] = [(923, true), (161, false), (701, true), (824, true)];

    #[test]
    fn strategies_stay_inside_their_domains() {
        let strategy = (
            collection::vec(0u64..50, 2..200),
            collection::vec(1.0f64..1.1, 6),
            collection::btree_set(1u32..20, 3..12),
            (1usize..5).prop_map(|n| n * 2),
        );
        let outcome = check(
            "tests::domains",
            &ProptestConfig::default(),
            &strategy,
            |case| {
                let (costs, six, set, even) = case;
                prop_assert!((2..200).contains(&costs.len()) && costs.iter().all(|&c| c < 50));
                prop_assert_eq!(six.len(), 6);
                prop_assert!(six.iter().all(|v| (1.0..1.1).contains(v)));
                prop_assert!(
                    (3..12).contains(&set.len()) && set.iter().all(|v| (1..20).contains(v))
                );
                prop_assert!(even % 2 == 0 && (2..10).contains(&even), "even = {}", even);
                Ok(())
            },
        );
        assert_eq!(outcome, Ok(()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: a doc comment, a tuple pattern, a trailing
        /// comma, and `prop_assert_eq!` with a message.
        #[test]
        fn the_macro_feeds_every_argument(
            (a, b) in (0u32..10, 10u32..20),
            flag in any::<bool>(),
        ) {
            prop_assert!(a < b);
            prop_assert_eq!(u32::from(flag) * a, if flag { a } else { 0 }, "flag {}", flag);
        }
    }

    proptest! {
        #[test]
        #[should_panic(expected = "case seed: 0x")]
        fn a_failing_macro_test_panics_with_the_case_seed(x in 0u64..1_000) {
            prop_assert!(x < 500);
        }
    }
}
