//! The case runner behind the [`crate::proptest!`] macro.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::strategy::Strategy;

/// Runner configuration (`ProptestConfig` in the prelude).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Base RNG seed; cases are generated from one stream starting here.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: 128, seed: 0x4152_4353 }
    }
}

impl Config {
    /// A config running `cases` cases (the usual entry point:
    /// `ProptestConfig::with_cases(64)`).
    pub fn with_cases(cases: u32) -> Self {
        Config { cases, ..Config::default() }
    }
}

/// RNG handle passed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    pub(crate) rng: StdRng,
}

impl TestRng {
    /// A deterministic generator for the given seed.
    pub fn seeded(seed: u64) -> Self {
        TestRng { rng: StdRng::seed_from_u64(seed) }
    }
}

/// A failed test case (produced by `prop_assert!`).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError { message: message.into() }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Generates inputs and applies the test closure to each.
#[derive(Debug, Clone)]
pub struct TestRunner {
    config: Config,
}

impl TestRunner {
    /// A runner with the given configuration.
    pub fn new(config: Config) -> Self {
        TestRunner { config }
    }

    /// Runs `test` against `config.cases` generated inputs. Returns the
    /// first failure (assertion or panic) with the offending input
    /// rendered via `Debug`; no shrinking is attempted.
    pub fn run<S, F>(&mut self, strategy: &S, test: F) -> Result<(), String>
    where
        S: Strategy,
        F: Fn(S::Value) -> Result<(), TestCaseError>,
    {
        let mut rng = TestRng::seeded(self.config.seed);
        for case in 0..self.config.cases {
            let value = strategy.new_value(&mut rng);
            let rendered = format!("{value:?}");
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| test(value)));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(err)) => {
                    return Err(format!(
                        "proptest case {}/{} failed: {}\ninput: {}",
                        case + 1,
                        self.config.cases,
                        err,
                        rendered
                    ));
                }
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(ToString::to_string)
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic".to_string());
                    return Err(format!(
                        "proptest case {}/{} panicked: {}\ninput: {}",
                        case + 1,
                        self.config.cases,
                        msg,
                        rendered
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut runner = TestRunner::new(Config::with_cases(50));
        let mut seen = 0;
        let counter = std::cell::Cell::new(0u32);
        runner
            .run(&(0usize..100), |v| {
                counter.set(counter.get() + 1);
                if v < 100 {
                    Ok(())
                } else {
                    Err(TestCaseError::fail("out of range"))
                }
            })
            .unwrap();
        seen += counter.get();
        assert_eq!(seen, 50);
    }

    #[test]
    fn failing_property_reports_input() {
        let mut runner = TestRunner::new(Config::with_cases(200));
        let err = runner
            .run(&(0usize..100), |v| {
                if v < 90 {
                    Ok(())
                } else {
                    Err(TestCaseError::fail(format!("{v} too big")))
                }
            })
            .unwrap_err();
        assert!(err.contains("too big"), "{err}");
        assert!(err.contains("input:"), "{err}");
    }

    #[test]
    fn panicking_property_is_caught() {
        let mut runner = TestRunner::new(Config::with_cases(10));
        let err = runner
            .run(&(0usize..100), |_| -> Result<(), TestCaseError> {
                panic!("boom");
            })
            .unwrap_err();
        assert!(err.contains("boom"), "{err}");
        assert!(err.contains("panicked"), "{err}");
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = |seed| {
            let mut runner = TestRunner::new(Config { cases: 20, seed });
            let values = std::cell::RefCell::new(Vec::new());
            runner
                .run(&(0u64..1_000_000), |v| {
                    values.borrow_mut().push(v);
                    Ok(())
                })
                .unwrap();
            values.into_inner()
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }
}
