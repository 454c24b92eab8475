//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build container cannot reach crates.io, so this crate implements
//! the slice of criterion's API the ARCS benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`,
//! `Throughput`, `BenchmarkId`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros — on top of
//! `std::time::Instant`.
//!
//! Measurement model: each benchmark is warmed up briefly, then timed
//! over `sample_size` samples; the mean, min, and throughput (when
//! declared) are printed. No statistical analysis, plots, or baseline
//! comparison — numbers are indicative, which is all an offline
//! container can promise anyway.

use std::time::{Duration, Instant};

/// Opaque value barrier (re-export of `std::hint::black_box`).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Work-per-iteration declaration used to derive throughput numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark's identifier within a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A function name plus parameter value.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{}", name.into(), parameter) }
    }

    /// A parameter-only id (the group name supplies the function part).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

/// Passed to benchmark closures; runs and times the measured routine.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    timings: Vec<Duration>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher { samples, timings: Vec::with_capacity(samples) }
    }

    /// Times `routine` over the configured number of samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Brief warm-up so first-touch effects don't dominate.
        black_box(routine());
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.timings.push(start.elapsed());
        }
    }

    fn report(&self, id: &str, throughput: Option<Throughput>) {
        if self.timings.is_empty() {
            println!("{id:<40} (no samples)");
            return;
        }
        let total: Duration = self.timings.iter().sum();
        let mean = total / self.timings.len() as u32;
        let min = self.timings.iter().min().expect("non-empty");
        let rate = throughput
            .map(|t| {
                let per_sec = |units: u64| units as f64 / mean.as_secs_f64();
                match t {
                    Throughput::Elements(n) => format!("  {:>12.0} elem/s", per_sec(n)),
                    Throughput::Bytes(n) => format!("  {:>12.0} B/s", per_sec(n)),
                }
            })
            .unwrap_or_default();
        println!("{id:<40} mean {mean:>12.3?}  min {min:>12.3?}{rate}");
    }
}

/// The top-level harness handle.
#[derive(Debug, Clone)]
pub struct Criterion {
    default_samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { default_samples: 10 }
    }
}

impl Criterion {
    /// Benchmarks a single function.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(id, self.default_samples, None, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let samples = self.default_samples;
        BenchmarkGroup { _parent: self, name: name.into(), samples, throughput: None }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    id: &str,
    samples: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let mut bencher = Bencher::new(samples);
    f(&mut bencher);
    bencher.report(id, throughput);
}

/// A group of benchmarks sharing a name prefix and settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.samples = n;
        self
    }

    /// Declares per-iteration work for throughput reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmarks `f` with a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        run_one(&full, self.samples, self.throughput, |b| f(b, input));
        self
    }

    /// Benchmarks a closure within the group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        run_one(&full, self.samples, self.throughput, f);
        self
    }

    /// Ends the group (reports are already printed as benches run).
    pub fn finish(self) {}
}

/// Declares a group function that runs each target benchmark.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_counts() {
        let mut c = Criterion::default();
        let runs = std::cell::Cell::new(0usize);
        c.bench_function("smoke", |b| {
            b.iter(|| runs.set(runs.get() + 1));
        });
        // default_samples timed runs + 1 warm-up.
        assert_eq!(runs.get(), 11);
    }

    #[test]
    fn group_respects_sample_size_and_throughput() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        group.throughput(Throughput::Elements(100));
        let runs = std::cell::Cell::new(0usize);
        group.bench_with_input(BenchmarkId::from_parameter(7), &7usize, |b, &x| {
            b.iter(|| runs.set(runs.get() + x));
        });
        group.finish();
        assert_eq!(runs.get(), 4 * 7);
    }

    #[test]
    fn ids_format_as_expected() {
        assert_eq!(BenchmarkId::new("f", 32).id, "f/32");
        assert_eq!(BenchmarkId::from_parameter("x").id, "x");
    }

    #[test]
    fn black_box_is_identity() {
        assert_eq!(black_box(42), 42);
    }
}
