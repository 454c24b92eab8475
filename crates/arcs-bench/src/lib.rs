//! # arcs-bench
//!
//! The evaluation harness for the ARCS reproduction: shared workload
//! runners and table formatting used by the per-figure binaries (one per
//! table/figure of the paper, see `src/bin/`) and the Criterion
//! micro-benchmarks (see `benches/`).
//!
//! It also holds the alternatives the paper weighs against ARCS, which
//! only the experiments run: the §5 threshold searches ([`anneal`],
//! [`factorial`]), §5's clusters over more than two attributes
//! ([`multidim`]), and §1.1's connected-components baseline with an
//! exact-cover oracle ([`cover`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod anneal;
pub mod cover;
pub mod factorial;
pub mod multidim;

use std::time::{Duration, Instant};

use arcs_classifier::{DecisionTree, RuleSet, RulesConfig, TreeConfig};
use arcs_core::verify::verify_tuples;
use arcs_core::{Arcs, ArcsConfig, Binner, SegmentRequest, Segmentation};
use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};
use arcs_data::schema::{Attribute, Schema};
use arcs_data::{Dataset, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The tuple counts of the paper's Figures 11–14 sweeps (in thousands:
/// 20, 50, 100, 200, 500, 1000).
pub const FIG11_SIZES: [usize; 6] = [20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000];

/// The tuple counts of the paper's Figure 15 scale-up run (100k → 10M).
pub const FIG15_SIZES: [usize; 6] =
    [100_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000, 10_000_000];

/// Held-out test-set size used for error measurements.
pub const TEST_SIZE: usize = 10_000;

/// Result of one ARCS run.
#[derive(Debug, Clone)]
pub struct ArcsRun {
    /// The segmentation produced.
    pub segmentation: Segmentation,
    /// Error rate on held-out data.
    pub test_error: f64,
    /// Wall-clock time for binning + optimization (excludes generation).
    pub elapsed: Duration,
}

/// Result of one C4.5 run (tree + extracted rules).
#[derive(Debug, Clone)]
pub struct C45Run {
    /// Tree test error rate.
    pub tree_error: f64,
    /// Rule-set test error rate.
    pub rules_error: f64,
    /// Number of leaves in the pruned tree.
    pub n_leaves: usize,
    /// Number of extracted rules.
    pub n_rules: usize,
    /// Tree training time.
    pub tree_time: Duration,
    /// Rule extraction time (on top of training).
    pub rules_time: Duration,
}

/// Generates the paper's Function 2 workload: `n` training tuples plus a
/// held-out test set, with outlier fraction `u`.
pub fn workload(n: usize, u: f64, seed: u64) -> (Dataset, Dataset) {
    let config = GeneratorConfig { outlier_fraction: u, ..GeneratorConfig::paper_defaults(seed) };
    let mut gen = AgrawalGenerator::new(config).expect("paper defaults are valid");
    let train = gen.generate(n);
    let test = gen.generate(TEST_SIZE);
    (train, test)
}

/// The §5 multi-attribute workload: `a`, `b` and `c` uniform on
/// `[0, 10)`, and a criterion `g` whose group `X` is dense (95%) in the
/// cube `[2, 5)³` and sparse (2%) elsewhere.
pub fn cube_workload(n: usize, seed: u64) -> Dataset {
    let schema = Schema::new(vec![
        Attribute::quantitative("a", 0.0, 10.0),
        Attribute::quantitative("b", 0.0, 10.0),
        Attribute::quantitative("c", 0.0, 10.0),
        Attribute::categorical("g", ["X", "other"]),
    ])
    .expect("valid schema");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(schema);
    for _ in 0..n {
        let a = rng.gen_range(0.0..10.0);
        let b = rng.gen_range(0.0..10.0);
        let c = rng.gen_range(0.0..10.0);
        let in_box = (2.0..5.0).contains(&a) && (2.0..5.0).contains(&b) && (2.0..5.0).contains(&c);
        let p_x = if in_box { 0.95 } else { 0.02 };
        let g = if rng.gen_bool(p_x) { 0 } else { 1 };
        ds.push(vec![Value::Quant(a), Value::Quant(b), Value::Quant(c), Value::Cat(g)])
            .expect("tuple conforms");
    }
    ds
}

/// Runs ARCS end to end on `train` and measures error on `test`.
pub fn run_arcs(train: &Dataset, test: &Dataset, config: ArcsConfig) -> ArcsRun {
    let start = Instant::now();
    let arcs = Arcs::new(config).expect("valid config");
    let segmentation = arcs
        .open(train, SegmentRequest::new("age", "salary", "group").group("A"))
        .and_then(|mut s| s.segment())
        .expect("segmentation succeeds on the paper workload");
    let elapsed = start.elapsed();

    let binner = Binner::equi_width(
        train.schema(),
        "age",
        "salary",
        "group",
        arcs.config().n_x_bins,
        arcs.config().n_y_bins,
    )
    .expect("schema attributes exist");
    let errors = verify_tuples(&segmentation.clusters, &binner, test.iter(), 0);
    ArcsRun { segmentation, test_error: errors.rate(), elapsed }
}

/// Trains the C4.5-style tree and extracts rules, measuring both.
pub fn run_c45(train: &Dataset, test: &Dataset) -> C45Run {
    let t0 = Instant::now();
    let tree =
        DecisionTree::train(train, "group", TreeConfig::default()).expect("training succeeds");
    let tree_time = t0.elapsed();

    let t0 = Instant::now();
    let rules =
        RuleSet::from_tree(&tree, train, RulesConfig::default()).expect("rule extraction succeeds");
    let rules_time = t0.elapsed();

    C45Run {
        tree_error: tree.error_rate(test),
        rules_error: rules.error_rate(test),
        n_leaves: tree.n_leaves(),
        n_rules: rules.len(),
        tree_time,
        rules_time,
    }
}

/// Formats a duration as seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// A minimal fixed-width text table writer for the harness output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table with right-aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (for downstream plotting).
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Parses a `--flag value` style argument from `std::env::args`, returning
/// `default` when absent.
pub fn arg_or<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether a bare `--flag` is present.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["n", "error"]);
        t.row(["100", "0.05"]);
        t.row(["100000", "0.042"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('n') && lines[0].contains("error"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].ends_with("0.05"));
    }

    #[test]
    fn table_csv() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn workload_shapes() {
        let (train, test) = workload(500, 0.10, 1);
        assert_eq!(train.len(), 500);
        assert_eq!(test.len(), TEST_SIZE);
        assert_eq!(train.schema(), test.schema());
    }

    #[test]
    fn end_to_end_small_run() {
        let (train, test) = workload(5_000, 0.0, 2);
        let run = run_arcs(&train, &test, ArcsConfig::default());
        assert!(!run.segmentation.rules.is_empty());
        assert!(run.test_error < 0.25, "error {}", run.test_error);

        let c45 = run_c45(&train, &test);
        assert!(c45.n_rules > 0);
        assert!(c45.tree_error < 0.30);
        assert!(c45.rules_error < 0.30);
    }
}
