//! Categorical-LHS study (paper §5): density ordering vs natural code
//! order.
//!
//! The paper's extension handles one categorical LHS attribute by
//! considering "only those subsets of the categorical attribute that yield
//! the densest clusters". This experiment quantifies why the ordering
//! matters: with hot categories scattered across the code space, clustering
//! in natural order fragments the region; density ordering packs the hot
//! categories into adjacent columns and recovers one cluster.
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin exp_categorical [-- --seed 42]
//! ```

use arcs_bench::{arg_or, Table};
use arcs_core::categorical::{segment_categorical, CategoricalConfig};
use arcs_core::optimizer::OptimizerConfig;
use arcs_core::smooth::SmoothConfig;
use arcs_core::verify::ErrorCounts;
use arcs_core::{Arcs, ArcsConfig, SegmentRequest};
use arcs_data::schema::{Attribute, Schema};
use arcs_data::{Dataset, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 12 zipcodes; group A concentrates in four *non-adjacent* zips at
/// salaries [30, 60).
fn dataset(seed: u64) -> (Dataset, Vec<u32>) {
    let hot = vec![1u32, 4, 7, 10];
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::new(vec![
        Attribute::categorical("zip", (0..12).map(|i| format!("z{i}")).collect::<Vec<_>>()),
        Attribute::quantitative("salary", 0.0, 100.0),
        Attribute::categorical("g", ["A", "other"]),
    ])
    .expect("valid schema");
    let mut ds = Dataset::new(schema);
    for _ in 0..40_000 {
        let zip = rng.gen_range(0..12u32);
        let salary: f64 = rng.gen_range(0.0..100.0);
        let in_pocket = hot.contains(&zip) && (30.0..60.0).contains(&salary);
        let p_a = if in_pocket { 0.9 } else { 0.03 };
        let g = u32::from(!rng.gen_bool(p_a));
        ds.push(&[Value::Cat(zip), Value::Quant(salary), Value::Cat(g)]).expect("tuple conforms");
    }
    (ds, hot)
}

/// The same tuples with each zip read as its code on a quantitative
/// `[0, 12)` axis: at 12 equi-width bins a zip's bin is its code, so the
/// session's array is the grid in natural code order.
fn natural_order(ds: &Dataset) -> Dataset {
    let schema = Schema::new(vec![
        Attribute::quantitative("zip", 0.0, 12.0),
        Attribute::quantitative("salary", 0.0, 100.0),
        Attribute::categorical("g", ["A", "other"]),
    ])
    .expect("valid schema");
    let mut out = Dataset::with_capacity(schema, ds.len());
    let kind = "the tuples' schema";
    let (zips, salaries, groups) =
        (ds.cat(0).expect(kind), ds.quant(1).expect(kind), ds.cat(2).expect(kind));
    for ((&zip, &salary), &g) in zips.iter().zip(salaries).zip(groups) {
        out.push(&[Value::Quant(zip as f64), Value::Quant(salary), Value::Cat(g)])
            .expect("tuple conforms");
    }
    out
}

/// One table row: the variant, its verification errors and its rules.
type Row = (&'static str, ErrorCounts, Vec<String>);

/// Segments group A of the natural-order tuples through the public
/// session: its own threshold search on its own 12 x 20 grid.
fn natural_row(variant: &'static str, ds: &Dataset, smoothing: SmoothConfig) -> Row {
    let optimizer = OptimizerConfig { smoothing, ..OptimizerConfig::default() };
    let config = ArcsConfig { n_x_bins: 12, n_y_bins: 20, optimizer, ..ArcsConfig::default() };
    let seg = Arcs::new(config)
        .and_then(|arcs| arcs.open(ds, SegmentRequest::new("zip", "salary", "g").group("A")))
        .and_then(|mut session| session.segment())
        .expect("natural-order segmentation succeeds");
    (variant, seg.errors, seg.rules.iter().map(ToString::to_string).collect())
}

fn main() {
    let seed: u64 = arg_or("--seed", 42);
    let (ds, hot) = dataset(seed);
    println!(
        "== §5 categorical LHS: group A lives in non-adjacent zips {hot:?}, salary [30, 60) ==\n"
    );

    let config = CategoricalConfig { n_quant_bins: 20, optimizer: OptimizerConfig::default() };

    // Density-ordered (the extension).
    let seg = segment_categorical(&ds, "zip", "salary", "g", "A", &config)
        .expect("categorical segmentation succeeds");

    // Natural order baseline: the zip codes binned as they are, each row
    // searching its own grid, with and without smoothing.
    let natural = natural_order(&ds);
    let rows: [Row; 3] = [
        (
            "density order (ARCS §5)",
            seg.errors,
            seg.rules.iter().map(ToString::to_string).collect(),
        ),
        natural_row("natural order + smoothing", &natural, SmoothConfig::default()),
        natural_row("natural order, no smoothing", &natural, SmoothConfig::disabled()),
    ];

    let mut table = Table::new(["variant", "clusters", "group recall"]);
    for (variant, errors, rules) in &rows {
        table.row([
            variant.to_string(),
            rules.len().to_string(),
            format!("{:.0}%", errors.recall() * 100.0),
        ]);
    }
    println!("{}", table.render());
    for (variant, _, rules) in &rows {
        println!("{variant} rules:");
        for rule in rules {
            println!("  {rule}");
        }
    }
    println!();
    println!(
        "shape to check: density ordering packs the four hot zips into \
         adjacent columns -> one cluster, one readable rule. Natural order, \
         searched on its own grid, needs one rectangle per scattered hot zip \
         for the same recall (no smoothing); with smoothing, the low-pass \
         filter erodes the 1-wide bars and the search settles on one \
         rectangle over the whole grid, which finds every group-A tuple only \
         by claiming every other tuple too."
    );
}
