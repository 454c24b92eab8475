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
use arcs_core::bitop::{self, BitOpConfig};
use arcs_core::categorical::{segment_categorical, CategoricalConfig};
use arcs_core::engine::{rule_grid, Thresholds};
use arcs_core::optimizer::OptimizerConfig;
use arcs_core::smooth::{smooth, SmoothConfig};
use arcs_core::BinArray;
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
        ds.push(vec![Value::Cat(zip), Value::Quant(salary), Value::Cat(g)])
            .expect("tuple conforms");
    }
    (ds, hot)
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

    // Natural order baseline: bin zip codes as-is and cluster at the same
    // thresholds, with and without smoothing (the low-pass filter erodes
    // the isolated one-column bars natural ordering leaves behind).
    let mut array = BinArray::new(12, 20, 2).expect("valid dims");
    for t in ds.iter() {
        let y = (t.quant(1) / 5.0) as usize;
        array.add(t.cat(0) as usize, y.min(19), t.cat(2));
    }
    let thresholds = Thresholds::new(seg.thresholds.min_support, seg.thresholds.min_confidence)
        .expect("valid thresholds");
    let grid = rule_grid(&array, 0, thresholds).expect("grid builds");

    // Recall of a natural-order cluster set: fraction of group-A tuples
    // whose (zip, salary bin) cell some cluster covers.
    let natural_recall = |clusters: &[arcs_core::Rect]| -> f64 {
        let mut group = 0usize;
        let mut hit = 0usize;
        for t in ds.iter() {
            if t.cat(2) != 0 {
                continue;
            }
            group += 1;
            let x = t.cat(0) as usize;
            let y = ((t.quant(1) / 5.0) as usize).min(19);
            if clusters.iter().any(|r| r.contains(x, y)) {
                hit += 1;
            }
        }
        hit as f64 / group.max(1) as f64
    };

    let smoothed = smooth(&grid, &SmoothConfig::default()).expect("smoothing succeeds");
    let natural_smoothed = bitop::cluster(&smoothed, &BitOpConfig::default()).expect("bitop runs");
    let natural_raw = bitop::cluster(&grid, &BitOpConfig::default()).expect("bitop runs");

    let mut table = Table::new(["variant", "clusters", "group recall", "readable as"]);
    table.row([
        "density order (ARCS §5)".to_string(),
        seg.rules.len().to_string(),
        format!("{:.0}%", seg.errors.recall() * 100.0),
        seg.rules.iter().map(ToString::to_string).collect::<Vec<_>>().join(" | "),
    ]);
    table.row([
        "natural order + smoothing".to_string(),
        natural_smoothed.len().to_string(),
        format!("{:.0}%", natural_recall(&natural_smoothed) * 100.0),
        "isolated zip columns eroded by the low-pass filter".to_string(),
    ]);
    table.row([
        "natural order, no smoothing".to_string(),
        natural_raw.len().to_string(),
        format!("{:.0}%", natural_recall(&natural_raw) * 100.0),
        "one rectangle per scattered hot zip (plus noise)".to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "shape to check: density ordering packs the four hot zips into \
         adjacent columns -> one cluster, one readable rule, full recall. \
         Natural order either fragments into per-zip rectangles (no \
         smoothing) or loses the region entirely (the 1-wide bars cannot \
         survive the low-pass filter)."
    );
}
