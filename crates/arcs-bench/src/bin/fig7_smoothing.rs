//! Paper Figure 7: a typical rule grid (a) prior to smoothing, (b) after
//! smoothing — the low-pass filter fills holes and removes specks so BitOp
//! can find large complete clusters.
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin fig7_smoothing [-- --n 50000 --seed 7]
//! ```

use arcs_bench::{arg_or, workload};
use arcs_core::bitop::{self, BitOpConfig};
use arcs_core::engine::rule_grid;
use arcs_core::render::{render_clusters, render_side_by_side};
use arcs_core::smooth::{smooth, SmoothConfig};
use arcs_core::{Binner, Thresholds};

fn main() {
    let n: usize = arg_or("--n", 50_000);
    let seed: u64 = arg_or("--seed", 7);

    // 10% outliers and a permissive threshold produce the paper's "jagged
    // edges and small holes".
    let (train, _) = workload(n, 0.10, seed);
    let binner = Binner::equi_width(train.schema(), "age", "salary", "group", 50, 50)
        .expect("schema attributes exist");
    let array = binner.bin_rows_parallel(train.rows(), 1).expect("binning succeeds");
    let thresholds = Thresholds::new(0.0002, 0.45).expect("valid thresholds");
    let raw = rule_grid(&array, 0, thresholds).expect("grid builds");
    let smoothed = smooth(&raw, &SmoothConfig::default()).expect("smoothing succeeds");

    println!("== Figure 7: rule grid (a) prior to smoothing | (b) after smoothing ==\n");
    print!("{}", render_side_by_side(&raw, &smoothed, "  |  "));

    let before = bitop::cluster(&raw, &BitOpConfig::default()).expect("bitop runs");
    let after = bitop::cluster(&smoothed, &BitOpConfig::default()).expect("bitop runs");
    println!(
        "\nset cells: {} -> {}   BitOp clusters: {} -> {}",
        raw.count_ones(),
        smoothed.count_ones(),
        before.len(),
        after.len()
    );
    println!("\nclusters found on the smoothed grid:");
    print!("{}", render_clusters(&smoothed, &after));
    println!(
        "\npaper shape to check: smoothing closes interior holes and strips \
         isolated noise cells, so BitOp covers the regions with fewer, larger \
         clusters."
    );
}
