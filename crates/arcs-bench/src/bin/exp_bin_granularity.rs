//! Paper §4.2 (binning granularity): "the primary cause of error in the
//! ARCS rules is due to the granularity of binning … we performed a
//! separate set of identical experiments using between 10 to 50 bins for
//! each attribute. We found a general trend towards more optimal clusters
//! as the number of bins increases."
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin exp_bin_granularity \
//!     [-- --n 50000 --seed 42 --csv]
//! ```

use arcs_bench::{arg_or, has_flag, run_arcs, workload, Table};
use arcs_core::verify::region_error;
use arcs_core::{ArcsConfig, Binner};
use arcs_data::agrawal::f2_regions;

fn main() {
    let n: usize = arg_or("--n", 50_000);
    let seed: u64 = arg_or("--seed", 42);
    let csv = has_flag("--csv");

    println!("== §4.2: effect of binning granularity (|D| = {n}, U = 0) ==\n");
    let (train, test) = workload(n, 0.0, seed);

    let mut table =
        Table::new(["bins", "rules", "test err%", "FP area%", "FN area%", "region err%"]);
    for bins in [10, 20, 30, 40, 50] {
        let config = ArcsConfig { n_x_bins: bins, n_y_bins: bins, ..ArcsConfig::default() };
        let run = run_arcs(&train, &test, config);
        let binner = Binner::equi_width(train.schema(), "age", "salary", "group", bins, bins)
            .expect("schema attributes exist");
        let exact = region_error(
            &run.segmentation.clusters,
            &binner,
            &f2_regions(),
            (20.0, 80.0),
            (20_000.0, 150_000.0),
            400,
        )
        .expect("region error computes");
        let fp = 100.0 * exact.false_positives as f64 / exact.n_examined as f64;
        let fn_ = 100.0 * exact.false_negatives as f64 / exact.n_examined as f64;
        table.row([
            bins.to_string(),
            run.segmentation.rules.len().to_string(),
            format!("{:.2}", run.test_error * 100.0),
            format!("{fp:.2}"),
            format!("{fn_:.2}"),
            format!("{:.2}", fp + fn_),
        ]);
    }
    println!("{}", if csv { table.to_csv() } else { table.render() });
    println!(
        "paper shape to check: region error (mismatch vs the true disjunct \
         boundaries) falls as bins increase — coarser bins cannot place \
         cluster edges on the generating boundaries."
    );
}
