//! Instant re-mining (paper §3.2): once the `BinArray` is built, changing
//! support/confidence thresholds re-mines without touching the data.
//!
//! This example walks the Figure 10 threshold lattice, re-mines at each
//! level, and shows how the rule grid, cluster count, and MDL cost respond
//! — the inner loop the heuristic optimizer automates.
//!
//! ```sh
//! cargo run --release --example threshold_explorer
//! ```

use std::time::Instant;

use arcs::core::bitop::{self, BitOpConfig};
use arcs::core::engine::{mine_rules, rule_grid};
use arcs::core::mdl::MdlScore;
use arcs::core::optimizer::ThresholdLattice;
use arcs::core::smooth::{smooth, SmoothConfig};
use arcs::core::verify::verify_counts;
use arcs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults_with_outliers(11))?;
    let dataset = gen.generate(50_000);

    // One pass over the data builds the BinArray...
    let binner = Binner::equi_width(dataset.schema(), "age", "salary", "group", 50, 50)?;
    let start = Instant::now();
    let array = binner.bin_rows_parallel(dataset.rows(), 1)?;
    println!(
        "binned {} tuples into a {}x{} array in {:?} ({} KiB resident)",
        array.n_tuples(),
        array.nx(),
        array.ny(),
        start.elapsed(),
        array.memory_bytes() / 1024
    );

    // ...after which every re-mine is a scan of 2 500 cells.
    let lattice = ThresholdLattice::build(&array, 0);
    println!(
        "threshold lattice: {} distinct support levels occur in the data",
        lattice.supports().len()
    );

    let smoothing = SmoothConfig::default();
    let bitop_config = BitOpConfig::default();

    println!(
        "\n{:>10} {:>10} {:>7} {:>9} {:>9} {:>9} {:>11}",
        "support", "confdnce", "rules", "clusters", "errors", "MDL", "re-mine"
    );
    let step = (lattice.supports().len() / 10).max(1);
    for (i, &s) in lattice.supports().iter().enumerate().step_by(step) {
        let confs = lattice.confidences_for(i);
        let c = confs[confs.len() / 2]; // the median occurring confidence
        let thresholds = Thresholds::new((s - 1e-12).max(0.0), (c - 1e-12).max(0.0))?;

        let t0 = Instant::now();
        let rules = mine_rules(&array, 0, thresholds);
        let grid = rule_grid(&array, 0, thresholds)?;
        let remine = t0.elapsed();

        let smoothed = smooth(&grid, &smoothing)?;
        let clusters = bitop::cluster(&smoothed, &bitop_config)?;
        // The errors over every tuple, read off the array's counts.
        let errors = verify_counts(&clusters, &array, 0);
        let score = MdlScore::compute(clusters.len(), errors.total(), MdlWeights::default());

        println!(
            "{:>10.5} {:>10.3} {:>7} {:>9} {:>9} {:>9.3} {:>9.1?}",
            thresholds.min_support,
            thresholds.min_confidence,
            rules.len(),
            clusters.len(),
            errors.total(),
            score.cost,
            remine
        );
    }

    println!(
        "\nEach re-mine and each verification touches only the BinArray — \
         the paper's \"changing thresholds is nearly instantaneous\" claim, \
         verified above."
    );
    Ok(())
}
