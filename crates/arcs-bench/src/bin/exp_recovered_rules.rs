//! Paper §4.2 (qualitative result): ARCS recovers the three clustered
//! association rules corresponding to Function 2's disjuncts, both without
//! and with 10% outliers.
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin exp_recovered_rules [-- --n 50000 --seed 42]
//! ```

use arcs_bench::{arg_or, run_arcs, workload};
use arcs_core::verify::region_error;
use arcs_core::{ArcsConfig, Binner};
use arcs_data::agrawal::f2_regions;

fn main() {
    let n: usize = arg_or("--n", 50_000);
    let seed: u64 = arg_or("--seed", 42);

    println!("== Paper §4.2: recovered clustered rules (|D| = {n}, Function 2) ==\n");
    println!("generating rules (Figure 8):");
    for r in f2_regions() {
        println!(
            "  {} <= age <= {}  AND  {} <= salary <= {}  =>  Group A",
            r.x_lo, r.x_hi, r.y_lo, r.y_hi
        );
    }

    for u in [0.0, 0.10] {
        let (train, test) = workload(n, u, seed);
        let run = run_arcs(&train, &test, ArcsConfig::default());
        println!("\n-- outliers U = {:.0}% --", u * 100.0);
        println!(
            "thresholds: support >= {:.4}, confidence >= {:.3}",
            run.segmentation.thresholds.min_support, run.segmentation.thresholds.min_confidence
        );
        println!("recovered rules ({}):", run.segmentation.rules.len());
        for rule in &run.segmentation.rules {
            println!("  {rule}   (support {:.3}, confidence {:.2})", rule.support, rule.confidence);
        }
        // Exact region error vs the generating disjuncts (Figure 9 metric).
        let binner = Binner::equi_width(train.schema(), "age", "salary", "group", 50, 50).unwrap();
        let exact = region_error(
            &run.segmentation.clusters,
            &binner,
            &f2_regions(),
            (20.0, 80.0),
            (20_000.0, 150_000.0),
            400,
        )
        .unwrap();
        println!(
            "region error vs true disjuncts: FP area {:.2}%, FN area {:.2}%",
            100.0 * exact.false_positives as f64 / exact.n_examined as f64,
            100.0 * exact.false_negatives as f64 / exact.n_examined as f64,
        );
        println!("held-out test error: {:.2}%", run.test_error * 100.0);
        println!("elapsed: {:?}", run.elapsed);
    }

    println!(
        "\npaper reference (U = 10%, minsup 0.01, minconf 39%):\n  \
         20 <= Age <= 39  AND  48601 <= Salary <= 100600  => Grp A\n  \
         40 <= Age <= 59  AND  74601 <= Salary <= 124000  => Grp A\n  \
         60 <= Age <= 80  AND  25201 <= Salary <= 74600   => Grp A"
    );
}
