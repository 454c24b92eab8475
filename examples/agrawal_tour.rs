//! Tour of all ten Agrawal et al. classification functions: which
//! workloads are *rectangle-describable* in two attributes?
//!
//! The paper evaluates Function 2 — three rectangles in (age, salary).
//! This example runs ARCS over every function on its most informative
//! attribute pair (chosen by the §5 entropy heuristic) and reports how
//! well rectangular clustered rules can describe each: functions defined
//! by axis-aligned ranges (F1–F5) segment crisply; the linear
//! disposable-income functions (F7–F10) have oblique boundaries that
//! rectangles can only approximate.
//!
//! ```sh
//! cargo run --release --example agrawal_tour
//! ```

use arcs::core::select::select_pair_joint;
use arcs::core::verify::verify_counts;
use arcs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<5} {:<22} {:>6} {:>10} {:>10}",
        "func", "LHS attributes", "rules", "err%", "conf(avg)"
    );
    println!("{}", "-".repeat(58));

    for function in AgrawalFunction::ALL {
        let config = GeneratorConfig { function, ..GeneratorConfig::paper_defaults(99) };
        let mut gen = AgrawalGenerator::new(config)?;
        let train = gen.generate(30_000);
        let test = gen.generate(5_000);

        // Entropy-based attribute selection (§5): the pair with the best
        // *joint* mutual information with the group (marginal ranking
        // misses attributes like F2's age that matter only jointly).
        let (x_attr, y_attr) = select_pair_joint(&train, "group", 12, 6)?;
        let (x_attr, y_attr) = (&x_attr, &y_attr);

        let arcs = Arcs::with_defaults();
        let request = SegmentRequest::new(x_attr.as_str(), y_attr.as_str(), "group").group("A");
        match arcs.open(&train, request).and_then(|mut s| s.segment()) {
            Ok(seg) => {
                let binner = Binner::equi_width(train.schema(), x_attr, y_attr, "group", 50, 50)?;
                let test_array = binner.bin_rows_parallel(test.rows(), 1)?;
                let err = verify_counts(&seg.clusters, &test_array, 0);
                let avg_conf = seg.rules.iter().map(|r| r.confidence).sum::<f64>()
                    / seg.rules.len().max(1) as f64;
                println!(
                    "{:<5} {:<22} {:>6} {:>9.1}% {:>10.2}",
                    format!("{function:?}"),
                    format!("{x_attr}, {y_attr}"),
                    seg.rules.len(),
                    err.rate() * 100.0,
                    avg_conf
                );
            }
            Err(e) => {
                println!(
                    "{:<5} {:<22} {:>6} {:>10} {:>10}",
                    format!("{function:?}"),
                    format!("{x_attr}, {y_attr}"),
                    "-",
                    format!("({e})"),
                    "-"
                );
            }
        }
    }

    println!(
        "\nReading: F1 (pure age bands) and F2 (the paper's workload) segment \
         with 2-3 crisp, high-confidence rules. F3/F4/F8/F10 hinge on the \
         categorical `elevel`, which no quantitative pair can express — the \
         §5 categorical-LHS extension (arcs_core::categorical) is the right \
         tool there. F5-F7/F9 have oblique or 3-attribute boundaries that \
         axis-aligned rectangles only approximate: more rules, softer \
         confidence — exactly the boundary of ARCS' rectangular-cluster \
         design."
    );
    Ok(())
}
