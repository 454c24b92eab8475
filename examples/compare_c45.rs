//! ARCS vs a C4.5-style classifier, head to head (paper §4.2).
//!
//! Trains both systems on the same Function 2 data (with 10% outliers,
//! the setting where the paper reports ARCS ahead), then compares error
//! rate, rule count, and wall-clock time on held-out data.
//!
//! ```sh
//! cargo run --release --example compare_c45
//! ```

use std::time::Instant;

use arcs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 50_000;
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults_with_outliers(3))?;
    let train = gen.generate(n);
    let test = gen.generate(10_000);
    println!("train {} tuples / test {} tuples (Function 2, U = 10%)", train.len(), test.len());

    // --- ARCS -----------------------------------------------------------
    let t0 = Instant::now();
    let arcs = Arcs::with_defaults();
    let mut session =
        arcs.open(&train, SegmentRequest::new("age", "salary", "group").group("A"))?;
    let seg = session.segment()?;
    let arcs_time = t0.elapsed();

    // Error on held-out data: a tuple is misclassified when cluster
    // membership disagrees with its group label.
    let binner = Binner::equi_width(train.schema(), "age", "salary", "group", 50, 50)?;
    let test_array = binner.bin_rows_parallel(test.rows(), 1)?;
    let arcs_errors = arcs::core::verify::verify_counts(&seg.clusters, &test_array, 0);

    println!("\nARCS:");
    println!("  rules:      {}", seg.rules.len());
    for rule in &seg.rules {
        println!("    {rule}");
    }
    println!("  test error: {:.2}%", arcs_errors.rate() * 100.0);
    println!("  time:       {arcs_time:?}");

    // --- C4.5 -----------------------------------------------------------
    let t0 = Instant::now();
    let tree = DecisionTree::train(&train, "group", TreeConfig::default())?;
    let tree_time = t0.elapsed();

    let t0 = Instant::now();
    let rules = RuleSet::from_tree(&tree, &train, RulesConfig::default())?;
    let rules_time = t0.elapsed();

    println!("\nC4.5-style tree:");
    println!("  leaves:     {}", tree.n_leaves());
    println!("  test error: {:.2}%", tree.error_rate(&test) * 100.0);
    println!("  time:       {tree_time:?}");
    println!("\nC4.5RULES-style rule set:");
    println!("  rules:      {}", rules.len());
    println!("  test error: {:.2}%", rules.error_rate(&test) * 100.0);
    println!("  time:       {rules_time:?} (on top of tree training)");

    println!(
        "\nThe paper's qualitative claims to check: with outliers ARCS' error \
         is competitive or better, its rule count is far smaller (3 vs dozens), \
         and its runtime scales with the data pass, not the model search."
    );
    Ok(())
}
