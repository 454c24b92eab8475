//! Quickstart: generate the paper's synthetic workload, run ARCS through
//! the session API, and print the clustered association rules.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use arcs::core::engine::rule_grid;
use arcs::core::render::render_clusters;
use arcs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthetic data: Agrawal Function 2 (paper Figure 8) with the
    //    paper's Table 1 parameters — 40% Group A, 5% perturbation.
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(42))?;
    let dataset = gen.generate(50_000);
    println!("generated {} tuples over {} attributes", dataset.len(), dataset.schema().arity());

    // 2. Open a session: one parallel binning pass (50x50). The session
    //    owns the populated BinArray — everything below, verification
    //    included, runs without touching the dataset again.
    let arcs = Arcs::with_defaults();
    let mut session =
        arcs.open(&dataset, SegmentRequest::new("age", "salary", "group").group("A"))?;

    // 3. Segment: mine, smooth, cluster with BitOp, verify, and let the
    //    heuristic optimizer pick the MDL-best thresholds.
    let seg = session.segment()?;

    println!("\nclustered association rules for group = A:");
    for rule in &seg.rules {
        println!("  {rule}   (support {:.3}, confidence {:.2})", rule.support, rule.confidence);
    }
    println!(
        "\nthresholds: support >= {:.4}, confidence >= {:.2}",
        seg.thresholds.min_support, seg.thresholds.min_confidence
    );
    println!(
        "MDL cost {:.3} ({} clusters, {} errors over all tuples, error rate {:.2}%)",
        seg.score.cost,
        seg.score.n_clusters,
        seg.score.errors,
        seg.errors.rate() * 100.0
    );

    // 4. Visualise: re-mine the grid at the chosen thresholds and overlay
    //    the clusters (paper Figure 1 style; age bins on x, salary on y).
    let grid = rule_grid(session.bin_array(), 0, seg.thresholds)?;
    println!("\nrule grid with clusters (A/B/C = cluster cells, # = unclustered rule):");
    print!("{}", render_clusters(&grid, &seg.clusters));

    // 5. Observability: where did the time go, and how much work was done?
    println!("\npipeline report: {}", session.report().to_json());
    Ok(())
}
