//! The paper's motivating scenario (§1): a direct-mail company segments
//! its customer base by profitability rating to decide whom to target.
//!
//! We build a demographic customer database where the "excellent"
//! customers concentrate in two (age, income) pockets, run ARCS for each
//! rating, and print a human-readable segmentation with the SQL `WHERE`
//! clause that selects its mailing list — plus the entropy-based
//! attribute selection the paper proposes in §5.
//!
//! ```sh
//! cargo run --release --example customer_segmentation
//! ```

use arcs::core::select::rank_attributes;
use arcs::core::sql::segmentation_where;
use arcs::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn customer_schema() -> Schema {
    Schema::new(vec![
        Attribute::quantitative("age", 18.0, 90.0),
        Attribute::quantitative("income", 10_000.0, 200_000.0),
        Attribute::quantitative("tenure_years", 0.0, 30.0),
        Attribute::categorical("rating", ["excellent", "above_average", "average"]),
    ])
    .unwrap()
}

/// Synthesises the customer base: "excellent" customers cluster in two
/// pockets (young high-earners; settled 55–70 with mid income),
/// "above average" in one band, the rest "average".
fn synthesize_customers(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(customer_schema());
    for _ in 0..n {
        let age: f64 = rng.gen_range(18.0..=90.0);
        let income: f64 = rng.gen_range(10_000.0..=200_000.0);
        let tenure: f64 = rng.gen_range(0.0..=30.0);
        let excellent = (age < 35.0 && income > 120_000.0)
            || ((55.0..70.0).contains(&age) && (60_000.0..120_000.0).contains(&income));
        let above = (35.0..55.0).contains(&age) && income > 100_000.0;
        // 5% label noise keeps the verifier honest.
        let noise = rng.gen_bool(0.05);
        let rating: u32 = match (excellent, above) {
            (true, _) if !noise => 0,
            (_, true) if !noise => 1,
            _ => 2,
        };
        ds.push(&[
            Value::Quant(age),
            Value::Quant(income),
            Value::Quant(tenure),
            Value::Cat(rating),
        ])
        .expect("tuple conforms to schema");
    }
    ds
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let customers = synthesize_customers(40_000, 7);
    println!("customer base: {} records", customers.len());

    // §5 extension: let entropy choose the two LHS attributes instead of
    // the user. tenure_years is noise and should rank last.
    let ranked = rank_attributes(&customers, "rating", 20)?;
    println!("\nattribute ranking by mutual information with `rating`:");
    for score in &ranked {
        println!("  {:<14} {:.4} bits", score.name, score.mutual_information);
    }
    let (x_attr, y_attr) = (ranked[0].name.clone(), ranked[1].name.clone());
    println!("selected LHS attributes: {x_attr}, {y_attr}");

    // One segmentation per rating value — the BinArray keeps counts for
    // every group, so in the paper's system this re-uses the same binned
    // data (§3.1).
    let arcs = Arcs::with_defaults();
    for rating in ["excellent", "above_average"] {
        let request = SegmentRequest::new(x_attr.as_str(), y_attr.as_str(), "rating").group(rating);
        let seg = arcs.open(&customers, request)?.segment()?;
        println!("\nsegmentation for rating = {rating}:");
        for rule in &seg.rules {
            println!("  {rule}   (support {:.3}, confidence {:.2})", rule.support, rule.confidence);
        }
        println!(
            "  -> {} clusters, MDL cost {:.3}, error rate {:.2}%",
            seg.rules.len(),
            seg.score.cost,
            seg.errors.rate() * 100.0
        );
        println!("  mailing selection: WHERE {}", segmentation_where(&seg.rules));
    }

    println!(
        "\nA mailing targeting the `excellent` segments above reaches the \
         profitable pockets while skipping the {} `average` customers.",
        customers.cat(3)?.iter().filter(|&&rating| rating == 2).count()
    );
    Ok(())
}
