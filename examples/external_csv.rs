//! Ingesting external data: schema inference from a raw CSV extract.
//!
//! The paper closes intending to "examine real-world demographic data" —
//! which arrives as untyped CSV. This example simulates that path: a
//! third-party CSV file with no type annotations is loaded with
//! [`infer_schema`](arcs::data::csv::infer_schema) (numeric wide-range
//! columns become quantitative, low-cardinality columns categorical) and
//! segmented end to end.
//!
//! ```sh
//! cargo run --release --example external_csv
//! ```

use std::fmt::Write as _;

use arcs::data::csv::{infer_schema, read_csv};
use arcs::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulates an export from some external CRM: mixed numeric/text columns,
/// no schema. "premium" subscribers cluster at high usage x mid tenure.
fn fake_export(n: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::from("monthly_usage_gb,tenure_months,plan,region,tier\n");
    for _ in 0..n {
        let usage: f64 = rng.gen_range(0.0..500.0);
        let tenure: f64 = rng.gen_range(0.0..120.0);
        let plan = ["basic", "plus", "pro"][rng.gen_range(0..3)];
        let region = ["north", "south", "east", "west"][rng.gen_range(0..4)];
        let premium = usage > 250.0 && (24.0..84.0).contains(&tenure);
        let p_premium = if premium { 0.9 } else { 0.03 };
        let tier = if rng.gen_bool(p_premium) { "premium" } else { "standard" };
        writeln!(out, "{usage:.1},{tenure:.1},{plan},{region},{tier}")
            .expect("writing to a String cannot fail");
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let csv_text = fake_export(30_000, 21);
    println!("received {} bytes of untyped CSV", csv_text.len());

    // 1. Infer the schema: columns with > 12 distinct values and all-numeric
    //    content become quantitative; the rest categorical.
    let schema = infer_schema(csv_text.as_bytes(), 12)?;
    println!("\ninferred schema:");
    for attr in schema.attributes() {
        match &attr.kind {
            AttrKind::Quantitative { min, max } => {
                println!("  {:<18} quantitative [{min:.1}, {max:.1}]", attr.name)
            }
            AttrKind::Categorical { labels } => {
                println!("  {:<18} categorical {labels:?}", attr.name)
            }
        }
    }

    // 2. Load and segment.
    let dataset = read_csv(schema, csv_text.as_bytes())?;
    let arcs = Arcs::with_defaults();
    let request = SegmentRequest::new("monthly_usage_gb", "tenure_months", "tier").group("premium");
    let seg = arcs.open(&dataset, request)?.segment()?;

    println!("\nsegmentation for tier = premium:");
    for rule in &seg.rules {
        println!("  {rule}   (support {:.3}, confidence {:.2})", rule.support, rule.confidence);
    }
    println!(
        "\n{} clusters, error rate {:.2}% — the premium pocket \
         (usage > 250 GB, tenure 24-84 months) recovered from raw CSV with \
         zero manual schema work.",
        seg.rules.len(),
        seg.errors.rate() * 100.0
    );
    Ok(())
}
