//! Paper Figure 15: scalability of ARCS — execution time vs number of
//! tuples, 100k to 10M.
//!
//! The paper reports at-most-linear growth (better than linear per tuple:
//! 100k → 42 s, 10M → 420 s on its 120 MHz Pentium; absolute numbers here
//! differ, the *shape* is the claim). This harness pre-generates each
//! dataset outside the timed region and measures only the pipeline —
//! parallel binning, threshold search (verified against the bin array),
//! decode — so thread scaling is visible. (The constant-memory mode of
//! §4.3 is `arcs daemon --datasets`, which bins a CSV file without
//! holding its rows; here the data is in memory so generation cost cannot
//! mask the pipeline.)
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin fig15_scaleup -- \
//!     [--max 10000000] [--threads N] [--quick] [--csv] [--stats-json FILE]
//! ```
//!
//! `--quick` caps the sweep at 200k tuples (CI smoke mode). `--stats-json`
//! writes a machine-readable record of every run, including the pipeline's
//! per-stage timings and work counters.

use std::time::Instant;

use arcs_bench::{arg_or, has_flag, Table, FIG15_SIZES};
use arcs_core::metrics::default_threads;
use arcs_core::{Arcs, ArcsConfig, OptimizerConfig, SegmentRequest};
use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};

fn main() {
    let max: usize = arg_or("--max", 10_000_000);
    let seed: u64 = arg_or("--seed", 42);
    let csv = has_flag("--csv");
    let quick = has_flag("--quick");
    let threads: usize = arg_or("--threads", default_threads());
    let stats_path: String = arg_or("--stats-json", String::new());

    let max = if quick { max.min(200_000) } else { max };

    println!(
        "== Figure 15: ARCS execution time vs |D| ({threads} thread{}) ==\n",
        if threads == 1 { "" } else { "s" }
    );

    let mut config = ArcsConfig {
        threads,
        optimizer: OptimizerConfig { threads, ..OptimizerConfig::default() },
        ..ArcsConfig::default()
    };
    config.optimizer.bitop.threads = threads;
    let arcs = Arcs::new(config).expect("valid config");

    let mut table = Table::new(["tuples", "total s", "s/Mtuple", "bin ms", "search ms", "rules"]);
    let mut json_runs: Vec<String> = Vec::new();
    for &n in FIG15_SIZES.iter().filter(|&&n| n <= max) {
        // Generation happens outside the timed region.
        let mut gen =
            AgrawalGenerator::new(GeneratorConfig::paper_defaults(seed)).expect("valid config");
        let ds = gen.generate(n);

        let start = Instant::now();
        let mut session = arcs
            .open(&ds, SegmentRequest::new("age", "salary", "group").group("A"))
            .expect("open succeeds");
        let seg = session.segment().expect("segmentation succeeds");
        let elapsed = start.elapsed().as_secs_f64();

        let report = session.report();
        let per_m = elapsed / (n as f64 / 1e6);
        table.row([
            n.to_string(),
            format!("{elapsed:.3}"),
            format!("{per_m:.3}"),
            format!("{:.1}", report.timings.binning.as_secs_f64() * 1e3),
            format!("{:.1}", report.timings.search.as_secs_f64() * 1e3),
            seg.rules.len().to_string(),
        ]);
        json_runs.push(format!(
            "{{\"tuples\":{n},\"total_s\":{elapsed:.6},\"rules\":{},\"report\":{}}}",
            seg.rules.len(),
            report.to_json()
        ));
    }
    println!("{}", if csv { table.to_csv() } else { table.render() });
    println!(
        "paper shape to check: total time grows at most linearly in |D| \
         (per-tuple cost flat or falling as fixed costs amortize; the paper \
         saw 100x tuples -> 10x time thanks to larger I/O requests)."
    );

    if !stats_path.is_empty() {
        let json = format!(
            "{{\"schema_version\":1,\"threads\":{threads},\"runs\":[{}]}}",
            json_runs.join(",")
        );
        std::fs::write(&stats_path, &json).expect("write --stats-json file");
        println!("wrote stats to {stats_path}");
    }
}
