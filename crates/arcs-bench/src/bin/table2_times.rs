//! Paper Table 2: comparative execution times — ARCS vs C4.5 vs
//! C4.5 + C4.5RULES across database sizes.
//!
//! The paper reports C4.5 (and especially C4.5RULES) taking dramatically
//! longer than ARCS and failing outright past 100k tuples on its 32 MB
//! machine. We cap C4.5 at `--max-c45` and print `-` beyond, mirroring the
//! paper's missing entries.
//!
//! An ARCS run takes a few milliseconds, so one timing is mostly noise:
//! the ARCS column is the median of [`ARCS_RUNS`] timed runs per size.
//! C4.5 runs once.
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin table2_times \
//!     [-- --max-c45 200000 --seed 42 --csv]
//! ```

use arcs_bench::{arg_or, has_flag, run_arcs, run_c45, secs, workload, Table, FIG11_SIZES};
use arcs_core::ArcsConfig;

/// Timed ARCS runs per size; the table reports their median.
const ARCS_RUNS: usize = 5;

fn main() {
    let max_c45: usize = arg_or("--max-c45", 200_000);
    let seed: u64 = arg_or("--seed", 42);
    let csv = has_flag("--csv");

    println!("== Table 2: comparative execution times (seconds) ==");
    println!("(ARCS: median of {ARCS_RUNS} runs; C4.5: one run)\n");
    let mut table = Table::new(["tuples", "ARCS", "C4.5", "C4.5+RULES"]);
    for &n in &FIG11_SIZES {
        let (train, test) = workload(n, 0.0, seed);
        let mut arcs: Vec<_> = (0..ARCS_RUNS)
            .map(|_| run_arcs(&train, &test, ArcsConfig::default()).elapsed)
            .collect();
        arcs.sort();
        let (t_tree, t_total) = if n <= max_c45 {
            let c45 = run_c45(&train, &test);
            (secs(c45.tree_time), secs(c45.tree_time + c45.rules_time))
        } else {
            ("-".to_string(), "-".to_string())
        };
        table.row([n.to_string(), secs(arcs[ARCS_RUNS / 2]), t_tree, t_total]);
    }
    println!("{}", if csv { table.to_csv() } else { table.render() });
    println!(
        "paper shape to check: ARCS time is orders of magnitude below C4.5, \
         and C4.5+RULES grows much faster than linearly while ARCS stays \
         a single streaming pass plus constant-size optimization."
    );
}
