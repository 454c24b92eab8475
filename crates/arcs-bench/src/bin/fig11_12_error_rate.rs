//! Paper Figures 11 & 12: error rate vs number of tuples, ARCS vs C4.5,
//! without (Fig 11) and with 10% outliers (Fig 12).
//!
//! The paper could not obtain C4.5 results past 100k tuples (virtual
//! memory depletion on its 32 MB machine); we reproduce the "missing bars"
//! with an explicit cap, adjustable via `--max-c45`.
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin fig11_12_error_rate \
//!     [-- --max-c45 200000 --seed 42 --csv]
//! ```

use arcs_bench::{arg_or, has_flag, run_arcs, run_c45, workload, Table, FIG11_SIZES};
use arcs_core::ArcsConfig;

fn main() {
    let max_c45: usize = arg_or("--max-c45", 200_000);
    let seed: u64 = arg_or("--seed", 42);
    let csv = has_flag("--csv");

    for (fig, u) in [("Figure 11", 0.0), ("Figure 12", 0.10)] {
        println!("== {fig}: error rate (%) vs |D|, U = {:.0}% ==\n", u * 100.0);
        let mut table = Table::new(["tuples", "ARCS err%", "C4.5 err%", "C4.5RULES err%"]);
        for &n in &FIG11_SIZES {
            let (train, test) = workload(n, u, seed);
            let arcs = run_arcs(&train, &test, ArcsConfig::default());
            let (c45_tree, c45_rules) = if n <= max_c45 {
                let c45 = run_c45(&train, &test);
                (
                    format!("{:.2}", c45.tree_error * 100.0),
                    format!("{:.2}", c45.rules_error * 100.0),
                )
            } else {
                // The paper's missing bars: C4.5 exceeded its memory budget.
                ("-".to_string(), "-".to_string())
            };
            table.row([
                n.to_string(),
                format!("{:.2}", arcs.test_error * 100.0),
                c45_tree,
                c45_rules,
            ]);
        }
        println!("{}", if csv { table.to_csv() } else { table.render() });
    }
    println!(
        "paper shape to check: with U = 0 C4.5 is slightly more accurate than \
         ARCS; with U = 10% ARCS matches or beats C4.5. Both sit near the \
         noise floor (boundary fuzz, plus the 10% outliers in Figure 12)."
    );
}
