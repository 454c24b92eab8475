//! Paper Figures 13 & 14: number of rules produced vs number of tuples,
//! ARCS clustered rules vs C4.5RULES, at U = 0 (Fig 13) and U = 10%
//! (Fig 14).
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin fig13_14_rule_count \
//!     [-- --max-c45 200000 --seed 42 --csv]
//! ```

use arcs_bench::{arg_or, has_flag, run_arcs, run_c45, workload, Table, FIG11_SIZES};
use arcs_core::ArcsConfig;

fn main() {
    let max_c45: usize = arg_or("--max-c45", 200_000);
    let seed: u64 = arg_or("--seed", 42);
    let csv = has_flag("--csv");

    for (fig, u) in [("Figure 13", 0.0), ("Figure 14", 0.10)] {
        println!("== {fig}: number of rules vs |D|, U = {:.0}% ==\n", u * 100.0);
        let mut table = Table::new(["tuples", "ARCS rules", "C4.5RULES rules", "C4.5 leaves"]);
        for &n in &FIG11_SIZES {
            let (train, test) = workload(n, u, seed);
            let arcs = run_arcs(&train, &test, ArcsConfig::default());
            let (rules, leaves) = if n <= max_c45 {
                let c45 = run_c45(&train, &test);
                (c45.n_rules.to_string(), c45.n_leaves.to_string())
            } else {
                ("-".to_string(), "-".to_string())
            };
            table.row([n.to_string(), arcs.segmentation.rules.len().to_string(), rules, leaves]);
        }
        println!("{}", if csv { table.to_csv() } else { table.render() });
    }
    println!(
        "paper shape to check: ARCS stays at 3 rules at every size; C4.5 \
         produces significantly more, growing with |D| (and further inflated \
         by outliers in Figure 14)."
    );
}
