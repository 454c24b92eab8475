//! Clusters over more than two attributes (paper §5): "iteratively
//! combining overlapping sets of two-attribute clustered association
//! rules".
//!
//! Group X is dense in the cube `2 <= a, b, c < 5`. ARCS segments the
//! (a, b) and (b, c) planes on their own, and `combine_rule_sets` joins
//! every pair of rules whose shared `b` ranges overlap into a 3-attribute
//! box. A 2-D rule cannot constrain its third attribute, so the (a, b)
//! rules also cover the background rows above and below the cube; the
//! joined box leaves them out.
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin exp_multidim [-- --n 40000 --seed 9]
//! ```

use arcs_bench::multidim::{box_errors, combine_rule_sets, ClusterBox};
use arcs_bench::{arg_or, cube_workload, Table};
use arcs_core::{Arcs, ArcsConfig, SegmentRequest};

fn main() {
    let n: usize = arg_or("--n", 40_000);
    let seed: u64 = arg_or("--seed", 9);
    let ds = cube_workload(n, seed);
    println!("== §5 clusters over three attributes: group X is dense in 2 <= a, b, c < 5 ==\n");

    let config = ArcsConfig { n_x_bins: 10, n_y_bins: 10, ..ArcsConfig::default() };
    let arcs = Arcs::new(config).expect("valid config");
    let segment = |x: &str, y: &str| {
        let seg = arcs
            .open(&ds, SegmentRequest::new(x, y, "g").group("X"))
            .and_then(|mut s| s.segment())
            .expect("segmentation succeeds");
        println!("({x}, {y}) rules ({}):", seg.rules.len());
        for rule in &seg.rules {
            println!("  {rule}   (support {:.3}, confidence {:.2})", rule.support, rule.confidence);
        }
        seg.rules
    };
    let ab = segment("a", "b");
    let bc = segment("b", "c");

    let boxes = combine_rule_sets(&ab, &bc);
    println!("\njoined 3-attribute boxes ({}):", boxes.len());
    for b in &boxes {
        println!("  {b}");
    }

    let mut table =
        Table::new(["rule set", "boxes", "false positives", "false negatives", "error"]);
    let ab_boxes: Vec<ClusterBox> = ab.iter().map(ClusterBox::from_rule).collect();
    for (name, set) in [("joined 3-D boxes", &boxes), ("(a, b) rules alone", &ab_boxes)] {
        let errors = box_errors(set, &ds, "g", "X").expect("attributes exist");
        table.row([
            name.to_string(),
            set.len().to_string(),
            errors.false_positives.to_string(),
            errors.false_negatives.to_string(),
            format!("{:.2}%", errors.rate() * 100.0),
        ]);
    }
    println!("\nerrors over all {n} tuples:\n{}", table.render());
    println!(
        "shape to check: the join yields a box close to the cube on all three attributes. \
         Its false positives fall well below those of the (a, b) rules, which cannot bound c; \
         its false negatives rise only by the background X rows the (a, b) rules cover \
         outside the cube."
    );
}
