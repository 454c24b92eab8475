//! Ablation study (ours, motivated by the paper's design discussion):
//! how much do smoothing (§3.4), pruning (§3.5), support-weighted
//! smoothing (§5), and the choice of optimizer (§3.7 hill climb vs §5
//! simulated annealing) each contribute?
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin exp_ablation [-- --n 50000 --seed 42 --csv]
//! ```

use arcs_bench::anneal::{anneal, AnnealConfig};
use arcs_bench::cover::connected_components;
use arcs_bench::factorial::{factorial_search, FactorialConfig};
use arcs_bench::{arg_or, has_flag, workload, Table};
use arcs_core::bitop::{self, BitOpConfig};
use arcs_core::engine::{rule_grid, support_grid, Thresholds};
use arcs_core::mdl::{MdlScore, MdlWeights};
use arcs_core::optimizer::{optimize, OptimizerConfig};
use arcs_core::smooth::{smooth, smooth_support, SmoothConfig};
use arcs_core::verify::verify_tuples;
use arcs_core::Binner;
use arcs_data::Tuple;

fn main() {
    let n: usize = arg_or("--n", 50_000);
    let seed: u64 = arg_or("--seed", 42);
    let csv = has_flag("--csv");

    println!("== Ablations on Function 2, U = 10%, |D| = {n} ==\n");
    let (train, test) = workload(n, 0.10, seed);
    let binner = Binner::equi_width(train.schema(), "age", "salary", "group", 50, 50)
        .expect("schema attributes exist");
    let array = binner.bin_rows(train.iter()).expect("binning succeeds");
    let sample: Vec<&Tuple> = train.rows().iter().take(2_000).collect();

    let mut table = Table::new(["variant", "rules", "MDL", "sample err%", "test err%"]);

    let mut record = |name: &str, clusters: &[arcs_core::Rect]| {
        let sample_err = verify_tuples(clusters, &binner, sample.iter().copied(), 0);
        let test_err = verify_tuples(clusters, &binner, test.iter(), 0);
        let score = MdlScore::compute(clusters.len(), sample_err.total(), MdlWeights::default());
        table.row([
            name.to_string(),
            clusters.len().to_string(),
            format!("{:.3}", score.cost),
            format!("{:.2}", sample_err.rate() * 100.0),
            format!("{:.2}", test_err.rate() * 100.0),
        ]);
    };

    // Full system (heuristic optimizer, defaults).
    let full = optimize(&array, 0, &binner, &sample, &OptimizerConfig::default())
        .expect("optimizer finds a segmentation");
    record("full system", &full.best.clusters);
    let best_thresholds = full.best.thresholds;

    // No smoothing.
    let no_smooth = optimize(
        &array,
        0,
        &binner,
        &sample,
        &OptimizerConfig { smoothing: SmoothConfig::disabled(), ..OptimizerConfig::default() },
    )
    .expect("optimizer finds a segmentation");
    record("no smoothing", &no_smooth.best.clusters);

    // No pruning.
    let no_prune = optimize(
        &array,
        0,
        &binner,
        &sample,
        &OptimizerConfig { bitop: BitOpConfig::no_pruning(), ..OptimizerConfig::default() },
    )
    .expect("optimizer finds a segmentation");
    record("no pruning", &no_prune.best.clusters);

    // Neither smoothing nor pruning.
    let bare = optimize(
        &array,
        0,
        &binner,
        &sample,
        &OptimizerConfig {
            smoothing: SmoothConfig::disabled(),
            bitop: BitOpConfig::no_pruning(),
            ..OptimizerConfig::default()
        },
    )
    .expect("optimizer finds a segmentation");
    record("no smooth + no prune", &bare.best.clusters);

    // Support-weighted smoothing (§5) at the full system's thresholds.
    let sg = support_grid(&array, 0);
    let sw_grid = smooth_support(&sg, array.nx(), array.ny(), &SmoothConfig::default(), 0.10)
        .expect("support smoothing succeeds");
    let sw_clusters = bitop::cluster(&sw_grid, &BitOpConfig::default()).expect("bitop runs");
    record("support-weighted smooth", &sw_clusters);

    // Simulated annealing (§5) instead of the hill climb.
    let annealed = anneal(
        &array,
        0,
        &binner,
        &sample,
        &AnnealConfig { steps: 150, seed, ..AnnealConfig::default() },
    )
    .expect("annealing finds a segmentation");
    record("simulated annealing", &annealed.best.clusters);

    // Factorial-design search (§5) instead of the hill climb.
    let factorial = factorial_search(&array, 0, &binner, &sample, &FactorialConfig::default())
        .expect("factorial search finds a segmentation");
    record(
        &format!("factorial design ({} evals)", factorial.trace.len()),
        &factorial.best.clusters,
    );

    // Image-processing baseline: connected components + bounding boxes at
    // the full system's thresholds (over-covers non-rectangular regions).
    let cc_grid = {
        let grid = rule_grid(&array, 0, full.best.thresholds).expect("grid builds");
        smooth(&grid, &SmoothConfig::default()).expect("smoothing succeeds")
    };
    let components = connected_components(&cc_grid);
    record("connected components", &components);

    // Fixed thresholds without any optimizer (the best found, re-used).
    let grid = rule_grid(&array, 0, best_thresholds).expect("grid builds");
    let smoothed = smooth(&grid, &SmoothConfig::default()).expect("smoothing succeeds");
    let fixed = bitop::cluster(&smoothed, &BitOpConfig::default()).expect("bitop runs");
    record("no optimizer (fixed thresholds)", &fixed);
    let _ = Thresholds::new(0.0, 0.0);

    println!("{}", if csv { table.to_csv() } else { table.render() });
    println!(
        "expected shape: the full system, annealing, and the factorial \
         design agree near 3 rules (the factorial screen needs ~5x fewer \
         evaluations); dropping pruning admits noise specks (worse MDL at \
         similar error); connected-components bounding boxes fuse the \
         edge-adjacent F2 disjuncts into one box that over-covers \
         catastrophically — the failure mode ARCS' exact rectangles avoid."
    );
}
