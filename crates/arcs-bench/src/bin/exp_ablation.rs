//! Ablation study (ours, motivated by the paper's design discussion):
//! how much do smoothing (§3.4), pruning (§3.5), support-weighted
//! smoothing (§5), the choice of optimizer (§3.7 hill climb vs §5
//! simulated annealing and factorial design) and §3.6's verification
//! sample each contribute?
//!
//! Every row verifies against all training tuples, as a session does,
//! except the §3.6 row: it runs the paper's sampled search, which verifies
//! each lattice point on the seeded 2,000-tuple sample that
//! `ArcsConfig::default()`'s `sample_size` and `seed` describe. The MDL
//! and train err% columns of every row are computed over all training
//! tuples.
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin exp_ablation [-- --n 50000 --seed 42 --csv]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use arcs_bench::anneal::{anneal, AnnealConfig};
use arcs_bench::cover::connected_components;
use arcs_bench::factorial::{factorial_search, FactorialConfig};
use arcs_bench::{arg_or, has_flag, workload, Table};
use arcs_core::bitop::{self, BitOpConfig};
use arcs_core::engine::{rule_grid, support_grid};
use arcs_core::mdl::{MdlScore, MdlWeights};
use arcs_core::optimizer::{optimize, OptimizerConfig};
use arcs_core::smooth::{smooth, smooth_support, SmoothConfig};
use arcs_core::verify::verify_counts;
use arcs_core::{Arcs, ArcsConfig, Binner, Rect, SegmentRequest, Segmentation};
use arcs_data::sample::sample_rows;

fn main() {
    let n: usize = arg_or("--n", 50_000);
    let seed: u64 = arg_or("--seed", 42);
    let csv = has_flag("--csv");

    println!("== Ablations on Function 2, U = 10%, |D| = {n} ==\n");
    let (train, test) = workload(n, 0.10, seed);
    let binner = Binner::equi_width(train.schema(), "age", "salary", "group", 50, 50)
        .expect("schema attributes exist");
    let threads = ArcsConfig::default().threads;
    let array = binner.bin_rows_parallel(train.rows(), threads).expect("binning succeeds");
    let test_array = binner.bin_rows_parallel(test.rows(), threads).expect("binning succeeds");

    let mut table = Table::new(["variant", "rules", "MDL", "train err%", "test err%"]);

    let mut record = |name: &str, clusters: &[Rect]| {
        let train_err = verify_counts(clusters, &array, 0);
        let test_err = verify_counts(clusters, &test_array, 0);
        let score = MdlScore::compute(clusters.len(), train_err.total(), MdlWeights::default());
        table.row([
            name.to_string(),
            clusters.len().to_string(),
            format!("{:.3}", score.cost),
            format!("{:.2}", train_err.rate() * 100.0),
            format!("{:.2}", test_err.rate() * 100.0),
        ]);
    };

    // A session's threshold search over the training tuples (50 x 50
    // equi-width bins, the grid of `array`) with `optimizer`'s settings.
    let segment = |optimizer: OptimizerConfig| -> Segmentation {
        Arcs::new(ArcsConfig { optimizer, ..ArcsConfig::default() })
            .and_then(|arcs| {
                arcs.open(&train, SegmentRequest::new("age", "salary", "group").group("A"))
            })
            .and_then(|mut session| session.segment())
            .expect("the search finds a segmentation")
    };

    // Full system (heuristic optimizer, defaults).
    let full = segment(OptimizerConfig::default());
    record("full system", &full.clusters);
    let best_thresholds = full.thresholds;

    // Paper §3.6: the same search, verifying each point on a seeded
    // sample of the training tuples instead of all of them.
    let config = ArcsConfig::default();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sample = sample_rows(&train, config.sample_size.min(train.len()), &mut rng)
        .expect("the sample is drawn");
    let sampled = optimize(&array, 0, &binner, &sample, &config.optimizer)
        .expect("optimizer finds a segmentation");
    record("§3.6: verify on 2,000 sampled tuples", &sampled.best.clusters);

    // No smoothing.
    let no_smooth = segment(OptimizerConfig {
        smoothing: SmoothConfig::disabled(),
        ..OptimizerConfig::default()
    });
    record("no smoothing", &no_smooth.clusters);

    // No pruning.
    let no_prune =
        segment(OptimizerConfig { bitop: BitOpConfig::no_pruning(), ..OptimizerConfig::default() });
    record("no pruning", &no_prune.clusters);

    // Neither smoothing nor pruning.
    let bare = segment(OptimizerConfig {
        smoothing: SmoothConfig::disabled(),
        bitop: BitOpConfig::no_pruning(),
        ..OptimizerConfig::default()
    });
    record("no smooth + no prune", &bare.clusters);

    // Support-weighted smoothing (§5) at the full system's thresholds.
    let sg = support_grid(&array, 0);
    let sw_grid = smooth_support(&sg, array.nx(), array.ny(), &SmoothConfig::default(), 0.10)
        .expect("support smoothing succeeds");
    let sw_clusters = bitop::cluster(&sw_grid, &BitOpConfig::default()).expect("bitop runs");
    record("support-weighted smooth", &sw_clusters);

    // Simulated annealing (§5) instead of the hill climb.
    let annealed = anneal(&array, 0, &AnnealConfig { steps: 150, seed, ..AnnealConfig::default() })
        .expect("annealing finds a segmentation");
    record("simulated annealing", &annealed.best.clusters);

    // Factorial-design search (§5) instead of the hill climb.
    let factorial = factorial_search(&array, 0, &FactorialConfig::default())
        .expect("factorial search finds a segmentation");
    record(
        &format!("factorial design ({} evals)", factorial.trace.len()),
        &factorial.best.clusters,
    );

    // Image-processing baseline: connected components + bounding boxes at
    // the full system's thresholds (over-covers non-rectangular regions).
    let cc_grid = {
        let grid = rule_grid(&array, 0, full.thresholds).expect("grid builds");
        smooth(&grid, &SmoothConfig::default()).expect("smoothing succeeds")
    };
    let components = connected_components(&cc_grid);
    record("connected components", &components);

    // Fixed thresholds without any optimizer (the best found, re-used).
    let grid = rule_grid(&array, 0, best_thresholds).expect("grid builds");
    let smoothed = smooth(&grid, &SmoothConfig::default()).expect("smoothing succeeds");
    let fixed = bitop::cluster(&smoothed, &BitOpConfig::default()).expect("bitop runs");
    record("no optimizer (fixed thresholds)", &fixed);

    println!("{}", if csv { table.to_csv() } else { table.render() });
    println!(
        "expected shape: the full system, annealing, and the factorial \
         design agree near 3 rules (the factorial screen needs ~5x fewer \
         evaluations); verifying on the §3.6 sample also finds 3 rules, at \
         thresholds whose error over all tuples is a little higher; \
         dropping pruning admits noise specks (worse MDL at similar error); \
         connected-components bounding boxes fuse the edge-adjacent F2 \
         disjuncts into one box that over-covers catastrophically — the \
         failure mode ARCS' exact rectangles avoid (its MDL cost is no \
         higher: the log2(errors) term barely charges 3x the errors)."
    );
}
