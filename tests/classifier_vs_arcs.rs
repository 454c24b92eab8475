//! Integration of the C4.5 baseline with the ARCS pipeline — the paper's
//! §4.2 comparison claims, at test-suite scale.

use arcs::core::verify::verify_counts;
use arcs::prelude::*;
use rand::SeedableRng;

fn workload(n: usize, u: f64, seed: u64) -> (Dataset, Dataset) {
    let config = GeneratorConfig { outlier_fraction: u, ..GeneratorConfig::paper_defaults(seed) };
    let mut gen = AgrawalGenerator::new(config).unwrap();
    (gen.generate(n), gen.generate(4_000))
}

#[test]
fn both_systems_learn_f2_without_noise() {
    let (train, test) = workload(15_000, 0.0, 1);

    let arcs = Arcs::with_defaults();
    let seg = arcs
        .open(&train, SegmentRequest::new("age", "salary", "group").group("A"))
        .unwrap()
        .segment()
        .unwrap();
    let binner = Binner::equi_width(train.schema(), "age", "salary", "group", 50, 50).unwrap();
    let test_array = binner.bin_rows_parallel(test.rows(), 1).unwrap();
    let arcs_err = verify_counts(&seg.clusters, &test_array, 0).rate();

    let tree = DecisionTree::train(&train, "group", TreeConfig::default()).unwrap();
    let tree_err = tree.error_rate(&test);

    assert!(arcs_err < 0.12, "ARCS error {arcs_err}");
    assert!(tree_err < 0.12, "C4.5 error {tree_err}");
}

/// Figure 13/14 shape: C4.5 produces significantly more rules than ARCS.
#[test]
fn c45_produces_many_more_rules_than_arcs() {
    let (train, _test) = workload(15_000, 0.10, 2);

    let arcs = Arcs::with_defaults();
    let seg = arcs
        .open(&train, SegmentRequest::new("age", "salary", "group").group("A"))
        .unwrap()
        .segment()
        .unwrap();

    let tree = DecisionTree::train(&train, "group", TreeConfig::default()).unwrap();
    let rules = RuleSet::from_tree(&tree, &train, RulesConfig::default()).unwrap();

    assert!(seg.rules.len() <= 4, "ARCS rules: {}", seg.rules.len());
    assert!(
        rules.len() > 3 * seg.rules.len(),
        "C4.5 {} rules vs ARCS {}",
        rules.len(),
        seg.rules.len()
    );
}

/// Figure 12 shape: with 10% outliers ARCS stays competitive with C4.5.
#[test]
fn with_outliers_arcs_is_competitive() {
    let (train, test) = workload(20_000, 0.10, 3);

    let arcs = Arcs::with_defaults();
    let seg = arcs
        .open(&train, SegmentRequest::new("age", "salary", "group").group("A"))
        .unwrap()
        .segment()
        .unwrap();
    let binner = Binner::equi_width(train.schema(), "age", "salary", "group", 50, 50).unwrap();
    let test_array = binner.bin_rows_parallel(test.rows(), 1).unwrap();
    let arcs_err = verify_counts(&seg.clusters, &test_array, 0).rate();

    let tree = DecisionTree::train(&train, "group", TreeConfig::default()).unwrap();
    let rules = RuleSet::from_tree(&tree, &train, RulesConfig::default()).unwrap();
    let rules_err = rules.error_rate(&test);

    // Both sit near the 10% outlier noise floor; ARCS within 1.6x of C4.5.
    assert!(arcs_err < 0.25, "ARCS error {arcs_err}");
    assert!(rules_err < 0.25, "C4.5RULES error {rules_err}");
    assert!(
        arcs_err < rules_err * 1.6 + 0.02,
        "ARCS {arcs_err} not competitive with C4.5RULES {rules_err}"
    );
}

/// The rule set's predictions agree with the tree on a large majority of
/// tuples (C4.5RULES is a generalization of the tree, not a new model).
#[test]
fn rules_approximate_their_tree() {
    let (train, test) = workload(8_000, 0.0, 4);
    let tree = DecisionTree::train(&train, "group", TreeConfig::default()).unwrap();
    let rules = RuleSet::from_tree(&tree, &train, RulesConfig::default()).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let tuples = arcs::data::sample::sample_rows(&test, test.len(), &mut rng).unwrap();
    let agree = tuples.iter().filter(|&&t| tree.predict(t) == rules.predict(t)).count() as f64
        / test.len() as f64;
    assert!(agree > 0.85, "tree/rules agreement {agree}");
}
