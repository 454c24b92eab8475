//! Robustness: the pipeline never panics on arbitrary (valid) inputs — it
//! either produces a segmentation or returns a typed error.

use proptest::collection::vec;
use proptest::prelude::*;

use arcs::core::optimizer::OptimizerConfig;
use arcs::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random small datasets with mixed structure: the session pipeline
    /// always returns `Ok` or a typed `Err` and upholds its output
    /// invariants when it succeeds.
    #[test]
    fn pipeline_never_panics(
        rows in vec((0.0f64..10.0, 0.0f64..10.0, 0u32..2), 1..200),
        bins in 2usize..12,
    ) {
        let schema = Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("g", ["A", "other"]),
        ]).unwrap();
        let mut ds = Dataset::new(schema);
        for &(x, y, g) in &rows {
            ds.push(&[Value::Quant(x), Value::Quant(y), Value::Cat(g)]).unwrap();
        }
        let arcs = Arcs::new(ArcsConfig {
            n_x_bins: bins,
            n_y_bins: bins,
            ..ArcsConfig::default()
        }).unwrap();
        match arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("A"))
            .and_then(|mut s| s.segment())
        {
            Ok(seg) => {
                prop_assert_eq!(seg.rules.len(), seg.clusters.len());
                prop_assert_eq!(seg.n_tuples, rows.len() as u64);
                for rect in &seg.clusters {
                    prop_assert!(rect.x1 < bins && rect.y1 < bins);
                }
                for rule in &seg.rules {
                    prop_assert!(rule.x_range.0 < rule.x_range.1);
                    prop_assert!(rule.y_range.0 < rule.y_range.1);
                    prop_assert!((0.0..=1.0).contains(&rule.support));
                    prop_assert!((0.0..=1.0).contains(&rule.confidence));
                }
            }
            // Acceptable: no group-A tuple ever forms a cluster.
            Err(ArcsError::NoSegmentation) => {}
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    /// The equi-depth strategy handles arbitrary (including heavily
    /// duplicated) value distributions.
    #[test]
    fn equi_depth_pipeline_never_panics(
        rows in vec((0u8..5, 0u8..5, 0u32..2), 20..120),
    ) {
        let schema = Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("g", ["A", "other"]),
        ]).unwrap();
        let mut ds = Dataset::new(schema);
        // Heavily quantised values: equi-depth edges collapse.
        for &(x, y, g) in &rows {
            ds.push(&[
                Value::Quant(x as f64 * 2.0),
                Value::Quant(y as f64 * 2.0),
                Value::Cat(g),
            ]).unwrap();
        }
        let arcs = Arcs::new(ArcsConfig {
            n_x_bins: 8,
            n_y_bins: 8,
            strategy: BinningStrategy::EquiDepth,
            optimizer: OptimizerConfig {
                smoothing: SmoothConfig::disabled(),
                ..OptimizerConfig::default()
            },
            ..ArcsConfig::default()
        }).unwrap();
        match arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("A"))
            .and_then(|mut s| s.segment())
        {
            Ok(_) | Err(ArcsError::NoSegmentation) => {}
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    /// The C4.5 tree and its rule set train on arbitrary small datasets
    /// without panicking, and their error rates stay in [0, 1].
    #[test]
    fn classifiers_never_panic(
        rows in vec((0.0f64..10.0, 0u32..3, 0u32..2), 2..150),
    ) {
        let schema = Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::categorical("c", ["p", "q", "r"]),
            Attribute::categorical("class", ["a", "b"]),
        ]).unwrap();
        let mut ds = Dataset::new(schema);
        for &(x, c, class) in &rows {
            ds.push(&[Value::Quant(x), Value::Cat(c), Value::Cat(class)]).unwrap();
        }
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        let err = tree.error_rate(&ds);
        prop_assert!((0.0..=1.0).contains(&err));

        let rules = RuleSet::from_tree(&tree, &ds, RulesConfig::default()).unwrap();
        let err = rules.error_rate(&ds);
        prop_assert!((0.0..=1.0).contains(&err));
    }
}
