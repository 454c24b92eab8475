//! End-to-end integration tests: the full ARCS pipeline against the
//! paper's synthetic workload, spanning `arcs-data` and `arcs-core`.

use arcs::core::categorical::{segment_categorical, CategoricalConfig};
use arcs::core::optimizer::OptimizerConfig;
use arcs::core::verify::region_error;
use arcs::prelude::*;
use arcs_data::agrawal::{attr, f2_regions, GROUP_A};

/// The paper's headline result (§4.2): three clustered rules matching the
/// generating disjuncts, with small region error.
#[test]
fn arcs_recovers_f2_disjuncts_with_low_region_error() {
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(1)).unwrap();
    let ds = gen.generate(30_000);
    let arcs = Arcs::with_defaults();
    let seg = arcs
        .open(&ds, SegmentRequest::new("age", "salary", "group").group("A"))
        .unwrap()
        .segment()
        .unwrap();
    assert_eq!(seg.rules.len(), 3);

    let binner = Binner::equi_width(ds.schema(), "age", "salary", "group", 50, 50).unwrap();
    let exact = region_error(
        &seg.clusters,
        &binner,
        &f2_regions(),
        (20.0, 80.0),
        (20_000.0, 150_000.0),
        200,
    )
    .unwrap();
    let err = exact.total() as f64 / exact.n_examined as f64;
    assert!(err < 0.08, "region error {err} too high");
}

/// With 10% outliers ARCS still produces exactly three rules (paper §4.2:
/// "in every experimental run ARCS always produced three clustered
/// association rules ... and effectively removed all noise and outliers").
#[test]
fn arcs_withstands_ten_percent_outliers() {
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults_with_outliers(2)).unwrap();
    let ds = gen.generate(30_000);
    let arcs = Arcs::with_defaults();
    let seg = arcs
        .open(&ds, SegmentRequest::new("age", "salary", "group").group("A"))
        .unwrap()
        .segment()
        .unwrap();
    assert_eq!(
        seg.rules.len(),
        3,
        "rules: {:#?}",
        seg.rules.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
    // Every rule keeps decent confidence despite the injected outliers.
    for rule in &seg.rules {
        assert!(rule.confidence > 0.7, "{rule} confidence {}", rule.confidence);
    }
}

/// Streaming over the generator must match the in-memory path given the
/// same data (constant-memory one-pass claim, §4.3): the stream is never
/// collected, and the whole segmentation — errors and score included —
/// equals the dataset path's.
#[test]
fn stream_and_dataset_paths_agree() {
    let config = GeneratorConfig::paper_defaults(3);
    let ds = AgrawalGenerator::new(config.clone()).unwrap().generate(15_000);
    let arcs = Arcs::with_defaults();
    let request = SegmentRequest::new("age", "salary", "group").group("A");
    let by_dataset = arcs.open(&ds, request.clone()).unwrap().segment().unwrap();
    let stream = AgrawalGenerator::new(config).unwrap().take(15_000);
    let by_stream = arcs.open_stream(ds.schema(), stream, request).unwrap().segment().unwrap();
    assert_eq!(by_dataset, by_stream);
    assert_eq!(by_stream.errors.n_examined, 15_000);
}

/// Segmenting the *other* group works off the same bin array semantics and
/// produces complementary coverage.
#[test]
fn other_group_segmentation_is_complementary() {
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(4)).unwrap();
    let ds = gen.generate(20_000);
    let arcs = Arcs::with_defaults();
    let a = arcs
        .open(&ds, SegmentRequest::new("age", "salary", "group").group("A"))
        .unwrap()
        .segment()
        .unwrap();
    let other = arcs
        .open(&ds, SegmentRequest::new("age", "salary", "group").group("other"))
        .unwrap()
        .segment()
        .unwrap();
    assert!(!a.rules.is_empty());
    assert!(!other.rules.is_empty());
    // The "other" clusters should avoid the A disjunct cores.
    let a_core = (30.0, 75_000.0); // centre of the first disjunct
    assert!(a.rules.iter().any(|r| r.covers(a_core.0, a_core.1)));
    assert!(!other.rules.iter().any(|r| r.covers(a_core.0, a_core.1)));
}

/// Categorical × quantitative segmentation (§5 extension) on Agrawal data:
/// Group A by Function 10 depends on elevel, so (elevel, salary) space has
/// signal; the run must simply succeed and produce sane rules.
#[test]
fn categorical_segmentation_on_agrawal_data() {
    let config =
        GeneratorConfig { function: AgrawalFunction::F8, ..GeneratorConfig::paper_defaults(5) };
    let mut gen = AgrawalGenerator::new(config).unwrap();
    let ds = gen.generate(20_000);
    let seg = segment_categorical(
        &ds,
        "elevel",
        "salary",
        "group",
        "A",
        &CategoricalConfig { n_quant_bins: 20, optimizer: OptimizerConfig::default() },
    )
    .unwrap();
    assert!(!seg.rules.is_empty());
    for rule in &seg.rules {
        assert!(!rule.category_codes.is_empty());
        assert!(rule.quant_range.0 < rule.quant_range.1);
        assert!(rule.confidence > 0.5, "{rule}");
    }
}

/// The paper's §1 motivating scenario end to end: a three-way
/// profitability rating segmented per group off ONE shared binning
/// (§3.1's no-re-binning claim), with each rating's regions recovered.
#[test]
fn three_way_profitability_segmentation() {
    let ds = arcs::data::generator::generate_three_way(40_000, 0.05, 13).unwrap();
    let arcs = Arcs::with_defaults();
    let all = arcs
        .open(&ds, SegmentRequest::new("age", "salary", "rating"))
        .unwrap()
        .segment_all()
        .unwrap();
    assert_eq!(all.len(), 3);

    let excellent = all
        .iter()
        .find(|(label, _)| label == "excellent")
        .and_then(|(_, seg)| seg.as_ref().ok())
        .expect("excellent segments");
    // The "excellent" rating is exactly Function 2: three disjuncts.
    assert_eq!(
        excellent.rules.len(),
        3,
        "excellent rules: {:#?}",
        excellent.rules.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
    assert!(excellent.errors.recall() > 0.8);

    let above = all
        .iter()
        .find(|(label, _)| label == "above_average")
        .and_then(|(_, seg)| seg.as_ref().ok())
        .expect("above_average segments");
    assert!(!above.rules.is_empty());
    // The above-average bands sit directly above the excellent bands:
    // no overlap between the two segmentations' rules in value space.
    for a in &excellent.rules {
        for b in &above.rules {
            let x_overlap = a.x_range.0 < b.x_range.1 && b.x_range.0 < a.x_range.1;
            let y_overlap = a.y_range.0 < b.y_range.1 && b.y_range.0 < a.y_range.1;
            assert!(
                !(x_overlap && y_overlap),
                "excellent rule {a} overlaps above_average rule {b}"
            );
        }
    }
}

/// The Figure 2 loop exposes its diagnostics: evaluations counted, score
/// consistent with rules and errors.
#[test]
fn segmentation_diagnostics_are_consistent() {
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(6)).unwrap();
    let ds = gen.generate(10_000);
    let arcs = Arcs::with_defaults();
    let seg = arcs
        .open(&ds, SegmentRequest::new("age", "salary", "group").group("A"))
        .unwrap()
        .segment()
        .unwrap();
    assert_eq!(seg.score.n_clusters, seg.clusters.len());
    assert_eq!(seg.rules.len(), seg.clusters.len());
    assert_eq!(seg.score.errors, seg.errors.total());
    assert!(seg.evaluations >= 1);
    assert_eq!(seg.n_tuples, 10_000);
    // Support of each rule is bounded by the group's share of tuples.
    let frac_a =
        ds.iter().filter(|t| t.cat(attr::GROUP) == GROUP_A).count() as f64 / ds.len() as f64;
    for rule in &seg.rules {
        assert!(rule.support <= frac_a + 1e-9);
        assert!((0.0..=1.0).contains(&rule.confidence));
    }
}
