//! End-to-end integration tests: the full ARCS pipeline against the
//! paper's synthetic workload, spanning `arcs-data` and `arcs-core`.

use arcs::core::categorical::{segment_categorical, CategoricalConfig, CategoricalSegmentation};
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

/// The (elevel, salary) workload of the categorical tests: Agrawal
/// Function 8, whose Group A depends on elevel.
fn f8_dataset() -> Dataset {
    let config =
        GeneratorConfig { function: AgrawalFunction::F8, ..GeneratorConfig::paper_defaults(5) };
    AgrawalGenerator::new(config).unwrap().generate(20_000)
}

fn segment_f8(
    ds: &Dataset,
    optimizer: OptimizerConfig,
) -> Result<CategoricalSegmentation, ArcsError> {
    let config = CategoricalConfig { n_quant_bins: 20, optimizer };
    segment_categorical(ds, "elevel", "salary", "group", "A", &config)
}

/// Categorical × quantitative segmentation (§5 extension) on Agrawal data:
/// (elevel, salary) space has signal for Group A under Function 8; the
/// run must simply succeed and produce sane rules.
#[test]
fn categorical_segmentation_on_agrawal_data() {
    let seg = segment_f8(&f8_dataset(), OptimizerConfig::default()).unwrap();
    assert!(!seg.rules.is_empty());
    for rule in &seg.rules {
        assert!(!rule.category_codes.is_empty());
        assert!(rule.quant_range.0 < rule.quant_range.1);
        assert!(rule.confidence > 0.5, "{rule}");
    }
}

/// The categorical segmentation runs the one threshold search, under its
/// whole configuration: an expired wall-clock budget evaluates no point,
/// so nothing segments, and zero search threads is refused.
#[test]
fn categorical_segmentation_honours_the_search_configuration() {
    let ds = f8_dataset();
    let expired = OptimizerConfig {
        max_wall_time: Some(std::time::Duration::ZERO),
        ..OptimizerConfig::default()
    };
    assert!(matches!(segment_f8(&ds, expired), Err(ArcsError::NoSegmentation)));
    let no_threads = OptimizerConfig { threads: 0, ..OptimizerConfig::default() };
    assert!(matches!(segment_f8(&ds, no_threads), Err(ArcsError::InvalidConfig(_))));
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
    let frac_a = ds.cat(attr::GROUP).unwrap().iter().filter(|&&g| g == GROUP_A).count() as f64
        / ds.len() as f64;
    for rule in &seg.rules {
        assert!(rule.support <= frac_a + 1e-9);
        assert!((0.0..=1.0).contains(&rule.confidence));
    }
}
