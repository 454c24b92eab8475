//! Integration tests for the §5 multi-attribute extension and the CSV
//! ingest path.

use std::io::Cursor;

use arcs::core::multidim::{box_errors, combine_rule_sets};
use arcs::data::csv::{read_csv, write_csv};
use arcs::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema_abc() -> Schema {
    Schema::new(vec![
        Attribute::quantitative("a", 0.0, 10.0),
        Attribute::quantitative("b", 0.0, 10.0),
        Attribute::quantitative("c", 0.0, 10.0),
        Attribute::categorical("g", ["X", "other"]),
    ])
    .unwrap()
}

/// Group X concentrates in the 3-D box a,b,c ∈ [2, 5).
fn boxy_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(schema_abc());
    for _ in 0..n {
        let a = rng.gen_range(0.0..10.0);
        let b = rng.gen_range(0.0..10.0);
        let c = rng.gen_range(0.0..10.0);
        let in_box = (2.0..5.0).contains(&a) && (2.0..5.0).contains(&b) && (2.0..5.0).contains(&c);
        // The box is dense in X; the rest is sparse background.
        let p_x = if in_box { 0.95 } else { 0.02 };
        let g = if rng.gen_bool(p_x) { 0 } else { 1 };
        ds.push(vec![Value::Quant(a), Value::Quant(b), Value::Quant(c), Value::Cat(g)]).unwrap();
    }
    ds
}

#[test]
fn combining_two_2d_segmentations_recovers_a_3d_box() {
    let ds = boxy_dataset(40_000, 9);
    let config = ArcsConfig { n_x_bins: 10, n_y_bins: 10, ..ArcsConfig::default() };
    let arcs = Arcs::new(config).unwrap();

    let seg_ab =
        arcs.open(&ds, SegmentRequest::new("a", "b", "g").group("X")).unwrap().segment().unwrap();
    let seg_bc =
        arcs.open(&ds, SegmentRequest::new("b", "c", "g").group("X")).unwrap().segment().unwrap();
    assert!(!seg_ab.rules.is_empty());
    assert!(!seg_bc.rules.is_empty());

    let boxes = combine_rule_sets(&seg_ab.rules, &seg_bc.rules);
    assert!(!boxes.is_empty(), "expected at least one joined 3-D box");
    assert!(boxes.iter().all(|b| b.dimensions() == 3));

    // Some joined box must approximate [2,5)^3 (the join can also produce
    // spurious combinations of unrelated clusters; those carry high error
    // and are filtered by the caller in practice).
    let approximates_cube = |b: &arcs::core::multidim::ClusterBox| {
        ["a", "b", "c"].iter().all(|attrname| {
            let (lo, hi) = b.ranges[*attrname];
            (lo - 2.0).abs() < 1.2 && (hi - 5.0).abs() < 1.2
        })
    };
    let cube = boxes
        .iter()
        .find(|b| approximates_cube(b))
        .unwrap_or_else(|| panic!("no box approximates the cube; boxes: {boxes:#?}"));

    // The cube's error against the labels should beat the 2-D projection
    // (a 2-D cluster must over-cover: it cannot constrain the third
    // attribute).
    let err_3d = box_errors(std::slice::from_ref(cube), &ds, "g", "X").unwrap();
    let ab_boxes: Vec<_> =
        seg_ab.rules.iter().map(arcs::core::multidim::ClusterBox::from_rule).collect();
    let err_2d = box_errors(&ab_boxes, &ds, "g", "X").unwrap();
    assert!(
        err_3d.false_positives < err_2d.false_positives,
        "3-D FP {} should beat 2-D FP {}",
        err_3d.false_positives,
        err_2d.false_positives
    );
}

#[test]
fn csv_roundtrip_preserves_segmentation() {
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(11)).unwrap();
    let ds = gen.generate(8_000);

    let mut buf = Vec::new();
    write_csv(&ds, &mut buf).unwrap();
    let reloaded = read_csv(ds.schema().clone(), Cursor::new(&buf)).unwrap();
    assert_eq!(reloaded.len(), ds.len());

    let arcs = Arcs::with_defaults();
    let original = arcs
        .open(&ds, SegmentRequest::new("age", "salary", "group").group("A"))
        .unwrap()
        .segment()
        .unwrap();
    let roundtrip = arcs
        .open(&reloaded, SegmentRequest::new("age", "salary", "group").group("A"))
        .unwrap()
        .segment()
        .unwrap();
    // CSV stores full f64 precision (`{}` formatting), so clusters must be
    // identical.
    assert_eq!(original.clusters, roundtrip.clusters);
}
