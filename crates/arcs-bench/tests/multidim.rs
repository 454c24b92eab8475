//! Integration test for the §5 multi-attribute extension: two 2-D
//! segmentations joined into 3-D boxes.

use arcs_bench::cube_workload;
use arcs_bench::multidim::{box_errors, combine_rule_sets, ClusterBox};
use arcs_core::{Arcs, ArcsConfig, SegmentRequest};

/// Joining the (a, b) and (b, c) segmentations recovers the cube
/// a,b,c ∈ [2, 5) in which group X concentrates.
#[test]
fn combining_two_2d_segmentations_recovers_a_3d_box() {
    let ds = cube_workload(40_000, 9);
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
    let approximates_cube = |b: &ClusterBox| {
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
    let ab_boxes: Vec<_> = seg_ab.rules.iter().map(ClusterBox::from_rule).collect();
    let err_2d = box_errors(&ab_boxes, &ds, "g", "X").unwrap();
    assert!(
        err_3d.false_positives < err_2d.false_positives,
        "3-D FP {} should beat 2-D FP {}",
        err_3d.false_positives,
        err_2d.false_positives
    );
}
