//! PR 5 acceptance test: `Session::remine` is output-sensitive. On a
//! sparse dataset the re-mining cost — observed through the
//! `cells_visited` pipeline counter — is bounded by the number of
//! *occupied* bin-array cells, never the full `nx × ny` grid.

use arcs::core::engine::mine_rules;
use arcs::prelude::*;

/// A dataset whose tuples pile into a handful of (x, y) spots, so the
/// 50×50 default grid is almost entirely empty.
fn sparse_dataset() -> Dataset {
    let schema = Schema::new(vec![
        Attribute::quantitative("x", 0.0, 100.0),
        Attribute::quantitative("y", 0.0, 100.0),
        Attribute::categorical("g", ["a", "b"]),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    // Six tight spots; each lands in (at most a 2×2 patch of) bins.
    let spots = [
        (10.0, 10.0, 0u32),
        (10.0, 12.0, 0),
        (30.0, 70.0, 0),
        (55.0, 20.0, 1),
        (80.0, 80.0, 0),
        (95.0, 5.0, 1),
    ];
    for (i, &(x, y, g)) in spots.iter().cycle().take(600).enumerate() {
        let jitter = (i % 5) as f64 * 0.1;
        ds.push(&[Value::Quant(x + jitter), Value::Quant(y + jitter), Value::Cat(g)]).unwrap();
    }
    ds
}

#[test]
fn remine_visits_only_occupied_cells() {
    let ds = sparse_dataset();
    let request = SegmentRequest::new("x", "y", "g").group("a");
    let mut session = Arcs::with_defaults().open(&ds, request).unwrap();

    let ba = session.bin_array();
    let occupied = ba.occupied_cells().count() as u64;
    let full_grid = (ba.nx() * ba.ny()) as u64;
    assert!(
        occupied <= 24 && full_grid == 2_500,
        "fixture drifted: {occupied} occupied of {full_grid}"
    );

    let before = session.report().counters.cells_visited;
    let thresholds = Thresholds::new(0.05, 0.3).unwrap();
    let rules = session.remine(thresholds).unwrap();
    let visited = session.report().counters.cells_visited - before;

    assert!(visited > 0, "counter never moved");
    assert!(visited <= occupied, "remine visited {visited} cells but only {occupied} are occupied");
    // And nowhere near a full scan.
    assert!(visited * 100 < full_grid);

    // Output-sensitivity must not change the answer: the indexed path
    // agrees with the naive full-scan reference.
    assert_eq!(rules, mine_rules(session.bin_array(), 0, thresholds));

    // Every further re-mine pays the same occupied-cell bound (the index
    // is built once and reused).
    let before = session.report().counters.cells_visited;
    for s in [0.01, 0.1, 0.4] {
        session.remine(Thresholds::new(s, 0.2).unwrap()).unwrap();
    }
    let visited = session.report().counters.cells_visited - before;
    assert!(visited <= 3 * occupied, "three re-mines visited {visited}");
}
