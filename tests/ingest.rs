//! Robust-ingest properties: randomly corrupted CSV bytes must make the
//! Strict policy error, must never panic (or mis-count) the lenient
//! policies, a dataset too sparse for the search must degrade instead of
//! failing, and a CSV round trip must not move a segmentation.

use std::io::Cursor;

use proptest::collection::vec;
use proptest::prelude::*;

use arcs::data::csv::{read_csv, read_csv_with_policy, write_csv};
use arcs::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::quantitative("age", 0.0, 100.0),
        Attribute::categorical("group", ["A", "B"]),
    ])
    .unwrap()
}

/// One injectable corruption: the raw line and the issue kind the report
/// must attribute it to.
fn bad_line(kind: u8) -> (&'static str, IssueKind) {
    match kind % 5 {
        0 => ("42.0", IssueKind::FieldCount),  // truncated row
        1 => ("abc,A", IssueKind::NonNumeric), // garbage number
        2 => ("NaN,A", IssueKind::NonFinite),  // parses, not finite
        3 => ("inf,B", IssueKind::NonFinite),
        _ => ("42.0,Z", IssueKind::UnknownLabel), // out-of-range category
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corruptions injected at random positions: Strict errors on the
    /// first bad line; Skip and Quarantine never panic, keep exactly the
    /// clean rows, and the report counts match the injections exactly —
    /// per kind, per line, and in the quarantine sink.
    #[test]
    fn corrupted_csv_counts_match_injections(
        n_clean in 1usize..80,
        injections in vec((0usize..200, 0u8..5), 0..25),
    ) {
        // Clean rows interleaved with tagged corruptions.
        let mut lines: Vec<(String, Option<IssueKind>)> = (0..n_clean)
            .map(|i| {
                let label = if i % 2 == 0 { "A" } else { "B" };
                (format!("{}.5,{label}", i % 99), None)
            })
            .collect();
        for &(pos, kind) in &injections {
            let (line, k) = bad_line(kind);
            let idx = pos % (lines.len() + 1);
            lines.insert(idx, (line.to_string(), Some(k)));
        }
        let mut csv = String::from("age,group\n");
        for (l, _) in &lines {
            csv.push_str(l);
            csv.push('\n');
        }
        let n_bad = lines.iter().filter(|(_, k)| k.is_some()).count();

        // Strict: the first corruption aborts with its 1-based file line
        // (data starts on line 2, after the header).
        let strict = read_csv(schema(), csv.as_bytes());
        if n_bad == 0 {
            prop_assert!(strict.is_ok());
        } else {
            let first_bad =
                lines.iter().position(|(_, k)| k.is_some()).unwrap() + 2;
            match strict {
                Err(DataError::Parse { line, .. }) => prop_assert_eq!(line, first_bad),
                other => prop_assert!(false, "expected Parse error, got ok={}", other.is_ok()),
            }
        }

        // Skip: completes, keeps exactly the clean rows, exact counts.
        let (ds, report) =
            read_csv_with_policy(schema(), csv.as_bytes(), IngestPolicy::Skip { max_bad_fraction: 1.0 }, None)
                .unwrap();
        prop_assert_eq!(ds.len(), n_clean);
        prop_assert_eq!(report.rows_read, n_clean + n_bad);
        prop_assert_eq!(report.rows_kept, n_clean);
        prop_assert_eq!(report.rows_skipped, n_bad);
        prop_assert_eq!(report.rows_quarantined, 0);
        for kind in IssueKind::ALL {
            let expected = lines.iter().filter(|(_, k)| *k == Some(kind)).count();
            prop_assert_eq!(report.count_of(kind), expected, "kind {}", kind);
        }
        // Every recorded issue points at the right file line.
        for issue in report.issues() {
            let (_, k) = &lines[issue.line - 2];
            prop_assert_eq!(Some(issue.kind), *k);
        }

        // Quarantine: the sink holds exactly the raw bad lines, in order.
        let mut sink = Vec::new();
        let (ds2, report2) = read_csv_with_policy(
            schema(),
            csv.as_bytes(),
            IngestPolicy::Quarantine { max_bad_fraction: 1.0 },
            Some(&mut sink),
        )
        .unwrap();
        prop_assert_eq!(ds2.len(), n_clean);
        prop_assert_eq!(report2.rows_quarantined, n_bad);
        prop_assert_eq!(report2.rows_skipped, n_bad);
        let expected: String = lines
            .iter()
            .filter(|(_, k)| k.is_some())
            .map(|(l, _)| format!("{l}\n"))
            .collect();
        prop_assert_eq!(String::from_utf8(sink).unwrap(), expected);
    }

    /// The bad-row ceiling is exact: loading succeeds iff the bad fraction
    /// does not exceed `max_bad_fraction`.
    #[test]
    fn max_bad_fraction_threshold_is_exact(
        n_clean in 1usize..40,
        n_bad in 0usize..40,
        ceiling in 0.0f64..1.0,
    ) {
        let mut csv = String::from("age,group\n");
        for i in 0..n_clean {
            csv.push_str(&format!("{}.5,A\n", i % 99));
        }
        for _ in 0..n_bad {
            csv.push_str("abc,A\n");
        }
        let policy = IngestPolicy::Skip { max_bad_fraction: ceiling };
        let result = read_csv_with_policy(schema(), csv.as_bytes(), policy, None);
        let fraction = n_bad as f64 / (n_clean + n_bad) as f64;
        if fraction > ceiling {
            let is_too_many = matches!(result, Err(DataError::TooManyBadRows { .. }));
            prop_assert!(is_too_many);
        } else {
            prop_assert!(result.is_ok());
        }
    }
}

/// Acceptance scenario: a dataset whose qualifying cells are always
/// pruned away yields a *degraded* segmentation (with its relaxation
/// steps recorded) instead of `NoSegmentation`.
#[test]
fn too_tight_thresholds_degrade_instead_of_failing() {
    let schema = Schema::new(vec![
        Attribute::quantitative("x", 0.0, 10.0),
        Attribute::quantitative("y", 0.0, 10.0),
        Attribute::categorical("g", ["A", "other"]),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for _ in 0..30 {
        ds.push(&[Value::Quant(5.5), Value::Quant(5.5), Value::Cat(0)]).unwrap();
    }
    for i in 0..300 {
        ds.push(&[
            Value::Quant((i % 10) as f64 + 0.5),
            Value::Quant(((i / 10) % 10) as f64 + 0.5),
            Value::Cat(1),
        ])
        .unwrap();
    }
    let mut config = ArcsConfig { n_x_bins: 10, n_y_bins: 10, ..ArcsConfig::default() };
    // Clusters need 4 cells (3.5% of 10x10); group A only ever fills one.
    config.optimizer.bitop = BitOpConfig { min_area_fraction: 0.035, threads: 1 };
    let arcs = Arcs::new(config).unwrap();
    let seg =
        arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("A")).unwrap().segment().unwrap();
    assert!(seg.degraded);
    assert!(!seg.relaxation_steps.is_empty());
    assert!(!seg.clusters.is_empty());
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
