//! Robust-ingest properties: randomly corrupted CSV bytes must make the
//! Strict policy error, must never panic (or mis-count) the lenient
//! policies, an interrupted checkpointed binning pass must resume to
//! a bit-identical `BinArray`, and a CSV round trip must not move a
//! segmentation.

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

/// The kill-and-resume guarantee on real workload data: a binning pass
/// killed mid-stream, then resumed from its last snapshot over the same
/// rows, produces a `BinArray` bit-identical to an uninterrupted run, and
/// the same segmentation. A snapshot of another grid, or of more rows
/// than the input holds, is refused.
#[test]
fn interrupted_bin_stream_resumes_bit_identical() {
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(7)).unwrap();
    let ds = gen.generate(5_000);
    let config = ArcsConfig { n_x_bins: 30, n_y_bins: 30, ..ArcsConfig::default() };
    let arcs = Arcs::new(config.clone()).unwrap();
    let request = || SegmentRequest::new("age", "salary", "group").group("A");
    let mut reference = arcs.open(&ds, request()).unwrap();

    let dir = std::env::temp_dir().join("arcs-resume-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e2e.ckpt");
    std::fs::remove_file(&path).ok();

    // Bins `rows` 1_000 at a time, replacing the snapshot after each chunk.
    let bin_checkpointed = |session: &mut Session, rows: &[Tuple]| {
        for chunk in rows.chunks(1_000) {
            session.append_rows(chunk).unwrap();
            let mut bytes = Vec::new();
            session.bin_array().write_to(&mut bytes).unwrap();
            arcs::core::wal::write_atomic(&path, &bytes).unwrap();
        }
    };
    let snapshot = || BinArray::read_from(&mut std::fs::read(&path).unwrap().as_slice()).unwrap();

    // The process "dies" after 2_500 rows — past the snapshots at 1_000
    // and 2_000, with its last one at 2_500 — and its session is lost.
    let mut doomed = arcs.open_binned(&ds, None, request()).unwrap();
    bin_checkpointed(&mut doomed, &ds.rows()[..2_500]);
    drop(doomed);

    // Restart over the same rows: the snapshot is honoured and the tail
    // binned onto it.
    let prefix = snapshot();
    assert_eq!(prefix.n_tuples(), 2_500);
    let mut resumed = arcs.open_binned(&ds, Some(prefix), request()).unwrap();
    bin_checkpointed(&mut resumed, &ds.rows()[2_500..]);
    assert_eq!(resumed.bin_array(), reference.bin_array());

    // Bit-identical serialized form, not just structural equality — in
    // memory and in the final snapshot on disk.
    let (mut a, mut b) = (Vec::new(), Vec::new());
    reference.bin_array().write_to(&mut a).unwrap();
    resumed.bin_array().write_to(&mut b).unwrap();
    assert_eq!(a, b);
    assert_eq!(std::fs::read(&path).unwrap(), a);

    // The resumed session segments exactly as an in-memory run over the
    // full dataset.
    assert_eq!(resumed.segment().unwrap(), reference.segment().unwrap());

    // A snapshot of a different grid than the plan is refused.
    let other = Arcs::new(ArcsConfig { n_x_bins: 20, n_y_bins: 20, ..config }).unwrap();
    let err = other.open_binned(&ds, Some(snapshot()), request()).unwrap_err();
    assert!(matches!(err, ArcsError::Checkpoint { .. }), "{err:?}");

    // So is a snapshot covering more rows than the input holds.
    let mut short = Dataset::new(ds.schema().clone());
    for row in &ds.rows()[..1_000] {
        short.push_tuple(row.clone());
    }
    let err = arcs.open_binned(&short, Some(snapshot()), request()).unwrap_err();
    assert!(matches!(err, ArcsError::Checkpoint { .. }), "{err:?}");

    std::fs::remove_file(&path).ok();
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
        ds.push(vec![Value::Quant(5.5), Value::Quant(5.5), Value::Cat(0)]).unwrap();
    }
    for i in 0..300 {
        ds.push(vec![
            Value::Quant((i % 10) as f64 + 0.5),
            Value::Quant(((i / 10) % 10) as f64 + 0.5),
            Value::Cat(1),
        ])
        .unwrap();
    }
    let mut config = ArcsConfig { n_x_bins: 10, n_y_bins: 10, ..ArcsConfig::default() };
    // Clusters need 4 cells (3.5% of 10x10); group A only ever fills one.
    config.optimizer.bitop = BitOpConfig { min_area_fraction: 0.035, threads: 1 };
    let arcs = Arcs::new(config.clone()).unwrap();
    let seg =
        arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("A")).unwrap().segment().unwrap();
    assert!(seg.degraded);
    assert!(!seg.relaxation_steps.is_empty());
    assert!(!seg.clusters.is_empty());

    // With degradation off the same dataset is a hard NoSegmentation.
    config.degrade_on_no_segmentation = false;
    let strict = Arcs::new(config).unwrap();
    assert!(matches!(
        strict
            .open(&ds, SegmentRequest::new("x", "y", "g").group("A"))
            .and_then(|mut s| s.segment()),
        Err(ArcsError::NoSegmentation)
    ));
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
