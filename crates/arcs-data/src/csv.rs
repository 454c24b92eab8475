//! Minimal CSV load/store for datasets.
//!
//! The format is deliberately simple (no quoting — attribute labels and
//! names must not contain commas or newlines): a header row with attribute
//! names, then one row per tuple. Quantitative values are written as
//! decimal numbers; categorical values are written as their labels and
//! resolved back to codes on load.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::ingest::{IngestPolicy, IngestReport, IssueKind};
use crate::schema::{AttrKind, Attribute, Schema};
use crate::tuple::Value;

/// Strips a trailing carriage return so CRLF files parse like LF files.
fn clean_line(line: &str) -> &str {
    line.strip_suffix('\r').unwrap_or(line)
}

/// Whether a line is blank (empty or whitespace-only) and must be skipped.
/// `read_csv` and `infer_schema` share this definition so the two passes
/// always agree on which physical lines carry data.
fn is_blank(line: &str) -> bool {
    line.trim().is_empty()
}

/// Serialises `dataset` as CSV into `writer`.
pub fn write_csv<W: Write>(dataset: &Dataset, writer: W) -> Result<(), DataError> {
    let mut w = BufWriter::new(writer);
    let schema = dataset.schema();
    let header: Vec<&str> = schema.attributes().iter().map(|a| a.name.as_str()).collect();
    writeln!(w, "{}", header.join(","))?;
    for tuple in dataset.iter() {
        let mut first = true;
        for (idx, attr) in schema.attributes().iter().enumerate() {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            match (&attr.kind, tuple.get(idx)) {
                (AttrKind::Quantitative { .. }, Some(Value::Quant(v))) => write!(w, "{v}")?,
                (AttrKind::Categorical { .. }, Some(Value::Cat(c))) => {
                    let label = attr.label(c).ok_or_else(|| DataError::CategoryOutOfRange {
                        attribute: attr.name.clone(),
                        code: c,
                        cardinality: attr.kind.cardinality().unwrap_or(0),
                    })?;
                    write!(w, "{label}")?;
                }
                _ => {
                    return Err(DataError::TypeMismatch {
                        attribute: attr.name.clone(),
                        expected: "a value matching the attribute kind",
                    })
                }
            }
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes `dataset` to the file at `path`.
pub fn save_csv(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), DataError> {
    let file = std::fs::File::create(path)?;
    write_csv(dataset, file)
}

/// Parses one data row into values, clamping out-of-domain quantitative
/// values into their attribute's declared domain. Returns the values and
/// the number of clamps, or the issue that disqualifies the row.
fn parse_row(schema: &Schema, line: &str) -> Result<(Vec<Value>, usize), (IssueKind, String)> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != schema.arity() {
        return Err((
            IssueKind::FieldCount,
            format!("expected {} fields, found {}", schema.arity(), fields.len()),
        ));
    }
    let mut values = Vec::with_capacity(fields.len());
    let mut clamped = 0usize;
    for (field, attr) in fields.iter().zip(schema.attributes()) {
        match &attr.kind {
            AttrKind::Quantitative { .. } => {
                let v: f64 = field.parse().map_err(|_| {
                    (
                        IssueKind::NonNumeric,
                        format!("`{field}` is not a number for attribute `{}`", attr.name),
                    )
                })?;
                if !v.is_finite() {
                    return Err((
                        IssueKind::NonFinite,
                        format!("`{field}` is not finite for attribute `{}`", attr.name),
                    ));
                }
                let (v, was_clamped) = attr.kind.clamp_quant(v);
                clamped += was_clamped as usize;
                values.push(Value::Quant(v));
            }
            AttrKind::Categorical { labels } => {
                let code = labels.iter().position(|l| l == *field).ok_or_else(|| {
                    (
                        IssueKind::UnknownLabel,
                        format!("`{field}` is not a known label of attribute `{}`", attr.name),
                    )
                })?;
                values.push(Value::Cat(code as u32));
            }
        }
    }
    Ok((values, clamped))
}

/// Parses CSV from `reader` against a known `schema`, applying `policy`
/// to rows that fail to parse or validate. The header must match the
/// schema's attribute names in order (a bad header is always fatal — it
/// means the *file* is wrong, not a row).
///
/// Under [`IngestPolicy::Quarantine`] each rejected raw line is written
/// to `quarantine` (one line per row); passing `None` downgrades the
/// policy to counting only. Out-of-domain quantitative values are
/// clamped and counted under every policy — see the [`crate::ingest`]
/// module docs for the rationale.
pub fn read_csv_with_policy<R: BufRead>(
    schema: Schema,
    reader: R,
    policy: IngestPolicy,
    mut quarantine: Option<&mut dyn Write>,
) -> Result<(Dataset, IngestReport), DataError> {
    let mut lines = reader.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or(DataError::Parse { line: 1, message: "empty input: missing header".into() })?;
    let header = header?;
    let header = clean_line(&header);
    let names: Vec<&str> = header.split(',').collect();
    let expected: Vec<&str> = schema.attributes().iter().map(|a| a.name.as_str()).collect();
    if names != expected {
        return Err(DataError::Parse {
            line: 1,
            message: format!("header {names:?} does not match schema {expected:?}"),
        });
    }

    let mut ds = Dataset::new(schema);
    let mut report = IngestReport::default();
    for (i, line) in lines {
        let line = line?;
        let line = clean_line(&line);
        if is_blank(line) {
            continue;
        }
        let line_no = i + 1;
        report.rows_read += 1;
        let issue = match parse_row(ds.schema(), line) {
            Ok((values, clamps)) => match ds.push(values) {
                Ok(()) => {
                    report.rows_kept += 1;
                    report.clamped_values += clamps;
                    continue;
                }
                Err(e) => (IssueKind::Invalid, e.to_string()),
            },
            Err(issue) => issue,
        };
        let (kind, message) = issue;
        if policy.is_strict() {
            return Err(DataError::Parse { line: line_no, message });
        }
        report.rows_skipped += 1;
        report.record(line_no, kind, message);
        if let (IngestPolicy::Quarantine { .. }, Some(sink)) = (&policy, quarantine.as_mut()) {
            writeln!(sink, "{line}")?;
            report.rows_quarantined += 1;
        }
    }

    if let Some(max) = policy.max_bad_fraction() {
        if report.bad_fraction() > max {
            return Err(DataError::TooManyBadRows {
                skipped: report.rows_skipped,
                read: report.rows_read,
                max_bad_fraction: max,
            });
        }
    }
    Ok((ds, report))
}

/// Parses CSV from `reader` against a known `schema`. The header must match
/// the schema's attribute names in order. Equivalent to
/// [`read_csv_with_policy`] under [`IngestPolicy::Strict`]: the first bad
/// row aborts the load with a [`DataError::Parse`] carrying its 1-based
/// line number.
pub fn read_csv<R: BufRead>(schema: Schema, reader: R) -> Result<Dataset, DataError> {
    read_csv_with_policy(schema, reader, IngestPolicy::Strict, None).map(|(ds, _)| ds)
}

/// Infers a [`Schema`] from raw CSV text: a column whose every value
/// parses as a number and takes more than `max_categories` distinct values
/// becomes quantitative (domain = observed min..max, widened by 1 when
/// degenerate); anything else becomes categorical with its distinct values
/// as labels (in first-appearance order). The paper's real-world path
/// ("we intend to examine real-world demographic data") needs exactly
/// this: demographic extracts arrive as CSV without type annotations.
pub fn infer_schema<R: BufRead>(reader: R, max_categories: usize) -> Result<Schema, DataError> {
    infer_schema_with_policy(reader, max_categories, IngestPolicy::Strict).map(|(s, _)| s)
}

/// Infers a [`Schema`] (see [`infer_schema`]) under an [`IngestPolicy`]:
/// rows with the wrong field count are skipped and counted instead of
/// aborting the probe when the policy is lenient, and a high-cardinality
/// column whose values are *mostly* numeric stays quantitative despite
/// stray garbage values (those rows surface as non-numeric issues during
/// the load pass instead of silently flipping the column categorical).
/// Quarantine sinks are *not* written here — inference is a read-only
/// probe; the subsequent [`read_csv_with_policy`] pass owns the sink so
/// each bad line is quarantined exactly once.
pub fn infer_schema_with_policy<R: BufRead>(
    reader: R,
    max_categories: usize,
    policy: IngestPolicy,
) -> Result<(Schema, IngestReport), DataError> {
    let mut lines = reader.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or(DataError::Parse { line: 1, message: "empty input: missing header".into() })?;
    let header = header?;
    let names: Vec<String> = clean_line(&header).split(',').map(str::to_string).collect();
    let n_cols = names.len();

    struct ColumnProbe {
        numeric: usize,
        non_numeric: usize,
        min: f64,
        max: f64,
        distinct: Vec<String>,
        overflowed: bool,
    }
    let mut probes: Vec<ColumnProbe> = (0..n_cols)
        .map(|_| ColumnProbe {
            numeric: 0,
            non_numeric: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            distinct: Vec::new(),
            overflowed: false,
        })
        .collect();

    let mut report = IngestReport::default();
    let mut n_rows = 0usize;
    for (i, line) in lines {
        let line = line?;
        let line = clean_line(&line);
        if is_blank(line) {
            continue;
        }
        report.rows_read += 1;
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != n_cols {
            let message = format!("expected {n_cols} fields, found {}", fields.len());
            if policy.is_strict() {
                return Err(DataError::Parse { line: i + 1, message });
            }
            report.rows_skipped += 1;
            report.record(i + 1, IssueKind::FieldCount, message);
            continue;
        }
        n_rows += 1;
        report.rows_kept += 1;
        for (probe, field) in probes.iter_mut().zip(&fields) {
            match field.parse::<f64>() {
                Ok(v) if v.is_finite() => {
                    probe.numeric += 1;
                    probe.min = probe.min.min(v);
                    probe.max = probe.max.max(v);
                }
                _ => probe.non_numeric += 1,
            }
            if !probe.overflowed && !probe.distinct.iter().any(|d| d == field) {
                if probe.distinct.len() >= max_categories {
                    probe.overflowed = true;
                } else {
                    probe.distinct.push(field.to_string());
                }
            }
        }
    }
    if n_rows == 0 {
        return Err(DataError::Parse {
            line: 1,
            message: "cannot infer a schema from a header-only file".into(),
        });
    }
    if let Some(max) = policy.max_bad_fraction() {
        if report.bad_fraction() > max {
            return Err(DataError::TooManyBadRows {
                skipped: report.rows_skipped,
                read: report.rows_read,
                max_bad_fraction: max,
            });
        }
    }

    let attributes = names
        .into_iter()
        .zip(probes)
        .map(|(name, probe)| {
            // Strict inference demands a fully numeric column; lenient
            // policies tolerate a minority of garbage values in an
            // otherwise-numeric high-cardinality column (the garbage rows
            // are rejected per-row by the load pass).
            let mostly_numeric = probe.non_numeric == 0
                || (!policy.is_strict() && probe.numeric > probe.non_numeric);
            let treat_quantitative = mostly_numeric && probe.numeric > 0 && probe.overflowed;
            if treat_quantitative {
                let min = probe.min;
                let max = if probe.max > min { probe.max } else { min + 1.0 };
                Attribute::quantitative(name, min, max)
            } else if probe.overflowed {
                // Non-numeric with too many distinct values: unusable as a
                // categorical attribute of bounded cardinality.
                Attribute::categorical(name, Vec::<String>::new()) // rejected below
            } else {
                Attribute::categorical(name, probe.distinct)
            }
        })
        .collect();
    Schema::new(attributes).map(|schema| (schema, report))
}

/// Infers a schema (see [`infer_schema`]) and loads the data in one go.
pub fn load_csv_inferred(
    path: impl AsRef<Path>,
    max_categories: usize,
) -> Result<Dataset, DataError> {
    let text = std::fs::read(path)?;
    let schema = infer_schema(&text[..], max_categories)?;
    read_csv(schema, &text[..])
}

/// Infers a schema and loads the data in one go under an
/// [`IngestPolicy`]. The returned report is the *load* pass's report;
/// the inference probe shares the same policy but never writes to the
/// quarantine sink.
pub fn load_csv_inferred_with_policy(
    path: impl AsRef<Path>,
    max_categories: usize,
    policy: IngestPolicy,
    quarantine: Option<&mut dyn Write>,
) -> Result<(Dataset, IngestReport), DataError> {
    let text = std::fs::read(path)?;
    let (schema, _) = infer_schema_with_policy(&text[..], max_categories, policy)?;
    read_csv_with_policy(schema, &text[..], policy, quarantine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("age", 0.0, 100.0),
            Attribute::categorical("group", ["A", "other"]),
        ])
        .unwrap()
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::new(schema());
        ds.push(vec![Value::Quant(30.5), Value::Cat(0)]).unwrap();
        ds.push(vec![Value::Quant(62.0), Value::Cat(1)]).unwrap();
        ds
    }

    #[test]
    fn roundtrip_preserves_data() {
        let ds = dataset();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("age,group\n"));
        assert!(text.contains("30.5,A"));
        assert!(text.contains("62,other"));

        let back = read_csv(schema(), &buf[..]).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.row(0).unwrap().quant(0), 30.5);
        assert_eq!(back.row(0).unwrap().cat(1), 0);
        assert_eq!(back.row(1).unwrap().cat(1), 1);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("arcs-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.csv");
        let ds = dataset();
        save_csv(&ds, &path).unwrap();
        let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
        let back = read_csv(schema(), file).unwrap();
        assert_eq!(back.len(), ds.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_header() {
        let input = b"wrong,header\n1.0,A\n" as &[u8];
        let err = read_csv(schema(), input).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_missing_header() {
        let err = read_csv(schema(), &b""[..]).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_wrong_field_count() {
        let input = b"age,group\n1.0\n" as &[u8];
        let err = read_csv(schema(), input).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_non_numeric_quantitative() {
        let input = b"age,group\nabc,A\n" as &[u8];
        let err = read_csv(schema(), input).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_unknown_label() {
        let input = b"age,group\n1.0,Z\n" as &[u8];
        let err = read_csv(schema(), input).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 2, .. }));
    }

    #[test]
    fn skips_blank_lines() {
        let input = b"age,group\n1.0,A\n\n2.0,other\n" as &[u8];
        let ds = read_csv(schema(), input).unwrap();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn skips_whitespace_and_crlf_blank_lines() {
        // Whitespace-only and CR-only lines are blank; CRLF data rows parse.
        let input = b"age,group\r\n1.0,A\r\n   \n\r\n2.0,other\r\n" as &[u8];
        let ds = read_csv(schema(), input).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(1).unwrap().quant(0), 2.0);
    }

    #[test]
    fn read_and_infer_report_same_line_numbers() {
        // A truncated row after a blank line: both passes must attribute
        // the failure to the same 1-based physical line (line 4).
        let input = b"age,group\n1.0,A\n\n2.0\n" as &[u8];
        let read_err = read_csv(schema(), input).unwrap_err();
        let infer_err = infer_schema(input, 5).unwrap_err();
        assert_eq!(
            read_err,
            DataError::Parse { line: 4, message: "expected 2 fields, found 1".into() }
        );
        assert!(matches!(infer_err, DataError::Parse { line: 4, .. }), "{infer_err:?}");
    }

    #[test]
    fn skip_policy_keeps_good_rows_and_counts_bad() {
        let input =
            b"age,group\nbad,A\n1.0,A\n2.0\n3.0,Z\nNaN,A\ninf,other\n4.0,other\n" as &[u8];
        let (ds, report) = read_csv_with_policy(
            schema(),
            input,
            IngestPolicy::Skip { max_bad_fraction: 1.0 },
            None,
        )
        .unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(report.rows_read, 7);
        assert_eq!(report.rows_kept, 2);
        assert_eq!(report.rows_skipped, 5);
        assert_eq!(report.rows_quarantined, 0);
        assert_eq!(report.count_of(IssueKind::NonNumeric), 1);
        assert_eq!(report.count_of(IssueKind::FieldCount), 1);
        assert_eq!(report.count_of(IssueKind::UnknownLabel), 1);
        assert_eq!(report.count_of(IssueKind::NonFinite), 2);
        // Issue lines are 1-based physical lines.
        assert_eq!(report.issues()[0].line, 2);
        assert_eq!(report.issues()[1].line, 4);
    }

    #[test]
    fn quarantine_policy_writes_bad_lines_to_sink() {
        let input = b"age,group\nbad,A\n1.0,A\n2.0,Z\n" as &[u8];
        let mut sink = Vec::new();
        let (ds, report) = read_csv_with_policy(
            schema(),
            input,
            IngestPolicy::Quarantine { max_bad_fraction: 1.0 },
            Some(&mut sink),
        )
        .unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(report.rows_skipped, 2);
        assert_eq!(report.rows_quarantined, 2);
        assert_eq!(String::from_utf8(sink).unwrap(), "bad,A\n2.0,Z\n");
    }

    #[test]
    fn max_bad_fraction_is_enforced() {
        let input = b"age,group\nbad,A\n1.0,A\n2.0,A\n3.0,A\n" as &[u8];
        // 1 of 4 rows bad = 25%: passes a 30% cap, trips a 20% cap.
        let lenient = IngestPolicy::Skip { max_bad_fraction: 0.3 };
        assert!(read_csv_with_policy(schema(), input, lenient, None).is_ok());
        let tight = IngestPolicy::Skip { max_bad_fraction: 0.2 };
        let err = read_csv_with_policy(schema(), input, tight, None).unwrap_err();
        assert_eq!(err, DataError::TooManyBadRows { skipped: 1, read: 4, max_bad_fraction: 0.2 });
    }

    #[test]
    fn out_of_domain_quant_values_are_clamped_and_counted() {
        let input = b"age,group\n150.0,A\n-3.0,other\n50.0,A\n" as &[u8];
        let (ds, report) = read_csv_with_policy(
            schema(),
            input,
            IngestPolicy::Skip { max_bad_fraction: 1.0 },
            None,
        )
        .unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(report.clamped_values, 2);
        assert_eq!(ds.row(0).unwrap().quant(0), 100.0);
        assert_eq!(ds.row(1).unwrap().quant(0), 0.0);
        assert_eq!(ds.row(2).unwrap().quant(0), 50.0);
        // Clamping is a repair, not a bad row.
        assert_eq!(report.rows_skipped, 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn strict_policy_matches_plain_read_csv() {
        let input = b"age,group\n1.0,A\nbad,A\n" as &[u8];
        let via_policy =
            read_csv_with_policy(schema(), input, IngestPolicy::Strict, None).unwrap_err();
        let via_plain = read_csv(schema(), input).unwrap_err();
        assert_eq!(via_policy, via_plain);
        assert!(matches!(via_policy, DataError::Parse { line: 3, .. }));
    }

    #[test]
    fn inference_skips_bad_rows_under_lenient_policy() {
        let mut text = String::from("age,group\n");
        for i in 0..20 {
            text.push_str(&format!("{}.5,{}\n", 20 + i, if i % 2 == 0 { "A" } else { "B" }));
        }
        text.push_str("7.5\n"); // truncated row
        assert!(infer_schema(text.as_bytes(), 5).is_err());
        let (schema, report) = infer_schema_with_policy(
            text.as_bytes(),
            5,
            IngestPolicy::Skip { max_bad_fraction: 1.0 },
        )
        .unwrap();
        assert_eq!(schema.arity(), 2);
        assert_eq!(report.rows_skipped, 1);
        assert_eq!(report.count_of(IssueKind::FieldCount), 1);
    }

    #[test]
    fn lenient_inference_keeps_mostly_numeric_columns_quantitative() {
        let mut text = String::from("age,group\n");
        for i in 0..20 {
            text.push_str(&format!("{}.5,{}\n", 20 + i, if i % 2 == 0 { "A" } else { "B" }));
        }
        text.push_str("garbage,A\n"); // stray non-numeric age
                                      // Strict inference refuses to call the column quantitative: with
                                      // 21 distinct values it cannot be categorical either, so the
                                      // schema is unusable.
        assert!(infer_schema(text.as_bytes(), 5).is_err());
        // Lenient inference keeps `age` quantitative; the garbage row is
        // then rejected per-row by the load pass.
        let (schema, _) = infer_schema_with_policy(
            text.as_bytes(),
            5,
            IngestPolicy::Skip { max_bad_fraction: 1.0 },
        )
        .unwrap();
        assert!(matches!(schema.attribute(0).unwrap().kind, AttrKind::Quantitative { .. }));
        let (ds, report) = read_csv_with_policy(
            schema,
            text.as_bytes(),
            IngestPolicy::Skip { max_bad_fraction: 1.0 },
            None,
        )
        .unwrap();
        assert_eq!(ds.len(), 20);
        assert_eq!(report.rows_skipped, 1);
        assert_eq!(report.count_of(IssueKind::NonNumeric), 1);
        // A column where garbage is the majority still turns categorical.
        let text = "x,group\na,A\nb,B\nc,A\n1.0,B\n";
        let (schema, _) = infer_schema_with_policy(
            text.as_bytes(),
            8,
            IngestPolicy::Skip { max_bad_fraction: 1.0 },
        )
        .unwrap();
        assert!(matches!(schema.attribute(0).unwrap().kind, AttrKind::Categorical { .. }));
    }

    #[test]
    fn inferred_load_with_policy_reports_load_pass() {
        let dir = std::env::temp_dir().join("arcs-ingest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dirty.csv");
        let mut text = String::from("age,group\n");
        for i in 0..20 {
            text.push_str(&format!("{},{}\n", 20 + i, if i % 2 == 0 { "A" } else { "B" }));
        }
        text.push_str("oops\n");
        std::fs::write(&path, &text).unwrap();
        let (ds, report) = load_csv_inferred_with_policy(
            &path,
            5,
            IngestPolicy::Skip { max_bad_fraction: 1.0 },
            None,
        )
        .unwrap();
        assert_eq!(ds.len(), 20);
        assert_eq!(report.rows_kept, 20);
        assert_eq!(report.rows_skipped, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn infers_quantitative_and_categorical_columns() {
        let mut text = String::from("age,group\n");
        for i in 0..20 {
            text.push_str(&format!("{}.5,{}\n", 20 + i, if i % 2 == 0 { "A" } else { "B" }));
        }
        let schema = infer_schema(text.as_bytes(), 5).unwrap();
        assert_eq!(schema.arity(), 2);
        let age = schema.attribute(0).unwrap();
        assert!(age.kind.is_quantitative(), "age inferred as {:?}", age.kind);
        if let crate::schema::AttrKind::Quantitative { min, max } = age.kind {
            assert_eq!(min, 20.5);
            assert_eq!(max, 39.5);
        }
        let group = schema.attribute(1).unwrap();
        assert_eq!(group.kind.cardinality(), Some(2));
        assert_eq!(group.label(0), Some("A"));
        assert_eq!(group.label(1), Some("B"));
    }

    #[test]
    fn numeric_low_cardinality_column_is_categorical() {
        // Codes 0/1/2 repeated: numeric but only 3 distinct values, below
        // the category cap -> categorical.
        let mut text = String::from("code\n");
        for i in 0..30 {
            text.push_str(&format!("{}\n", i % 3));
        }
        let schema = infer_schema(text.as_bytes(), 10).unwrap();
        assert!(schema.attribute(0).unwrap().kind.is_categorical());
        assert_eq!(schema.attribute(0).unwrap().kind.cardinality(), Some(3));
    }

    #[test]
    fn inference_rejects_unbounded_text_column() {
        let mut text = String::from("id\n");
        for i in 0..20 {
            text.push_str(&format!("name-{i}\n"));
        }
        assert!(infer_schema(text.as_bytes(), 5).is_err());
    }

    #[test]
    fn inference_rejects_empty_input() {
        assert!(infer_schema(&b""[..], 5).is_err());
        assert!(infer_schema(&b"age,group\n"[..], 5).is_err());
    }

    #[test]
    fn inference_widens_degenerate_numeric_domain() {
        let mut text = String::from("x\n");
        for _ in 0..20 {
            text.push_str("7.0\n");
        }
        // All-identical numeric: distinct = 1 <= cap, so categorical.
        let schema = infer_schema(text.as_bytes(), 5).unwrap();
        assert!(schema.attribute(0).unwrap().kind.is_categorical());
        // With cap 0 it overflows and becomes quantitative with a widened
        // domain.
        let schema = infer_schema(text.as_bytes(), 0).unwrap();
        if let crate::schema::AttrKind::Quantitative { min, max } =
            schema.attribute(0).unwrap().kind
        {
            assert_eq!(min, 7.0);
            assert_eq!(max, 8.0);
        } else {
            panic!("expected quantitative");
        }
    }

    #[test]
    fn inferred_roundtrip_through_load() {
        let mut text = String::from("age,group\n");
        for i in 0..25 {
            text.push_str(&format!("{},{}\n", 20 + i, if i % 2 == 0 { "A" } else { "B" }));
        }
        let schema = infer_schema(text.as_bytes(), 5).unwrap();
        let ds = read_csv(schema, text.as_bytes()).unwrap();
        assert_eq!(ds.len(), 25);
        assert_eq!(ds.row(0).unwrap().quant(0), 20.0);
        assert_eq!(ds.row(1).unwrap().cat(1), 1);
    }
}
