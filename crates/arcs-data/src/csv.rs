//! CSV load/store for datasets, and the one row scanner every CSV reader
//! runs on.
//!
//! The format is deliberately simple (no quoting — attribute labels and
//! names must not contain commas or newlines): a header row with attribute
//! names, then one row per tuple. Quantitative values are written as
//! decimal numbers; categorical values are written as their labels and
//! resolved back to codes on load.
//!
//! # One scanner, streamed
//!
//! [`scan_csv`] (and [`scan_csv_rows`], its header-less form for append
//! batches) is the only loop over data rows. It owns the header check,
//! CRLF and blank lines, 1-based line numbers, the field count, per-kind
//! validation of every column (used by the caller or not), clamping, the
//! [`IngestPolicy`], the quarantine sink, the [`IngestReport`] and the
//! bad-row ceiling. It reads through one reused line buffer and hands
//! each accepted row to a callback as one reused `&[Value]`, so a caller
//! that bins rows as they arrive holds neither the file nor a
//! [`Dataset`]: memory stays bounded by what the callback keeps (the
//! paper's §4.3 bound when that is a bin array).
//!
//! # One file scan, on every core
//!
//! A whole file is scanned through a [`CsvFile`], which cuts the data
//! into line-aligned byte ranges that workers run through the same row
//! loop (or inference loop) a reader runs, merged in file order into the
//! result a single reader would give. The reader-based entry points are
//! the one-range case of that scan.
//!
//! The loaders are built on these: [`read_csv_with_policy`] is the
//! scanner plus [`Dataset::push`], [`infer_schema`] reads through the
//! same line buffer, and [`load_csv_inferred`] runs a [`CsvFile`]'s two
//! passes — infer, then load — instead of reading its text into memory.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Take, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::mpsc;

use crate::dataset::{Columns, Dataset};
use crate::error::DataError;
use crate::ingest::{IngestPolicy, IngestReport, IssueKind};
use crate::schema::{AttrKind, Attribute, Schema};
use crate::tuple::{Tuple, Value};

/// Serialises `dataset` as CSV into `writer`, row by row from its
/// columns.
pub fn write_csv<W: Write>(dataset: &Dataset, writer: W) -> Result<(), DataError> {
    /// One attribute's column, with the labels a categorical one writes.
    enum Field<'a> {
        Quant(&'a [f64]),
        Cat(&'a [u32], &'a [String]),
    }
    let mut w = BufWriter::new(writer);
    let schema = dataset.schema();
    let header: Vec<&str> = schema.attributes().iter().map(|a| a.name.as_str()).collect();
    writeln!(w, "{}", header.join(","))?;
    let fields = schema
        .attributes()
        .iter()
        .enumerate()
        .map(|(idx, attr)| match &attr.kind {
            AttrKind::Quantitative { .. } => dataset.quant(idx).map(Field::Quant),
            AttrKind::Categorical { labels } => {
                dataset.cat(idx).map(|codes| Field::Cat(codes, labels))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    for row in 0..dataset.len() {
        for (idx, field) in fields.iter().enumerate() {
            if idx > 0 {
                write!(w, ",")?;
            }
            match *field {
                Field::Quant(values) => write!(w, "{}", values[row])?,
                Field::Cat(codes, labels) => write!(w, "{}", labels[codes[row] as usize])?,
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

/// The physical lines of an input, read through one reused buffer and
/// numbered from 1. A line comes back without its `\n` or `\r\n` ending
/// and without one more trailing `\r`, so CRLF files read like LF files.
struct Lines<R> {
    reader: R,
    buf: Vec<u8>,
    line_no: usize,
}

impl<R: BufRead> Lines<R> {
    fn new(reader: R) -> Self {
        Lines { reader, buf: Vec::new(), line_no: 0 }
    }

    /// The next line and its 1-based number, or `None` at end of input.
    /// A line that is not UTF-8 is an I/O error, as `BufRead::lines`
    /// reports it.
    fn next_line(&mut self) -> Result<Option<(usize, &str)>, DataError> {
        self.buf.clear();
        if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
            return Ok(None);
        }
        self.line_no += 1;
        if self.buf.last() == Some(&b'\n') {
            self.buf.pop();
            if self.buf.last() == Some(&b'\r') {
                self.buf.pop();
            }
        }
        if self.buf.last() == Some(&b'\r') {
            self.buf.pop();
        }
        let line = std::str::from_utf8(&self.buf).map_err(|_| {
            DataError::from(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ))
        })?;
        Ok(Some((self.line_no, line)))
    }

    /// The header line's comma-separated names.
    fn header(&mut self) -> Result<Vec<&str>, DataError> {
        let (_, header) = self
            .next_line()?
            .ok_or(DataError::Parse { line: 1, message: "empty input: missing header".into() })?;
        Ok(header.split(',').collect())
    }
}

/// Whether a line is blank (empty or whitespace-only) and must be skipped.
/// The scanner and [`infer_schema`] share this definition, so the two
/// passes always agree on which physical lines carry data.
fn is_blank(line: &str) -> bool {
    line.trim().is_empty()
}

/// Number of comma-separated fields in `line`.
fn field_count(line: &str) -> usize {
    line.bytes().filter(|&b| b == b',').count() + 1
}

/// Parses one data row into `values` (cleared first), clamping
/// out-of-domain quantitative values into their attribute's declared
/// domain. Every field is checked against its attribute's kind, whether
/// or not a caller uses that column. Returns the number of clamps, or
/// the issue that disqualifies the row.
fn parse_row(
    schema: &Schema,
    line: &str,
    values: &mut Vec<Value>,
) -> Result<usize, (IssueKind, String)> {
    let fields = field_count(line);
    if fields != schema.arity() {
        return Err((
            IssueKind::FieldCount,
            format!("expected {} fields, found {fields}", schema.arity()),
        ));
    }
    values.clear();
    let mut clamped = 0usize;
    for (field, attr) in line.split(',').zip(schema.attributes()) {
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
                let code = labels.iter().position(|l| l == field).ok_or_else(|| {
                    (
                        IssueKind::UnknownLabel,
                        format!("`{field}` is not a known label of attribute `{}`", attr.name),
                    )
                })?;
                values.push(Value::Cat(code as u32));
            }
        }
    }
    Ok(clamped)
}

/// The one CSV row loop: validates every data row left in `lines`
/// against `schema` and hands each accepted row to `accept` through one
/// reused buffer. A row `accept` refuses is a bad row of kind
/// [`IssueKind::Invalid`]. Bad rows follow `policy`; the bad-row ceiling
/// is left to the caller, which checks it once its whole input is in.
fn scan_lines<R: BufRead>(
    schema: &Schema,
    lines: &mut Lines<R>,
    policy: IngestPolicy,
    mut quarantine: Option<&mut dyn Write>,
    mut accept: impl FnMut(&[Value]) -> Result<(), DataError>,
) -> Result<IngestReport, DataError> {
    let mut report = IngestReport::default();
    let mut values = Vec::with_capacity(schema.arity());
    while let Some((line_no, line)) = lines.next_line()? {
        if is_blank(line) {
            continue;
        }
        report.rows_read += 1;
        let (kind, message) = match parse_row(schema, line, &mut values) {
            Ok(clamps) => match accept(&values) {
                Ok(()) => {
                    report.rows_kept += 1;
                    report.clamped_values += clamps;
                    continue;
                }
                Err(e) => (IssueKind::Invalid, e.to_string()),
            },
            Err(issue) => issue,
        };
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
    Ok(report)
}

/// [`scan_lines`] over a whole input, then the bad-row ceiling.
fn scan_whole<R: BufRead>(
    schema: &Schema,
    lines: &mut Lines<R>,
    policy: IngestPolicy,
    quarantine: Option<&mut dyn Write>,
    accept: impl FnMut(&[Value]) -> Result<(), DataError>,
) -> Result<IngestReport, DataError> {
    let report = scan_lines(schema, lines, policy, quarantine, accept)?;
    check_bad_fraction(&report, policy)?;
    Ok(report)
}

/// Fails a lenient load whose skipped fraction passed the policy's
/// ceiling.
fn check_bad_fraction(report: &IngestReport, policy: IngestPolicy) -> Result<(), DataError> {
    match policy.max_bad_fraction() {
        Some(max) if report.bad_fraction() > max => Err(DataError::TooManyBadRows {
            skipped: report.rows_skipped,
            read: report.rows_read,
            max_bad_fraction: max,
        }),
        _ => Ok(()),
    }
}

/// Fails unless the header's `names` are the schema's attribute names in
/// order. A bad header is always fatal: it means the *file* is wrong, not
/// a row.
fn check_header(names: &[&str], schema: &Schema) -> Result<(), DataError> {
    let expected: Vec<&str> = schema.attributes().iter().map(|a| a.name.as_str()).collect();
    if names != expected {
        return Err(DataError::Parse {
            line: 1,
            message: format!("header {names:?} does not match schema {expected:?}"),
        });
    }
    Ok(())
}

/// Streams CSV from `reader` against a known `schema` without holding
/// the input: each accepted row goes to `accept` as a `&[Value]` that
/// is reused for the next row, so the scan itself allocates nothing
/// per row. The header must match the schema's attribute names in order
/// (a bad header is always fatal — it means the *file* is wrong, not a
/// row).
///
/// Every field of every row is validated, used or not. Rows that fail
/// follow `policy`: [`IngestPolicy::Strict`] aborts with a
/// [`DataError::Parse`] carrying the row's 1-based line (the header is
/// line 1); the lenient policies skip and count them. Under
/// [`IngestPolicy::Quarantine`] each rejected raw line is written to
/// `quarantine` (one line per row); passing `None` downgrades the policy
/// to counting only. Out-of-domain quantitative values are clamped and
/// counted under every policy — see the [`crate::ingest`] module docs
/// for the rationale. A row `accept` refuses counts as a bad row of
/// kind [`IssueKind::Invalid`].
pub fn scan_csv<R: BufRead>(
    schema: &Schema,
    reader: R,
    policy: IngestPolicy,
    quarantine: Option<&mut dyn Write>,
    accept: impl FnMut(&[Value]) -> Result<(), DataError>,
) -> Result<IngestReport, DataError> {
    let mut lines = Lines::new(reader);
    check_header(&lines.header()?, schema)?;
    scan_whole(schema, &mut lines, policy, quarantine, accept)
}

/// [`scan_csv`] for header-less rows — an append batch — under
/// [`IngestPolicy::Strict`]: the first bad row aborts the scan with its
/// 1-based line within `reader`.
pub fn scan_csv_rows<R: BufRead>(
    schema: &Schema,
    reader: R,
    accept: impl FnMut(&[Value]) -> Result<(), DataError>,
) -> Result<IngestReport, DataError> {
    scan_whole(schema, &mut Lines::new(reader), IngestPolicy::Strict, None, accept)
}

/// Parses CSV from `reader` against a known `schema` into a [`Dataset`]:
/// [`scan_csv`] plus [`Dataset::push`], with the same header check,
/// policies, quarantine sink and report.
pub fn read_csv_with_policy<R: BufRead>(
    schema: Schema,
    reader: R,
    policy: IngestPolicy,
    quarantine: Option<&mut dyn Write>,
) -> Result<(Dataset, IngestReport), DataError> {
    let mut ds = Dataset::new(schema.clone());
    let report = scan_csv(&schema, reader, policy, quarantine, |row| ds.push(row))?;
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

/// What the inference loop learns about one column.
struct ColumnProbe {
    numeric: usize,
    non_numeric: usize,
    /// The least and greatest finite values; of equal values (`0` and
    /// `-0`) the first one read.
    min: f64,
    max: f64,
    /// Distinct values in first-appearance order, at most
    /// `max_categories` of them.
    distinct: Vec<String>,
    /// Whether more than `max_categories` distinct values appeared.
    overflowed: bool,
}

impl ColumnProbe {
    fn new() -> Self {
        ColumnProbe {
            numeric: 0,
            non_numeric: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            distinct: Vec::new(),
            overflowed: false,
        }
    }

    /// Folds a finite value into the bounds.
    fn bound(&mut self, min: f64, max: f64) {
        if min < self.min {
            self.min = min;
        }
        if max > self.max {
            self.max = max;
        }
    }

    /// Notes a value: a new one joins `distinct`, or overflows the column
    /// when `distinct` already holds `max_categories` values.
    fn note(&mut self, value: &str, max_categories: usize) {
        if !self.overflowed && !self.distinct.iter().any(|d| d == value) {
            if self.distinct.len() >= max_categories {
                self.overflowed = true;
            } else {
                self.distinct.push(value.to_string());
            }
        }
    }

    /// Folds in the same column's probe over the input that follows.
    fn absorb(&mut self, later: ColumnProbe, max_categories: usize) {
        self.numeric += later.numeric;
        self.non_numeric += later.non_numeric;
        self.bound(later.min, later.max);
        self.overflowed |= later.overflowed;
        for value in &later.distinct {
            self.note(value, max_categories);
        }
    }
}

/// The one inference loop: probes every data row left in `lines`, one
/// [`ColumnProbe`] per column. A row with the wrong field count is a bad
/// row under `policy`; the bad-row ceiling is left to the caller.
fn probe_lines<R: BufRead>(
    lines: &mut Lines<R>,
    n_cols: usize,
    max_categories: usize,
    policy: IngestPolicy,
) -> Result<(IngestReport, Vec<ColumnProbe>), DataError> {
    let mut probes: Vec<ColumnProbe> = (0..n_cols).map(|_| ColumnProbe::new()).collect();
    let mut report = IngestReport::default();
    while let Some((line_no, line)) = lines.next_line()? {
        if is_blank(line) {
            continue;
        }
        report.rows_read += 1;
        let fields = field_count(line);
        if fields != n_cols {
            let message = format!("expected {n_cols} fields, found {fields}");
            if policy.is_strict() {
                return Err(DataError::Parse { line: line_no, message });
            }
            report.rows_skipped += 1;
            report.record(line_no, IssueKind::FieldCount, message);
            continue;
        }
        report.rows_kept += 1;
        for (probe, field) in probes.iter_mut().zip(line.split(',')) {
            match field.parse::<f64>() {
                Ok(v) if v.is_finite() => {
                    probe.numeric += 1;
                    probe.bound(v, v);
                }
                _ => probe.non_numeric += 1,
            }
            probe.note(field, max_categories);
        }
    }
    Ok((report, probes))
}

/// The schema a whole input's probes describe, once the input is known to
/// hold a data row and to pass the bad-row ceiling.
fn probed_schema(
    names: Vec<String>,
    probes: Vec<ColumnProbe>,
    report: IngestReport,
    policy: IngestPolicy,
) -> Result<(Schema, IngestReport), DataError> {
    if report.rows_kept == 0 {
        return Err(DataError::Parse {
            line: 1,
            message: "cannot infer a schema from a header-only file".into(),
        });
    }
    check_bad_fraction(&report, policy)?;

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
/// probe; the subsequent [`scan_csv`] pass owns the sink so each bad
/// line is quarantined exactly once. The probe streams its input through
/// the scanner's reused line buffer; it keeps only per-column bounds and
/// at most `max_categories` distinct values per column.
pub fn infer_schema_with_policy<R: BufRead>(
    reader: R,
    max_categories: usize,
    policy: IngestPolicy,
) -> Result<(Schema, IngestReport), DataError> {
    let mut lines = Lines::new(reader);
    let names: Vec<String> = lines.header()?.into_iter().map(str::to_string).collect();
    let (report, probes) = probe_lines(&mut lines, names.len(), max_categories, policy)?;
    probed_schema(names, probes, report, policy)
}

/// Infers a schema (see [`infer_schema`]) and loads the data, reading
/// the file in two passes rather than holding its text beside the
/// [`Dataset`]: [`load_csv_inferred_with_policy`] under
/// [`IngestPolicy::Strict`], on every available core.
pub fn load_csv_inferred(
    path: impl AsRef<Path>,
    max_categories: usize,
) -> Result<Dataset, DataError> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    load_csv_inferred_with_policy(path, max_categories, IngestPolicy::Strict, None, threads)
        .map(|(ds, _)| ds)
}

/// Infers a schema and loads the data under an [`IngestPolicy`], in a
/// [`CsvFile`]'s two passes on up to `threads` workers. The returned
/// report is the *load* pass's report; the inference probe shares the
/// same policy but never writes to the quarantine sink. The dataset
/// reserves the rows the probe kept, an upper bound on the rows the load
/// keeps, so its row vector is allocated once. The result is the same at
/// any thread count.
pub fn load_csv_inferred_with_policy(
    path: impl AsRef<Path>,
    max_categories: usize,
    policy: IngestPolicy,
    quarantine: Option<&mut dyn Write>,
    threads: usize,
) -> Result<(Dataset, IngestReport), DataError> {
    let file = CsvFile::open(path)?;
    let (schema, probe) = file.infer_schema(max_categories, policy, threads)?;
    let mut ds = Dataset::with_capacity(schema, probe.rows_kept);
    let report = file.load_into(&mut ds, policy, quarantine, threads)?;
    Ok((ds, report))
}

/// What a [`CsvFile::scan`] builds from the rows it accepts. A scan over
/// several ranges fills one empty part per range and absorbs the parts
/// into the sink in file order, so a sink must come out the same however
/// its rows were split.
pub trait RowSink: Sized + Send + Sync {
    /// An empty sink of the same shape, for one range's rows.
    fn part(&self) -> Self;

    /// Takes one accepted row. An error makes the row a bad row of kind
    /// [`IssueKind::Invalid`].
    fn accept(&mut self, row: &[Value]) -> Result<(), DataError>;

    /// Appends the rows of `part`, the part of a later range.
    fn absorb(&mut self, part: Self) -> Result<(), DataError>;
}

/// A load's sink. The caller's holds the dataset, and a one-range scan
/// pushes rows straight into it. A range's part fills typed columns of
/// its own, and absorbing the part appends them to the dataset's columns
/// on the calling thread, so the dataset's memory is the calling
/// thread's: with glibc's per-thread arenas, memory a worker allocated
/// stays in the worker's arena after it is freed, out of reach of the
/// calling thread's next allocations.
struct Load<'a> {
    schema: &'a Schema,
    /// The dataset, in the caller's sink; `None` in a range's part.
    ds: Option<&'a mut Dataset>,
    /// A part's rows.
    part: Columns,
}

impl RowSink for Load<'_> {
    fn part(&self) -> Self {
        Load { schema: self.schema, ds: None, part: Columns::with_capacity(self.schema, 0) }
    }

    fn accept(&mut self, row: &[Value]) -> Result<(), DataError> {
        match &mut self.ds {
            Some(ds) => ds.push(row),
            None => {
                Tuple::check_values(row, self.schema)?;
                self.part.push_checked(row);
                Ok(())
            }
        }
    }

    fn absorb(&mut self, part: Self) -> Result<(), DataError> {
        if let Some(ds) = &mut self.ds {
            ds.append(&part.part);
        }
        Ok(())
    }
}

/// The size a [`CsvFile`] cuts its data into. A range's part lives from
/// its scan to its merge, and a load's part holds its rows' columns, 64
/// bytes for an Agrawal F2 row. A worker's parts (one in the making, one
/// waiting in its channel, one being merged) then come to about 250 KB.
/// A range's own costs (a seek, a channel hand-off, a merge) stay small
/// beside parsing its ~1,200 rows. A 110 MB file makes 845 ranges.
const RANGE_BYTES: u64 = 128 << 10;

/// A CSV file opened for whole-file scans on several cores.
///
/// Opening reads the header and the file's length once, and cuts the
/// data after the header into line-aligned byte ranges of about 128 KiB.
/// Every scan reads those bytes and no more, so the two passes of an
/// inferred load read the same data even if the file grows between them.
///
/// A scan runs the ranges on up to `threads` scoped workers, each with
/// one file handle, one buffered reader and one line buffer, through the
/// row loop of [`scan_csv`] or the inference loop of [`infer_schema`].
/// The calling thread merges their results strictly in file order:
///
/// * an issue's or an error's line is offset by the lines of all earlier
///   ranges (the header is line 1);
/// * report counts are summed and issues appended up to
///   [`MAX_RECORDED_ISSUES`](crate::ingest::MAX_RECORDED_ISSUES); the
///   bad-row ceiling and the header-only check run on the merged result;
/// * each range buffers its rejected lines, and the quarantine sink gets
///   them in range order;
/// * the earliest range's error wins: the ranges before it run to the
///   end, and ranges after it may be skipped;
/// * inferred columns sum their counts, fold their bounds and union their
///   distinct values in first-appearance order, overflowing when any
///   range did or when the union passes `max_categories`;
/// * each range's accepted rows go to a part of the [`RowSink`], absorbed
///   into it in range order.
///
/// Rows, schema, report, quarantine bytes and errors are therefore those
/// of a one-range scan at any thread count. At most `2 × threads`
/// finished ranges wait to be merged. With one thread, or data that fits
/// in one range, a scan is one range on the calling thread, as a reader's
/// is: no worker, no buffered quarantine.
#[derive(Debug)]
pub struct CsvFile {
    path: PathBuf,
    /// The header's names.
    names: Vec<String>,
    /// The data's bytes: from the end of the header to the length read
    /// at open.
    data: Range<u64>,
    /// `data`, cut into line-aligned ranges.
    ranges: Vec<Range<u64>>,
}

impl CsvFile {
    /// Opens the CSV file at `path`: reads its header and length and cuts
    /// its data into ranges of about 128 KiB.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, DataError> {
        Self::with_range_bytes(path, RANGE_BYTES)
    }

    /// [`open`](CsvFile::open) with ranges of about `range_bytes` (at
    /// least 1). No result depends on it: tests cut small files into many
    /// ranges with it.
    fn with_range_bytes(path: impl AsRef<Path>, range_bytes: u64) -> Result<Self, DataError> {
        let path = path.as_ref().to_path_buf();
        let mut reader = BufReader::new(File::open(&path)?);
        let len = reader.get_ref().metadata()?.len();
        let names: Vec<String> =
            Lines::new((&mut reader).take(len)).header()?.into_iter().map(str::to_string).collect();
        let start = reader.stream_position()?;
        let range_bytes = range_bytes.max(1);
        let (mut ranges, mut from) = (Vec::new(), start);
        while from < len {
            let mut to = len;
            if len - from > range_bytes {
                // Cut after the line holding the range's last byte; the
                // reader stands at `from`.
                let last = from + range_bytes - 1;
                reader.seek_relative(range_bytes as i64 - 1)?;
                let skipped = (&mut reader).take(len - last).skip_until(b'\n')? as u64;
                if skipped > 0 {
                    to = last + skipped;
                }
            }
            ranges.push(from..to);
            from = to;
        }
        Ok(CsvFile { path, names, data: start..len, ranges })
    }

    /// Infers the file's schema as [`infer_schema_with_policy`] infers it
    /// from a reader, on up to `threads` workers.
    pub fn infer_schema(
        &self,
        max_categories: usize,
        policy: IngestPolicy,
        threads: usize,
    ) -> Result<(Schema, IngestReport), DataError> {
        let n_cols = self.names.len();
        let (report, probes) = if self.is_one_range(threads) {
            probe_lines(&mut self.whole()?, n_cols, max_categories, policy)?
        } else {
            let mut merge = Merge::new(None);
            let mut probes: Vec<ColumnProbe> = (0..n_cols).map(|_| ColumnProbe::new()).collect();
            self.run_ranges(
                threads,
                |lines| {
                    let outcome = probe_lines(lines, n_cols, max_categories, policy);
                    RangeScan { outcome, lines: lines.line_no, quarantined: Vec::new() }
                },
                |scan| {
                    for (probe, later) in probes.iter_mut().zip(merge.fold(scan)?) {
                        probe.absorb(later, max_categories);
                    }
                    Ok(())
                },
            )?;
            (merge.report, probes)
        };
        probed_schema(self.names.clone(), probes, report, policy)
    }

    /// Scans every data row against `schema` as [`scan_csv`] scans a
    /// reader, on up to `threads` workers, and puts the rows it accepts
    /// into `sink`.
    pub fn scan<S: RowSink>(
        &self,
        schema: &Schema,
        policy: IngestPolicy,
        quarantine: Option<&mut dyn Write>,
        threads: usize,
        sink: &mut S,
    ) -> Result<IngestReport, DataError> {
        let names: Vec<&str> = self.names.iter().map(String::as_str).collect();
        check_header(&names, schema)?;
        if self.is_one_range(threads) {
            return scan_whole(schema, &mut self.whole()?, policy, quarantine, |row| {
                sink.accept(row)
            });
        }
        let buffered = quarantine.is_some();
        let empty = sink.part();
        let mut merge = Merge::new(quarantine);
        self.run_ranges(
            threads,
            |lines| {
                let (mut part, mut rejected) = (empty.part(), Vec::new());
                let outcome = scan_lines(
                    schema,
                    lines,
                    policy,
                    buffered.then_some(&mut rejected as &mut dyn Write),
                    |row| part.accept(row),
                );
                let outcome = outcome.map(|report| (report, part));
                RangeScan { outcome, lines: lines.line_no, quarantined: rejected }
            },
            |scan| sink.absorb(merge.fold(scan)?),
        )?;
        check_bad_fraction(&merge.report, policy)?;
        Ok(merge.report)
    }

    /// Loads every row [`scan`](CsvFile::scan) accepts against `ds`'s
    /// schema into `ds`, as [`read_csv_with_policy`] loads a reader.
    fn load_into(
        &self,
        ds: &mut Dataset,
        policy: IngestPolicy,
        quarantine: Option<&mut dyn Write>,
        threads: usize,
    ) -> Result<IngestReport, DataError> {
        let schema = ds.schema().clone();
        let mut load =
            Load { schema: &schema, ds: Some(ds), part: Columns::with_capacity(&schema, 0) };
        self.scan(&schema, policy, quarantine, threads, &mut load)
    }

    /// Whether a scan on `threads` workers reads the data as one range.
    fn is_one_range(&self, threads: usize) -> bool {
        threads < 2 || self.ranges.len() < 2
    }

    /// The whole data as one range, its lines numbered on from the
    /// header's.
    fn whole(&self) -> Result<Lines<Take<BufReader<File>>>, DataError> {
        let mut reader = BufReader::new(File::open(&self.path)?);
        reader.seek(SeekFrom::Start(self.data.start))?;
        let mut lines = Lines::new(reader.take(self.data.end - self.data.start));
        lines.line_no = 1;
        Ok(lines)
    }

    /// Runs `scan` over every range on up to `threads` scoped workers and
    /// hands the results to `fold` on the calling thread, strictly in file
    /// order. Of `w` workers, worker `i` scans ranges `i`, `i + w`, `i +
    /// 2w`, … and sends each result down its own channel, which holds one:
    /// a worker waits once it has finished two ranges the merge has not
    /// taken. A range's lines are numbered from 1. Once `fold` fails, the
    /// channels close, each worker stops at its next hand-off, and the
    /// error is returned.
    fn run_ranges<T: Send>(
        &self,
        threads: usize,
        scan: impl Fn(&mut Lines<Take<&mut BufReader<File>>>) -> T + Sync,
        mut fold: impl FnMut(T) -> Result<(), DataError>,
    ) -> Result<(), DataError> {
        let workers = threads.min(self.ranges.len());
        let readers = (0..workers)
            .map(|_| File::open(&self.path).map(BufReader::new))
            .collect::<Result<Vec<_>, _>>()?;
        std::thread::scope(|scope| {
            let mut results = Vec::with_capacity(workers);
            for (i, mut reader) in readers.into_iter().enumerate() {
                let (sender, receiver) = mpsc::sync_channel(1);
                results.push(receiver);
                let scan = &scan;
                scope.spawn(move || {
                    let mut buf = Vec::new();
                    for range in self.ranges.iter().skip(i).step_by(workers) {
                        let scanned = reader.seek(SeekFrom::Start(range.start)).map(|_| {
                            let mut lines = Lines::new((&mut reader).take(range.end - range.start));
                            lines.buf = std::mem::take(&mut buf);
                            let scanned = scan(&mut lines);
                            buf = lines.buf;
                            scanned
                        });
                        if sender.send(scanned.map_err(DataError::from)).is_err() {
                            return; // the merge has ended
                        }
                    }
                });
            }
            for k in 0..self.ranges.len() {
                // Only a worker that panicked hangs up early; the scope
                // raises its panic once the other workers are done.
                let Ok(scanned) = results[k % workers].recv() else { break };
                scanned.and_then(&mut fold)?;
            }
            Ok(())
        })
    }
}

/// One range's scan, as the merge takes it.
struct RangeScan<T> {
    /// The range's report and what it built, or the error that stopped
    /// it; lines count from the range's first.
    outcome: Result<(IngestReport, T), DataError>,
    /// The physical lines the range read.
    lines: usize,
    /// The range's rejected lines, for the quarantine sink.
    quarantined: Vec<u8>,
}

/// The calling thread's fold of range scans, in file order.
struct Merge<'q> {
    report: IngestReport,
    /// The lines before the next range: the header's and every earlier
    /// range's.
    lines_before: usize,
    quarantine: Option<&'q mut dyn Write>,
}

impl<'q> Merge<'q> {
    fn new(quarantine: Option<&'q mut dyn Write>) -> Self {
        Merge { report: IngestReport::default(), lines_before: 1, quarantine }
    }

    /// Folds in the next range: passes its rejected lines on, then
    /// returns what it built, or its error with the line counted from the
    /// top of the file.
    fn fold<T>(&mut self, scan: RangeScan<T>) -> Result<T, DataError> {
        if let Some(sink) = self.quarantine.as_mut() {
            sink.write_all(&scan.quarantined)?;
        }
        let offset = self.lines_before;
        self.lines_before += scan.lines;
        match scan.outcome {
            Ok((report, part)) => {
                self.report.absorb(report, offset);
                Ok(part)
            }
            Err(DataError::Parse { line, message }) => {
                Err(DataError::Parse { line: line + offset, message })
            }
            Err(err) => Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use proptest::prelude::*;

    /// The row loop `read_csv_with_policy` ran before the scanner: every
    /// line through `BufRead::lines`, a `Vec<&str>` of fields and a fresh
    /// value vector per row. Kept as the oracle the scanner must match.
    fn reference_read_csv_with_policy<R: BufRead>(
        schema: Schema,
        reader: R,
        policy: IngestPolicy,
        mut quarantine: Option<&mut dyn Write>,
    ) -> Result<(Dataset, IngestReport), DataError> {
        fn clean_line(line: &str) -> &str {
            line.strip_suffix('\r').unwrap_or(line)
        }
        fn parse_row(
            schema: &Schema,
            line: &str,
        ) -> Result<(Vec<Value>, usize), (IssueKind, String)> {
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
                                format!(
                                    "`{field}` is not a known label of attribute `{}`",
                                    attr.name
                                ),
                            )
                        })?;
                        values.push(Value::Cat(code as u32));
                    }
                }
            }
            Ok((values, clamped))
        }

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
                Ok((values, clamps)) => match ds.push(&values) {
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

    /// Four columns, two of each kind, so garbage lands in quantitative
    /// and categorical cells alike.
    fn wide_schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("a", 0.0, 100.0),
            Attribute::categorical("g", ["A", "B", "other"]),
            Attribute::quantitative("b", -5.0, 5.0),
            Attribute::categorical("h", ["x", "y"]),
        ])
        .unwrap()
    }

    /// A random, often dirty, CSV over [`wide_schema`]: NaN/inf, text in
    /// numeric cells, unknown labels, out-of-domain values, wrong field
    /// counts, blank and whitespace lines, CRLF and bare-CR endings, the
    /// odd non-UTF-8 byte, a missing final newline, and now and then a
    /// wrong or missing header.
    fn random_csv(rng: &mut rand::rngs::StdRng) -> Vec<u8> {
        use rand::Rng;
        fn quant(rng: &mut rand::rngs::StdRng, lo: f64, hi: f64) -> String {
            match rng.gen_range(0..14) {
                0 => "NaN".into(),
                1 => ["inf", "-inf", "infinity"][rng.gen_range(0..3)].into(),
                2 => ["abc", "", " 1", "1e", "--1"][rng.gen_range(0..5)].into(),
                3 => format!("{}", hi + rng.gen_range(1..1000) as f64 * 0.5),
                4 => format!("{}", lo - rng.gen_range(1..1000) as f64 * 0.25),
                5 => "A".into(),
                _ => format!("{:.3}", lo + (hi - lo) * rng.gen::<f64>()),
            }
        }
        fn label(rng: &mut rand::rngs::StdRng, labels: &[&str]) -> String {
            match rng.gen_range(0..10) {
                0 => ["Z", "", "a", "1.5", "A "][rng.gen_range(0..5)].into(),
                _ => labels[rng.gen_range(0..labels.len())].into(),
            }
        }
        let mut out = Vec::new();
        let eol = |rng: &mut rand::rngs::StdRng, out: &mut Vec<u8>| {
            let end: &[u8] = match rng.gen_range(0..8) {
                0 => b"\r\n",
                1 => b"\r\r\n",
                _ => b"\n",
            };
            out.extend_from_slice(end);
        };
        match rng.gen_range(0..25) {
            0 => return out,
            1 => out.extend_from_slice(b"a,g,b"),
            2 => out.extend_from_slice(b"a,g,b,h,"),
            _ => out.extend_from_slice(b"a,g,b,h"),
        }
        eol(rng, &mut out);
        let rows = rng.gen_range(0..40);
        for row in 0..rows {
            match rng.gen_range(0..16) {
                0 => {}
                1 => out.extend_from_slice(b"  \t "),
                2 => out.push(b'\r'),
                3 => {
                    let n = [1usize, 2, 3, 5, 6][rng.gen_range(0..5)];
                    let cells: Vec<String> = (0..n).map(|_| quant(rng, 0.0, 100.0)).collect();
                    out.extend_from_slice(cells.join(",").as_bytes());
                }
                4 if rng.gen_range(0..4) == 0 => out.extend_from_slice(b"1.0,A,\xff,x"),
                _ => {
                    let cells = [
                        quant(rng, 0.0, 100.0),
                        label(rng, &["A", "B", "other"]),
                        quant(rng, -5.0, 5.0),
                        label(rng, &["x", "y"]),
                    ];
                    out.extend_from_slice(cells.join(",").as_bytes());
                }
            }
            if row + 1 < rows || rng.gen_range(0..3) > 0 {
                eol(rng, &mut out);
            }
        }
        out
    }

    /// One of the three policies, with a random bad-row ceiling.
    fn random_policy(rng: &mut rand::rngs::StdRng) -> IngestPolicy {
        use rand::Rng;
        let max_bad_fraction = [0.0, 0.1, 0.3, 1.0][rng.gen_range(0..4)];
        match rng.gen_range(0..3) {
            0 => IngestPolicy::Strict,
            1 => IngestPolicy::Skip { max_bad_fraction },
            _ => IngestPolicy::Quarantine { max_bad_fraction },
        }
    }

    /// A scratch CSV file, removed when dropped.
    struct TempCsv(std::path::PathBuf);

    impl TempCsv {
        fn new(tag: &str, bytes: &[u8]) -> Self {
            let dir = std::env::temp_dir().join(format!("arcs-csv-ranges-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("{tag}.csv"));
            std::fs::write(&path, bytes).unwrap();
            TempCsv(path)
        }
    }

    impl Drop for TempCsv {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    /// What a load hands back: the dataset and report, or the error, and
    /// the quarantine sink's bytes.
    type Loaded = (Result<(Dataset, IngestReport), DataError>, Vec<u8>);

    /// `path` loaded against `schema` as a file cut into ranges of
    /// `range_bytes`, on `threads` workers.
    fn load_ranges(
        path: &Path,
        schema: &Schema,
        policy: IngestPolicy,
        with_sink: bool,
        range_bytes: u64,
        threads: usize,
    ) -> Loaded {
        let mut sink = Vec::new();
        let loaded = CsvFile::with_range_bytes(path, range_bytes).and_then(|file| {
            let mut ds = Dataset::new(schema.clone());
            let quarantine = with_sink.then_some(&mut sink as &mut dyn Write);
            let report = file.load_into(&mut ds, policy, quarantine, threads)?;
            Ok((ds, report))
        });
        (loaded, sink)
    }

    /// `bytes` loaded against `schema` by one reader: the one-range scan.
    fn load_reader(bytes: &[u8], schema: &Schema, policy: IngestPolicy, with_sink: bool) -> Loaded {
        let mut sink = Vec::new();
        let quarantine = with_sink.then_some(&mut sink as &mut dyn Write);
        let loaded = read_csv_with_policy(schema.clone(), bytes, policy, quarantine);
        (loaded, sink)
    }

    /// Checks that `bytes`, cut into ranges of every size from 1 byte to
    /// the whole file and scanned on 2 and 3 workers, infers and loads
    /// as one reader does, and that every range starts a line. Returns
    /// the one-range load.
    fn assert_ranges_match_one_reader(
        bytes: &[u8],
        schema: &Schema,
        policy: IngestPolicy,
        max_categories: usize,
    ) -> Loaded {
        static SWEEPS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let sweep = SWEEPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let file = TempCsv::new(&format!("sweep-{sweep}"), bytes);
        let inferred = infer_schema_with_policy(bytes, max_categories, policy);
        let want = load_reader(bytes, schema, policy, true);
        for range_bytes in 1..=bytes.len() as u64 {
            let csv = CsvFile::with_range_bytes(&file.0, range_bytes).unwrap();
            for range in &csv.ranges {
                let start = range.start as usize;
                assert!(start == csv.data.start as usize || bytes[start - 1] == b'\n', "{range:?}");
            }
            for threads in [2, 3] {
                let got = csv.infer_schema(max_categories, policy, threads);
                assert_eq!(got, inferred, "infer, {range_bytes}-byte ranges, {threads} threads");
                let got = load_ranges(&file.0, schema, policy, true, range_bytes, threads);
                assert_eq!(got, want, "load, {range_bytes}-byte ranges, {threads} threads");
            }
        }
        want
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A file cut into ranges of a few bytes and scanned on one to
        /// four workers infers the schema, and loads the rows, report,
        /// quarantine bytes and error, that one reader does, under every
        /// policy.
        #[test]
        fn chunked_scans_match_the_one_range_scan(seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let csv = random_csv(&mut rng);
            let policy = random_policy(&mut rng);
            let with_sink = rng.gen_bool(0.8);
            let max_categories = rng.gen_range(0..8);
            let range_bytes = rng.gen_range(1..48);
            let threads = rng.gen_range(1..=4);
            let file = TempCsv::new("chunked-prop", &csv);

            let one_range = infer_schema_with_policy(&csv[..], max_categories, policy);
            let chunked = CsvFile::with_range_bytes(&file.0, range_bytes)
                .and_then(|f| f.infer_schema(max_categories, policy, threads));
            prop_assert_eq!(&chunked, &one_range);

            let mut schemas = vec![wide_schema()];
            schemas.extend(one_range.map(|(schema, _)| schema));
            for schema in &schemas {
                let chunked = load_ranges(&file.0, schema, policy, with_sink, range_bytes, threads);
                prop_assert_eq!(chunked, load_reader(&csv, schema, policy, with_sink));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The scanner accepts, rejects, clamps and quarantines exactly
        /// the rows the previous row loop did, with the same report and
        /// the same error, under every policy: the loaded datasets are
        /// equal, schema and columns.
        #[test]
        fn scanner_matches_the_reference_loader(seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let csv = random_csv(&mut rng);
            let policy = random_policy(&mut rng);
            let with_sink = rng.gen_bool(0.8);
            let (mut sink, mut reference_sink) = (Vec::new(), Vec::new());
            let scanned = read_csv_with_policy(
                wide_schema(),
                &csv[..],
                policy,
                with_sink.then_some(&mut sink as &mut dyn Write),
            );
            let reference = reference_read_csv_with_policy(
                wide_schema(),
                &csv[..],
                policy,
                with_sink.then_some(&mut reference_sink as &mut dyn Write),
            );
            match (scanned, reference) {
                (Ok((ds, report)), Ok((ref_ds, ref_report))) => {
                    prop_assert_eq!(ds, ref_ds);
                    prop_assert_eq!(report, ref_report);
                }
                (Err(err), Err(ref_err)) => prop_assert_eq!(err, ref_err),
                (got, want) => prop_assert!(false, "scanner {got:?}, reference {want:?}"),
            }
            prop_assert_eq!(sink, reference_sink);
        }
    }

    #[test]
    fn header_less_rows_number_from_one() {
        let mut rows = Vec::new();
        let report = scan_csv_rows(&schema(), &b"1.0,A\r\n\n150,other\n"[..], |row| {
            rows.push(row.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Quant(1.0), Value::Cat(0)], vec![Value::Quant(100.0), Value::Cat(1)]]
        );
        assert_eq!((report.rows_kept, report.clamped_values), (2, 1));
        let err = scan_csv_rows(&schema(), &b"garbage\n"[..], |_| Ok(())).unwrap_err();
        assert_eq!(err, DataError::Parse { line: 1, message: "expected 2 fields, found 1".into() });
        let err = scan_csv_rows(&schema(), &b"1.0,A\n\n3.0,Z\n"[..], |_| Ok(())).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn rows_the_callback_refuses_are_invalid_rows() {
        let input = b"age,group\n1.0,A\n2.0,other\n" as &[u8];
        let refuse_other = |row: &[Value]| match row[1] {
            Value::Cat(1) => Err(DataError::InvalidConfig("refused".into())),
            _ => Ok(()),
        };
        let report = scan_csv(
            &schema(),
            input,
            IngestPolicy::Skip { max_bad_fraction: 1.0 },
            None,
            refuse_other,
        )
        .unwrap();
        assert_eq!((report.rows_kept, report.rows_skipped), (1, 1));
        assert_eq!(report.count_of(IssueKind::Invalid), 1);
        assert_eq!(report.issues()[0].line, 3);
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("age", 0.0, 100.0),
            Attribute::categorical("group", ["A", "other"]),
        ])
        .unwrap()
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::new(schema());
        ds.push(&[Value::Quant(30.5), Value::Cat(0)]).unwrap();
        ds.push(&[Value::Quant(62.0), Value::Cat(1)]).unwrap();
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
        assert_eq!(back.quant(0).unwrap()[0], 30.5);
        assert_eq!(back.cat(1).unwrap()[0], 0);
        assert_eq!(back.cat(1).unwrap()[1], 1);
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
        assert_eq!(ds.quant(0).unwrap()[1], 2.0);
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
        assert_eq!(ds.quant(0).unwrap()[0], 100.0);
        assert_eq!(ds.quant(0).unwrap()[1], 0.0);
        assert_eq!(ds.quant(0).unwrap()[2], 50.0);
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
            1,
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
        assert_eq!(ds.quant(0).unwrap()[0], 20.0);
        assert_eq!(ds.cat(1).unwrap()[1], 1);
    }

    /// A range boundary between the `\r` and `\n` of a CRLF ending
    /// moves past the `\n`: the row keeps its ending.
    #[test]
    fn a_crlf_pair_split_by_a_range_boundary_stays_one_ending() {
        let bytes = b"age,group\r\n1.0,A\r\n2.0,other\r\n3.0,A\r\n";
        let file = TempCsv::new("crlf", bytes);
        // Data starts at byte 11; the first row's `\r` is byte 16.
        let csv = CsvFile::with_range_bytes(&file.0, 6).unwrap();
        assert_eq!(csv.ranges[0], 11..18);
        let (loaded, _) = assert_ranges_match_one_reader(bytes, &schema(), IngestPolicy::Strict, 2);
        assert_eq!(loaded.unwrap().0.len(), 3);
    }

    /// Blank lines at, across and between range boundaries count as
    /// lines: a later bad row keeps its line number.
    #[test]
    fn blank_lines_at_a_range_boundary_keep_line_numbers() {
        let bytes = b"age,group\n1.0,A\n\n  \n\r\n\n2.0,other\n\n\n3.0\n\n4.0,A\n";
        let (loaded, _) = assert_ranges_match_one_reader(bytes, &schema(), IngestPolicy::Strict, 3);
        assert_eq!(
            loaded.unwrap_err(),
            DataError::Parse { line: 10, message: "expected 2 fields, found 1".into() }
        );
        let skip = IngestPolicy::Skip { max_bad_fraction: 1.0 };
        let (loaded, _) = assert_ranges_match_one_reader(bytes, &schema(), skip, 3);
        let (rows, report) = loaded.unwrap();
        assert_eq!((rows.len(), report.issues()[0].line), (3, 10));
    }

    /// The last range ends at the end of the file, newline or not.
    #[test]
    fn a_missing_final_newline_ends_the_last_range() {
        let bytes = b"age,group\n1.0,A\n2.0,other\n7.0,Z";
        let quarantine = IngestPolicy::Quarantine { max_bad_fraction: 1.0 };
        let (loaded, sink) = assert_ranges_match_one_reader(bytes, &schema(), quarantine, 3);
        let (rows, report) = loaded.unwrap();
        assert_eq!((rows.len(), report.issues()[0].line), (2, 4));
        assert_eq!(sink, b"7.0,Z\n");
        let good = b"age,group\n1.0,A\n2.0,other";
        let (loaded, _) = assert_ranges_match_one_reader(good, &schema(), IngestPolicy::Strict, 3);
        assert_eq!(loaded.unwrap().0.len(), 2);
    }

    /// A parse error in an early range beats a non-UTF-8 line in a later
    /// one under the strict policy; a lenient scan records the first and
    /// fails on the second, with the earlier rejects quarantined.
    #[test]
    fn an_early_parse_error_beats_a_later_non_utf8_line() {
        let mut bytes = b"age,group\n1.0,A\nbad,A\n".to_vec();
        for i in 0..6 {
            bytes.extend_from_slice(format!("{i}.5,other\n").as_bytes());
        }
        bytes.extend_from_slice(b"9.0,\xff\n8.0,A\n");
        let (loaded, _) =
            assert_ranges_match_one_reader(&bytes, &schema(), IngestPolicy::Strict, 4);
        assert_eq!(
            loaded.unwrap_err(),
            DataError::Parse {
                line: 3,
                message: "`bad` is not a number for attribute `age`".into()
            }
        );
        let quarantine = IngestPolicy::Quarantine { max_bad_fraction: 1.0 };
        let (loaded, sink) = assert_ranges_match_one_reader(&bytes, &schema(), quarantine, 4);
        assert!(matches!(loaded, Err(DataError::Io(_))), "{loaded:?}");
        assert_eq!(sink, b"bad,A\n");
    }

    /// Past [`MAX_RECORDED_ISSUES`](crate::ingest::MAX_RECORDED_ISSUES)
    /// issues spread over many ranges, the merged report records the
    /// first ones in file order and counts them all.
    #[test]
    fn issues_past_the_cap_across_ranges_keep_the_first_in_file_order() {
        use crate::ingest::MAX_RECORDED_ISSUES;
        let mut bytes = b"age,group\n".to_vec();
        for i in 0..MAX_RECORDED_ISSUES + 500 {
            bytes.extend_from_slice(if i % 3 == 0 { b"1.0,A\n" } else { b"bad,A\n" });
            bytes.extend_from_slice(b"x\n");
        }
        let file = TempCsv::new("many-issues", &bytes);
        let skip = IngestPolicy::Skip { max_bad_fraction: 1.0 };
        let want = load_reader(&bytes, &schema(), skip, false);
        for threads in [2, 4] {
            let got = load_ranges(&file.0, &schema(), skip, false, 4096, threads);
            assert_eq!(got, want);
        }
        let report = want.0.unwrap().1;
        assert_eq!(report.rows_skipped, 2 * (MAX_RECORDED_ISSUES + 500) - 3_500);
        assert_eq!(report.issues().len(), MAX_RECORDED_ISSUES);
        // Six lines hold five issues: the 10,000th ends line 12,001.
        assert_eq!(report.issues().last().unwrap().line, 12_001);
    }

    /// The bad-row ceiling holds for the whole file, not for a range: an
    /// all-bad range passes when the file does, and the error counts the
    /// whole file.
    #[test]
    fn the_bad_row_ceiling_applies_to_the_merged_report() {
        let mut bytes = b"age,group\n".to_vec();
        bytes.extend_from_slice(&b"bad,A\n".repeat(4));
        bytes.extend_from_slice(&b"1.0,A\n".repeat(6));
        let file = TempCsv::new("ceiling", &bytes);
        let lenient = IngestPolicy::Skip { max_bad_fraction: 0.4 };
        let want = load_reader(&bytes, &schema(), lenient, false);
        assert_eq!(load_ranges(&file.0, &schema(), lenient, false, 6, 2), want);
        assert_eq!(want.0.unwrap().1.rows_skipped, 4);
        let tight = IngestPolicy::Skip { max_bad_fraction: 0.3 };
        let (loaded, _) = assert_ranges_match_one_reader(&bytes, &schema(), tight, 3);
        assert_eq!(
            loaded.unwrap_err(),
            DataError::TooManyBadRows { skipped: 4, read: 10, max_bad_fraction: 0.3 }
        );
    }

    /// Both passes read the length read at open: a row appended after
    /// the file was opened is in neither.
    #[test]
    fn every_pass_reads_the_length_read_at_open() {
        let bytes = b"age,group\n1.0,A\n2.0,other\n3.0,A\n";
        let file = TempCsv::new("grows", bytes);
        for (range_bytes, threads) in [(4 << 20, 1), (5, 2)] {
            std::fs::write(&file.0, bytes).unwrap();
            let csv = CsvFile::with_range_bytes(&file.0, range_bytes).unwrap();
            let mut grown = bytes.to_vec();
            grown.extend_from_slice(b"4.0,Z\n");
            std::fs::write(&file.0, &grown).unwrap();
            let (schema, probe) = csv.infer_schema(2, IngestPolicy::Strict, threads).unwrap();
            let mut ds = Dataset::new(schema);
            let report = csv.load_into(&mut ds, IngestPolicy::Strict, None, threads).unwrap();
            assert_eq!((probe.rows_kept, report.rows_kept, ds.len()), (3, 3, 3));
        }
    }

    /// A sink that panics on a late range makes the scan panic, instead
    /// of leaving the merge waiting for that range.
    #[test]
    fn a_panicking_sink_fails_the_scan_instead_of_hanging_it() {
        struct Bomb;
        impl RowSink for Bomb {
            fn part(&self) -> Self {
                Bomb
            }
            fn accept(&mut self, row: &[Value]) -> Result<(), DataError> {
                assert!(row[0] != Value::Quant(60.0), "refusing row 60");
                Ok(())
            }
            fn absorb(&mut self, _: Self) -> Result<(), DataError> {
                Ok(())
            }
        }
        let mut bytes = b"age,group\n".to_vec();
        for i in 0..80 {
            bytes.extend_from_slice(format!("{i}.0,A\n").as_bytes());
        }
        let file = TempCsv::new("bomb", &bytes);
        let csv = CsvFile::with_range_bytes(&file.0, 16).unwrap();
        let scan = std::panic::catch_unwind(|| {
            csv.scan(&schema(), IngestPolicy::Strict, None, 2, &mut Bomb).map(|_| ())
        });
        assert!(scan.is_err());
    }
}
