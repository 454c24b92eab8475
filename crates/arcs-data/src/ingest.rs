//! Ingest policies and reports: the failure model for untrusted input.
//!
//! Real extracts are dirty — truncated rows, stray text in numeric
//! columns, `NaN`/`inf` literals, labels that drifted from the schema.
//! A multi-hour scan must not die on row 9,999,731 of 10M, so every
//! lenient loader in this crate is parameterised by an [`IngestPolicy`]
//! and returns an [`IngestReport`] describing exactly what happened to
//! the input instead of silently best-effort-ing.
//!
//! The three policies:
//!
//! * [`IngestPolicy::Strict`] — abort on the first bad row (the historic
//!   `read_csv` behaviour; right for curated fixtures and tests).
//! * [`IngestPolicy::Skip`] — drop bad rows, keep counts, and fail only
//!   if the bad fraction exceeds the configured ceiling.
//! * [`IngestPolicy::Quarantine`] — like `Skip`, but stream the raw
//!   offending lines to a side sink for later inspection.
//!
//! Out-of-domain quantitative values are not "bad rows": under every
//! policy they are clamped into the attribute's declared domain and
//! counted in [`IngestReport::clamped_values`] — dropping a row because
//! `age = 81.2` exceeded a declared max of 80 would silently bias the
//! distribution, while clamping is visible in the report.

use std::fmt;

/// How a lenient loader treats rows that fail to parse or validate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestPolicy {
    /// Abort on the first bad row.
    Strict,
    /// Drop bad rows and keep going, as long as the skipped fraction
    /// stays at or below `max_bad_fraction` (checked once the input is
    /// exhausted, when the fraction is meaningful).
    Skip {
        /// Ceiling on `rows_skipped / rows_read` in `[0, 1]`.
        max_bad_fraction: f64,
    },
    /// Drop bad rows like `Skip`, additionally writing each raw
    /// offending line to the quarantine sink supplied to the loader.
    Quarantine {
        /// Ceiling on `rows_skipped / rows_read` in `[0, 1]`.
        max_bad_fraction: f64,
    },
}

impl IngestPolicy {
    /// Whether the first bad row aborts the load.
    pub fn is_strict(&self) -> bool {
        matches!(self, IngestPolicy::Strict)
    }

    /// The bad-row ceiling, if this policy has one.
    pub fn max_bad_fraction(&self) -> Option<f64> {
        match self {
            IngestPolicy::Strict => None,
            IngestPolicy::Skip { max_bad_fraction }
            | IngestPolicy::Quarantine { max_bad_fraction } => Some(*max_bad_fraction),
        }
    }
}

/// What went wrong with one rejected row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IssueKind {
    /// Wrong number of comma-separated fields (truncated or overlong row).
    FieldCount,
    /// A quantitative field that does not parse as a number.
    NonNumeric,
    /// A quantitative field parsing to `NaN` or `±inf`.
    NonFinite,
    /// A categorical field whose label is not in the schema.
    UnknownLabel,
    /// The assembled row failed schema validation for another reason.
    Invalid,
}

impl IssueKind {
    /// All kinds, in a stable order (used for reporting).
    pub const ALL: [IssueKind; 5] = [
        IssueKind::FieldCount,
        IssueKind::NonNumeric,
        IssueKind::NonFinite,
        IssueKind::UnknownLabel,
        IssueKind::Invalid,
    ];

    fn slot(self) -> usize {
        match self {
            IssueKind::FieldCount => 0,
            IssueKind::NonNumeric => 1,
            IssueKind::NonFinite => 2,
            IssueKind::UnknownLabel => 3,
            IssueKind::Invalid => 4,
        }
    }
}

impl fmt::Display for IssueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            IssueKind::FieldCount => "field-count",
            IssueKind::NonNumeric => "non-numeric",
            IssueKind::NonFinite => "non-finite",
            IssueKind::UnknownLabel => "unknown-label",
            IssueKind::Invalid => "invalid",
        };
        f.write_str(name)
    }
}

/// One recorded problem, tied to its 1-based input line.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestIssue {
    /// 1-based line number in the input (the header is line 1).
    pub line: usize,
    /// The category of the problem.
    pub kind: IssueKind,
    /// Human-readable description.
    pub message: String,
}

/// Upper bound on individually recorded issues; per-kind *counts* are
/// always exact regardless of this cap, so a pathological input cannot
/// make the report itself unbounded.
pub const MAX_RECORDED_ISSUES: usize = 10_000;

/// The outcome of a lenient load: what was read, kept, skipped, clamped,
/// and why.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngestReport {
    /// Data rows encountered (blank lines and the header excluded).
    pub rows_read: usize,
    /// Rows accepted into the dataset.
    pub rows_kept: usize,
    /// Rows rejected (parse or validation failure).
    pub rows_skipped: usize,
    /// Rows written to the quarantine sink (equals `rows_skipped` under
    /// [`IngestPolicy::Quarantine`], zero otherwise).
    pub rows_quarantined: usize,
    /// Out-of-domain quantitative values clamped into their attribute's
    /// declared `[min, max]` (values, not rows).
    pub clamped_values: usize,
    /// Exact per-kind issue counts (indexed via [`IssueKind::ALL`]).
    kind_counts: [usize; 5],
    /// The first [`MAX_RECORDED_ISSUES`] issues, with line numbers.
    issues: Vec<IngestIssue>,
}

impl IngestReport {
    /// Records one rejected row.
    pub(crate) fn record(&mut self, line: usize, kind: IssueKind, message: String) {
        self.kind_counts[kind.slot()] += 1;
        if self.issues.len() < MAX_RECORDED_ISSUES {
            self.issues.push(IngestIssue { line, kind, message });
        }
    }

    /// Folds in the report of the input that follows this one, whose
    /// issue lines count from `line_offset` + 1: counts are summed and
    /// its issues appended, up to [`MAX_RECORDED_ISSUES`] in all.
    pub(crate) fn absorb(&mut self, later: IngestReport, line_offset: usize) {
        self.rows_read += later.rows_read;
        self.rows_kept += later.rows_kept;
        self.rows_skipped += later.rows_skipped;
        self.rows_quarantined += later.rows_quarantined;
        self.clamped_values += later.clamped_values;
        for (count, more) in self.kind_counts.iter_mut().zip(later.kind_counts) {
            *count += more;
        }
        let room = MAX_RECORDED_ISSUES.saturating_sub(self.issues.len());
        self.issues.extend(later.issues.into_iter().take(room).map(|mut issue| {
            issue.line += line_offset;
            issue
        }));
    }

    /// Forgets every recorded issue past the first `len`; the counts stay
    /// exact.
    pub(crate) fn truncate_issues(&mut self, len: usize) {
        self.issues.truncate(len);
    }

    /// Exact number of issues of the given kind.
    pub fn count_of(&self, kind: IssueKind) -> usize {
        self.kind_counts[kind.slot()]
    }

    /// The recorded issues (capped at [`MAX_RECORDED_ISSUES`]).
    pub fn issues(&self) -> &[IngestIssue] {
        &self.issues
    }

    /// Fraction of read rows that were skipped (0 for empty input).
    pub fn bad_fraction(&self) -> f64 {
        if self.rows_read == 0 {
            0.0
        } else {
            self.rows_skipped as f64 / self.rows_read as f64
        }
    }

    /// Whether every row made it in untouched.
    pub fn is_clean(&self) -> bool {
        self.rows_skipped == 0 && self.clamped_values == 0
    }

    /// A compact multi-line rendering for command-line output.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "rows read {}, kept {}, skipped {} ({:.2}% bad), quarantined {}, values clamped {}",
            self.rows_read,
            self.rows_kept,
            self.rows_skipped,
            self.bad_fraction() * 100.0,
            self.rows_quarantined,
            self.clamped_values,
        );
        for kind in IssueKind::ALL {
            let n = self.count_of(kind);
            if n > 0 {
                out.push_str(&format!("\n  {kind}: {n}"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_accessors() {
        assert!(IngestPolicy::Strict.is_strict());
        assert_eq!(IngestPolicy::Strict.max_bad_fraction(), None);
        assert_eq!(IngestPolicy::Skip { max_bad_fraction: 1.0 }.max_bad_fraction(), Some(1.0));
        let q = IngestPolicy::Quarantine { max_bad_fraction: 0.05 };
        assert!(!q.is_strict());
        assert_eq!(q.max_bad_fraction(), Some(0.05));
    }

    #[test]
    fn report_counts_and_fraction() {
        let mut r =
            IngestReport { rows_read: 10, rows_kept: 8, rows_skipped: 2, ..Default::default() };
        r.record(3, IssueKind::NonNumeric, "x".into());
        r.record(7, IssueKind::FieldCount, "y".into());
        assert_eq!(r.count_of(IssueKind::NonNumeric), 1);
        assert_eq!(r.count_of(IssueKind::FieldCount), 1);
        assert_eq!(r.count_of(IssueKind::Invalid), 0);
        assert!((r.bad_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(r.issues().len(), 2);
        assert_eq!(r.issues()[0].line, 3);
        assert!(!r.is_clean());
        let s = r.summary();
        assert!(s.contains("kept 8"), "{s}");
        assert!(s.contains("non-numeric: 1"), "{s}");
    }

    #[test]
    fn issue_recording_is_capped_but_counts_exact() {
        let mut r = IngestReport::default();
        for i in 0..(MAX_RECORDED_ISSUES + 5) {
            r.record(i + 2, IssueKind::NonNumeric, String::new());
        }
        assert_eq!(r.issues().len(), MAX_RECORDED_ISSUES);
        assert_eq!(r.count_of(IssueKind::NonNumeric), MAX_RECORDED_ISSUES + 5);
    }

    /// Absorbing a split report gives the report of the whole: counts
    /// add up, lines shift, and the recorded issues stop at the cap.
    #[test]
    fn absorbed_reports_equal_the_whole() {
        let issue = |r: &mut IngestReport, line: usize| {
            r.rows_read += 1;
            r.rows_skipped += 1;
            r.record(line, IssueKind::FieldCount, String::new());
        };
        let mut whole = IngestReport::default();
        let (mut head, mut tail) = (IngestReport::default(), IngestReport::default());
        for line in 2..MAX_RECORDED_ISSUES {
            issue(&mut whole, line);
            issue(&mut head, line);
        }
        for line in MAX_RECORDED_ISSUES..MAX_RECORDED_ISSUES + 7 {
            issue(&mut whole, line);
            issue(&mut tail, line - 100);
        }
        head.absorb(tail, 100);
        assert_eq!(head, whole);
        assert_eq!(head.issues().len(), MAX_RECORDED_ISSUES);
        assert_eq!(head.issues().last().unwrap().line, MAX_RECORDED_ISSUES + 1);
    }

    #[test]
    fn empty_report_is_clean() {
        let r = IngestReport::default();
        assert!(r.is_clean());
        assert_eq!(r.bad_fraction(), 0.0);
    }
}
