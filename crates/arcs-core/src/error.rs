//! Error types for the ARCS core.

use std::fmt;

use arcs_data::DataError;

/// Errors produced by the ARCS pipeline and its components.
#[derive(Debug, Clone, PartialEq)]
pub enum ArcsError {
    /// A component was configured with invalid parameters.
    InvalidConfig(String),
    /// An attribute used in the pipeline has the wrong kind (e.g. a
    /// categorical attribute where a quantitative LHS attribute is needed).
    AttributeKind {
        /// Attribute name.
        attribute: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A named group label does not exist on the criterion attribute.
    UnknownGroup(String),
    /// A coordinate was outside the grid or bin array.
    OutOfBounds {
        /// Human-readable description of the access.
        what: String,
    },
    /// An error bubbled up from the data substrate.
    Data(DataError),
    /// The optimizer exhausted its budget without finding any candidate
    /// segmentation (e.g. no cell ever met the thresholds).
    NoSegmentation,
    /// An I/O error occurred (message-only: `std::io::Error` is not `Clone`).
    Io(String),
    /// A checkpoint or snapshot file is corrupt, truncated, or written by
    /// an incompatible version.
    Checkpoint {
        /// What failed while reading the file.
        message: String,
    },
    /// A requested grid's cell count overflows `usize` or cannot be
    /// allocated: `nx * ny * (nseg + 1)` is beyond what this process can
    /// address.
    GridTooLarge {
        /// Requested number of x bins.
        nx: usize,
        /// Requested number of y bins.
        ny: usize,
        /// Number of criterion groups (the array stores `nseg + 1` slots
        /// per cell).
        nseg: usize,
    },
    /// The configured memory budget is too small even for the coarsest
    /// acceptable grid, so the resource governor refused admission.
    BudgetExceeded {
        /// Bytes the smallest acceptable allocation would need.
        required_bytes: usize,
        /// The configured budget in bytes.
        budget_bytes: usize,
    },
    /// A large allocation failed (the allocator reported out-of-memory
    /// instead of aborting the process).
    AllocationFailed {
        /// What was being allocated.
        what: String,
    },
    /// A parallel worker panicked and the panic could not be recovered by
    /// retry or sequential fallback.
    WorkerPanicked {
        /// Which stage's worker panicked.
        stage: &'static str,
        /// Best-effort panic payload text.
        message: String,
    },
    /// A fault-injection failpoint fired a typed error (only produced by
    /// builds with the `failpoints` feature, under an explicit schedule).
    FaultInjected {
        /// Name of the failpoint that fired.
        point: &'static str,
    },
    /// A request's deadline expired before its work completed. The
    /// serving core checks deadlines at admission and between pipeline
    /// stages, so the error names where the budget ran out.
    DeadlineExceeded {
        /// The stage at which the deadline was found expired.
        stage: &'static str,
    },
    /// Admission control shed the request: the server's in-flight slots
    /// and its wait queue were both full. Shedding is immediate — the
    /// caller is never left stalled behind an unbounded queue.
    Overloaded {
        /// Requests executing when the request was shed.
        inflight: usize,
        /// Requests already waiting when the request was shed.
        queued: usize,
    },
}

impl ArcsError {
    /// Stable machine-readable code for this error, used 1:1 as the wire
    /// error code by the daemon protocol and mapped to CLI exit codes.
    ///
    /// Codes are part of the wire contract: they never change once
    /// shipped, even if variant names or messages do.
    pub fn code(&self) -> &'static str {
        match self {
            ArcsError::InvalidConfig(_) => "INVALID_CONFIG",
            ArcsError::AttributeKind { .. } => "ATTRIBUTE_KIND",
            ArcsError::UnknownGroup(_) => "UNKNOWN_GROUP",
            ArcsError::OutOfBounds { .. } => "OUT_OF_BOUNDS",
            ArcsError::Data(_) => "DATA",
            ArcsError::NoSegmentation => "NO_SEGMENTATION",
            ArcsError::Io(_) => "IO",
            ArcsError::Checkpoint { .. } => "CHECKPOINT",
            ArcsError::GridTooLarge { .. } => "GRID_TOO_LARGE",
            ArcsError::BudgetExceeded { .. } => "BUDGET_EXCEEDED",
            ArcsError::AllocationFailed { .. } => "ALLOCATION_FAILED",
            ArcsError::WorkerPanicked { .. } => "WORKER_PANICKED",
            ArcsError::FaultInjected { .. } => "FAULT_INJECTED",
            ArcsError::DeadlineExceeded { .. } => "DEADLINE_EXCEEDED",
            ArcsError::Overloaded { .. } => "OVERLOADED",
        }
    }
}

impl fmt::Display for ArcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArcsError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ArcsError::AttributeKind { attribute, expected } => {
                write!(f, "attribute `{attribute}` has the wrong kind: expected {expected}")
            }
            ArcsError::UnknownGroup(label) => {
                write!(f, "group label `{label}` not found on the criterion attribute")
            }
            ArcsError::OutOfBounds { what } => write!(f, "out of bounds: {what}"),
            ArcsError::Data(err) => write!(f, "data error: {err}"),
            ArcsError::NoSegmentation => {
                write!(f, "no segmentation found: no cell met any support/confidence threshold")
            }
            ArcsError::Io(message) => write!(f, "I/O error: {message}"),
            ArcsError::Checkpoint { message } => write!(f, "bad checkpoint: {message}"),
            ArcsError::GridTooLarge { nx, ny, nseg } => write!(
                f,
                "grid too large: {nx} x {ny} bins with {nseg} groups exceeds addressable memory"
            ),
            ArcsError::BudgetExceeded { required_bytes, budget_bytes } => write!(
                f,
                "memory budget exceeded: need at least {required_bytes} bytes \
                 but the budget is {budget_bytes} bytes"
            ),
            ArcsError::AllocationFailed { what } => {
                write!(f, "allocation failed: out of memory while allocating {what}")
            }
            ArcsError::WorkerPanicked { stage, message } => {
                write!(f, "{stage} worker panicked and could not be recovered: {message}")
            }
            ArcsError::FaultInjected { point } => {
                write!(f, "injected fault fired at failpoint `{point}`")
            }
            ArcsError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded at stage `{stage}`")
            }
            ArcsError::Overloaded { inflight, queued } => write!(
                f,
                "server overloaded: {inflight} requests in flight and {queued} queued; \
                 request shed"
            ),
        }
    }
}

impl std::error::Error for ArcsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArcsError::Data(err) => Some(err),
            _ => None,
        }
    }
}

/// Best-effort text of a caught panic payload (panics carry `&str` or
/// `String` in practice; anything else is opaque).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl From<DataError> for ArcsError {
    fn from(err: DataError) -> Self {
        ArcsError::Data(err)
    }
}

impl From<std::io::Error> for ArcsError {
    fn from(err: std::io::Error) -> Self {
        ArcsError::Io(err.to_string())
    }
}

/// Malformed JSON is invalid input, like a document of the wrong shape.
impl From<crate::jsonio::JsonError> for ArcsError {
    fn from(err: crate::jsonio::JsonError) -> Self {
        ArcsError::InvalidConfig(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let err = ArcsError::UnknownGroup("excellent".into());
        assert!(err.to_string().contains("excellent"));

        let err: ArcsError = DataError::UnknownAttribute("x".into()).into();
        assert!(matches!(err, ArcsError::Data(_)));
        assert!(std::error::Error::source(&err).is_some());

        let err = ArcsError::NoSegmentation;
        assert!(std::error::Error::source(&err).is_none());
        assert!(err.to_string().contains("no segmentation"));
    }

    #[test]
    fn wire_codes_are_stable_and_distinct() {
        let samples = [
            (ArcsError::InvalidConfig("x".into()), "INVALID_CONFIG"),
            (
                ArcsError::AttributeKind { attribute: "a".into(), expected: "quantitative" },
                "ATTRIBUTE_KIND",
            ),
            (ArcsError::UnknownGroup("g".into()), "UNKNOWN_GROUP"),
            (ArcsError::OutOfBounds { what: "w".into() }, "OUT_OF_BOUNDS"),
            (ArcsError::Data(DataError::UnknownAttribute("x".into())), "DATA"),
            (ArcsError::NoSegmentation, "NO_SEGMENTATION"),
            (ArcsError::Io("io".into()), "IO"),
            (ArcsError::Checkpoint { message: "c".into() }, "CHECKPOINT"),
            (ArcsError::GridTooLarge { nx: 1, ny: 1, nseg: 1 }, "GRID_TOO_LARGE"),
            (
                ArcsError::BudgetExceeded { required_bytes: 2, budget_bytes: 1 },
                "BUDGET_EXCEEDED",
            ),
            (ArcsError::AllocationFailed { what: "w".into() }, "ALLOCATION_FAILED"),
            (
                ArcsError::WorkerPanicked { stage: "s", message: "m".into() },
                "WORKER_PANICKED",
            ),
            (ArcsError::FaultInjected { point: "p" }, "FAULT_INJECTED"),
            (ArcsError::DeadlineExceeded { stage: "s" }, "DEADLINE_EXCEEDED"),
            (ArcsError::Overloaded { inflight: 1, queued: 1 }, "OVERLOADED"),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for (err, code) in samples {
            assert_eq!(err.code(), code);
            assert!(seen.insert(code), "duplicate wire code {code}");
        }
    }

    #[test]
    fn robustness_variants_display() {
        let err = ArcsError::GridTooLarge { nx: 1 << 20, ny: 1 << 20, nseg: 9 };
        assert!(err.to_string().contains("grid too large"), "{err}");

        let err = ArcsError::BudgetExceeded { required_bytes: 4096, budget_bytes: 1024 };
        assert!(err.to_string().contains("4096"), "{err}");
        assert!(err.to_string().contains("1024"), "{err}");

        let err = ArcsError::AllocationFailed { what: "bin array counters".into() };
        assert!(err.to_string().contains("out of memory"), "{err}");

        let err = ArcsError::WorkerPanicked { stage: "binning", message: "boom".into() };
        assert!(err.to_string().contains("binning"), "{err}");
        assert!(err.to_string().contains("boom"), "{err}");

        let err = ArcsError::FaultInjected { point: "binner.shard" };
        assert!(err.to_string().contains("binner.shard"), "{err}");

        let err = ArcsError::DeadlineExceeded { stage: "serve.admission" };
        assert!(err.to_string().contains("deadline"), "{err}");
        assert!(err.to_string().contains("serve.admission"), "{err}");

        let err = ArcsError::Overloaded { inflight: 8, queued: 16 };
        assert!(err.to_string().contains("overloaded"), "{err}");
        assert!(err.to_string().contains("shed"), "{err}");
    }
}
