//! Error types for the data substrate.

use std::fmt;

/// Errors produced while constructing schemas, datasets, or parsing data.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// An attribute name was referenced that does not exist in the schema.
    UnknownAttribute(String),
    /// A tuple had the wrong number of values for its schema.
    ArityMismatch {
        /// Number of attributes in the schema.
        expected: usize,
        /// Number of values in the offending tuple.
        actual: usize,
    },
    /// A value's type did not match the attribute kind at its position.
    TypeMismatch {
        /// Attribute name.
        attribute: String,
        /// Description of what was expected.
        expected: &'static str,
    },
    /// A categorical code was out of range for the attribute's cardinality.
    CategoryOutOfRange {
        /// Attribute name.
        attribute: String,
        /// Offending code.
        code: u32,
        /// Cardinality of the attribute.
        cardinality: u32,
    },
    /// Two attributes in a schema share the same name.
    DuplicateAttribute(String),
    /// A quantitative attribute was declared with an empty or inverted range.
    InvalidRange {
        /// Attribute name.
        attribute: String,
        /// Declared minimum.
        min: f64,
        /// Declared maximum.
        max: f64,
    },
    /// A categorical attribute was declared with no categories.
    EmptyCategories(String),
    /// CSV input could not be parsed.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An I/O error occurred (message-only: `std::io::Error` is not `Clone`).
    Io(String),
    /// A generator or sampler was configured with invalid parameters.
    InvalidConfig(String),
    /// A lenient ingest run skipped more rows than its policy allows.
    TooManyBadRows {
        /// Rows that failed to parse or validate.
        skipped: usize,
        /// Total data rows read (kept + skipped).
        read: usize,
        /// The configured ceiling on `skipped / read`.
        max_bad_fraction: f64,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            DataError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "tuple arity mismatch: schema has {expected} attributes, tuple has {actual}"
                )
            }
            DataError::TypeMismatch { attribute, expected } => {
                write!(f, "type mismatch for attribute `{attribute}`: expected {expected}")
            }
            DataError::CategoryOutOfRange { attribute, code, cardinality } => {
                write!(
                    f,
                    "categorical code {code} out of range for attribute `{attribute}` (cardinality {cardinality})"
                )
            }
            DataError::DuplicateAttribute(name) => write!(f, "duplicate attribute `{name}`"),
            DataError::InvalidRange { attribute, min, max } => {
                write!(f, "invalid range [{min}, {max}] for attribute `{attribute}`")
            }
            DataError::EmptyCategories(name) => {
                write!(f, "categorical attribute `{name}` declared with no categories")
            }
            DataError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            DataError::Io(message) => write!(f, "I/O error: {message}"),
            DataError::InvalidConfig(message) => write!(f, "invalid configuration: {message}"),
            DataError::TooManyBadRows { skipped, read, max_bad_fraction } => {
                write!(
                    f,
                    "too many bad rows: {skipped} of {read} skipped (limit {:.1}%)",
                    max_bad_fraction * 100.0
                )
            }
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(err: std::io::Error) -> Self {
        DataError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = DataError::ArityMismatch { expected: 3, actual: 2 };
        assert!(err.to_string().contains("3"));
        assert!(err.to_string().contains("2"));

        let err =
            DataError::CategoryOutOfRange { attribute: "zipcode".into(), code: 12, cardinality: 9 };
        let text = err.to_string();
        assert!(text.contains("zipcode") && text.contains("12") && text.contains("9"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err: DataError = io.into();
        assert!(matches!(err, DataError::Io(_)));
        assert!(err.to_string().contains("missing"));
    }
}
