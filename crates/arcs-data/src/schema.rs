//! Attribute and schema definitions.
//!
//! The paper (§2.1) distinguishes *quantitative* attributes — continuous
//! values with an implicit ordering, e.g. `salary`, `age` — from
//! *categorical* attributes — a finite unordered set of values, e.g.
//! `zip code`, `hair color`. A [`Schema`] is an ordered list of named
//! attributes; tuples are positional with respect to it.

use crate::error::DataError;

/// The kind of an attribute: quantitative (continuous, ordered) or
/// categorical (finite, unordered).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrKind {
    /// A continuous attribute taking values from `[min, max]`.
    Quantitative {
        /// Smallest value the attribute can take.
        min: f64,
        /// Largest value the attribute can take.
        max: f64,
    },
    /// A finite-valued attribute. Values are stored as integer codes
    /// `0..labels.len()`, mirroring the paper's mapping of categorical
    /// values onto consecutive integers (§2.1).
    Categorical {
        /// Human-readable label per category code.
        labels: Vec<String>,
    },
}

impl AttrKind {
    /// Returns `true` for quantitative attributes.
    pub fn is_quantitative(&self) -> bool {
        matches!(self, AttrKind::Quantitative { .. })
    }

    /// Returns `true` for categorical attributes.
    pub fn is_categorical(&self) -> bool {
        matches!(self, AttrKind::Categorical { .. })
    }

    /// Cardinality of a categorical attribute, `None` for quantitative.
    pub fn cardinality(&self) -> Option<u32> {
        match self {
            AttrKind::Categorical { labels } => Some(labels.len() as u32),
            AttrKind::Quantitative { .. } => None,
        }
    }

    /// Clamps a finite quantitative value into the attribute's declared
    /// domain. Returns `(value, clamped?)`; categorical attributes pass the
    /// value through untouched.
    pub fn clamp_quant(&self, v: f64) -> (f64, bool) {
        match self {
            AttrKind::Quantitative { min, max } => {
                if v < *min {
                    (*min, true)
                } else if v > *max {
                    (*max, true)
                } else {
                    (v, false)
                }
            }
            AttrKind::Categorical { .. } => (v, false),
        }
    }
}

/// A named attribute within a [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name, unique within its schema.
    pub name: String,
    /// Whether the attribute is quantitative or categorical.
    pub kind: AttrKind,
}

impl Attribute {
    /// Creates a quantitative attribute over `[min, max]`.
    pub fn quantitative(name: impl Into<String>, min: f64, max: f64) -> Self {
        Attribute { name: name.into(), kind: AttrKind::Quantitative { min, max } }
    }

    /// Creates a categorical attribute with the given labels; code `i`
    /// corresponds to `labels[i]`.
    pub fn categorical<I, S>(name: impl Into<String>, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Attribute {
            name: name.into(),
            kind: AttrKind::Categorical { labels: labels.into_iter().map(Into::into).collect() },
        }
    }

    /// Label for a categorical code, if this attribute is categorical and
    /// the code is in range.
    pub fn label(&self, code: u32) -> Option<&str> {
        match &self.kind {
            AttrKind::Categorical { labels } => labels.get(code as usize).map(String::as_str),
            AttrKind::Quantitative { .. } => None,
        }
    }
}

/// An ordered collection of uniquely named attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema, validating that names are unique, quantitative
    /// ranges are non-empty, and categorical label sets are non-empty.
    pub fn new(attributes: Vec<Attribute>) -> Result<Self, DataError> {
        for (i, attr) in attributes.iter().enumerate() {
            if attributes[..i].iter().any(|a| a.name == attr.name) {
                return Err(DataError::DuplicateAttribute(attr.name.clone()));
            }
            match &attr.kind {
                AttrKind::Quantitative { min, max } => {
                    if !min.is_finite() || !max.is_finite() || min >= max {
                        return Err(DataError::InvalidRange {
                            attribute: attr.name.clone(),
                            min: *min,
                            max: *max,
                        });
                    }
                }
                AttrKind::Categorical { labels } => {
                    if labels.is_empty() {
                        return Err(DataError::EmptyCategories(attr.name.clone()));
                    }
                }
            }
        }
        Ok(Schema { attributes })
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// The attributes, in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Attribute at position `idx`.
    pub fn attribute(&self, idx: usize) -> Option<&Attribute> {
        self.attributes.get(idx)
    }

    /// Position of the attribute named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }

    /// Position of `name`, as an error if absent.
    pub fn require(&self, name: &str) -> Result<usize, DataError> {
        self.index_of(name).ok_or_else(|| DataError::UnknownAttribute(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("age", 20.0, 80.0),
            Attribute::quantitative("salary", 20_000.0, 150_000.0),
            Attribute::categorical("group", ["A", "other"]),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_by_name_and_index() {
        let s = demo_schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("salary"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.attribute(2).unwrap().name, "group");
        assert!(s.require("age").is_ok());
        assert!(matches!(s.require("nope"), Err(DataError::UnknownAttribute(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            Attribute::quantitative("x", 0.0, 1.0),
            Attribute::quantitative("x", 0.0, 2.0),
        ])
        .unwrap_err();
        assert!(matches!(err, DataError::DuplicateAttribute(_)));
    }

    #[test]
    fn inverted_range_rejected() {
        let err = Schema::new(vec![Attribute::quantitative("x", 5.0, 1.0)]).unwrap_err();
        assert!(matches!(err, DataError::InvalidRange { .. }));
    }

    #[test]
    fn degenerate_range_rejected() {
        let err = Schema::new(vec![Attribute::quantitative("x", 1.0, 1.0)]).unwrap_err();
        assert!(matches!(err, DataError::InvalidRange { .. }));
        let err = Schema::new(vec![Attribute::quantitative("x", f64::NAN, 1.0)]).unwrap_err();
        assert!(matches!(err, DataError::InvalidRange { .. }));
    }

    #[test]
    fn empty_categories_rejected() {
        let err = Schema::new(vec![Attribute::categorical("g", Vec::<String>::new())]).unwrap_err();
        assert!(matches!(err, DataError::EmptyCategories(_)));
    }

    #[test]
    fn categorical_labels_resolve() {
        let s = demo_schema();
        let g = s.attribute(2).unwrap();
        assert_eq!(g.label(0), Some("A"));
        assert_eq!(g.label(1), Some("other"));
        assert_eq!(g.label(2), None);
        assert_eq!(g.kind.cardinality(), Some(2));
        assert!(g.kind.is_categorical());
        assert!(s.attribute(0).unwrap().kind.is_quantitative());
    }
}
