//! Tuples: positional values conforming to a schema.

use crate::error::DataError;
use crate::schema::{AttrKind, Schema};

/// A single attribute value: continuous or categorical code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A quantitative (continuous) value.
    Quant(f64),
    /// A categorical value, stored as an integer code (§2.1 of the paper
    /// maps categorical values to consecutive integers).
    Cat(u32),
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Quant(v)
    }
}

impl From<u32> for Value {
    fn from(c: u32) -> Self {
        Value::Cat(c)
    }
}

/// A row of values, positionally matching a schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    values: Box<[Value]>,
}

impl Tuple {
    /// Creates a tuple from values without validation. Use
    /// [`Tuple::validated`] when the source is untrusted.
    pub fn new(values: impl Into<Vec<Value>>) -> Self {
        Tuple { values: values.into().into_boxed_slice() }
    }

    /// Creates a tuple, checking arity and per-attribute type/range
    /// conformance against `schema`.
    pub fn validated(values: Vec<Value>, schema: &Schema) -> Result<Self, DataError> {
        Self::check_values(&values, schema)?;
        Ok(Tuple::new(values))
    }

    pub(crate) fn check_values(values: &[Value], schema: &Schema) -> Result<(), DataError> {
        if values.len() != schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: schema.arity(),
                actual: values.len(),
            });
        }
        for (value, attr) in values.iter().zip(schema.attributes()) {
            match (&attr.kind, value) {
                (AttrKind::Quantitative { .. }, Value::Quant(v)) => {
                    if !v.is_finite() {
                        return Err(DataError::TypeMismatch {
                            attribute: attr.name.clone(),
                            expected: "a finite quantitative value",
                        });
                    }
                }
                (AttrKind::Categorical { labels }, Value::Cat(c)) => {
                    if *c as usize >= labels.len() {
                        return Err(DataError::CategoryOutOfRange {
                            attribute: attr.name.clone(),
                            code: *c,
                            cardinality: labels.len() as u32,
                        });
                    }
                }
                (AttrKind::Quantitative { .. }, Value::Cat(_)) => {
                    return Err(DataError::TypeMismatch {
                        attribute: attr.name.clone(),
                        expected: "a quantitative value",
                    });
                }
                (AttrKind::Categorical { .. }, Value::Quant(_)) => {
                    return Err(DataError::TypeMismatch {
                        attribute: attr.name.clone(),
                        expected: "a categorical code",
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at position `idx`.
    pub fn get(&self, idx: usize) -> Option<Value> {
        self.values.get(idx).copied()
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Quantitative value at `idx`; panics with a clear message if the
    /// position holds a categorical value. Intended for hot paths where the
    /// schema has already been validated.
    pub fn quant(&self, idx: usize) -> f64 {
        match self.values[idx] {
            Value::Quant(v) => v,
            Value::Cat(_) => panic!("attribute {idx} is categorical, expected quantitative"),
        }
    }

    /// Categorical code at `idx`; panics if the position holds a
    /// quantitative value. Intended for hot paths where the schema has
    /// already been validated.
    pub fn cat(&self, idx: usize) -> u32 {
        match self.values[idx] {
            Value::Cat(c) => c,
            Value::Quant(_) => panic!("attribute {idx} is quantitative, expected categorical"),
        }
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("age", 20.0, 80.0),
            Attribute::categorical("group", ["A", "other"]),
        ])
        .unwrap()
    }

    #[test]
    fn validated_accepts_conforming_tuple() {
        let t = Tuple::validated(vec![Value::Quant(33.0), Value::Cat(1)], &schema()).unwrap();
        assert_eq!(t.quant(0), 33.0);
        assert_eq!(t.cat(1), 1);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(0), Some(Value::Quant(33.0)));
        assert_eq!(t.get(5), None);
    }

    #[test]
    fn validated_rejects_wrong_arity() {
        let err = Tuple::validated(vec![Value::Quant(33.0)], &schema()).unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { expected: 2, actual: 1 }));
    }

    #[test]
    fn validated_rejects_type_mismatch() {
        let err = Tuple::validated(vec![Value::Cat(0), Value::Cat(0)], &schema()).unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
        let err =
            Tuple::validated(vec![Value::Quant(1.0), Value::Quant(1.0)], &schema()).unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
    }

    #[test]
    fn validated_rejects_out_of_range_category() {
        let err = Tuple::validated(vec![Value::Quant(33.0), Value::Cat(9)], &schema()).unwrap_err();
        assert!(matches!(err, DataError::CategoryOutOfRange { code: 9, .. }));
    }

    #[test]
    fn validated_rejects_nan() {
        let err =
            Tuple::validated(vec![Value::Quant(f64::NAN), Value::Cat(0)], &schema()).unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::from(1.5), Value::Quant(1.5));
        assert_eq!(Value::from(7u32), Value::Cat(7));
    }

    #[test]
    #[should_panic(expected = "categorical")]
    fn quant_accessor_panics_on_cat() {
        let t = Tuple::new(vec![Value::Cat(0)]);
        let _ = t.quant(0);
    }

    #[test]
    #[should_panic(expected = "quantitative")]
    fn cat_accessor_panics_on_quant() {
        let t = Tuple::new(vec![Value::Quant(1.0)]);
        let _ = t.cat(0);
    }
}
