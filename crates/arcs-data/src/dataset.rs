//! In-memory datasets: a schema plus a collection of tuples.

use crate::error::DataError;
use crate::schema::Schema;
use crate::tuple::{Tuple, Value};

/// An in-memory relation: a [`Schema`] and its rows.
///
/// ARCS itself streams tuples in a single pass (and the scale-up harness
/// feeds it from a generator iterator without materialising anything), but
/// an in-memory dataset is convenient for verification samples, the C4.5
/// baseline, and the examples.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    rows: Vec<Tuple>,
}

impl Dataset {
    /// Creates an empty dataset over `schema`.
    pub fn new(schema: Schema) -> Self {
        Dataset { schema, rows: Vec::new() }
    }

    /// Creates an empty dataset over `schema` with room for `rows` rows,
    /// so a load whose row count is known up front allocates its row
    /// vector once instead of doubling it.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        Dataset { schema, rows: Vec::with_capacity(rows) }
    }

    /// Appends a row after validating it against the schema.
    pub fn push(&mut self, values: Vec<Value>) -> Result<(), DataError> {
        let tuple = Tuple::validated(values, &self.schema)?;
        self.rows.push(tuple);
        Ok(())
    }

    /// Appends an already-validated tuple.
    pub fn push_tuple(&mut self, tuple: Tuple) {
        debug_assert_eq!(tuple.arity(), self.schema.arity());
        self.rows.push(tuple);
    }

    /// The dataset's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Row at index `idx`.
    pub fn row(&self, idx: usize) -> Option<&Tuple> {
        self.rows.get(idx)
    }

    /// Iterates over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.rows.iter()
    }

    /// Projects the quantitative column at `idx` into a vector. Errors if
    /// the attribute is categorical.
    pub fn quant_column(&self, idx: usize) -> Result<Vec<f64>, DataError> {
        let attr = self
            .schema
            .attribute(idx)
            .ok_or_else(|| DataError::UnknownAttribute(format!("#{idx}")))?;
        if !attr.kind.is_quantitative() {
            return Err(DataError::TypeMismatch {
                attribute: attr.name.clone(),
                expected: "a quantitative attribute",
            });
        }
        Ok(self.rows.iter().map(|t| t.quant(idx)).collect())
    }

    /// Projects the categorical column at `idx` into a vector of codes.
    /// Errors if the attribute is quantitative.
    pub fn cat_column(&self, idx: usize) -> Result<Vec<u32>, DataError> {
        let attr = self
            .schema
            .attribute(idx)
            .ok_or_else(|| DataError::UnknownAttribute(format!("#{idx}")))?;
        if !attr.kind.is_categorical() {
            return Err(DataError::TypeMismatch {
                attribute: attr.name.clone(),
                expected: "a categorical attribute",
            });
        }
        Ok(self.rows.iter().map(|t| t.cat(idx)).collect())
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::quantitative("age", 0.0, 100.0),
            Attribute::categorical("group", ["A", "B"]),
        ])
        .unwrap();
        let mut ds = Dataset::new(schema);
        for (age, g) in [(25.0, 0u32), (35.0, 1), (45.0, 0), (55.0, 1)] {
            ds.push(vec![Value::Quant(age), Value::Cat(g)]).unwrap();
        }
        ds
    }

    #[test]
    fn push_validates() {
        let mut ds = dataset();
        assert!(ds.push(vec![Value::Quant(10.0)]).is_err());
        assert!(ds.push(vec![Value::Cat(0), Value::Cat(0)]).is_err());
        assert_eq!(ds.len(), 4);
        assert!(!ds.is_empty());
    }

    #[test]
    fn column_projection() {
        let ds = dataset();
        assert_eq!(ds.quant_column(0).unwrap(), vec![25.0, 35.0, 45.0, 55.0]);
        assert_eq!(ds.cat_column(1).unwrap(), vec![0, 1, 0, 1]);
        assert!(ds.quant_column(1).is_err());
        assert!(ds.cat_column(0).is_err());
        assert!(ds.quant_column(7).is_err());
    }

    #[test]
    fn iteration_visits_every_row() {
        let ds = dataset();
        assert_eq!(ds.iter().count(), 4);
        assert_eq!((&ds).into_iter().count(), 4);
    }
}
