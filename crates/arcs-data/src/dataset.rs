//! In-memory datasets: a schema plus one typed column per attribute.

use std::sync::OnceLock;

use crate::error::DataError;
use crate::schema::{AttrKind, Attribute, Schema};
use crate::tuple::{Tuple, Value};

/// An in-memory relation: a [`Schema`] and its rows, stored as one column
/// per attribute.
///
/// A quantitative attribute's values are one `Vec<f64>` and a categorical
/// attribute's codes one `Vec<u32>`, so an Agrawal F2 row takes 64 bytes,
/// and a pass that reads a few attributes reads only their columns: the
/// binner reads three slices of [`Dataset::rows`], a C4.5 split one
/// column. `Arcs::open` bins a dataset once; the daemon's tenants and
/// appends bin CSV rows as they are scanned and hold no dataset (the
/// paper's §4.3 bound). A dataset serves `arcs segment`, the experiments,
/// the C4.5 baseline and the examples.
///
/// Rows are not kept as [`Tuple`]s. The §3.6 sampler
/// ([`sample_rows`](crate::sample::sample_rows)) hands out `&Tuple`s: its
/// first call on a dataset builds every row's tuple, once, and the
/// dataset keeps them until it next grows.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    columns: Columns,
    /// Every row as a tuple, built by the first `sample_rows` call.
    tuples: OnceLock<Vec<Tuple>>,
}

/// Equal schemas and equal columns; the tuple cache is not compared.
impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.columns == other.columns
    }
}

impl Dataset {
    /// Creates an empty dataset over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// Creates an empty dataset over `schema` with room for `rows` rows in
    /// every column, so a load whose row count is known up front allocates
    /// each column once instead of doubling it.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let columns = Columns::with_capacity(&schema, rows);
        Dataset { schema, columns, tuples: OnceLock::new() }
    }

    /// Appends a row after validating it against the schema (arity, each
    /// value's kind, finite quantitative values, in-range codes). A
    /// refused row leaves every column as it was. Within the reserved
    /// capacity a push allocates nothing.
    pub fn push(&mut self, values: &[Value]) -> Result<(), DataError> {
        Tuple::check_values(values, &self.schema)?;
        self.columns.push_checked(values);
        self.tuples.take();
        Ok(())
    }

    /// A dataset over `schema` holding `columns`, one per attribute, of
    /// the attribute's kind and all of one length, with every value one
    /// [`push`](Dataset::push) would accept: the columns a CSV load fills.
    pub(crate) fn from_columns(schema: Schema, columns: Vec<Column>) -> Self {
        let len = columns.first().map_or(0, Column::len);
        debug_assert!(columns.iter().all(|column| column.len() == len));
        debug_assert!((0..len).all(|row| {
            let values: Vec<Value> = columns.iter().map(|column| column.value(row)).collect();
            Tuple::check_values(&values, &schema).is_ok()
        }));
        Dataset { schema, columns: Columns { columns, len }, tuples: OnceLock::new() }
    }

    /// The dataset's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.len
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.columns.len == 0
    }

    /// All rows, as a view of the columns.
    pub fn rows(&self) -> Rows<'_> {
        Rows { dataset: self, start: 0, end: self.len() }
    }

    /// The quantitative column at `idx`. Errors if the attribute is
    /// categorical or unknown.
    pub fn quant(&self, idx: usize) -> Result<&[f64], DataError> {
        self.rows().quant(idx)
    }

    /// The categorical column at `idx`, as codes. Errors if the attribute
    /// is quantitative or unknown.
    pub fn cat(&self, idx: usize) -> Result<&[u32], DataError> {
        self.rows().cat(idx)
    }

    /// Every row as a tuple, built on the first call and kept until the
    /// dataset next grows. Only the §3.6 sampler calls it.
    pub(crate) fn tuples(&self) -> &[Tuple] {
        self.tuples.get_or_init(|| {
            (0..self.len())
                .map(|row| {
                    let values: Vec<Value> =
                        self.columns.columns.iter().map(|column| column.value(row)).collect();
                    Tuple::new(values)
                })
                .collect()
        })
    }

    /// The dataset with column `idx` replaced by `codes`, over `schema`,
    /// whose attribute `idx` is categorical and whose others are this
    /// dataset's.
    pub(crate) fn with_cat_column(&self, schema: Schema, idx: usize, codes: Vec<u32>) -> Dataset {
        debug_assert_eq!(codes.len(), self.len());
        let mut columns = self.columns.clone();
        columns.columns[idx] = Column::Cat(codes);
        Dataset { schema, columns, tuples: OnceLock::new() }
    }
}

/// A view of a dataset's rows `start..end`, column by column. It is
/// `Copy`, so a binner can cut it into shards and give each to a worker.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    dataset: &'a Dataset,
    start: usize,
    end: usize,
}

impl<'a> Rows<'a> {
    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The view's values of the quantitative attribute at `idx`. Errors
    /// if the attribute is categorical or unknown.
    pub fn quant(&self, idx: usize) -> Result<&'a [f64], DataError> {
        match self.column(idx)? {
            (_, Column::Quant(values)) => Ok(&values[self.start..self.end]),
            (attr, Column::Cat(_)) => Err(DataError::TypeMismatch {
                attribute: attr.name.clone(),
                expected: "a quantitative attribute",
            }),
        }
    }

    /// The view's codes of the categorical attribute at `idx`. Errors if
    /// the attribute is quantitative or unknown.
    pub fn cat(&self, idx: usize) -> Result<&'a [u32], DataError> {
        match self.column(idx)? {
            (_, Column::Cat(codes)) => Ok(&codes[self.start..self.end]),
            (attr, Column::Quant(_)) => Err(DataError::TypeMismatch {
                attribute: attr.name.clone(),
                expected: "a categorical attribute",
            }),
        }
    }

    /// The view cut into consecutive views of `size` rows, the last one
    /// possibly shorter, as [`slice::chunks`] cuts a slice: an empty view
    /// yields none. Panics if `size` is 0.
    pub fn chunks(self, size: usize) -> impl Iterator<Item = Rows<'a>> {
        assert!(size > 0, "chunk size must be positive");
        (self.start..self.end).step_by(size).map(move |start| Rows {
            end: start.saturating_add(size).min(self.end),
            start,
            ..self
        })
    }

    fn column(&self, idx: usize) -> Result<(&'a Attribute, &'a Column), DataError> {
        let dataset = self.dataset;
        match (dataset.schema.attribute(idx), dataset.columns.columns.get(idx)) {
            (Some(attr), Some(column)) => Ok((attr, column)),
            _ => Err(DataError::UnknownAttribute(format!("#{idx}"))),
        }
    }
}

/// One attribute's values.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Column {
    Quant(Vec<f64>),
    Cat(Vec<u32>),
}

impl Column {
    fn value(&self, row: usize) -> Value {
        match self {
            Column::Quant(values) => Value::Quant(values[row]),
            Column::Cat(codes) => Value::Cat(codes[row]),
        }
    }

    fn len(&self) -> usize {
        match self {
            Column::Quant(values) => values.len(),
            Column::Cat(codes) => codes.len(),
        }
    }
}

/// A dataset's columns without its schema.
#[derive(Debug, Clone, PartialEq)]
struct Columns {
    columns: Vec<Column>,
    len: usize,
}

impl Columns {
    /// Empty columns of `schema`'s kinds, each with room for `rows` rows.
    fn with_capacity(schema: &Schema, rows: usize) -> Self {
        let columns = schema
            .attributes()
            .iter()
            .map(|attr| match attr.kind {
                AttrKind::Quantitative { .. } => Column::Quant(Vec::with_capacity(rows)),
                AttrKind::Categorical { .. } => Column::Cat(Vec::with_capacity(rows)),
            })
            .collect();
        Columns { columns, len: 0 }
    }

    /// Appends a row that [`Tuple::check_values`] accepted against the
    /// columns' schema.
    fn push_checked(&mut self, row: &[Value]) {
        for (column, value) in self.columns.iter_mut().zip(row) {
            match (column, *value) {
                (Column::Quant(values), Value::Quant(v)) => values.push(v),
                (Column::Cat(codes), Value::Cat(code)) => codes.push(code),
                _ => unreachable!("a checked row matches its schema's kinds"),
            }
        }
        self.len += 1;
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
            ds.push(&[Value::Quant(age), Value::Cat(g)]).unwrap();
        }
        ds
    }

    #[test]
    fn push_validates() {
        let mut ds = dataset();
        assert!(ds.push(&[Value::Quant(10.0)]).is_err());
        assert!(ds.push(&[Value::Cat(0), Value::Cat(0)]).is_err());
        assert_eq!(ds.len(), 4);
        assert!(!ds.is_empty());
    }

    #[test]
    fn push_refuses_what_validated_refuses_and_keeps_every_column() {
        let mut ds = dataset();
        let before = ds.clone();
        let refused: [&[Value]; 7] = [
            &[Value::Quant(10.0)],
            &[Value::Quant(10.0), Value::Cat(0), Value::Cat(1)],
            &[Value::Cat(0), Value::Cat(0)],
            &[Value::Quant(10.0), Value::Quant(0.0)],
            &[Value::Quant(f64::NAN), Value::Cat(0)],
            &[Value::Quant(f64::INFINITY), Value::Cat(0)],
            &[Value::Quant(10.0), Value::Cat(2)],
        ];
        for row in refused {
            assert!(Tuple::validated(row.to_vec(), ds.schema()).is_err(), "{row:?}");
            assert!(ds.push(row).is_err(), "{row:?}");
            assert_eq!(ds, before, "{row:?}");
            assert_eq!(ds.quant(0).unwrap().len(), 4);
            assert_eq!(ds.cat(1).unwrap().len(), 4);
        }
        let accepted = [Value::Quant(65.0), Value::Cat(1)];
        assert!(Tuple::validated(accepted.to_vec(), ds.schema()).is_ok());
        ds.push(&accepted).unwrap();
        assert_eq!(ds.quant(0).unwrap(), &[25.0, 35.0, 45.0, 55.0, 65.0]);
        assert_eq!(ds.cat(1).unwrap(), &[0, 1, 0, 1, 1]);
    }

    #[test]
    fn column_projection() {
        let ds = dataset();
        assert_eq!(ds.quant(0).unwrap(), &[25.0, 35.0, 45.0, 55.0]);
        assert_eq!(ds.cat(1).unwrap(), &[0, 1, 0, 1]);
        assert!(ds.quant(1).is_err());
        assert!(ds.cat(0).is_err());
        assert!(ds.quant(7).is_err());
        assert!(ds.cat(7).is_err());
    }

    #[test]
    fn iteration_visits_every_row() {
        let ds = dataset();
        for size in [1, 2, 3, 4, 5, usize::MAX] {
            let chunks: Vec<Rows<'_>> = ds.rows().chunks(size).collect();
            assert_eq!(chunks.len(), 4usize.div_ceil(size), "size {size}");
            let ages: Vec<f64> =
                chunks.iter().flat_map(|c| c.quant(0).unwrap().iter().copied()).collect();
            assert_eq!(ages, ds.quant(0).unwrap(), "size {size}");
            let codes: Vec<u32> =
                chunks.iter().flat_map(|c| c.cat(1).unwrap().iter().copied()).collect();
            assert_eq!(codes, ds.cat(1).unwrap(), "size {size}");
        }
        let empty = Dataset::new(ds.schema().clone());
        assert_eq!(empty.rows().chunks(3).count(), 0);
        assert!(empty.rows().is_empty());
    }

    #[test]
    fn the_tuple_cache_follows_the_columns() {
        let mut ds = dataset();
        let first: Vec<Tuple> = ds.tuples().to_vec();
        assert_eq!(first[1], Tuple::new(vec![Value::Quant(35.0), Value::Cat(1)]));
        assert_eq!(first.len(), 4);
        let mut uncached = dataset();
        assert_eq!(ds, uncached, "the cache is not compared");
        ds.push(&[Value::Quant(65.0), Value::Cat(0)]).unwrap();
        assert_eq!(ds.tuples().len(), 5, "a push drops a stale cache");
        uncached.push(&[Value::Quant(65.0), Value::Cat(0)]).unwrap();
        assert_eq!(ds, uncached);
    }
}
