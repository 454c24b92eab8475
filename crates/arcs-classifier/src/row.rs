//! Row access for the learners: one row's values by attribute position.

use arcs_data::{AttrKind, Dataset, Tuple};

/// One row's values, read by attribute position. The learners train on,
/// and score, a [`Dataset`]'s rows read from its columns, and predict a
/// single [`Tuple`] the same way.
pub trait Row {
    /// The quantitative value at `attr`; panics if the attribute is
    /// categorical.
    fn quant(&self, attr: usize) -> f64;

    /// The categorical code at `attr`; panics if the attribute is
    /// quantitative.
    fn cat(&self, attr: usize) -> u32;
}

impl Row for Tuple {
    fn quant(&self, attr: usize) -> f64 {
        Tuple::quant(self, attr)
    }

    fn cat(&self, attr: usize) -> u32 {
        Tuple::cat(self, attr)
    }
}

/// One attribute's column.
enum Column<'a> {
    Quant(&'a [f64]),
    Cat(&'a [u32]),
}

/// A dataset's columns, looked up once, by attribute position.
pub(crate) struct Columns<'a> {
    columns: Vec<Column<'a>>,
}

impl<'a> Columns<'a> {
    pub(crate) fn new(dataset: &'a Dataset) -> Self {
        let columns = dataset
            .schema()
            .attributes()
            .iter()
            .enumerate()
            .map(|(idx, attr)| {
                let kind = "a dataset column has its attribute's kind";
                match attr.kind {
                    AttrKind::Quantitative { .. } => Column::Quant(dataset.quant(idx).expect(kind)),
                    AttrKind::Categorical { .. } => Column::Cat(dataset.cat(idx).expect(kind)),
                }
            })
            .collect();
        Columns { columns }
    }

    /// The quantitative column at `attr`; panics if it is categorical.
    pub(crate) fn quant(&self, attr: usize) -> &'a [f64] {
        match self.columns[attr] {
            Column::Quant(values) => values,
            Column::Cat(_) => panic!("attribute {attr} is categorical, expected quantitative"),
        }
    }

    /// The categorical column at `attr`; panics if it is quantitative.
    pub(crate) fn cat(&self, attr: usize) -> &'a [u32] {
        match self.columns[attr] {
            Column::Cat(codes) => codes,
            Column::Quant(_) => panic!("attribute {attr} is quantitative, expected categorical"),
        }
    }

    /// Row `row` of the columns.
    pub(crate) fn row(&self, row: usize) -> ColumnRow<'_, 'a> {
        ColumnRow { columns: self, row }
    }
}

/// One row of a dataset's [`Columns`].
#[derive(Clone, Copy)]
pub(crate) struct ColumnRow<'c, 'a> {
    columns: &'c Columns<'a>,
    row: usize,
}

impl Row for ColumnRow<'_, '_> {
    fn quant(&self, attr: usize) -> f64 {
        self.columns.quant(attr)[self.row]
    }

    fn cat(&self, attr: usize) -> u32 {
        self.columns.cat(attr)[self.row]
    }
}
