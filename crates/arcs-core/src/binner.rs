//! The binner (paper Figure 2, §3.1): counts tuples into a [`BinArray`].
//!
//! The binner is the only component that touches the source data, and it
//! does so in a single pass, so ARCS memory use is bounded by the bin array
//! regardless of database size (§4.3). A dataset is binned from its
//! columns: each shard reads its rows' x, y and criterion slices
//! ([`Binner::bin_rows_parallel`]). A scanned CSV row is binned as it
//! arrives ([`Binner::bin_values`]), and tuples one by one
//! ([`Binner::bin_rows`], the reference the column pass is tested against).

use arcs_data::schema::AttrKind;
use arcs_data::{Rows, Schema, Tuple, Value};

use crate::binarray::BinArray;
use crate::binning::{BinMap, Resolved};
use crate::error::ArcsError;
use crate::metrics::RecoveryStats;

/// Maximum times a panicked shard is retried before the sequential
/// fallback takes over. Re-exported from the execution
/// engine, which owns the shared recovery contract.
pub use crate::exec::MAX_SHARD_RETRIES;

/// Strategy used to construct the LHS attribute [`BinMap`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BinningStrategy {
    /// Equi-width bins over the attribute's declared domain (the paper's
    /// default; needs no data pass).
    EquiWidth,
    /// Equi-depth bins computed from a sample of attribute values.
    EquiDepth,
    /// Homogeneity-based bins (see [`BinMap::homogeneity`]) with the given
    /// relative density tolerance.
    Homogeneity {
        /// Maximum relative density difference for merging adjacent bins.
        tolerance: f64,
    },
}

/// A configured binner for one `(x, y, criterion)` attribute triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Binner {
    x_idx: usize,
    y_idx: usize,
    criterion_idx: usize,
    x_map: BinMap,
    y_map: BinMap,
    /// The criterion's labels, in code order.
    labels: Vec<String>,
}

impl Binner {
    /// Builds a binner for schema attributes `x_attr` and `y_attr` (the two
    /// LHS attributes, which the paper requires to be quantitative) and the
    /// categorical `criterion_attr`, with `n_x_bins` / `n_y_bins` equi-width
    /// bins.
    pub fn equi_width(
        schema: &Schema,
        x_attr: &str,
        y_attr: &str,
        criterion_attr: &str,
        n_x_bins: usize,
        n_y_bins: usize,
    ) -> Result<Self, ArcsError> {
        let (x_idx, x_min, x_max) = Self::lhs_attribute(schema, x_attr)?;
        let (y_idx, y_min, y_max) = Self::lhs_attribute(schema, y_attr)?;
        let x_map = BinMap::equi_width(x_min, x_max, n_x_bins)?;
        let y_map = BinMap::equi_width(y_min, y_max, n_y_bins)?;
        Self::assemble(schema, x_idx, y_idx, criterion_attr, x_map, y_map)
    }

    /// Builds a binner with explicit, pre-computed [`BinMap`]s (used for
    /// equi-depth / homogeneity binning, or custom boundaries). Like
    /// [`Binner::equi_width`], it refuses a categorical x or y.
    pub fn with_maps(
        schema: &Schema,
        x_attr: &str,
        y_attr: &str,
        criterion_attr: &str,
        x_map: BinMap,
        y_map: BinMap,
    ) -> Result<Self, ArcsError> {
        let (x_idx, ..) = Self::lhs_attribute(schema, x_attr)?;
        let (y_idx, ..) = Self::lhs_attribute(schema, y_attr)?;
        Self::assemble(schema, x_idx, y_idx, criterion_attr, x_map, y_map)
    }

    /// The index and declared domain of the LHS attribute `name`, which
    /// must be quantitative.
    fn lhs_attribute(schema: &Schema, name: &str) -> Result<(usize, f64, f64), ArcsError> {
        let idx = schema.require(name)?;
        let attr = schema.attribute(idx).expect("index from require");
        match attr.kind {
            AttrKind::Quantitative { min, max } => Ok((idx, min, max)),
            AttrKind::Categorical { .. } => Err(ArcsError::AttributeKind {
                attribute: attr.name.clone(),
                expected: "a quantitative LHS attribute",
            }),
        }
    }

    fn assemble(
        schema: &Schema,
        x_idx: usize,
        y_idx: usize,
        criterion_attr: &str,
        x_map: BinMap,
        y_map: BinMap,
    ) -> Result<Self, ArcsError> {
        if x_idx == y_idx {
            return Err(ArcsError::InvalidConfig("x and y must be distinct attributes".into()));
        }
        let criterion_idx = schema.require(criterion_attr)?;
        if criterion_idx == x_idx || criterion_idx == y_idx {
            return Err(ArcsError::InvalidConfig(
                "criterion attribute must differ from the LHS attributes".into(),
            ));
        }
        let criterion = schema.attribute(criterion_idx).expect("index from require");
        let labels = match &criterion.kind {
            AttrKind::Categorical { labels } => labels.clone(),
            AttrKind::Quantitative { .. } => {
                return Err(ArcsError::AttributeKind {
                    attribute: criterion.name.clone(),
                    expected: "a categorical criterion attribute (bin it first, §2.2)",
                })
            }
        };
        Ok(Binner { x_idx, y_idx, criterion_idx, x_map, y_map, labels })
    }

    /// The x attribute's bin map.
    pub fn x_map(&self) -> &BinMap {
        &self.x_map
    }

    /// The y attribute's bin map.
    pub fn y_map(&self) -> &BinMap {
        &self.y_map
    }

    /// Schema index of the x attribute.
    pub fn x_idx(&self) -> usize {
        self.x_idx
    }

    /// Schema index of the y attribute.
    pub fn y_idx(&self) -> usize {
        self.y_idx
    }

    /// Schema index of the criterion attribute.
    pub fn criterion_idx(&self) -> usize {
        self.criterion_idx
    }

    /// Number of criterion groups.
    pub fn nseg(&self) -> usize {
        self.labels.len()
    }

    /// The criterion attribute's labels, in code order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Creates an empty [`BinArray`] matching this binner's dimensions.
    pub fn new_bin_array(&self) -> Result<BinArray, ArcsError> {
        BinArray::new(self.x_map.n_bins(), self.y_map.n_bins(), self.nseg())
    }

    /// Bins one row's `(x, y, group)` projection. `values` is a whole
    /// schema row — a tuple's values, or a row the CSV scanner hands over
    /// without building a tuple; panics if the x or y position holds a
    /// categorical value or the criterion position a quantitative one.
    #[inline]
    pub fn bin_values(&self, values: &[Value]) -> (usize, usize, u32) {
        let quant = |idx: usize| match values[idx] {
            Value::Quant(v) => v,
            Value::Cat(_) => panic!("attribute {idx} is categorical, expected quantitative"),
        };
        let x = self.x_map.bin_of_value(quant(self.x_idx));
        let y = self.y_map.bin_of_value(quant(self.y_idx));
        let g = match values[self.criterion_idx] {
            Value::Cat(c) => c,
            Value::Quant(_) => {
                panic!("attribute {} is quantitative, expected categorical", self.criterion_idx)
            }
        };
        (x, y, g)
    }

    /// Bins one tuple's `(x, y, group)` projection.
    #[inline]
    pub fn bin_tuple(&self, tuple: &Tuple) -> (usize, usize, u32) {
        self.bin_values(tuple.values())
    }

    /// Bins a raw `(x, y)` value pair (used by the exact region-error
    /// integration to place its lattice points).
    #[inline]
    pub fn bin_point(&self, x: f64, y: f64) -> (usize, usize) {
        (self.x_map.bin_of_value(x), self.y_map.bin_of_value(y))
    }

    /// Adds one tuple to `array`.
    #[inline]
    pub fn bin_into(&self, tuple: &Tuple, array: &mut BinArray) {
        let (x, y, g) = self.bin_tuple(tuple);
        array.add(x, y, g);
    }

    /// Bins tuples one by one — the paper's single data pass over rows,
    /// and the reference [`Binner::bin_rows_parallel`] is tested against.
    pub fn bin_rows<'a, I>(&self, rows: I) -> Result<BinArray, ArcsError>
    where
        I: IntoIterator<Item = &'a Tuple>,
    {
        let mut array = self.new_bin_array()?;
        for tuple in rows {
            self.bin_into(tuple, &mut array);
        }
        Ok(array)
    }

    /// Bins a dataset's rows across up to `threads` persistent pool
    /// workers (see [`ExecPool`](crate::exec::ExecPool)).
    ///
    /// `rows` is cut into contiguous shards, and each worker fills a
    /// *private* [`BinArray`] from one shard's x, y and criterion column
    /// slices, with each axis's [`BinMap`] resolved once for the shard
    /// (an equi-width map's bin width is computed once, not per value).
    /// The shards are then merged in shard order via [`BinArray::merge`].
    /// Because a value lands in the bin [`BinMap::bin_of_value`] gives it
    /// and the merge is an element-wise sum, the result is bit-identical
    /// to [`Binner::bin_rows`] over the same rows regardless of thread
    /// count or scheduling. Small inputs bin as a single shard —
    /// sharding has no payoff below a few chunks' worth of tuples.
    ///
    /// Errors if `rows`' schema gives x or y a categorical attribute or
    /// the criterion a quantitative one.
    pub fn bin_rows_parallel(&self, rows: Rows<'_>, threads: usize) -> Result<BinArray, ArcsError> {
        Ok(self.bin_rows_parallel_with_stats(rows, threads)?.0)
    }

    /// [`Binner::bin_rows_parallel`] plus panic-isolation tallies.
    ///
    /// Every shard, the single shard of a small input included, runs
    /// under [`ExecPool::run_isolated`](crate::exec::ExecPool::run_isolated)
    /// behind the `binner.shard` failpoint: a panicked shard is retried
    /// up to [`MAX_SHARD_RETRIES`] times, then recomputed without the
    /// failpoint. Every attempt rebuilds the shard's private array from
    /// scratch, so recovery can never double-count a tuple and the
    /// merged result stays bit-identical to the fault-free run.
    pub fn bin_rows_parallel_with_stats(
        &self,
        rows: Rows<'_>,
        threads: usize,
    ) -> Result<(BinArray, RecoveryStats), ArcsError> {
        if threads == 0 {
            return Err(ArcsError::InvalidConfig("binning thread count must be positive".into()));
        }
        // The columns' kinds, checked once: a shard's lookups then hold.
        self.columns(rows)?;
        // Below this many rows per worker, queue + merge overhead exceeds
        // the binning work itself. The clamp is observable: a `threads > 1`
        // request that ran as one shard reports `effective_workers == 1`.
        const MIN_ROWS_PER_WORKER: usize = 4_096;
        let workers = threads.min(rows.len() / MIN_ROWS_PER_WORKER).max(1);
        let shards: Vec<Rows<'_>> = rows.chunks(rows.len().div_ceil(workers).max(1)).collect();
        let (arrays, stats) = crate::exec::ExecPool::global().run_isolated(
            "binning",
            workers,
            &shards,
            |shard| {
                crate::faults::check("binner.shard")?;
                self.bin_shard(*shard)
            },
            |shard| self.bin_shard(*shard),
        )?;
        let mut arrays = arrays.into_iter();
        let mut merged = match arrays.next() {
            Some(first) => first,
            None => self.new_bin_array()?,
        };
        for array in arrays {
            merged.merge(&array)?;
        }
        Ok((merged, stats))
    }

    /// The x, y and criterion columns of `rows`.
    fn columns<'a>(&self, rows: Rows<'a>) -> Result<Columns<'a>, ArcsError> {
        Ok((rows.quant(self.x_idx)?, rows.quant(self.y_idx)?, rows.cat(self.criterion_idx)?))
    }

    /// Bins one shard from its column slices, each axis's map resolved
    /// once: one loop per pair of map kinds.
    fn bin_shard(&self, rows: Rows<'_>) -> Result<BinArray, ArcsError> {
        let (xs, ys, groups) = self.columns(rows)?;
        let mut array = self.new_bin_array()?;
        let a = &mut array;
        match (self.x_map.resolve(), self.y_map.resolve()) {
            (Resolved::Width(x), Resolved::Width(y)) => count(a, xs, ys, groups, x.bin(), y.bin()),
            (Resolved::Width(x), Resolved::Edges(y)) => count(a, xs, ys, groups, x.bin(), y.bin()),
            (Resolved::Edges(x), Resolved::Width(y)) => count(a, xs, ys, groups, x.bin(), y.bin()),
            (Resolved::Edges(x), Resolved::Edges(y)) => count(a, xs, ys, groups, x.bin(), y.bin()),
        }
        Ok(array)
    }
}

/// A row range's x, y and criterion columns.
type Columns<'a> = (&'a [f64], &'a [f64], &'a [u32]);

/// Adds row `i` of the columns `xs`, `ys`, `groups` to `array`, for every
/// `i`, at bin `(x_bin(xs[i]), y_bin(ys[i]))`.
#[inline]
fn count(
    array: &mut BinArray,
    xs: &[f64],
    ys: &[f64],
    groups: &[u32],
    x_bin: impl Fn(f64) -> usize,
    y_bin: impl Fn(f64) -> usize,
) {
    for ((&x, &y), &g) in xs.iter().zip(ys).zip(groups) {
        array.add(x_bin(x), y_bin(y), g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_data::schema::Attribute;
    use arcs_data::Dataset;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("age", 20.0, 80.0),
            Attribute::quantitative("salary", 0.0, 100_000.0),
            Attribute::categorical("group", ["A", "other"]),
        ])
        .unwrap()
    }

    fn dataset(rows: &[(f64, f64, u32)]) -> Dataset {
        let mut ds = Dataset::with_capacity(schema(), rows.len());
        for &(age, salary, g) in rows {
            ds.push(&[Value::Quant(age), Value::Quant(salary), Value::Cat(g)]).unwrap();
        }
        ds
    }

    /// The dataset's rows as tuples, in order.
    fn tuples(rows: &[(f64, f64, u32)]) -> Vec<Tuple> {
        rows.iter()
            .map(|&(age, salary, g)| {
                Tuple::new(vec![Value::Quant(age), Value::Quant(salary), Value::Cat(g)])
            })
            .collect()
    }

    #[test]
    fn equi_width_construction() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        assert_eq!(b.x_map().n_bins(), 6);
        assert_eq!(b.y_map().n_bins(), 10);
        assert_eq!(b.nseg(), 2);
        assert_eq!(b.x_idx(), 0);
        assert_eq!(b.y_idx(), 1);
        assert_eq!(b.criterion_idx(), 2);
    }

    #[test]
    fn rejects_bad_attribute_choices() {
        let s = schema();
        assert!(Binner::equi_width(&s, "age", "age", "group", 5, 5).is_err());
        assert!(Binner::equi_width(&s, "group", "salary", "group", 5, 5).is_err());
        assert!(Binner::equi_width(&s, "age", "salary", "salary", 5, 5).is_err());
        assert!(Binner::equi_width(&s, "missing", "salary", "group", 5, 5).is_err());
        assert!(Binner::equi_width(&s, "age", "salary", "missing", 5, 5).is_err());
    }

    #[test]
    fn with_maps_refuses_a_categorical_lhs_attribute() {
        let s = Schema::new(vec![
            Attribute::quantitative("age", 20.0, 80.0),
            Attribute::categorical("elevel", ["0", "1", "2"]),
            Attribute::categorical("group", ["A", "other"]),
        ])
        .unwrap();
        let map = || BinMap::equi_width(0.0, 3.0, 3).unwrap();
        for (x, y) in [("elevel", "age"), ("age", "elevel")] {
            let err = Binner::with_maps(&s, x, y, "group", map(), map()).unwrap_err();
            assert!(
                matches!(&err, ArcsError::AttributeKind { attribute, .. } if attribute == "elevel"),
                "{x}, {y}: {err:?}"
            );
            let err = Binner::equi_width(&s, x, y, "group", 3, 3).unwrap_err();
            assert!(matches!(err, ArcsError::AttributeKind { .. }), "{x}, {y}: {err:?}");
        }
    }

    #[test]
    fn bins_tuples_into_expected_cells() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        // age 20..80 in 6 bins of width 10; salary 0..100k in 10 bins of 10k.
        let rows = [(25.0, 5_000.0, 0), (35.0, 95_000.0, 1), (80.0, 100_000.0, 0)];
        let cells = [(0, 0, 0), (1, 9, 1), (5, 9, 0)];
        for (tuple, cell) in tuples(&rows).iter().zip(cells) {
            assert_eq!(b.bin_tuple(tuple), cell);
        }
        let array = b.bin_rows_parallel(dataset(&rows).rows(), 1).unwrap();
        assert_eq!(array.n_tuples(), 3);
        for (x, y, g) in cells {
            assert_eq!(array.group_count(x, y, g), 1, "cell ({x}, {y}, {g})");
        }
        assert_eq!(b.bin_point(45.0, 52_000.0), (2, 5));
    }

    #[test]
    fn parallel_rows_match_sequential_bitwise() {
        let s = schema();
        let equi_width = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        // Enough rows to clear the per-worker minimum and use real shards.
        let rows: Vec<(f64, f64, u32)> = (0..20_000)
            .map(|i| (20.0 + (i % 60) as f64, (i * 997 % 100_000) as f64, i % 2))
            .collect();
        let ds = dataset(&rows);
        let ages = ds.quant(0).unwrap();
        let edges = |values: &[f64], n| BinMap::equi_depth(values, n).unwrap();
        let equi_depth = Binner::with_maps(
            &s,
            "age",
            "salary",
            "group",
            edges(ages, 7),
            BinMap::equi_width(0.0, 100_000.0, 10).unwrap(),
        )
        .unwrap();
        for b in [equi_width, equi_depth] {
            let sequential = b.bin_rows(tuples(&rows).iter()).unwrap();
            for threads in [1, 2, 3, 4, 7] {
                let parallel = b.bin_rows_parallel(ds.rows(), threads).unwrap();
                assert_eq!(parallel, sequential, "threads = {threads}");
                assert_eq!(parallel.checksum(), sequential.checksum());
            }
            assert!(b.bin_rows_parallel(ds.rows(), 0).is_err());
        }
    }

    #[test]
    fn parallel_rows_handle_tiny_and_empty_inputs() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        assert_eq!(b.bin_rows_parallel(dataset(&[]).rows(), 4).unwrap().n_tuples(), 0);
        let few = [(25.0, 5_000.0, 0), (75.0, 95_000.0, 1)];
        let parallel = b.bin_rows_parallel(dataset(&few).rows(), 8).unwrap();
        assert_eq!(parallel, b.bin_rows(tuples(&few).iter()).unwrap());
    }

    #[test]
    fn parallel_rows_refuse_columns_of_the_wrong_kind() {
        let b = Binner::equi_width(&schema(), "age", "salary", "group", 6, 10).unwrap();
        let swapped = Schema::new(vec![
            Attribute::categorical("age", ["young", "old"]),
            Attribute::quantitative("salary", 0.0, 100_000.0),
            Attribute::categorical("group", ["A", "other"]),
        ])
        .unwrap();
        let mut ds = Dataset::new(swapped);
        ds.push(&[Value::Cat(0), Value::Quant(5_000.0), Value::Cat(0)]).unwrap();
        assert!(matches!(b.bin_rows_parallel(ds.rows(), 2), Err(ArcsError::Data(_))));
    }

    #[test]
    fn with_maps_allows_custom_boundaries() {
        let s = schema();
        let x_map = BinMap::Boundaries { edges: vec![20.0, 40.0, 60.0, 80.0] };
        let y_map = BinMap::equi_width(0.0, 100_000.0, 5).unwrap();
        let b = Binner::with_maps(&s, "age", "salary", "group", x_map, y_map).unwrap();
        assert_eq!(b.x_map().n_bins(), 3);
        let rows = [(45.0, 1_000.0, 0)];
        assert_eq!(b.bin_tuple(&tuples(&rows)[0]).0, 1);
        let array = b.bin_rows_parallel(dataset(&rows).rows(), 1).unwrap();
        assert_eq!(array.group_count(1, 0, 0), 1);
    }
}
