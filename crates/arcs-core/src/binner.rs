//! The binner (paper Figure 2, §3.1): streams tuples into a [`BinArray`].
//!
//! The binner is the only component that touches the source data, and it
//! does so in a single pass, so ARCS memory use is bounded by the bin array
//! regardless of database size (§4.3).

use arcs_data::schema::AttrKind;
use arcs_data::{Schema, Tuple};

use crate::binarray::BinArray;
use crate::binning::BinMap;
use crate::error::ArcsError;
use crate::metrics::RecoveryStats;

/// Maximum times a panicked shard or stream chunk is retried before the
/// sequential fallback takes over. Re-exported from the execution
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
    nseg: usize,
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
        let x_idx = schema.require(x_attr)?;
        let y_idx = schema.require(y_attr)?;
        let x_map = Self::quant_map(schema, x_idx, n_x_bins)?;
        let y_map = Self::quant_map(schema, y_idx, n_y_bins)?;
        Self::assemble(schema, x_idx, y_idx, criterion_attr, x_map, y_map)
    }

    /// Builds a binner with explicit, pre-computed [`BinMap`]s (used for
    /// equi-depth / homogeneity binning, or custom boundaries).
    pub fn with_maps(
        schema: &Schema,
        x_attr: &str,
        y_attr: &str,
        criterion_attr: &str,
        x_map: BinMap,
        y_map: BinMap,
    ) -> Result<Self, ArcsError> {
        let x_idx = schema.require(x_attr)?;
        let y_idx = schema.require(y_attr)?;
        Self::assemble(schema, x_idx, y_idx, criterion_attr, x_map, y_map)
    }

    fn quant_map(schema: &Schema, idx: usize, n_bins: usize) -> Result<BinMap, ArcsError> {
        let attr = schema.attribute(idx).expect("index from require");
        match &attr.kind {
            AttrKind::Quantitative { min, max } => BinMap::equi_width(*min, *max, n_bins),
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
            return Err(ArcsError::InvalidConfig(
                "x and y must be distinct attributes".into(),
            ));
        }
        let criterion_idx = schema.require(criterion_attr)?;
        if criterion_idx == x_idx || criterion_idx == y_idx {
            return Err(ArcsError::InvalidConfig(
                "criterion attribute must differ from the LHS attributes".into(),
            ));
        }
        let criterion = schema.attribute(criterion_idx).expect("index from require");
        let nseg = match &criterion.kind {
            AttrKind::Categorical { labels } => labels.len(),
            AttrKind::Quantitative { .. } => {
                return Err(ArcsError::AttributeKind {
                    attribute: criterion.name.clone(),
                    expected: "a categorical criterion attribute (bin it first, §2.2)",
                })
            }
        };
        Ok(Binner { x_idx, y_idx, criterion_idx, x_map, y_map, nseg })
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
        self.nseg
    }

    /// Creates an empty [`BinArray`] matching this binner's dimensions.
    pub fn new_bin_array(&self) -> Result<BinArray, ArcsError> {
        BinArray::new(self.x_map.n_bins(), self.y_map.n_bins(), self.nseg)
    }

    /// Bins one tuple's `(x, y, group)` projection.
    #[inline]
    pub fn bin_tuple(&self, tuple: &Tuple) -> (usize, usize, u32) {
        let x = self.x_map.bin_of(tuple.values()[self.x_idx]);
        let y = self.y_map.bin_of(tuple.values()[self.y_idx]);
        let g = tuple.cat(self.criterion_idx);
        (x, y, g)
    }

    /// Bins a raw `(x, y)` value pair (used by the verifier to place sample
    /// tuples and by exact-error integration).
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

    /// Streams `tuples` into a fresh [`BinArray`] — the paper's single data
    /// pass.
    pub fn bin_stream<I>(&self, tuples: I) -> Result<BinArray, ArcsError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut array = self.new_bin_array()?;
        for tuple in tuples {
            self.bin_into(&tuple, &mut array);
        }
        Ok(array)
    }

    /// Bins every row of an in-memory dataset slice.
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

    /// Bins an in-memory slice of rows across up to `threads` persistent
    /// pool workers (see [`ExecPool`](crate::exec::ExecPool)).
    ///
    /// Each worker fills a *private* [`BinArray`] over one contiguous
    /// chunk of `rows`; the shards are then merged in chunk order via
    /// [`BinArray::merge`]. Because the merge is an element-wise sum, the
    /// result is bit-identical to [`Binner::bin_rows`] regardless of
    /// thread count or scheduling. Small inputs bin as a single shard —
    /// sharding has no payoff below a few chunks' worth of tuples.
    pub fn bin_rows_parallel(&self, rows: &[Tuple], threads: usize) -> Result<BinArray, ArcsError> {
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
        rows: &[Tuple],
        threads: usize,
    ) -> Result<(BinArray, RecoveryStats), ArcsError> {
        if threads == 0 {
            return Err(ArcsError::InvalidConfig(
                "binning thread count must be positive".into(),
            ));
        }
        // Below this many rows per worker, queue + merge overhead exceeds
        // the binning work itself. The clamp is observable: a `threads > 1`
        // request that ran as one shard reports `effective_workers == 1`.
        const MIN_ROWS_PER_WORKER: usize = 4_096;
        let workers = threads.min(rows.len() / MIN_ROWS_PER_WORKER).max(1);
        let shards: Vec<&[Tuple]> = rows.chunks(rows.len().div_ceil(workers).max(1)).collect();
        self.bin_shards("binner.shard", workers, &shards)
    }

    /// Bins `shards` as isolated units behind `failpoint` and merges them
    /// in shard order into one array.
    fn bin_shards(
        &self,
        failpoint: &'static str,
        threads: usize,
        shards: &[&[Tuple]],
    ) -> Result<(BinArray, RecoveryStats), ArcsError> {
        let (arrays, stats) = crate::exec::ExecPool::global().run_isolated(
            "binning",
            threads,
            shards,
            |shard| {
                crate::faults::check(failpoint)?;
                self.bin_rows(shard.iter())
            },
            |shard| self.bin_rows(shard.iter()),
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

    /// Streams `tuples` into a fresh [`BinArray`] using up to `threads`
    /// persistent pool workers.
    ///
    /// The calling thread pulls the iterator in windows of `threads`
    /// 16 384-tuple chunks, bins each window's chunks as shards (see
    /// [`Binner::bin_rows_parallel`]) and merges them in chunk order, so
    /// the result is bit-identical to [`Binner::bin_stream`] for any
    /// thread count.
    pub fn bin_stream_parallel<I>(&self, tuples: I, threads: usize) -> Result<BinArray, ArcsError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        Ok(self.bin_stream_parallel_with_stats(tuples, threads)?.0)
    }

    /// [`Binner::bin_stream_parallel`] plus panic-isolation tallies.
    ///
    /// Each chunk is an isolated unit behind the `binner.stream-chunk`
    /// failpoint, under the same contract as the row shards: the window
    /// is held in memory until it is merged, so a panic anywhere in a
    /// chunk replays that chunk from scratch.
    pub fn bin_stream_parallel_with_stats<I>(
        &self,
        tuples: I,
        threads: usize,
    ) -> Result<(BinArray, RecoveryStats), ArcsError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        if threads == 0 {
            return Err(ArcsError::InvalidConfig(
                "binning thread count must be positive".into(),
            ));
        }
        const CHUNK: usize = 16_384;
        let window_len = threads.saturating_mul(CHUNK);
        let mut iter = tuples.into_iter();
        let mut array = self.new_bin_array()?;
        let mut stats = RecoveryStats::default();
        loop {
            let window: Vec<Tuple> = iter.by_ref().take(window_len).collect();
            let chunks: Vec<&[Tuple]> = window.chunks(CHUNK).collect();
            let (binned, window_stats) = self.bin_shards("binner.stream-chunk", threads, &chunks)?;
            array.merge(&binned)?;
            stats.merge(&window_stats);
            if window.len() < window_len {
                return Ok((array, stats));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_data::schema::Attribute;
    use arcs_data::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("age", 20.0, 80.0),
            Attribute::quantitative("salary", 0.0, 100_000.0),
            Attribute::categorical("group", ["A", "other"]),
        ])
        .unwrap()
    }

    fn tuple(age: f64, salary: f64, g: u32) -> Tuple {
        Tuple::new(vec![Value::Quant(age), Value::Quant(salary), Value::Cat(g)])
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
    fn bins_tuples_into_expected_cells() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        // age 20..80 in 6 bins of width 10; salary 0..100k in 10 bins of 10k.
        assert_eq!(b.bin_tuple(&tuple(25.0, 5_000.0, 0)), (0, 0, 0));
        assert_eq!(b.bin_tuple(&tuple(35.0, 95_000.0, 1)), (1, 9, 1));
        assert_eq!(b.bin_tuple(&tuple(80.0, 100_000.0, 0)), (5, 9, 0));
        assert_eq!(b.bin_point(45.0, 52_000.0), (2, 5));
    }

    #[test]
    fn bin_stream_counts_everything() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        let tuples = vec![
            tuple(25.0, 5_000.0, 0),
            tuple(25.0, 5_000.0, 0),
            tuple(25.0, 5_000.0, 1),
            tuple(75.0, 95_000.0, 1),
        ];
        let ba = b.bin_stream(tuples).unwrap();
        assert_eq!(ba.n_tuples(), 4);
        assert_eq!(ba.group_count(0, 0, 0), 2);
        assert_eq!(ba.group_count(0, 0, 1), 1);
        assert_eq!(ba.cell_total(5, 9), 1);
    }

    #[test]
    fn bin_rows_matches_bin_stream() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 4, 4).unwrap();
        let tuples = vec![tuple(30.0, 10_000.0, 0), tuple(60.0, 80_000.0, 1)];
        let by_rows = b.bin_rows(tuples.iter()).unwrap();
        let by_stream = b.bin_stream(tuples).unwrap();
        assert_eq!(by_rows, by_stream);
    }


    #[test]
    fn parallel_rows_match_sequential_bitwise() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        // Enough rows to clear the per-worker minimum and use real shards.
        let tuples: Vec<Tuple> = (0..20_000)
            .map(|i| tuple(20.0 + (i % 60) as f64, (i * 997 % 100_000) as f64, i % 2))
            .collect();
        let sequential = b.bin_rows(tuples.iter()).unwrap();
        for threads in [1, 2, 3, 4, 7] {
            let parallel = b.bin_rows_parallel(&tuples, threads).unwrap();
            assert_eq!(parallel, sequential, "threads = {threads}");
            assert_eq!(parallel.checksum(), sequential.checksum());
        }
        assert!(b.bin_rows_parallel(&tuples, 0).is_err());
    }

    #[test]
    fn parallel_stream_matches_sequential_bitwise() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        let make = || {
            (0..50_000)
                .map(|i| tuple(20.0 + (i % 60) as f64, (i * 31 % 100_000) as f64, i % 2))
        };
        let sequential = b.bin_stream(make()).unwrap();
        for threads in [1, 2, 4] {
            let parallel = b.bin_stream_parallel(make(), threads).unwrap();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
        assert!(b.bin_stream_parallel(make(), 0).is_err());
    }

    #[test]
    fn parallel_rows_handle_tiny_and_empty_inputs() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        let empty: Vec<Tuple> = Vec::new();
        assert_eq!(b.bin_rows_parallel(&empty, 4).unwrap().n_tuples(), 0);
        let few = vec![tuple(25.0, 5_000.0, 0), tuple(75.0, 95_000.0, 1)];
        let parallel = b.bin_rows_parallel(&few, 8).unwrap();
        assert_eq!(parallel, b.bin_rows(few.iter()).unwrap());
        assert_eq!(b.bin_stream_parallel(Vec::new(), 4).unwrap().n_tuples(), 0);
    }

    #[test]
    fn with_maps_allows_custom_boundaries() {
        let s = schema();
        let x_map = BinMap::Boundaries { edges: vec![20.0, 40.0, 60.0, 80.0] };
        let y_map = BinMap::equi_width(0.0, 100_000.0, 5).unwrap();
        let b = Binner::with_maps(&s, "age", "salary", "group", x_map, y_map).unwrap();
        assert_eq!(b.x_map().n_bins(), 3);
        assert_eq!(b.bin_tuple(&tuple(45.0, 1_000.0, 0)).0, 1);
    }
}
