//! The binner (paper Figure 2, §3.1): streams tuples into a [`BinArray`].
//!
//! The binner is the only component that touches the source data, and it
//! does so in a single pass, so ARCS memory use is bounded by the bin array
//! regardless of database size (§4.3).

use std::io::{Read, Write};
use std::path::Path;

use arcs_data::schema::AttrKind;
use arcs_data::tuple::Value;
use arcs_data::{Schema, Tuple};

use crate::binarray::BinArray;
use crate::binning::BinMap;
use crate::error::ArcsError;
use crate::metrics::RecoveryStats;

/// Maximum times a panicked shard or stream chunk is retried before the
/// sequential fallback takes over. Re-exported from the execution
/// engine, which owns the shared recovery contract.
pub use crate::exec::MAX_SHARD_RETRIES;

/// How a resilient streaming run treats tuples that fail validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadTuplePolicy {
    /// Abort on the first invalid tuple.
    Fail,
    /// Count the tuple by issue kind and keep streaming.
    Skip,
}

/// Why one tuple was rejected by the resilient stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleIssue {
    /// The tuple is too short to hold the binner's attribute indices.
    Arity,
    /// An LHS position holds a categorical value, or the criterion
    /// position holds a quantitative one.
    Type,
    /// An LHS value is `NaN` or `±inf`.
    NonFinite,
    /// The criterion code is outside `0..nseg`.
    CategoryRange,
}

/// Counters from a resilient or checkpointed streaming run. `seen`
/// includes tuples replayed from a resumed checkpoint; `accepted +
/// skipped == seen` always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamReport {
    /// Input tuples consumed (including those covered by a resumed
    /// checkpoint).
    pub seen: u64,
    /// Tuples binned into the array.
    pub accepted: u64,
    /// Tuples rejected and dropped.
    pub skipped: u64,
    /// Rejections because the tuple was too short.
    pub arity_issues: u64,
    /// Rejections because a value had the wrong kind.
    pub type_issues: u64,
    /// Rejections because an LHS value was `NaN`/`±inf`.
    pub non_finite: u64,
    /// Rejections because the criterion code was out of range.
    pub category_issues: u64,
    /// Position in the stream the run resumed from (0 for a fresh run).
    pub resumed_from: u64,
}

impl StreamReport {
    fn count(&mut self, issue: TupleIssue) {
        self.skipped += 1;
        match issue {
            TupleIssue::Arity => self.arity_issues += 1,
            TupleIssue::Type => self.type_issues += 1,
            TupleIssue::NonFinite => self.non_finite += 1,
            TupleIssue::CategoryRange => self.category_issues += 1,
        }
    }
}

/// Where and how often a checkpointed stream persists its state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec<'a> {
    /// Checkpoint file path. If the file already exists and loads
    /// cleanly, the run resumes from it; a corrupt or incompatible file
    /// is an error (delete it to restart from zero).
    pub path: &'a Path,
    /// Persist the state every this many input tuples (must be > 0).
    pub every: u64,
}

/// Magic prefix + version byte of the checkpoint wrapper format (which
/// embeds a [`BinArray`] snapshot plus the stream counters).
const CHECKPOINT_MAGIC: [u8; 8] = *b"ARCSCK\x00\x01";

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

    /// Streams `tuples` into a **single-group** `nx × ny × 2` array
    /// tracking only criterion group `gk` — the paper's §3.1
    /// memory-premium mode ("if memory space is at a premium … set
    /// nseg = 1"). Tuples of other groups count only toward cell totals.
    /// The resulting array mines group code `0` (= `gk`); memory shrinks
    /// from `(nseg + 1)` to `2` counters per cell.
    pub fn bin_stream_single_group<I>(&self, tuples: I, gk: u32) -> Result<BinArray, ArcsError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        if gk as usize >= self.nseg {
            return Err(ArcsError::OutOfBounds {
                what: format!("group {gk} with nseg {}", self.nseg),
            });
        }
        let mut array = BinArray::new(self.x_map.n_bins(), self.y_map.n_bins(), 1)?;
        for tuple in tuples {
            let (x, y, g) = self.bin_tuple(&tuple);
            if g == gk {
                array.add(x, y, 0);
            } else {
                array.add_background(x, y);
            }
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

    /// Validates one untrusted tuple against this binner's requirements —
    /// arity, LHS kind and finiteness, criterion kind and range — and
    /// returns its `(x, y, group)` projection, or the issue that
    /// disqualifies it. Unlike [`Binner::bin_tuple`] this never panics.
    pub fn check_tuple(&self, tuple: &Tuple) -> Result<(usize, usize, u32), TupleIssue> {
        let needed = self.x_idx.max(self.y_idx).max(self.criterion_idx) + 1;
        if tuple.arity() < needed {
            return Err(TupleIssue::Arity);
        }
        let values = tuple.values();
        let (Value::Quant(vx), Value::Quant(vy)) = (values[self.x_idx], values[self.y_idx])
        else {
            return Err(TupleIssue::Type);
        };
        if !vx.is_finite() || !vy.is_finite() {
            return Err(TupleIssue::NonFinite);
        }
        let Value::Cat(g) = values[self.criterion_idx] else {
            return Err(TupleIssue::Type);
        };
        if g as usize >= self.nseg {
            return Err(TupleIssue::CategoryRange);
        }
        Ok((self.x_map.bin_of_value(vx), self.y_map.bin_of_value(vy), g))
    }

    /// Streams `tuples` into a fresh [`BinArray`], validating every tuple
    /// (see [`Binner::check_tuple`]) instead of trusting it. Under
    /// [`BadTuplePolicy::Skip`] invalid tuples are counted by issue kind
    /// in the returned [`StreamReport`]; under [`BadTuplePolicy::Fail`]
    /// the first invalid tuple aborts with its stream position.
    pub fn bin_stream_resilient<I>(
        &self,
        tuples: I,
        policy: BadTuplePolicy,
    ) -> Result<(BinArray, StreamReport), ArcsError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        self.stream_impl(tuples, policy, None)
    }

    /// [`Binner::bin_stream_resilient`] with periodic checkpointing: the
    /// bin array and stream counters are persisted to `spec.path`
    /// (atomically, every `spec.every` tuples and once at the end), and a
    /// run finding an existing checkpoint resumes after the covered
    /// prefix of the stream rather than from zero. The caller must
    /// replay the *same* stream; the checkpoint records only how many
    /// tuples were consumed, not their content.
    pub fn bin_stream_checkpointed<I>(
        &self,
        tuples: I,
        policy: BadTuplePolicy,
        spec: &CheckpointSpec<'_>,
    ) -> Result<(BinArray, StreamReport), ArcsError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        self.stream_impl(tuples, policy, Some(spec))
    }

    fn stream_impl<I>(
        &self,
        tuples: I,
        policy: BadTuplePolicy,
        spec: Option<&CheckpointSpec<'_>>,
    ) -> Result<(BinArray, StreamReport), ArcsError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        if let Some(spec) = spec {
            if spec.every == 0 {
                return Err(ArcsError::InvalidConfig(
                    "checkpoint interval must be positive".into(),
                ));
            }
        }
        let (mut array, mut report) = match spec {
            Some(spec) if spec.path.exists() => {
                let (array, report) = load_checkpoint(spec.path)?;
                if array.nx() != self.x_map.n_bins()
                    || array.ny() != self.y_map.n_bins()
                    || array.nseg() != self.nseg
                {
                    return Err(ArcsError::Checkpoint {
                        message: format!(
                            "checkpoint dimensions {}x{}x{} do not match binner {}x{}x{}",
                            array.nx(),
                            array.ny(),
                            array.nseg(),
                            self.x_map.n_bins(),
                            self.y_map.n_bins(),
                            self.nseg
                        ),
                    });
                }
                (array, report)
            }
            _ => (self.new_bin_array()?, StreamReport::default()),
        };
        let resume_at = report.seen;
        report.resumed_from = resume_at;

        let mut iter = tuples.into_iter();
        for _ in 0..resume_at {
            if iter.next().is_none() {
                return Err(ArcsError::Checkpoint {
                    message: format!(
                        "checkpoint covers {resume_at} tuples but the stream is shorter — \
                         wrong input for this checkpoint?"
                    ),
                });
            }
        }
        for tuple in iter {
            report.seen += 1;
            match self.check_tuple(&tuple) {
                Ok((x, y, g)) => {
                    array.add(x, y, g);
                    report.accepted += 1;
                }
                Err(issue) => match policy {
                    BadTuplePolicy::Skip => report.count(issue),
                    BadTuplePolicy::Fail => {
                        return Err(ArcsError::InvalidTuple {
                            position: report.seen,
                            message: issue_message(issue, &tuple, self.nseg),
                        })
                    }
                },
            }
            if let Some(spec) = spec {
                if report.seen % spec.every == 0 {
                    save_checkpoint(spec.path, &array, &report)?;
                }
            }
        }
        if let Some(spec) = spec {
            save_checkpoint(spec.path, &array, &report)?;
        }
        Ok((array, report))
    }
}

fn issue_message(issue: TupleIssue, tuple: &Tuple, nseg: usize) -> String {
    match issue {
        TupleIssue::Arity => format!("tuple has only {} values", tuple.arity()),
        TupleIssue::Type => "value kind does not match the attribute".into(),
        TupleIssue::NonFinite => "LHS value is NaN or infinite".into(),
        TupleIssue::CategoryRange => format!("criterion code out of range (nseg {nseg})"),
    }
}

/// Serialised stream counters: everything except `resumed_from`, which
/// describes a *run*, not the stream state.
const CHECKPOINT_COUNTERS: usize = 7;

fn report_counters(report: &StreamReport) -> [u64; CHECKPOINT_COUNTERS] {
    [
        report.seen,
        report.accepted,
        report.skipped,
        report.arity_issues,
        report.type_issues,
        report.non_finite,
        report.category_issues,
    ]
}

/// Writes `{magic, BinArray snapshot, stream counters, checksum}` to
/// `path` atomically (temp file + rename).
fn save_checkpoint(path: &Path, array: &BinArray, report: &StreamReport) -> Result<(), ArcsError> {
    crate::faults::check("binner.checkpoint-save")?;
    let mut buf = Vec::with_capacity(array.memory_bytes() + 128);
    buf.extend_from_slice(&CHECKPOINT_MAGIC);
    array.write_to(&mut buf)?;
    for counter in report_counters(report) {
        buf.extend_from_slice(&counter.to_le_bytes());
    }
    let checksum = crate::binarray::fnv1a64(&[&buf]);
    buf.extend_from_slice(&checksum.to_le_bytes());

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&buf)?;
        file.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn load_checkpoint(path: &Path) -> Result<(BinArray, StreamReport), ArcsError> {
    crate::faults::check("binner.checkpoint-load")?;
    let bytes = std::fs::read(path)?;
    if bytes.len() < CHECKPOINT_MAGIC.len() + 8 {
        return Err(ArcsError::Checkpoint {
            message: "checkpoint file is too short".into(),
        });
    }
    if bytes[..7] != CHECKPOINT_MAGIC[..7] {
        return Err(ArcsError::Checkpoint {
            message: "not a stream checkpoint (bad magic)".into(),
        });
    }
    if bytes[7] != CHECKPOINT_MAGIC[7] {
        return Err(ArcsError::Checkpoint {
            message: format!(
                "unsupported checkpoint version {} (this build reads version {})",
                bytes[7], CHECKPOINT_MAGIC[7]
            ),
        });
    }
    let (body, stored) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(stored.try_into().expect("split gave 8 bytes"));
    let computed = crate::binarray::fnv1a64(&[body]);
    if stored != computed {
        return Err(ArcsError::Checkpoint {
            message: format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
        });
    }
    let mut cursor = &body[CHECKPOINT_MAGIC.len()..];
    let array = BinArray::read_from(&mut cursor)?;
    if cursor.len() != CHECKPOINT_COUNTERS * 8 {
        return Err(ArcsError::Checkpoint {
            message: format!(
                "unexpected trailer length {} (want {})",
                cursor.len(),
                CHECKPOINT_COUNTERS * 8
            ),
        });
    }
    let mut counters = [0u64; CHECKPOINT_COUNTERS];
    for counter in counters.iter_mut() {
        let mut raw = [0u8; 8];
        cursor
            .read_exact(&mut raw)
            .map_err(|e| ArcsError::Checkpoint { message: format!("truncated trailer: {e}") })?;
        *counter = u64::from_le_bytes(raw);
    }
    let report = StreamReport {
        seen: counters[0],
        accepted: counters[1],
        skipped: counters[2],
        arity_issues: counters[3],
        type_issues: counters[4],
        non_finite: counters[5],
        category_issues: counters[6],
        resumed_from: 0,
    };
    if report.accepted != array.n_tuples() || report.accepted + report.skipped != report.seen {
        return Err(ArcsError::Checkpoint {
            message: "checkpoint counters are internally inconsistent".into(),
        });
    }
    Ok((array, report))
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
    fn single_group_mode_matches_full_tracking() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        let tuples = vec![
            tuple(25.0, 5_000.0, 0),
            tuple(25.0, 5_000.0, 0),
            tuple(25.0, 5_000.0, 1),
            tuple(75.0, 95_000.0, 1),
        ];
        let full = b.bin_stream(tuples.clone()).unwrap();
        let single = b.bin_stream_single_group(tuples, 0).unwrap();
        assert_eq!(single.nseg(), 1);
        assert_eq!(single.n_tuples(), full.n_tuples());
        // Group-0 counts and totals agree cell by cell; memory halves+.
        for y in 0..10 {
            for x in 0..6 {
                assert_eq!(single.group_count(x, y, 0), full.group_count(x, y, 0));
                assert_eq!(single.cell_total(x, y), full.cell_total(x, y));
            }
        }
        assert!(single.memory_bytes() < full.memory_bytes());
        // Mining the single-group array at code 0 is equivalent.
        let t = crate::engine::Thresholds::new(0.0, 0.5).unwrap();
        let a = crate::engine::mine_rules(&full, 0, t);
        let b2 = crate::engine::mine_rules(&single, 0, t);
        assert_eq!(
            a.iter().map(|r| (r.x, r.y, r.count)).collect::<Vec<_>>(),
            b2.iter().map(|r| (r.x, r.y, r.count)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_group_mode_rejects_bad_group() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        assert!(b.bin_stream_single_group(Vec::new(), 2).is_err());
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

    fn mixed_tuples() -> Vec<Tuple> {
        vec![
            tuple(25.0, 5_000.0, 0),                                        // ok
            Tuple::new(vec![Value::Quant(30.0)]),                           // arity
            tuple(f64::NAN, 5_000.0, 0),                                    // non-finite
            tuple(40.0, f64::INFINITY, 1),                                  // non-finite
            Tuple::new(vec![Value::Cat(1), Value::Quant(1.0), Value::Cat(0)]), // type
            tuple(50.0, 50_000.0, 9),                                       // category range
            tuple(75.0, 95_000.0, 1),                                       // ok
        ]
    }

    #[test]
    fn resilient_stream_skips_and_counts_by_kind() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        let (ba, report) = b
            .bin_stream_resilient(mixed_tuples(), BadTuplePolicy::Skip)
            .unwrap();
        assert_eq!(report.seen, 7);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.skipped, 5);
        assert_eq!(report.arity_issues, 1);
        assert_eq!(report.non_finite, 2);
        assert_eq!(report.type_issues, 1);
        assert_eq!(report.category_issues, 1);
        assert_eq!(report.resumed_from, 0);
        assert_eq!(ba.n_tuples(), 2);
        // The accepted tuples landed where the trusting path puts them.
        assert_eq!(ba.group_count(0, 0, 0), 1);
        assert_eq!(ba.group_count(5, 9, 1), 1);
    }

    #[test]
    fn resilient_stream_fail_policy_reports_position() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        let err = b
            .bin_stream_resilient(mixed_tuples(), BadTuplePolicy::Fail)
            .unwrap_err();
        assert!(
            matches!(err, ArcsError::InvalidTuple { position: 2, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn resilient_stream_matches_trusting_path_on_clean_data() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        let tuples: Vec<Tuple> =
            (0..100).map(|i| tuple(20.0 + (i % 60) as f64, (i * 997 % 100_000) as f64, i % 2)).collect();
        let trusted = b.bin_stream(tuples.clone()).unwrap();
        let (checked, report) = b
            .bin_stream_resilient(tuples, BadTuplePolicy::Fail)
            .unwrap();
        assert_eq!(trusted, checked);
        assert_eq!(report.accepted, 100);
        assert_eq!(report.skipped, 0);
    }

    #[test]
    fn checkpointed_stream_resumes_to_identical_array() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        let tuples: Vec<Tuple> = (0..500)
            .map(|i| {
                if i % 50 == 13 {
                    tuple(f64::NAN, 0.0, 0) // sprinkle bad tuples
                } else {
                    tuple(20.0 + (i % 60) as f64, (i * 31 % 100_000) as f64, i % 2)
                }
            })
            .collect();

        let dir = std::env::temp_dir().join("arcs-binner-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.ckpt");
        std::fs::remove_file(&path).ok();
        let spec = CheckpointSpec { path: &path, every: 100 };

        // Uninterrupted reference run (no checkpointing).
        let (reference, _) = b
            .bin_stream_resilient(tuples.clone(), BadTuplePolicy::Skip)
            .unwrap();

        // Interrupted run: the stream dies after 230 tuples, past two
        // checkpoints. Its partial result is discarded, as after a crash.
        let _ = b
            .bin_stream_checkpointed(
                tuples.iter().take(230).cloned(),
                BadTuplePolicy::Skip,
                &spec,
            )
            .unwrap();

        // Resume over the full stream: the first 230 tuples (the last
        // checkpoint covers them) are skipped, the rest replayed.
        let (resumed, report) = b
            .bin_stream_checkpointed(tuples.clone(), BadTuplePolicy::Skip, &spec)
            .unwrap();
        assert_eq!(report.resumed_from, 230);
        assert_eq!(report.seen, 500);
        assert_eq!(resumed, reference);

        // Bit-identical serialised form, not just structural equality.
        let mut a = Vec::new();
        let mut r = Vec::new();
        reference.write_to(&mut a).unwrap();
        resumed.write_to(&mut r).unwrap();
        assert_eq!(a, r);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_rejects_dimension_mismatch_and_short_streams() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        let tuples: Vec<Tuple> = (0..50).map(|i| tuple(30.0, 1_000.0, i % 2)).collect();

        let dir = std::env::temp_dir().join("arcs-binner-ckpt-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.ckpt");
        std::fs::remove_file(&path).ok();
        let spec = CheckpointSpec { path: &path, every: 10 };
        b.bin_stream_checkpointed(tuples.clone(), BadTuplePolicy::Skip, &spec)
            .unwrap();

        // A binner with different dimensions must refuse the checkpoint.
        let other = Binner::equi_width(&s, "age", "salary", "group", 5, 5).unwrap();
        let err = other
            .bin_stream_checkpointed(tuples.clone(), BadTuplePolicy::Skip, &spec)
            .unwrap_err();
        assert!(matches!(err, ArcsError::Checkpoint { .. }), "{err:?}");

        // A stream shorter than the checkpoint's progress is an error.
        let err = b
            .bin_stream_checkpointed(
                tuples.iter().take(10).cloned(),
                BadTuplePolicy::Skip,
                &spec,
            )
            .unwrap_err();
        assert!(matches!(err, ArcsError::Checkpoint { .. }), "{err:?}");

        // Zero interval is a config error.
        let bad = CheckpointSpec { path: &path, every: 0 };
        assert!(matches!(
            b.bin_stream_checkpointed(tuples, BadTuplePolicy::Skip, &bad),
            Err(ArcsError::InvalidConfig(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_detected() {
        let s = schema();
        let b = Binner::equi_width(&s, "age", "salary", "group", 6, 10).unwrap();
        let tuples: Vec<Tuple> = (0..20).map(|i| tuple(30.0, 1_000.0, i % 2)).collect();
        let dir = std::env::temp_dir().join("arcs-binner-ckpt-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.ckpt");
        std::fs::remove_file(&path).ok();
        let spec = CheckpointSpec { path: &path, every: 10 };
        b.bin_stream_checkpointed(tuples.clone(), BadTuplePolicy::Skip, &spec)
            .unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        let err = b
            .bin_stream_checkpointed(tuples, BadTuplePolicy::Skip, &spec)
            .unwrap_err();
        assert!(matches!(err, ArcsError::Checkpoint { .. }), "{err:?}");
        std::fs::remove_file(&path).ok();
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
