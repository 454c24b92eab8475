//! The session API: bin once, then mine, cluster, and re-mine at will.
//!
//! [`Arcs::open`] runs the expensive front half of the pipeline — binning
//! and sampling — and hands back a [`Session`] that **owns** the populated
//! [`BinArray`], the binner, and the verification sample binned into a
//! second, small `BinArray`. Everything after that point (threshold
//! search, re-mining or clustering at explicit thresholds) operates on the
//! session alone; the source data can be dropped. This is the paper's
//! §3.2 observation made concrete: once the bin array holds per-group
//! counts, "an entirely new segmentation" is available "without the need
//! to re-bin the original data".
//!
//! A [`SegmentRequest`] names the attributes once, up front:
//!
//! ```text
//! let mut session = arcs.open(&ds, SegmentRequest::new("age", "salary", "group").group("A"))?;
//! let seg = session.segment()?;
//! let rules = session.remine(Thresholds::new(0.01, 0.5)?)?;   // instant, §3.2
//! ```
//!
//! The threshold search ([`Session::segment`]) runs the optimizer. The
//! explicit-threshold operations — [`Session::query`] and
//! [`Session::remine`] — run `serve::answer`, the query body the serving
//! core ([`Server`](crate::serve::Server)) runs too. Both run over the
//! session's one lazily built [`OccupancyIndex`]. Every answer depends
//! only on the bin array and the call's own arguments, never on which
//! call came before.
//!
//! Sessions also carry a [`PipelineReport`] of per-stage wall-clock
//! timings and work counters.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use arcs_data::sample::sample_rows;
use arcs_data::{Dataset, Schema, Tuple};

use crate::binarray::BinArray;
use crate::binner::Binner;
use crate::cluster::{ClusteredRule, Rect};
use crate::engine::{self, BinnedRule, Thresholds};
use crate::error::ArcsError;
use crate::index::OccupancyIndex;
use crate::metrics::{PipelineCounters, PipelineReport, RecoveryStats, Stage};
use crate::optimizer::{evaluate_indexed, search, Evaluation, OptimizerConfig};
use crate::pipeline::{Arcs, ArcsConfig, GroupSegmentations, Segmentation};
use crate::serve::{answer, Answer, ClusterSpec, QueryResult};

/// Names the attributes of one segmentation task: the two quantitative
/// LHS attributes (`x`, `y`), the categorical segmentation criterion, and
/// optionally the criterion group to target.
///
/// Built once and handed to [`Arcs::open`] (or its stream and binned
/// variants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRequest {
    x: String,
    y: String,
    criterion: String,
    group: Option<String>,
}

impl SegmentRequest {
    /// A request clustering the `(x, y)` plane by `criterion`.
    pub fn new(x: impl Into<String>, y: impl Into<String>, criterion: impl Into<String>) -> Self {
        SegmentRequest { x: x.into(), y: y.into(), criterion: criterion.into(), group: None }
    }

    /// Targets one criterion group, enabling [`Session::segment`] and
    /// [`Session::remine`]. Without it, use [`Session::segment_all`], or
    /// name the group in the [`Session::query`] request.
    pub fn group(mut self, label: impl Into<String>) -> Self {
        self.group = Some(label.into());
        self
    }

    /// The x (first LHS) attribute name.
    pub fn x_attr(&self) -> &str {
        &self.x
    }

    /// The y (second LHS) attribute name.
    pub fn y_attr(&self) -> &str {
        &self.y
    }

    /// The segmentation criterion attribute name.
    pub fn criterion_attr(&self) -> &str {
        &self.criterion
    }

    /// The targeted criterion group, if one was set.
    pub fn group_label(&self) -> Option<&str> {
        self.group.as_deref()
    }
}

/// Outcome of the threshold search, including degradation-ladder
/// bookkeeping and the work counters accumulated along the way (the
/// ladder's evaluations included). `best` is `None` when neither the
/// search nor the ladder found a cluster.
struct SearchOutcome {
    best: Option<Evaluation>,
    degraded: bool,
    relaxation_steps: Vec<String>,
    stats: PipelineCounters,
}

/// Runs the threshold search over the session's `index`, verifying against
/// its binned `sample`; when it finds nothing and degradation is enabled,
/// walks a bounded ladder of relaxations: (1) floor the support/confidence
/// thresholds at zero, (2) additionally disable smoothing (whose low-pass
/// filter can erase every sparse qualifying cell), (3) additionally
/// disable cluster pruning. The first step yielding any cluster wins; each
/// evaluation still runs the full smooth → cluster → verify → score path,
/// and the search's and the ladder's work both count in the outcome.
fn run_search(
    config: &ArcsConfig,
    array: &BinArray,
    index: &OccupancyIndex,
    gk: u32,
    sample: &BinArray,
) -> Result<SearchOutcome, ArcsError> {
    let search = search(array, index, gk, sample, &config.optimizer)?;
    let mut outcome = SearchOutcome {
        degraded: false,
        relaxation_steps: Vec::new(),
        stats: search.stats,
        best: search.best,
    };
    if outcome.best.is_some() || !config.degrade_on_no_segmentation {
        return Ok(outcome);
    }
    let floor = Thresholds::new(0.0, 0.0)?;
    let mut relaxed = config.optimizer.clone();
    type Relax = fn(&mut OptimizerConfig);
    let ladder: [(&str, Relax); 3] = [
        ("floor-thresholds", |_| {}),
        ("disable-smoothing", |c| {
            c.smoothing = crate::smooth::SmoothConfig::disabled();
        }),
        ("disable-pruning", |c| {
            c.bitop.min_area_fraction = 0.0;
        }),
    ];
    for (name, relax) in ladder {
        relax(&mut relaxed);
        outcome.relaxation_steps.push(name.to_string());
        let eval = evaluate_indexed(index, gk, sample, floor, &relaxed, &mut outcome.stats)?;
        if !eval.clusters.is_empty() {
            outcome.best = Some(eval);
            outcome.degraded = true;
            break;
        }
    }
    Ok(outcome)
}

/// A populated pipeline: the bin array, binner, and binned verification
/// sample for one [`SegmentRequest`], independent of the source data.
///
/// Created by [`Arcs::open`], [`Arcs::open_stream`] or
/// [`Arcs::open_binned`]. Mining operations ([`segment`](Session::segment),
/// [`remine`](Session::remine), [`query`](Session::query)) borrow the
/// session mutably only to update its [`PipelineReport`]; the bin array is
/// only ever modified through [`append_rows`](Session::append_rows), so
/// results are reproducible across repeated calls between appends.
pub struct Session {
    config: ArcsConfig,
    request: SegmentRequest,
    binner: Binner,
    array: BinArray,
    /// The verification sample, binned once at open by `binner`: the
    /// search reads each point's errors off its counts
    /// ([`verify_counts`](crate::verify::verify_counts)), so the source
    /// dataset can be dropped while `segment` keeps working.
    sample: BinArray,
    /// Occupancy index over `array`, built lazily on the first search or
    /// re-mine.
    /// Per the index invalidation contract, every mutation of `array`
    /// (`merge_delta`) must reset this to `None` so the next re-mine
    /// rebuilds it.
    index: Option<OccupancyIndex>,
    /// Bin-halving steps the resource governor took at open time; `> 0`
    /// marks every segmentation from this session degraded.
    budget_coarsening: u32,
    report: PipelineReport,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("request", &self.request)
            .field("n_tuples", &self.array.n_tuples())
            .field("sample_len", &self.sample.n_tuples())
            .field("labels", &self.binner.labels())
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl Arcs {
    /// Opens a session over an in-memory dataset: builds the binner, bins
    /// every tuple (in parallel across [`ArcsConfig::threads`] workers),
    /// and draws and bins the verification sample. The returned
    /// [`Session`] owns everything it needs; `dataset` may be dropped
    /// afterwards.
    pub fn open(&self, dataset: &Dataset, request: SegmentRequest) -> Result<Session, ArcsError> {
        self.build_session(
            dataset.schema(),
            Some(dataset),
            request,
            |binner, threads| binner.bin_rows_parallel_with_stats(dataset.rows(), threads),
            |binner| self.bin_sample(binner, dataset),
        )
    }

    /// Opens a session over a tuple stream in one pass, with an explicit
    /// verification sample (which must share `schema`). Only
    /// [`crate::binner::BinningStrategy::EquiWidth`] is possible here —
    /// the alternatives need a second look at the data.
    pub fn open_stream<I>(
        &self,
        schema: &Schema,
        tuples: I,
        request: SegmentRequest,
        sample: &Dataset,
    ) -> Result<Session, ArcsError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        self.build_session(
            schema,
            None,
            request,
            |binner, threads| binner.bin_stream_parallel_with_stats(tuples, threads),
            |binner| binner.bin_rows(sample.iter()),
        )
    }

    /// Opens a session over `dataset` whose bin array starts as `prefix`
    /// (a snapshot of the dataset's first `prefix.n_tuples()` rows, e.g.
    /// one resumed from a checkpoint) or, without one, empty. It plans
    /// and builds the binner and draws and bins the sample exactly as
    /// [`Arcs::open`] does, but bins nothing: the caller appends the rows
    /// the prefix does not cover with [`Session::append_rows`].
    ///
    /// A `prefix` whose grid is not the planned one, or that covers more
    /// rows than `dataset` holds, is refused with
    /// [`ArcsError::Checkpoint`].
    pub fn open_binned(
        &self,
        dataset: &Dataset,
        prefix: Option<BinArray>,
        request: SegmentRequest,
    ) -> Result<Session, ArcsError> {
        self.build_session(
            dataset.schema(),
            Some(dataset),
            request,
            |binner, _| {
                let Some(prefix) = prefix else {
                    return Ok((binner.new_bin_array()?, RecoveryStats::default()));
                };
                let planned = (binner.x_map().n_bins(), binner.y_map().n_bins(), binner.nseg());
                let grid = (prefix.nx(), prefix.ny(), prefix.nseg());
                if grid != planned {
                    return Err(ArcsError::Checkpoint {
                        message: format!(
                            "checkpoint grid (nx, ny, nseg) = {grid:?} does not match \
                             the planned grid {planned:?}"
                        ),
                    });
                }
                if prefix.n_tuples() > dataset.len() as u64 {
                    return Err(ArcsError::Checkpoint {
                        message: format!(
                            "checkpoint covers {} tuples but the input holds only {} — \
                             wrong input for this checkpoint?",
                            prefix.n_tuples(),
                            dataset.len()
                        ),
                    });
                }
                Ok((prefix, RecoveryStats::default()))
            },
            |binner| self.bin_sample(binner, dataset),
        )
    }

    /// The one body behind every session constructor: plans the grid
    /// under the memory budget, builds the binner for the configured
    /// strategy (`dataset` supplies the columns equi-depth and
    /// homogeneity need; the binner validates the criterion and holds
    /// its labels), checks the targeted group, then times `bin` and
    /// `sample` (which bins the verification sample) into the session's
    /// report.
    fn build_session(
        &self,
        schema: &Schema,
        dataset: Option<&Dataset>,
        request: SegmentRequest,
        bin: impl FnOnce(&Binner, usize) -> Result<(BinArray, RecoveryStats), ArcsError>,
        sample: impl FnOnce(&Binner) -> Result<BinArray, ArcsError>,
    ) -> Result<Session, ArcsError> {
        if dataset.is_some_and(Dataset::is_empty) {
            return Err(ArcsError::InvalidConfig("dataset is empty".into()));
        }
        // The grid's group count; a criterion that is missing or not
        // categorical plans with none and the binner below refuses it.
        let nseg = schema
            .require(request.criterion_attr())
            .ok()
            .and_then(|idx| schema.attribute(idx)?.kind.cardinality())
            .unwrap_or(0);
        let config = self.config();
        let plan = crate::budget::plan_bins(
            config.n_x_bins,
            config.n_y_bins,
            nseg as usize,
            config.memory_budget,
        )?;
        let binner = self.build_binner(
            schema,
            request.x_attr(),
            request.y_attr(),
            request.criterion_attr(),
            dataset,
            &plan,
        )?;
        check_group(binner.labels(), &request)?;

        let threads = self.config().threads;
        let mut report = PipelineReport { threads, ..PipelineReport::default() };
        report.counters.budget_coarsening_steps = plan.coarsening_steps as u64;

        let start = Instant::now();
        let (array, recovery) = bin(&binner, threads)?;
        report.timings.record(Stage::Binning, start.elapsed());
        report.counters.tuples_binned = array.n_tuples();
        report.counters.record_recovery(&recovery);

        let start = Instant::now();
        let sample = sample(&binner)?;
        report.timings.record(Stage::Sampling, start.elapsed());

        Ok(Session {
            config: self.config().clone(),
            request,
            binner,
            array,
            sample,
            index: None,
            budget_coarsening: plan.coarsening_steps,
            report,
        })
    }

    /// Draws the seeded verification sample [`Arcs::open`] verifies
    /// against — `sample_size` rows of `dataset` (all of them when fewer)
    /// — and bins it with `binner`, straight from the drawn references.
    fn bin_sample(&self, binner: &Binner, dataset: &Dataset) -> Result<BinArray, ArcsError> {
        let mut rng = StdRng::seed_from_u64(self.config().seed);
        let k = self.config().sample_size.min(dataset.len());
        let rows = sample_rows(dataset, k, &mut rng).map_err(ArcsError::Data)?;
        binner.bin_rows(rows)
    }
}

/// The session's occupancy index over `array`, built on first use and
/// rebuilt after any append (which resets `slot` to `None` — the
/// invalidation contract). A free function so callers can borrow the
/// session's other fields alongside it.
fn lazy_index<'a>(slot: &'a mut Option<OccupancyIndex>, array: &BinArray) -> &'a OccupancyIndex {
    let index = slot.get_or_insert_with(|| OccupancyIndex::build(array));
    debug_assert!(index.matches(array));
    index
}

/// Fails fast when the request targets a group the criterion does not have.
fn check_group(labels: &[String], request: &SegmentRequest) -> Result<(), ArcsError> {
    if let Some(group) = request.group_label() {
        if !labels.iter().any(|l| l == group) {
            return Err(ArcsError::UnknownGroup(group.to_string()));
        }
    }
    Ok(())
}

impl Session {
    /// Segments the group named in the request. Errors with
    /// [`ArcsError::InvalidConfig`] when the request has no group — use
    /// [`SegmentRequest::group`] or [`segment_all`](Session::segment_all).
    pub fn segment(&mut self) -> Result<Segmentation, ArcsError> {
        let label = self.request_group()?;
        self.segment_group(&label)
    }

    /// Runs the threshold search and decodes the winning clusters for one
    /// criterion group, updating the session's timings and counters.
    fn segment_group(&mut self, group_label: &str) -> Result<Segmentation, ArcsError> {
        let gk = self.group_code(group_label)?;

        let start = Instant::now();
        let outcome = {
            let index = lazy_index(&mut self.index, &self.array);
            run_search(&self.config, &self.array, index, gk, &self.sample)
        };
        self.record_stage(Stage::Search, start.elapsed());
        let outcome = outcome?;

        let c = &mut self.report.counters;
        c.merge(&outcome.stats);
        let Some(best) = outcome.best else {
            return Err(ArcsError::NoSegmentation);
        };
        c.verifier_false_positives += best.errors.false_positives as u64;
        c.verifier_false_negatives += best.errors.false_negatives as u64;

        let start = Instant::now();
        let rules = self.decode(&best.clusters, gk, group_label)?;
        let (mined, visited) = {
            let index = lazy_index(&mut self.index, &self.array);
            engine::mine_rules_indexed(index, gk, best.thresholds)
        };
        self.report.counters.rules_emitted += mined.len() as u64;
        self.report.counters.cells_visited += visited;
        self.record_stage(Stage::Decode, start.elapsed());

        // Budget coarsening at open time is a quality degradation too:
        // surface it through the same channel as the threshold ladder.
        let mut relaxation_steps = outcome.relaxation_steps;
        if self.budget_coarsening > 0 {
            relaxation_steps
                .insert(0, format!("budget-coarsen-bins({} halvings)", self.budget_coarsening));
        }
        Ok(Segmentation {
            rules,
            clusters: best.clusters,
            thresholds: best.thresholds,
            score: best.score,
            errors: best.errors,
            n_tuples: self.array.n_tuples(),
            evaluations: outcome.stats.evaluations as usize,
            degraded: outcome.degraded || self.budget_coarsening > 0,
            relaxation_steps,
        })
    }

    /// Segments every criterion group against the one shared bin array
    /// and sample (paper §3.1). Returns `(group label, result)` per group;
    /// groups for which no segmentation exists report their error.
    pub fn segment_all(&mut self) -> Result<GroupSegmentations, ArcsError> {
        let labels = self.binner.labels().to_vec();
        Ok(labels
            .into_iter()
            .map(|label| {
                let seg = self.segment_group(&label);
                (label, seg)
            })
            .collect())
    }

    /// Re-mines association rules at explicit thresholds against the
    /// already-populated bin array — the paper's §3.2 instant re-mining;
    /// no pass over the source data. Targets the request's group.
    ///
    /// The first re-mine builds the session's [`OccupancyIndex`]; from
    /// then on each call iterates only the group's occupied cells, never
    /// the full `nx · ny` grid (tracked by the `cells_visited` counter).
    pub fn remine(&mut self, thresholds: Thresholds) -> Result<Vec<BinnedRule>, ArcsError> {
        let label = self.request_group()?;
        let gk = self.group_code(&label)?;
        Ok(self.query_body(gk, thresholds, None)?.rules)
    }

    /// Serves a canonical [`Request`](crate::request::Request) against
    /// the session's owned bin array — the same request shape the daemon
    /// serves over the wire, answered by the same query body
    /// (`serve::answer`), so a library caller and a wire client asking
    /// the same question get bit-identical answers.
    ///
    /// Requires explicit `thresholds` (threshold *search* stays on
    /// [`segment`](Session::segment), which returns the richer
    /// [`Segmentation`]); the group comes from the request, falling back
    /// to the group the session was opened with. `deadline` and
    /// `memory_budget` are serving-core admission concerns and are
    /// ignored here — the session caller owns its own resources. The
    /// returned result's `epoch` is 0: sessions are not epoch-versioned.
    pub fn query(&mut self, request: &crate::request::Request) -> Result<QueryResult, ArcsError> {
        let thresholds = request.thresholds.ok_or_else(|| {
            ArcsError::InvalidConfig(
                "session query needs explicit thresholds — use segment() for \
                 the threshold search"
                    .into(),
            )
        })?;
        let gk = match &request.group {
            Some(group) => group.resolve(self.binner.labels())?,
            None => {
                let label = self.request_group()?;
                self.group_code(&label)?
            }
        };
        let answer = self.query_body(gk, thresholds, request.cluster.as_ref())?;
        Ok(QueryResult {
            epoch: 0,
            rules: answer.rules,
            clusters: answer.clusters,
            coarsening_steps: self.budget_coarsening,
        })
    }

    /// Runs the shared query body ([`answer`]) over the session's index,
    /// timed as a search stage, and folds its work counters into the
    /// report.
    fn query_body(
        &mut self,
        gk: u32,
        thresholds: Thresholds,
        cluster: Option<&ClusterSpec>,
    ) -> Result<Answer, ArcsError> {
        let start = Instant::now();
        let index = lazy_index(&mut self.index, &self.array);
        let answer = answer(index, gk, thresholds, cluster, None)?;
        self.record_stage(Stage::Search, start.elapsed());
        let c = &mut self.report.counters;
        c.rules_emitted += answer.rules.len() as u64;
        c.cells_visited += answer.cells_visited;
        c.candidates_enumerated += answer.cluster_stats.candidates_enumerated;
        c.clusters_pruned += answer.cluster_stats.clusters_pruned;
        Ok(answer)
    }

    /// Decodes cluster rectangles into [`ClusteredRule`]s with aggregate
    /// support/confidence computed from the bin array.
    fn decode(
        &self,
        clusters: &[Rect],
        gk: u32,
        group_label: &str,
    ) -> Result<Vec<ClusteredRule>, ArcsError> {
        let n = self.array.n_tuples();
        let mut rules = Vec::with_capacity(clusters.len());
        for &rect in clusters {
            // Aggregate support/confidence of the whole rectangle.
            let mut group_count = 0u64;
            let mut total_count = 0u64;
            for (x, y) in rect.cells() {
                group_count += self.array.group_count(x, y, gk) as u64;
                total_count += self.array.cell_total(x, y) as u64;
            }
            let support = if n == 0 { 0.0 } else { group_count as f64 / n as f64 };
            let confidence =
                if total_count == 0 { 0.0 } else { group_count as f64 / total_count as f64 };
            rules.push(ClusteredRule::from_rect(
                rect,
                self.binner.x_map(),
                self.binner.y_map(),
                self.request.x_attr(),
                self.request.y_attr(),
                self.request.criterion_attr(),
                group_label,
                support,
                confidence,
            )?);
        }
        Ok(rules)
    }

    /// Bins `rows` with the session's binner and merges them into the
    /// bin array — streaming append without reopening the session.
    /// Returns the array's new total tuple count.
    ///
    /// Appending invalidates the lazily-built [`OccupancyIndex`] (the
    /// documented invalidation contract): the next
    /// [`remine`](Session::remine) rebuilds it over the merged counts, so
    /// re-mining after an append sees every appended tuple.
    pub fn append_rows(&mut self, rows: &[Tuple]) -> Result<u64, ArcsError> {
        let start = Instant::now();
        let (delta, recovery) =
            self.binner.bin_rows_parallel_with_stats(rows, self.config.threads)?;
        self.report.counters.record_recovery(&recovery);
        let total = self.merge_delta(&delta)?;
        self.record_stage(Stage::Binning, start.elapsed());
        Ok(total)
    }

    /// Merges an already-binned delta array (same grid shape) into the
    /// session's bin array via [`BinArray::merge`], invalidating the
    /// occupancy index so subsequent re-mines rebuild it. Returns the
    /// array's new total tuple count.
    fn merge_delta(&mut self, delta: &BinArray) -> Result<u64, ArcsError> {
        self.array.merge(delta)?;
        // The invalidation contract: the index (when built) describes the
        // pre-merge array; drop it so the next re-mine rebuilds.
        self.index = None;
        self.report.counters.tuples_binned = self.array.n_tuples();
        Ok(self.array.n_tuples())
    }

    /// The populated bin array.
    pub fn bin_array(&self) -> &BinArray {
        &self.array
    }

    /// The binner that produced the array (bin maps included).
    pub fn binner(&self) -> &Binner {
        &self.binner
    }

    /// The request this session was opened with.
    pub fn request(&self) -> &SegmentRequest {
        &self.request
    }

    /// Bin-halving steps the resource governor took to fit the memory
    /// budget when this session was opened (0 without a budget, or when
    /// the requested grid already fit).
    pub fn budget_coarsening_steps(&self) -> u32 {
        self.budget_coarsening
    }

    /// Accumulated stage timings and work counters.
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }

    fn request_group(&self) -> Result<String, ArcsError> {
        self.request.group_label().map(str::to_string).ok_or_else(|| {
            ArcsError::InvalidConfig(
                "the segment request names no group — add .group(..) to the \
                 request, use segment_all, or name the group in the query"
                    .into(),
            )
        })
    }

    fn group_code(&self, label: &str) -> Result<u32, ArcsError> {
        self.binner
            .labels()
            .iter()
            .position(|l| l == label)
            .map(|p| p as u32)
            .ok_or_else(|| ArcsError::UnknownGroup(label.to_string()))
    }

    fn record_stage(&mut self, stage: Stage, elapsed: Duration) {
        self.report.timings.record(stage, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitop::BitOpConfig;
    use crate::optimizer::OptimizerConfig;
    use arcs_data::schema::Attribute;
    use arcs_data::Value;

    fn small_schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("g", ["A", "other"]),
        ])
        .unwrap()
    }

    fn blocky_dataset() -> Dataset {
        let mut ds = Dataset::new(small_schema());
        for ix in 0..10 {
            for iy in 0..10 {
                let x = ix as f64 + 0.5;
                let y = iy as f64 + 0.5;
                let in_block = (2..5).contains(&ix) && (2..5).contains(&iy);
                let (n_a, n_other) = if in_block { (20, 2) } else { (0, 5) };
                for _ in 0..n_a {
                    ds.push(vec![Value::Quant(x), Value::Quant(y), Value::Cat(0)]).unwrap();
                }
                for _ in 0..n_other {
                    ds.push(vec![Value::Quant(x), Value::Quant(y), Value::Cat(1)]).unwrap();
                }
            }
        }
        ds
    }

    fn small_config() -> ArcsConfig {
        ArcsConfig {
            n_x_bins: 10,
            n_y_bins: 10,
            optimizer: OptimizerConfig {
                bitop: crate::bitop::BitOpConfig::no_pruning(),
                ..OptimizerConfig::default()
            },
            ..ArcsConfig::default()
        }
    }

    #[test]
    fn remine_works_after_the_dataset_is_dropped() {
        let arcs = Arcs::new(small_config()).unwrap();
        let mut session = {
            let ds = blocky_dataset();
            arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("A")).unwrap()
            // `ds` dropped here — the session owns all it needs.
        };
        let seg = session.segment().unwrap();
        assert_eq!(seg.clusters.len(), 1);

        // §3.2 instant re-mining: lower thresholds, no pass over the data.
        let loose = session.remine(Thresholds::new(0.0, 0.5).unwrap()).unwrap();
        assert!(!loose.is_empty());
        let strict = session.remine(Thresholds::new(0.5, 0.99).unwrap()).unwrap();
        assert!(strict.len() <= loose.len());
    }

    #[test]
    fn segment_without_group_requires_the_group_forms() {
        let ds = blocky_dataset();
        let arcs = Arcs::new(small_config()).unwrap();
        let mut session = arcs.open(&ds, SegmentRequest::new("x", "y", "g")).unwrap();
        assert!(matches!(session.segment(), Err(ArcsError::InvalidConfig(_))));
        let seg = session.segment_group("A").unwrap();
        assert_eq!(seg.clusters.len(), 1);
        let all = session.segment_all().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1.as_ref().unwrap().clusters, seg.clusters);
    }

    #[test]
    fn unknown_groups_rejected_at_open() {
        let ds = blocky_dataset();
        let arcs = Arcs::new(small_config()).unwrap();
        assert!(matches!(
            arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("Z")),
            Err(ArcsError::UnknownGroup(_))
        ));
    }

    #[test]
    fn report_accumulates_timings_and_counters() {
        let ds = blocky_dataset();
        let arcs = Arcs::new(small_config()).unwrap();
        let mut session = arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("A")).unwrap();
        assert_eq!(session.report().counters.tuples_binned, ds.len() as u64);
        session.segment().unwrap();
        let c = &session.report().counters;
        assert!(c.evaluations > 0);
        assert!(c.occupied_cells > 0);
        assert!(c.rules_emitted > 0);
        assert!(session.report().timings.total() > Duration::ZERO);
        assert_eq!(session.report().threads, arcs.config().threads);
    }

    #[test]
    fn memory_budget_coarsens_bins_instead_of_aborting() {
        let ds = blocky_dataset();
        let config = ArcsConfig { memory_budget: Some(400), ..small_config() };
        let arcs = Arcs::new(config).unwrap();
        // A 10 x 10 grid with 2 groups needs (2+1)*100*4 = 1200 bytes; a
        // 400-byte budget forces two halvings: (5,10) = 600, (5,5) = 300.
        let mut session = arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("A")).unwrap();
        assert_eq!(session.budget_coarsening_steps(), 2);
        assert_eq!(session.bin_array().nx(), 5);
        assert_eq!(session.bin_array().ny(), 5);
        assert_eq!(session.report().counters.budget_coarsening_steps, 2);
        let seg = session.segment().unwrap();
        assert!(seg.degraded);
        assert!(
            seg.relaxation_steps[0].starts_with("budget-coarsen-bins"),
            "{:?}",
            seg.relaxation_steps
        );
    }

    #[test]
    fn config_budget_applies_when_the_request_has_none() {
        let ds = blocky_dataset();
        let config = ArcsConfig { memory_budget: Some(400), ..small_config() };
        let arcs = Arcs::new(config).unwrap();
        let session = arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("A")).unwrap();
        assert_eq!(session.budget_coarsening_steps(), 2);
    }

    #[test]
    fn impossible_budget_is_refused_at_open() {
        let ds = blocky_dataset();
        let config = ArcsConfig { memory_budget: Some(10), ..small_config() };
        let arcs = Arcs::new(config).unwrap();
        // Even the coarsest useful grid (2 x 2, 2 groups = 48 bytes)
        // cannot fit in 10 bytes: refuse admission, don't coarsen to
        // nothing.
        let err = arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("A")).unwrap_err();
        assert!(matches!(err, ArcsError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn append_invalidates_the_occupancy_index() {
        let ds = blocky_dataset();
        let arcs = Arcs::new(small_config()).unwrap();
        let mut session = arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("A")).unwrap();

        // Build the lazy index and establish a pre-append baseline.
        let floor = Thresholds::new(0.0, 0.0).unwrap();
        let before = session.remine(floor).unwrap();
        let n_before = session.bin_array().n_tuples();

        // Append rows for group "A" into a cell that was previously
        // all-"other" — the index's occupied-cell list for group A must
        // grow, which only happens if the merge invalidated it.
        let rows: Vec<Tuple> = (0..50)
            .map(|_| Tuple::new(vec![Value::Quant(8.5), Value::Quant(8.5), Value::Cat(0)]))
            .collect();
        let total = session.append_rows(&rows).unwrap();
        assert_eq!(total, n_before + 50);
        assert_eq!(session.report().counters.tuples_binned, total);

        // Re-mining must see the appended mass: the stale index would
        // still report the old counts (or trip its debug structural
        // guard). Compare bit-identically against sequential mining on
        // the merged array.
        let after = session.remine(floor).unwrap();
        let oracle = engine::mine_rules(session.bin_array(), 0, floor);
        assert_eq!(after, oracle);
        assert_ne!(before, after, "appended tuples must change the rules");
        assert!(
            after.iter().any(|r| r.x == 8 && r.y == 8 && r.count > 0),
            "the appended cell must now mine for group A: {after:?}"
        );

        // merge_delta with a mismatched grid is rejected and leaves the
        // session usable.
        let bad = BinArray::new(3, 3, 2).unwrap();
        assert!(session.merge_delta(&bad).is_err());
        assert_eq!(session.remine(floor).unwrap(), oracle);
    }

    #[test]
    fn unified_query_matches_server_and_remine() {
        use crate::request::Request;
        use crate::serve::{ServeConfig, Server};

        let ds = blocky_dataset();
        let arcs = Arcs::new(small_config()).unwrap();
        let mut session = arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("A")).unwrap();

        let thresholds = Thresholds::new(0.01, 0.5).unwrap();
        let spec = crate::serve::ClusterSpec {
            bitop: BitOpConfig::no_pruning(),
            ..crate::serve::ClusterSpec::default()
        };
        let request = Request::new().group("A").thresholds(thresholds).cluster(spec.clone());

        // The same request served by the serving core over the same array
        // answers bit-identically — one schema, one mining path.
        let server = Server::new(session.bin_array().clone(), ServeConfig::default()).unwrap();
        let labels: Vec<String> = session.binner().labels().to_vec();
        let served = server.query_unified(&request, &labels).unwrap();
        let local = session.query(&request).unwrap();
        assert_eq!(local.rules, served.result.rules);
        assert_eq!(local.clusters, served.result.clusters);

        // And it agrees with the narrow-shape methods it unifies.
        assert_eq!(local.rules, session.remine(thresholds).unwrap());

        // Thresholds are required; a bad group is a typed error; the
        // request's group falls back to the session's when omitted.
        assert!(matches!(
            session.query(&Request::new().group("A")),
            Err(ArcsError::InvalidConfig(_))
        ));
        assert!(matches!(
            session.query(&Request::new().group("Z").thresholds(thresholds)),
            Err(ArcsError::UnknownGroup(_))
        ));
        let defaulted = session.query(&Request::new().thresholds(thresholds)).unwrap();
        assert_eq!(defaulted.rules, local.rules);
    }

    #[test]
    fn open_stream_matches_open() {
        let ds = blocky_dataset();
        let arcs = Arcs::new(small_config()).unwrap();
        let request = SegmentRequest::new("x", "y", "g").group("A");
        let mut a = arcs.open(&ds, request.clone()).unwrap();
        let mut b = arcs.open_stream(ds.schema(), ds.iter().cloned(), request, &ds).unwrap();
        assert_eq!(a.bin_array().checksum(), b.bin_array().checksum());
        let seg_a = a.segment().unwrap();
        let seg_b = b.segment().unwrap();
        assert_eq!(seg_a.clusters, seg_b.clusters);
    }
}
