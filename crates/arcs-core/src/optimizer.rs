//! The heuristic threshold optimizer (paper §3.7, Figure 10).
//!
//! Finding the support/confidence thresholds that give the MDL-best
//! segmentation is a combinatorial search. ARCS restricts it to the
//! thresholds that *actually occur* in the binned data: one pass
//! enumerates the unique support values of the occupied cells and, for
//! each, the unique confidence values of the qualifying cells (the
//! Figure 10 lattice). The search then starts at a **low** support
//! threshold — cheap because re-mining off the `BinArray` is nearly free —
//! and works upwards, re-clustering and re-verifying at each step, until
//! the verifier sees no significant improvement (within ε = 1e-6) or the
//! evaluation budget expires.

use arcs_data::Tuple;

use crate::binarray::BinArray;
use crate::binner::Binner;
use crate::bitop::{self, BitOpConfig};
use crate::cluster::Rect;
use crate::engine::Thresholds;
use crate::error::ArcsError;
use crate::index::{DeltaMiner, OccupancyIndex};
use crate::mdl::{MdlScore, MdlWeights};
use crate::metrics::PipelineCounters;
use crate::smooth::{smooth_with_stats, SmoothConfig};
use crate::verify::{verify_counts, ErrorCounts};

/// The Figure 10 data structure: the support thresholds that occur in the
/// binned data, each with its list of occurring confidence thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdLattice {
    /// Ascending unique support fractions (per-cell group count / N).
    supports: Vec<f64>,
    /// `confidences[i]`: ascending unique confidences among cells whose
    /// support is at least `supports[i]`.
    confidences: Vec<Vec<f64>>,
    /// Occupied cells scanned while building (observability counter).
    occupied: u64,
}

impl ThresholdLattice {
    /// Builds the lattice for criterion group `gk` in one descending
    /// sweep: the cells holding group tuples, sorted by group count from
    /// the highest, each add their confidence to one sorted, deduplicated
    /// list, and the list is saved as a level's confidences each time the
    /// count changes — a level's cells are the level above's plus its
    /// own, so lists only grow as support falls (the narrowing the paper
    /// observes, walked backwards).
    pub fn build(array: &BinArray, gk: u32) -> Self {
        let n = array.n_tuples();
        if n == 0 {
            return ThresholdLattice { supports: Vec::new(), confidences: Vec::new(), occupied: 0 };
        }
        let mut occupied = 0u64;
        let mut cells: Vec<(u32, f64)> = Vec::new();
        for (x, y) in array.occupied_cells() {
            occupied += 1;
            let count = array.group_count(x, y, gk);
            if count > 0 {
                cells.push((count, array.confidence(x, y, gk)));
            }
        }
        cells.sort_unstable_by_key(|&(count, _)| std::cmp::Reverse(count));

        let mut supports = Vec::new();
        let mut confidences = Vec::new();
        let mut confs: Vec<f64> = Vec::new();
        for (i, &(count, conf)) in cells.iter().enumerate() {
            if let Err(at) = confs.binary_search_by(|c| c.total_cmp(&conf)) {
                confs.insert(at, conf);
            }
            if cells.get(i + 1).is_none_or(|&(next, _)| next != count) {
                supports.push(count as f64 / n as f64);
                confidences.push(confs.clone());
            }
        }
        supports.reverse();
        confidences.reverse();
        ThresholdLattice { supports, confidences, occupied }
    }

    /// The ascending unique support fractions.
    pub fn supports(&self) -> &[f64] {
        &self.supports
    }

    /// Number of occupied cells scanned while building the lattice.
    pub fn occupied_cells(&self) -> u64 {
        self.occupied
    }

    /// The confidence list for support level `i`.
    pub fn confidences_for(&self, i: usize) -> &[f64] {
        &self.confidences[i]
    }

    /// Whether no cell produced any threshold.
    pub fn is_empty(&self) -> bool {
        self.supports.is_empty()
    }

    /// Evenly subsamples `values` down to at most `max` entries, always
    /// keeping the first and last.
    fn subsample(values: &[f64], max: usize) -> Vec<f64> {
        if values.len() <= max || max == 0 {
            return values.to_vec();
        }
        if max == 1 {
            return vec![values[0]];
        }
        (0..max).map(|i| values[i * (values.len() - 1) / (max - 1)]).collect()
    }
}

/// Minimum MDL improvement counted as progress: the paper's "until there
/// is no improvement (within some ε)".
const EPSILON: f64 = 1e-6;

/// The search stops after this many consecutive support levels without
/// progress.
const PATIENCE: usize = 4;

/// Minimum fraction of the group's verified tuples a candidate
/// segmentation must identify (cover) to be eligible as the best. The MDL
/// formula's logarithmic error term can otherwise prefer a near-empty
/// segmentation on very noisy data — covering nothing keeps false
/// positives at zero while the log compresses the huge false-negative
/// count. A segmentation that fails to identify the group is useless for
/// the paper's stated purpose (segmenting the data), so candidates below
/// this recall only win when *no* candidate reaches it. Documented
/// deviation from the paper's literal formula; the §5 categorical
/// segmentation runs this same search, and arcs-bench's experiment-only
/// searches apply the same guard.
pub const MIN_GROUP_RECALL: f64 = 0.5;

/// Cap on distinct support levels searched (evenly subsampled).
const MAX_SUPPORT_LEVELS: usize = 16;

/// Cap on distinct confidence levels searched per support level (evenly
/// subsampled).
const MAX_CONFIDENCE_LEVELS: usize = 8;

/// Configuration of the heuristic search.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// MDL bias weights.
    pub mdl_weights: MdlWeights,
    /// Grid smoothing applied before clustering.
    pub smoothing: SmoothConfig,
    /// BitOp clustering / pruning parameters.
    pub bitop: BitOpConfig,
    /// Hard cap on (support, confidence) evaluations — the paper's
    /// "budgeted time".
    pub max_evaluations: usize,
    /// Optional wall-clock budget (the paper's literal "the verifier
    /// determines that the budgeted time has expired"): every worker
    /// checks the clock before each point and evaluates nothing once it
    /// has expired; the search ends at the first point in search order
    /// that was not evaluated. Which point that is depends on timing,
    /// at any thread count.
    pub max_wall_time: Option<std::time::Duration>,
    /// Worker threads for the lattice search: a support level's
    /// confidence points are independent re-mines of the shared immutable
    /// `BinArray`, so they split into at most `threads` chunks that
    /// evaluate concurrently. Defaults to
    /// [`available_parallelism`](std::thread::available_parallelism);
    /// results are bit-identical for any value. With more than one
    /// thread the search keeps BitOp single-threaded inside each chunk.
    pub threads: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            mdl_weights: MdlWeights::default(),
            smoothing: SmoothConfig::default(),
            bitop: BitOpConfig::default(),
            max_evaluations: 512,
            max_wall_time: None,
            threads: crate::metrics::default_threads(),
        }
    }
}

impl OptimizerConfig {
    fn validate(&self) -> Result<(), ArcsError> {
        if self.threads == 0 {
            return Err(ArcsError::InvalidConfig("optimizer threads must be > 0".into()));
        }
        if self.max_evaluations == 0 {
            return Err(ArcsError::InvalidConfig("max_evaluations must be > 0".into()));
        }
        Ok(())
    }
}

/// One evaluated candidate segmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Thresholds used.
    pub thresholds: Thresholds,
    /// Clusters found (after smoothing, BitOp, pruning).
    pub clusters: Vec<Rect>,
    /// Verification errors over the tuples of the array verified against.
    pub errors: ErrorCounts,
    /// MDL score.
    pub score: MdlScore,
}

/// The optimizer's result: the best evaluation plus the full search trace.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResult {
    /// The MDL-minimal evaluation.
    pub best: Evaluation,
    /// Every evaluation performed, in search order.
    pub trace: Vec<Evaluation>,
    /// Work counters of the search: `occupied_cells` of the lattice
    /// build, and per evaluation `evaluations`, the BitOp, delta-mining
    /// and smoothing tallies and the panic-isolation and pool fields.
    /// Every thread count reports the same values except the
    /// schedule-dependent ones: `cells_visited` and `remine_delta_hits`
    /// (each chunk of a support level starts its own delta-mining chain
    /// from an empty grid, so the crossing sets depend on how the level
    /// was split even though every produced grid is bit-identical), the
    /// `pool_*` fields and `workers_effective`; and the fault tallies
    /// count the faults this particular run encountered and survived.
    pub stats: PipelineCounters,
}

/// Evaluates a single `(support, confidence)` point: mine → smooth →
/// cluster → verify → score, verifying against `array`'s own counts, so
/// the errors are exact over every tuple it holds. One-shot convenience —
/// builds a throwaway [`OccupancyIndex`]; a session evaluates over the
/// index it keeps.
pub fn evaluate(
    array: &BinArray,
    gk: u32,
    thresholds: Thresholds,
    config: &OptimizerConfig,
) -> Result<Evaluation, ArcsError> {
    let index = OccupancyIndex::build(array);
    let mut stats = PipelineCounters::default();
    evaluate_indexed(&index, gk, array, thresholds, config, &mut stats)
}

/// [`evaluate`] over a prebuilt index, verifying against `verify` (a
/// session passes the indexed array itself), folding the point's work
/// counters into `stats`.
pub(crate) fn evaluate_indexed(
    index: &OccupancyIndex,
    gk: u32,
    verify: &BinArray,
    thresholds: Thresholds,
    config: &OptimizerConfig,
    stats: &mut PipelineCounters,
) -> Result<Evaluation, ArcsError> {
    let mut miner = DeltaMiner::new(index, gk)?;
    let (eval, eval_stats) = evaluate_into(index, &mut miner, verify, thresholds, config)?;
    stats.merge(&eval_stats);
    Ok(eval)
}

/// The hot path of the search: every lattice point re-mines through here.
/// The delta miner updates its qualifying grid in place (bit-identical to
/// a from-scratch [`rule_grid`](crate::engine::rule_grid)) touching only
/// threshold-crossing cells, then the word-parallel smoother and BitOp
/// run as before, and the verifier reads the clusters' errors off
/// `verify`'s counts ([`verify_counts`]). Returns the evaluation with its
/// work counters.
fn evaluate_into(
    index: &OccupancyIndex,
    miner: &mut DeltaMiner,
    verify: &BinArray,
    thresholds: Thresholds,
    config: &OptimizerConfig,
) -> Result<(Evaluation, PipelineCounters), ArcsError> {
    crate::faults::check("engine.mine")?;
    let (cells_visited, delta_hits) = miner.update(index, thresholds);
    let (smoothed, smooth_stats) = smooth_with_stats(miner.grid(), &config.smoothing)?;
    let (clusters, cluster_stats) = bitop::cluster_with_stats(&smoothed, &config.bitop)?;
    let errors = verify_counts(&clusters, verify, miner.gk());
    let score = MdlScore::compute(clusters.len(), errors.total(), config.mdl_weights);
    let mut stats = PipelineCounters {
        evaluations: 1,
        candidates_enumerated: cluster_stats.candidates_enumerated,
        clusters_pruned: cluster_stats.clusters_pruned,
        cells_visited,
        remine_delta_hits: delta_hits,
        smooth_words_processed: smooth_stats.words_processed,
        ..PipelineCounters::default()
    };
    stats.record_recovery(&cluster_stats.recovery);
    Ok((Evaluation { thresholds, clusters, errors, score }, stats))
}

/// Mutable state of the greedy selection replayed over evaluations in
/// search order.
struct Selection {
    /// Best evaluation meeting the recall guard.
    best: Option<Evaluation>,
    /// Best evaluation regardless of the guard (fallback).
    best_any: Option<Evaluation>,
    trace: Vec<Evaluation>,
    stats: PipelineCounters,
}

impl Selection {
    /// Consumes one evaluation in search order. Returns `true` when it
    /// became the new best under the recall guard.
    fn consume(&mut self, eval: Evaluation, eval_stats: PipelineCounters) -> bool {
        self.stats.merge(&eval_stats);
        self.trace.push(eval.clone());
        if eval.clusters.is_empty() {
            return false; // never a candidate
        }
        let beats = |incumbent: &Option<Evaluation>| match incumbent {
            None => true,
            Some(b) => eval.score.cost + EPSILON < b.score.cost,
        };
        if beats(&self.best_any) {
            self.best_any = Some(eval.clone());
        }
        if eval.errors.recall() >= MIN_GROUP_RECALL && beats(&self.best) {
            self.best = Some(eval);
            return true;
        }
        false
    }
}

/// Runs the heuristic search (the Figure 2 feedback loop): ascending
/// support levels from the lattice (at most 16, evenly subsampled), each
/// with its confidence levels (at most 8), stopping after four support
/// levels in a row without an MDL improvement of more than 1e-6, or on
/// budget exhaustion. A candidate must identify at least half of the
/// group's verified tuples to win, unless none does. Returns
/// [`ArcsError::NoSegmentation`] when the lattice is empty or no
/// evaluation produced any cluster.
///
/// Each support level's confidence points are evaluated concurrently in
/// at most `config.threads` chunks against the shared immutable occupancy
/// index, then consumed in their sequential order — `best`, `trace`, and
/// `stats` are bit-identical at any thread count, except the
/// schedule-dependent `stats` fields called out on
/// [`OptimizeResult::stats`].
/// (When the wall clock cuts a chunk short, the later chunks'
/// evaluations are discarded, trading some redundant work for
/// wall-clock time.)
///
/// This is paper §3.6's sampled search: `sample` is binned once with
/// `binner`, and every point verifies against that array's counts. A
/// [`Session`](crate::session::Session) searches the same way but
/// verifies against its own bin array, so its errors are exact over all
/// N tuples; no `Session` code draws a sample.
pub fn optimize(
    array: &BinArray,
    gk: u32,
    binner: &Binner,
    sample: &[&Tuple],
    config: &OptimizerConfig,
) -> Result<OptimizeResult, ArcsError> {
    let sample = binner.bin_rows(sample.iter().copied())?;
    let index = OccupancyIndex::build(array);
    let search = search(array, &index, gk, &sample, config)?;
    match search.best {
        Some(best) => Ok(OptimizeResult { best, trace: search.trace, stats: search.stats }),
        None => Err(ArcsError::NoSegmentation),
    }
}

/// What [`search`] found: the best evaluation, if any produced a cluster,
/// plus the full trace and the work counters either way.
pub(crate) struct Search {
    pub(crate) best: Option<Evaluation>,
    pub(crate) trace: Vec<Evaluation>,
    pub(crate) stats: PipelineCounters,
}

/// The search behind [`optimize`], [`Session::segment`] and
/// [`segment_categorical`], over a prebuilt `index` of `array`, verifying
/// every point against `verify`'s counts: a session and the categorical
/// segmentation pass `array` itself, `optimize` the binned sample.
///
/// [`Session::segment`]: crate::session::Session::segment
/// [`segment_categorical`]: crate::categorical::segment_categorical
pub(crate) fn search(
    array: &BinArray,
    index: &OccupancyIndex,
    gk: u32,
    verify: &BinArray,
    config: &OptimizerConfig,
) -> Result<Search, ArcsError> {
    config.validate()?;
    let lattice = ThresholdLattice::build(array, gk);
    let support_levels = ThresholdLattice::subsample(lattice.supports(), MAX_SUPPORT_LEVELS);
    // With several search workers each keeps BitOp single-threaded — the
    // level's chunks already saturate `threads` cores; nested enumeration
    // threads would only oversubscribe.
    let worker_config = OptimizerConfig {
        bitop: BitOpConfig {
            threads: if config.threads > 1 { 1 } else { config.bitop.threads },
            ..config.bitop
        },
        ..config.clone()
    };
    let started = std::time::Instant::now();
    let expired = || config.max_wall_time.is_some_and(|budget| started.elapsed() >= budget);
    // Evaluates one chunk of a level's points on its own delta-mining
    // chain, stopping before the first point the clock cuts off. Only the
    // pooled attempts pass the `optimizer.evaluate` failpoint; the
    // fallback recomputes the chunk without it.
    let evaluate_chunk = |points: &[Thresholds], armed: bool| -> Result<Vec<_>, ArcsError> {
        let mut miner = DeltaMiner::new(index, gk)?;
        let mut evals = Vec::with_capacity(points.len());
        for &point in points {
            if expired() {
                break;
            }
            if armed {
                crate::faults::check("optimizer.evaluate")?;
            }
            evals.push(evaluate_into(index, &mut miner, verify, point, &worker_config)?);
        }
        Ok(evals)
    };
    // Two-tier best: candidates meeting the recall guard are preferred;
    // `best_any` is the fallback when nothing qualifies.
    let mut sel = Selection {
        best: None,
        best_any: None,
        trace: Vec::new(),
        stats: PipelineCounters {
            occupied_cells: lattice.occupied_cells(),
            ..PipelineCounters::default()
        },
    };
    let mut stale = 0usize;

    for &s in &support_levels {
        // Map back to the lattice index to fetch this level's confidences.
        let li =
            lattice.supports().iter().position(|&v| v >= s).unwrap_or(lattice.supports().len() - 1);
        let conf_levels =
            ThresholdLattice::subsample(lattice.confidences_for(li), MAX_CONFIDENCE_LEVELS);

        // Evaluate up to the remaining budget concurrently, then replay
        // the level in order.
        let budget_left = config.max_evaluations.saturating_sub(sel.trace.len());
        if budget_left == 0 {
            break;
        }
        let take = conf_levels.len().min(budget_left);
        let points: Vec<Thresholds> = conf_levels[..take]
            .iter()
            .map(|&c| level_thresholds(s, c))
            .collect::<Result<_, _>>()?;
        let chunks: Vec<&[Thresholds]> =
            points.chunks(take.div_ceil(config.threads).max(1)).collect();
        let (batch, recovery) = crate::exec::ExecPool::global().run_isolated(
            "optimizer",
            config.threads,
            &chunks,
            |points| evaluate_chunk(points, true),
            |points| evaluate_chunk(points, false),
        )?;
        // Merged before the replay: evaluations past a clock cut-off are
        // discarded, but an absorbed panic is not.
        sel.stats.record_recovery(&recovery);

        let mut improved = false;
        let mut consumed = 0usize;
        for (chunk, evals) in chunks.iter().zip(batch) {
            let evaluated = evals.len();
            for (eval, eval_stats) in evals {
                consumed += 1;
                improved |= sel.consume(eval, eval_stats);
            }
            if evaluated < chunk.len() {
                break; // the clock cut this chunk short
            }
        }
        // The budget or the clock truncated this level's walk mid-way:
        // the search stops here, before any staleness bookkeeping.
        if consumed < conf_levels.len() {
            break;
        }

        if improved {
            stale = 0;
        } else if sel.best.is_some() {
            // Only start counting staleness once something was found.
            stale += 1;
            if stale >= PATIENCE {
                break;
            }
        }
    }

    Ok(Search { best: sel.best.or(sel.best_any), trace: sel.trace, stats: sel.stats })
}

/// Backs a lattice point off a hair below the observed values so cells
/// *at* the threshold still qualify despite floating-point rounding.
fn level_thresholds(s: f64, c: f64) -> Result<Thresholds, ArcsError> {
    Thresholds::new((s - 1e-12).max(0.0), (c - 1e-12).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_data::schema::{Attribute, Schema};
    use arcs_data::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("g", ["A", "other"]),
        ])
        .unwrap()
    }

    /// Tuples with a dense Group-A block in x,y ∈ [2, 5) and background
    /// "other" tuples everywhere.
    fn blocky_dataset() -> Vec<Tuple> {
        let mut ds = Vec::new();
        for ix in 0..10 {
            for iy in 0..10 {
                let x = ix as f64 + 0.5;
                let y = iy as f64 + 0.5;
                let in_block = (2..5).contains(&ix) && (2..5).contains(&iy);
                let (n_a, n_other) = if in_block { (20, 2) } else { (0, 5) };
                for _ in 0..n_a {
                    ds.push(Tuple::new(vec![Value::Quant(x), Value::Quant(y), Value::Cat(0)]));
                }
                for _ in 0..n_other {
                    ds.push(Tuple::new(vec![Value::Quant(x), Value::Quant(y), Value::Cat(1)]));
                }
            }
        }
        ds
    }

    fn binner() -> Binner {
        Binner::equi_width(&schema(), "x", "y", "g", 10, 10).unwrap()
    }

    #[test]
    fn lattice_enumerates_occurring_thresholds() {
        let b = binner();
        let ds = blocky_dataset();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let lattice = ThresholdLattice::build(&ba, 0);
        assert!(!lattice.is_empty());
        // Only cells in the block have group-0 tuples, all with count 20:
        // one unique support level.
        assert_eq!(lattice.supports().len(), 1);
        let s = lattice.supports()[0];
        assert!((s - 20.0 / ba.n_tuples() as f64).abs() < 1e-12);
        // All those cells share confidence 20/22.
        assert_eq!(lattice.confidences_for(0), &[20.0 / 22.0]);
    }

    #[test]
    fn lattice_supports_ascend_and_confidences_narrow() {
        let mut ba = BinArray::new(4, 4, 2).unwrap();
        // Three cells with distinct counts and confidences.
        for _ in 0..10 {
            ba.add(0, 0, 0);
        }
        for _ in 0..10 {
            ba.add(0, 0, 1);
        }
        for _ in 0..20 {
            ba.add(1, 1, 0);
        }
        for _ in 0..5 {
            ba.add(1, 1, 1);
        }
        for _ in 0..30 {
            ba.add(2, 2, 0);
        }
        let lattice = ThresholdLattice::build(&ba, 0);
        let sup = lattice.supports();
        assert_eq!(sup.len(), 3);
        assert!(sup.windows(2).all(|w| w[0] < w[1]));
        // At the lowest support all three confidences appear; at the
        // highest only one.
        assert_eq!(lattice.confidences_for(0).len(), 3);
        assert_eq!(lattice.confidences_for(2).len(), 1);
    }

    #[test]
    fn lattice_empty_for_empty_array() {
        let ba = BinArray::new(3, 3, 2).unwrap();
        assert!(ThresholdLattice::build(&ba, 0).is_empty());
    }

    #[test]
    fn subsample_keeps_endpoints() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = ThresholdLattice::subsample(&values, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[4], 99.0);
        assert!(s.windows(2).all(|w| w[0] < w[1]));

        let small = vec![1.0, 2.0];
        assert_eq!(ThresholdLattice::subsample(&small, 5), small);
        assert_eq!(ThresholdLattice::subsample(&values, 1), vec![0.0]);
    }

    #[test]
    fn optimizer_recovers_the_block() {
        let ds = blocky_dataset();
        let b = binner();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let sample: Vec<&Tuple> = ds.iter().collect();
        let config = OptimizerConfig {
            // Small grid: disable fraction pruning so the 3x3 block (9% of
            // the grid) is never at risk.
            bitop: BitOpConfig::no_pruning(),
            ..OptimizerConfig::default()
        };
        let result = optimize(&ba, 0, &b, &sample, &config).unwrap();
        assert_eq!(result.best.clusters.len(), 1);
        let rect = result.best.clusters[0];
        assert_eq!((rect.x0, rect.y0, rect.x1, rect.y1), (2, 2, 4, 4));
        assert_eq!(result.best.errors.false_negatives, 0);
        assert!(!result.trace.is_empty());
    }

    #[test]
    fn optimizer_errors_on_empty_data() {
        let b = binner();
        let ba = b.new_bin_array().unwrap();
        let err = optimize(&ba, 0, &b, &[], &OptimizerConfig::default()).unwrap_err();
        assert_eq!(err, ArcsError::NoSegmentation);
    }

    #[test]
    fn optimizer_respects_evaluation_budget() {
        let ds = blocky_dataset();
        let b = binner();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let sample: Vec<&Tuple> = ds.iter().collect();
        let config = OptimizerConfig {
            max_evaluations: 1,
            bitop: BitOpConfig::no_pruning(),
            ..OptimizerConfig::default()
        };
        let result = optimize(&ba, 0, &b, &sample, &config).unwrap();
        assert_eq!(result.trace.len(), 1);
    }

    #[test]
    fn parallel_search_is_bit_identical_to_sequential() {
        let ds = blocky_dataset();
        let b = binner();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let sample: Vec<&Tuple> = ds.iter().collect();
        let base = OptimizerConfig {
            bitop: BitOpConfig { threads: 1, ..BitOpConfig::no_pruning() },
            threads: 1,
            ..OptimizerConfig::default()
        };
        let sequential = optimize(&ba, 0, &b, &sample, &base).unwrap();
        // Delta-mining work counters are schedule-dependent (each parallel
        // worker starts its own crossing chain), as is the pool telemetry
        // (tasks run, steals, queue depth, effective workers); everything
        // else must be bit-identical.
        let normalized = |stats: PipelineCounters| PipelineCounters {
            cells_visited: 0,
            remine_delta_hits: 0,
            pool_tasks_run: 0,
            pool_steals: 0,
            pool_max_queue_depth: 0,
            workers_effective: 0,
            ..stats
        };
        for threads in [2, 4, 8] {
            let config = OptimizerConfig { threads, ..base.clone() };
            let parallel = optimize(&ba, 0, &b, &sample, &config).unwrap();
            assert_eq!(parallel.best, sequential.best, "threads = {threads}");
            assert_eq!(parallel.trace, sequential.trace, "threads = {threads}");
            assert_eq!(
                normalized(parallel.stats),
                normalized(sequential.stats),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn parallel_search_respects_tight_budgets_identically() {
        let ds = blocky_dataset();
        let b = binner();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let sample: Vec<&Tuple> = ds.iter().collect();
        for max_evaluations in [1, 2, 3, 5] {
            let base = OptimizerConfig {
                max_evaluations,
                bitop: BitOpConfig { threads: 1, ..BitOpConfig::no_pruning() },
                threads: 1,
                ..OptimizerConfig::default()
            };
            let sequential = optimize(&ba, 0, &b, &sample, &base).unwrap();
            assert_eq!(sequential.trace.len().min(max_evaluations), sequential.trace.len());
            let parallel =
                optimize(&ba, 0, &b, &sample, &OptimizerConfig { threads: 4, ..base }).unwrap();
            assert_eq!(parallel.trace, sequential.trace, "budget {max_evaluations}");
            assert_eq!(parallel.best, sequential.best, "budget {max_evaluations}");
        }
    }

    #[test]
    fn search_stats_count_lattice_and_bitop_work() {
        let ds = blocky_dataset();
        let b = binner();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let sample: Vec<&Tuple> = ds.iter().collect();
        let config =
            OptimizerConfig { bitop: BitOpConfig::no_pruning(), ..OptimizerConfig::default() };
        let result = optimize(&ba, 0, &b, &sample, &config).unwrap();
        // Every cell of the 10x10 demo grid is occupied.
        assert_eq!(result.stats.occupied_cells, 100);
        assert_eq!(result.stats.evaluations, result.trace.len() as u64);
        assert!(result.stats.candidates_enumerated > 0);
        // The search is output-sensitive: only the 9 block cells carry
        // group-0 tuples, so no evaluation may examine more than those —
        // a full-rescan miner would report 100 per evaluation.
        assert!(result.stats.cells_visited > 0);
        assert!(
            result.stats.cells_visited <= 9 * result.trace.len() as u64,
            "visited {} cells over {} evaluations",
            result.stats.cells_visited,
            result.trace.len()
        );
        // The word kernel ran: 10-wide rows pack into one word each.
        assert!(result.stats.smooth_words_processed >= 10 * result.trace.len() as u64);
    }

    #[test]
    fn zero_threads_rejected() {
        let b = binner();
        let ba = b.new_bin_array().unwrap();
        let bad = OptimizerConfig { threads: 0, ..OptimizerConfig::default() };
        assert!(matches!(optimize(&ba, 0, &b, &[], &bad), Err(ArcsError::InvalidConfig(_))));
    }

    #[test]
    fn optimizer_config_validates() {
        let ds = blocky_dataset();
        let b = binner();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let bad = OptimizerConfig { max_evaluations: 0, ..OptimizerConfig::default() };
        assert!(optimize(&ba, 0, &b, &[], &bad).is_err());
    }

    /// On data with heavy label noise the MDL formula alone would prefer a
    /// near-empty segmentation; the recall guard must keep the covering
    /// one (see DESIGN.md).
    #[test]
    fn recall_guard_rejects_degenerate_segmentations() {
        // The block plus one ultra-pure tiny cell elsewhere. Heavy noise
        // inside the block keeps its confidence moderate; the tiny cell is
        // pure. Without the guard the 1-cluster "pure speck" solution can
        // win on MDL.
        let mut ds = Vec::new();
        for ix in 0..10 {
            for iy in 0..10 {
                let x = ix as f64 + 0.5;
                let y = iy as f64 + 0.5;
                let in_block = (2..5).contains(&ix) && (2..5).contains(&iy);
                let pure_speck = ix == 8 && iy == 8;
                let (n_a, n_other) = if in_block {
                    (20, 12) // conf ~0.63: noisy
                } else if pure_speck {
                    (25, 0) // conf 1.0
                } else {
                    (0, 5)
                };
                for _ in 0..n_a {
                    ds.push(Tuple::new(vec![Value::Quant(x), Value::Quant(y), Value::Cat(0)]));
                }
                for _ in 0..n_other {
                    ds.push(Tuple::new(vec![Value::Quant(x), Value::Quant(y), Value::Cat(1)]));
                }
            }
        }
        let b = binner();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let sample: Vec<&Tuple> = ds.iter().collect();
        let config =
            OptimizerConfig { bitop: BitOpConfig::no_pruning(), ..OptimizerConfig::default() };
        let result = optimize(&ba, 0, &b, &sample, &config).unwrap();
        // The chosen segmentation must identify most of group A — i.e.
        // include the block, not just the speck.
        assert!(
            result.best.errors.recall() >= 0.5,
            "recall {} with clusters {:?}",
            result.best.errors.recall(),
            result.best.clusters
        );
        assert!(
            result.best.clusters.iter().any(|r| r.contains(3, 3)),
            "block not covered: {:?}",
            result.best.clusters
        );
    }

    /// When *no* candidate reaches the recall guard, the optimizer falls
    /// back to the best unguarded candidate instead of erroring.
    #[test]
    fn recall_guard_falls_back_when_nothing_qualifies() {
        // A 2x2 group-A block holding 120 of the group's 300 tuples, plus
        // six isolated single-cell group-A strays holding the other 180.
        // Pruning (1.5% of the 10x10 grid = 2 cells) always drops the
        // 1-cell stray clusters, so no candidate covers more than the
        // block's 40% of the group: nothing reaches the 0.5 recall guard
        // and the optimizer must fall back to the best unguarded
        // segmentation (the block).
        let mut ds = Vec::new();
        for (ix, iy) in [(2, 2), (2, 3), (3, 2), (3, 3)] {
            for _ in 0..30 {
                ds.push(Tuple::new(vec![
                    Value::Quant(ix as f64 + 0.5),
                    Value::Quant(iy as f64 + 0.5),
                    Value::Cat(0),
                ]));
            }
        }
        for (x, y) in [(7.5, 1.5), (1.5, 7.5), (8.5, 8.5), (0.5, 0.5), (5.5, 8.5), (8.5, 5.5)] {
            for _ in 0..30 {
                ds.push(Tuple::new(vec![Value::Quant(x), Value::Quant(y), Value::Cat(0)]));
            }
        }
        for _ in 0..100 {
            ds.push(Tuple::new(vec![Value::Quant(5.5), Value::Quant(5.5), Value::Cat(1)]));
        }
        let b = binner();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let sample: Vec<&Tuple> = ds.iter().collect();
        let config = OptimizerConfig {
            smoothing: crate::smooth::SmoothConfig::disabled(),
            bitop: BitOpConfig { min_area_fraction: 0.015, threads: 1 },
            ..OptimizerConfig::default()
        };
        let result = optimize(&ba, 0, &b, &sample, &config).unwrap();
        assert!(!result.best.clusters.is_empty());
        assert!(result.best.errors.recall() < MIN_GROUP_RECALL);
        assert!(result.best.clusters.iter().any(|r| r.contains(2, 2)));
    }

    #[test]
    fn wall_clock_budget_stops_the_search() {
        let ds = blocky_dataset();
        let b = binner();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let sample: Vec<&Tuple> = ds.iter().collect();
        for threads in [1, 4] {
            // An already-expired budget: at most one confidence loop entry
            // per support level is even attempted — in fact none, so the
            // optimizer reports NoSegmentation.
            let config = OptimizerConfig {
                max_wall_time: Some(std::time::Duration::ZERO),
                threads,
                ..OptimizerConfig::default()
            };
            let result = optimize(&ba, 0, &b, &sample, &config);
            assert!(matches!(result, Err(ArcsError::NoSegmentation)), "threads = {threads}");
            // A generous budget behaves like no budget.
            let config = OptimizerConfig {
                max_wall_time: Some(std::time::Duration::from_secs(3600)),
                bitop: BitOpConfig::no_pruning(),
                threads,
                ..OptimizerConfig::default()
            };
            let result = optimize(&ba, 0, &b, &sample, &config).unwrap();
            assert_eq!(result.best.clusters.len(), 1, "threads = {threads}");
        }
    }

    #[test]
    fn evaluate_reports_consistent_score() {
        let ds = blocky_dataset();
        let b = binner();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let config = OptimizerConfig::default();
        let eval = evaluate(&ba, 0, Thresholds::new(0.001, 0.5).unwrap(), &config).unwrap();
        assert_eq!(eval.score.n_clusters, eval.clusters.len());
        assert_eq!(eval.score.errors, eval.errors.total());
        assert_eq!(eval.errors.n_examined, ds.len());
    }

    #[test]
    fn raising_support_above_everything_yields_no_clusters() {
        let ds = blocky_dataset();
        let b = binner();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let config = OptimizerConfig::default();
        let eval = evaluate(&ba, 0, Thresholds::new(0.99, 0.0).unwrap(), &config).unwrap();
        assert!(eval.clusters.is_empty());
    }
}
