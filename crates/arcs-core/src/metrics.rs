//! Stage-level observability for the execution layer.
//!
//! The pipeline runs in well-defined stages (bin → threshold search →
//! decode); this module gives each a wall-clock timing, a set of
//! work counters that make the parallel execution layer's speedups
//! measurable, and a JSON rendering (through [`crate::jsonio`]) for
//! `arcs segment --stats json` and the benchmark harness.

use std::time::Duration;

use crate::jsonio::{obj, Json};

/// Resolves the default worker-thread count for the execution layer:
/// [`std::thread::available_parallelism`], or 1 when the platform cannot
/// report it.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The pipeline stages a [`StageTimings`] times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Streaming tuples into the `BinArray` (the only stage that touches
    /// the source data).
    Binning,
    /// The threshold search: mine → smooth → cluster → verify per lattice
    /// cell.
    Search,
    /// Decoding winning clusters back to attribute-range rules.
    Decode,
}

impl Stage {
    /// Stable lowercase stage name (used as the JSON key).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Binning => "binning",
            Stage::Search => "search",
            Stage::Decode => "decode",
        }
    }
}

/// Wall-clock time spent per pipeline stage. Repeated runs against one
/// session (e.g. `segment_all`) accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Time binning tuples into the `BinArray`.
    pub binning: Duration,
    /// Time in the threshold search (mine/smooth/cluster/verify).
    pub search: Duration,
    /// Time decoding clusters to rules.
    pub decode: Duration,
}

impl StageTimings {
    /// Sum of all stage timings.
    pub fn total(&self) -> Duration {
        self.binning + self.search + self.decode
    }

    /// Adds `elapsed` to the given stage's tally.
    pub fn record(&mut self, stage: Stage, elapsed: Duration) {
        let slot = match stage {
            Stage::Binning => &mut self.binning,
            Stage::Search => &mut self.search,
            Stage::Decode => &mut self.decode,
        };
        *slot += elapsed;
    }
}

/// Generates [`PipelineCounters`] from one table: each entry is a doc
/// comment, a field name and how [`PipelineCounters::merge`] combines it
/// (`sum`, or `max` for high-water marks). The struct, `merge`, and the
/// JSON object [`PipelineCounters::to_json`] (keys in table order) all
/// come from the table, so a new counter is declared once.
macro_rules! pipeline_counters {
    (@sum $a:expr, $b:expr) => { $a += $b };
    (@max $a:expr, $b:expr) => { $a = $a.max($b) };
    (
        $(#[$meta:meta])*
        pub struct PipelineCounters {
            $( $(#[$doc:meta])* $name:ident: $merge:ident, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct PipelineCounters {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl PipelineCounters {
            /// Adds `other`'s tallies into `self` (`max` for the
            /// high-water fields `pool_max_queue_depth` /
            /// `workers_effective`).
            pub fn merge(&mut self, other: &PipelineCounters) {
                $( pipeline_counters!(@$merge self.$name, other.$name); )*
            }

            /// The counters as one JSON object, keys in table order.
            pub fn to_json(&self) -> Json {
                obj(vec![$( (stringify!($name), Json::Num(self.$name as f64)) ),*])
            }
        }
    };
}

pipeline_counters! {
    /// Work counters accumulated across a session's pipeline runs. Parallel
    /// execution reports exactly the same values as sequential execution —
    /// the counters describe the work, not the schedule — except the
    /// delta-mining tallies (`cells_visited`, `remine_delta_hits`), which
    /// depend on how the search's threshold walk was chained across workers
    /// (see [`OptimizeResult::stats`](crate::optimizer::OptimizeResult::stats)),
    /// and the pool fields (`pool_*`, `workers_effective`), which describe
    /// the schedule itself.
    pub struct PipelineCounters {
        /// Tuples streamed into the `BinArray`.
        tuples_binned: sum,
        /// Occupied `BinArray` cells scanned while building threshold
        /// lattices.
        occupied_cells: sum,
        /// Rules emitted by the engine at the winning (or requested)
        /// thresholds.
        rules_emitted: sum,
        /// Candidate rectangles enumerated by BitOp across all evaluations.
        candidates_enumerated: sum,
        /// Residual candidates suppressed by the minimum-area prune when the
        /// greedy loop terminated.
        clusters_pruned: sum,
        /// `(support, confidence)` evaluations the threshold search ran.
        evaluations: sum,
        /// Indexed cells the output-sensitive re-miner examined (delta
        /// updates plus explicit re-mines). A full-rescan miner would report
        /// `nx · ny` per re-mine; this stays proportional to occupied and
        /// threshold-crossing cells.
        cells_visited: sum,
        /// Cells whose rule qualification actually flipped during delta
        /// re-mining.
        remine_delta_hits: sum,
        /// Packed 64-bit row words the word-parallel smoothing kernel
        /// processed.
        smooth_words_processed: sum,
        /// Verifier false positives of the winning segmentations.
        verifier_false_positives: sum,
        /// Verifier false negatives of the winning segmentations.
        verifier_false_negatives: sum,
        /// Parallel worker panics caught and isolated (0 in healthy runs).
        worker_panics: sum,
        /// Bounded retries of panicked shards/batches.
        shard_retries: sum,
        /// Shards/batches that exhausted retries and were recomputed on the
        /// sequential fallback path.
        sequential_fallbacks: sum,
        /// Bin-halving steps the resource governor took to fit the grid into
        /// the configured memory budget (0 when no coarsening was needed).
        budget_coarsening_steps: sum,
        /// Requests the serving core admitted past its in-flight gate.
        requests_admitted: sum,
        /// Requests the serving core shed with a typed `Overloaded` error
        /// because both the in-flight slots and the wait queue were full.
        requests_shed: sum,
        /// Requests that failed with a typed `DeadlineExceeded` error, either
        /// while queued for admission or between pipeline stages.
        requests_timed_out: sum,
        /// Request retries after an isolated worker panic in the serving core.
        request_retries: sum,
        /// Serving-core result-cache hits (a repeated `(epoch, thresholds,
        /// cluster config)` lattice point answered without re-mining).
        cache_hits: sum,
        /// Serving-core result-cache misses (fresh computations).
        cache_misses: sum,
        /// Copy-on-write snapshot swaps the serving core published (streaming
        /// appends merged into a new epoch).
        snapshot_swaps: sum,
        /// WAL records a replication primary shipped to standbys.
        repl_records_shipped: sum,
        /// Shipped WAL records a standby verified and applied.
        repl_records_applied: sum,
        /// Shipped batches a standby refused over a sequence gap or a failed
        /// checksum (each triggers a re-sync, never a partial apply).
        repl_gaps_refused: sum,
        /// Full checkpoint transfers a standby installed (bootstrap included).
        repl_resyncs: sum,
        /// Replication heartbeat rounds served or completed.
        repl_heartbeats: sum,
        /// Shard tasks executed through the persistent worker pool
        /// ([`ExecPool`](crate::exec::ExecPool)) across all parallel calls.
        pool_tasks_run: sum,
        /// Pool shard tasks executed by pool workers rather than the
        /// submitting thread (schedule-dependent; see
        /// [`PoolStats`](crate::exec::PoolStats)).
        pool_steals: sum,
        /// Deepest injector backlog observed at submit time across all pool
        /// calls (merged by maximum, not summed).
        pool_max_queue_depth: max,
        /// Largest effective worker count any parallel call actually used
        /// after input-size clamping (merged by maximum). When this stays at
        /// 1 despite `threads > 1`, every input was small enough to run as
        /// one unit.
        workers_effective: max,
    }
}

impl PipelineCounters {
    /// Folds panic-isolation and pool-scheduling tallies from one
    /// parallel call into the session counters.
    pub fn record_recovery(&mut self, recovery: &RecoveryStats) {
        self.worker_panics += recovery.worker_panics;
        self.shard_retries += recovery.shard_retries;
        self.sequential_fallbacks += recovery.sequential_fallbacks;
        self.pool_tasks_run += recovery.pool_tasks_run;
        self.pool_steals += recovery.pool_steals;
        self.pool_max_queue_depth = self.pool_max_queue_depth.max(recovery.pool_max_queue_depth);
        self.workers_effective = self.workers_effective.max(recovery.effective_workers);
    }
}

/// Tallies from panic isolation and pool scheduling in one parallel
/// call. The fault fields are all zero in healthy runs; the result data
/// is bit-identical either way.
///
/// # The retry-accounting contract
///
/// Every parallel stage (binner shards, stream chunks, BitOp stripes,
/// optimizer point chunks) runs its work units through one entry,
/// [`ExecPool::run_isolated`](crate::exec::ExecPool::run_isolated), at
/// every thread count and input size — a single unit on the calling
/// thread included — so identical fault schedules produce identical
/// tallies across stages:
///
/// 1. the *initial* caught panic increments `worker_panics` once;
/// 2. each bounded retry increments `shard_retries` **before** the
///    attempt runs, and `worker_panics` again if that attempt panics;
/// 3. exhausting [`MAX_SHARD_RETRIES`](crate::exec::MAX_SHARD_RETRIES)
///    increments `sequential_fallbacks` once for the fault-free
///    recomputation.
///
/// A unit that panics persistently therefore tallies
/// `(worker_panics, shard_retries, sequential_fallbacks)` =
/// `(1 + MAX_SHARD_RETRIES, MAX_SHARD_RETRIES, 1)`; a single transient
/// panic tallies `(1, 1, 0)`. `tests/faults.rs` asserts this contract
/// holds identically for binner rows, binner streams and BitOp under the
/// same schedule.
///
/// The pool fields (`pool_*`, `effective_workers`) describe the
/// *schedule*, not the work: they legitimately differ across thread
/// counts while results stay bit-identical. Cross-thread-count equality
/// tests should compare [`faults_only`](RecoveryStats::faults_only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Worker panics caught by the isolation layer.
    pub worker_panics: u64,
    /// Retry attempts for panicked work units.
    pub shard_retries: u64,
    /// Work units recomputed by the fallback after retries were
    /// exhausted.
    pub sequential_fallbacks: u64,
    /// Shard tasks this call executed through the persistent pool.
    pub pool_tasks_run: u64,
    /// Shards executed by pool workers rather than the submitting thread.
    pub pool_steals: u64,
    /// Deepest injector backlog observed while submitting (merge: max).
    pub pool_max_queue_depth: u64,
    /// Worker slots the call actually used after input-size clamping
    /// (merge: max). Stays 1 when the input was too small to split —
    /// the observable signal that a `threads > 1` request ran as one
    /// unit.
    pub effective_workers: u64,
}

impl RecoveryStats {
    /// Adds `other`'s tallies into `self` (`max` for the high-water
    /// fields `pool_max_queue_depth` / `effective_workers`).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.worker_panics += other.worker_panics;
        self.shard_retries += other.shard_retries;
        self.sequential_fallbacks += other.sequential_fallbacks;
        self.pool_tasks_run += other.pool_tasks_run;
        self.pool_steals += other.pool_steals;
        self.pool_max_queue_depth = self.pool_max_queue_depth.max(other.pool_max_queue_depth);
        self.effective_workers = self.effective_workers.max(other.effective_workers);
    }

    /// `true` when any fault was observed (pool scheduling fields do not
    /// count — they are populated in healthy runs too).
    pub fn any(&self) -> bool {
        self.worker_panics > 0 || self.shard_retries > 0 || self.sequential_fallbacks > 0
    }

    /// Copy with the schedule-dependent pool fields zeroed, keeping only
    /// the fault tallies — the projection to compare across thread
    /// counts, where the schedule legitimately differs but fault
    /// accounting must not.
    pub fn faults_only(&self) -> RecoveryStats {
        RecoveryStats {
            worker_panics: self.worker_panics,
            shard_retries: self.shard_retries,
            sequential_fallbacks: self.sequential_fallbacks,
            ..RecoveryStats::default()
        }
    }

    /// Folds one pool call's scheduling stats into this record.
    pub fn record_pool(&mut self, pool: &crate::exec::PoolStats) {
        self.pool_tasks_run += pool.tasks_run;
        self.pool_steals += pool.steals;
        self.pool_max_queue_depth = self.pool_max_queue_depth.max(pool.max_queue_depth);
        self.effective_workers = self.effective_workers.max(pool.effective_workers);
    }
}

/// The full observability report of one session: stage timings, work
/// counters, and the worker-thread count the execution layer used.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineReport {
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// Accumulated work counters.
    pub counters: PipelineCounters,
    /// Worker threads the execution layer was configured with.
    pub threads: usize,
}

/// Version of the JSON schema emitted by [`PipelineReport::to_json`];
/// bumped on any incompatible key change (CI validates against it).
/// Version 2 dropped `timings_ms.sampling` with the verification sample.
pub const REPORT_SCHEMA_VERSION: u32 = 2;

impl PipelineReport {
    /// Renders the report as a single-line JSON object. Keys and their
    /// order are stable under [`REPORT_SCHEMA_VERSION`]; timings are in
    /// milliseconds, rounded to the microsecond.
    pub fn to_json(&self) -> String {
        let ms = |d: Duration| Json::Num((d.as_secs_f64() * 1e6).round() / 1e3);
        let t = &self.timings;
        obj(vec![
            ("schema_version", Json::Num(REPORT_SCHEMA_VERSION as f64)),
            ("threads", Json::Num(self.threads as f64)),
            (
                "timings_ms",
                obj(vec![
                    ("binning", ms(t.binning)),
                    ("search", ms(t.search)),
                    ("decode", ms(t.decode)),
                    ("total", ms(t.total())),
                ]),
            ),
            ("counters", self.counters.to_json()),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_accumulate_and_total() {
        let mut t = StageTimings::default();
        t.record(Stage::Binning, Duration::from_millis(10));
        t.record(Stage::Binning, Duration::from_millis(5));
        t.record(Stage::Search, Duration::from_millis(20));
        assert_eq!(t.binning, Duration::from_millis(15));
        assert_eq!(t.total(), Duration::from_millis(35));
    }

    #[test]
    fn counters_merge() {
        let mut a = PipelineCounters {
            tuples_binned: 10,
            evaluations: 2,
            pool_max_queue_depth: 7,
            workers_effective: 1,
            ..Default::default()
        };
        let b = PipelineCounters {
            tuples_binned: 5,
            rules_emitted: 3,
            verifier_false_negatives: 1,
            pool_max_queue_depth: 4,
            workers_effective: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.tuples_binned, 15);
        assert_eq!(a.rules_emitted, 3);
        assert_eq!(a.evaluations, 2);
        assert_eq!(a.verifier_false_negatives, 1);
        // The two high-water fields merge by maximum, not by sum.
        assert_eq!(a.pool_max_queue_depth, 7);
        assert_eq!(a.workers_effective, 3);
    }

    #[test]
    fn json_contains_the_full_schema() {
        let report = PipelineReport {
            threads: 4,
            timings: StageTimings { binning: Duration::from_millis(12), ..StageTimings::default() },
            counters: PipelineCounters { tuples_binned: 100, ..Default::default() },
        };
        let json = report.to_json();
        let keys = [
            "\"schema_version\":2",
            "\"threads\":4",
            "\"timings_ms\"",
            "\"binning\":12",
            "\"search\"",
            "\"decode\"",
            "\"total\"",
            "\"counters\"",
            "\"tuples_binned\":100",
            "\"occupied_cells\"",
            "\"rules_emitted\"",
            "\"candidates_enumerated\"",
            "\"clusters_pruned\"",
            "\"evaluations\"",
            "\"cells_visited\"",
            "\"remine_delta_hits\"",
            "\"smooth_words_processed\"",
            "\"verifier_false_positives\"",
            "\"verifier_false_negatives\"",
            "\"worker_panics\"",
            "\"shard_retries\"",
            "\"sequential_fallbacks\"",
            "\"budget_coarsening_steps\"",
            "\"requests_admitted\"",
            "\"requests_shed\"",
            "\"requests_timed_out\"",
            "\"request_retries\"",
            "\"cache_hits\"",
            "\"cache_misses\"",
            "\"snapshot_swaps\"",
            "\"repl_records_shipped\"",
            "\"repl_records_applied\"",
            "\"repl_gaps_refused\"",
            "\"repl_resyncs\"",
            "\"repl_heartbeats\"",
            "\"pool_tasks_run\"",
            "\"pool_steals\"",
            "\"pool_max_queue_depth\"",
            "\"workers_effective\"",
        ];
        for key in keys {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The list is in emission order: pin the key order too.
        let positions: Vec<usize> = keys.iter().filter_map(|k| json.find(k)).collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "keys out of order in {json}");
        assert!(crate::jsonio::parse(&json).is_ok(), "not valid JSON: {json}");
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(Stage::Binning.name(), "binning");
        assert_eq!(Stage::Search.name(), "search");
        assert_eq!(Stage::Decode.name(), "decode");
    }
}
