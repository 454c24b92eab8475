//! Fault-injection replay through the public session API
//! (`cargo test --features failpoints`).
//!
//! Each test arms a deterministic failpoint schedule and drives the
//! pipeline end to end, asserting either full recovery (bit-identical to
//! the fault-free run, with the recovery tallies visible in the session
//! report) or a clean typed-error exit — never an abort, never silent
//! data corruption.
#![cfg(feature = "failpoints")]

use std::sync::Mutex;

use arcs::core::faults;
use arcs::prelude::*;

/// Failpoint state is process-global; serialise every test in this binary.
static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::clear();
    g
}

fn f2_dataset(n: usize) -> Dataset {
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(41)).unwrap();
    gen.generate(n)
}

/// An `Arcs` with every thread knob pinned to `threads`.
fn arcs_with_threads(threads: usize) -> Arcs {
    Arcs::new(ArcsConfig {
        threads,
        optimizer: OptimizerConfig { threads, ..OptimizerConfig::default() },
        ..ArcsConfig::default()
    })
    .unwrap()
}

fn request() -> SegmentRequest {
    SegmentRequest::new("age", "salary", "group").group("A")
}

/// A panic in *every* binning shard worker, persistently: each shard
/// exhausts its retries, falls back to the sequential recompute, and the
/// merged array is still bit-identical to the fault-free run.
#[test]
fn persistent_shard_panics_recover_to_a_bit_identical_bin_array() {
    let _g = guard();
    let ds = f2_dataset(12_000);
    let clean = arcs_with_threads(4).open(&ds, request()).unwrap();
    assert_eq!(clean.report().counters.worker_panics, 0);

    faults::configure_from_spec("binner.shard=panic@1+").unwrap();
    let faulted = arcs_with_threads(4).open(&ds, request()).unwrap();
    faults::clear();

    assert_eq!(faulted.bin_array().checksum(), clean.bin_array().checksum());
    let c = &faulted.report().counters;
    assert!(c.worker_panics > 0, "no panic was recorded: {c:?}");
    assert!(
        c.sequential_fallbacks > 0,
        "persistent panics must exhaust retries into the fallback: {c:?}"
    );
}

/// A one-shot panic is absorbed by the first (bounded) retry; the
/// sequential fallback is never needed.
#[test]
fn a_transient_shard_panic_is_retried_without_fallback() {
    let _g = guard();
    let ds = f2_dataset(12_000);
    for threads in [1, 2] {
        faults::configure_from_spec("binner.shard=panic@1").unwrap();
        let session = arcs_with_threads(threads).open(&ds, request()).unwrap();
        faults::clear();
        let c = &session.report().counters;
        assert_eq!(c.worker_panics, 1, "{threads} threads: {c:?}");
        assert_eq!(c.shard_retries, 1, "{threads} threads: {c:?}");
        assert_eq!(c.sequential_fallbacks, 0, "{threads} threads: {c:?}");
    }
}

/// Typed faults (errors, simulated allocation failures) are deterministic,
/// so they propagate immediately as clean errors — no retry, no abort.
#[test]
fn typed_faults_surface_as_clean_errors() {
    let _g = guard();
    let ds = f2_dataset(12_000);

    faults::configure_from_spec("binner.shard=error@1").unwrap();
    let err = arcs_with_threads(2).open(&ds, request()).unwrap_err();
    assert!(matches!(err, ArcsError::FaultInjected { point: "binner.shard" }), "{err}");
    faults::clear();

    faults::configure_from_spec("engine.mine=error@1").unwrap();
    let mut session = arcs_with_threads(1).open(&ds, request()).unwrap();
    let err = session.segment().unwrap_err();
    assert!(matches!(err, ArcsError::FaultInjected { point: "engine.mine" }), "{err}");
    faults::clear();

    faults::configure_from_spec("smooth.pass=alloc@1").unwrap();
    let mut session = arcs_with_threads(1).open(&ds, request()).unwrap();
    let err = session.segment().unwrap_err();
    assert!(matches!(err, ArcsError::AllocationFailed { .. }), "{err}");
    faults::clear();

    faults::configure_from_spec("bitop.enumerate=alloc@1").unwrap();
    let mut session = arcs_with_threads(1).open(&ds, request()).unwrap();
    let err = session.segment().unwrap_err();
    assert!(matches!(err, ArcsError::AllocationFailed { .. }), "{err}");
    faults::clear();
}

/// A panicking evaluation worker in the threshold search: its chunk of
/// points is retried after the level joins, and the search result stays
/// bit-identical to the fault-free run.
#[test]
fn optimizer_worker_panics_recover_bit_identically() {
    let _g = guard();
    let ds = f2_dataset(12_000);
    let clean_seg = {
        let mut session = arcs_with_threads(4).open(&ds, request()).unwrap();
        session.segment().unwrap()
    };

    for threads in [1, 4] {
        faults::configure_from_spec("optimizer.evaluate=panic@1").unwrap();
        let mut session = arcs_with_threads(threads).open(&ds, request()).unwrap();
        let seg = session.segment().unwrap();
        assert!(
            faults::hits("optimizer.evaluate") > 0,
            "{threads} threads: failpoint was never reached"
        );
        faults::clear();

        assert_eq!(seg, clean_seg, "{threads} threads");
        let c = &session.report().counters;
        assert!(c.worker_panics >= 1, "{threads} threads: {c:?}");
        assert!(c.shard_retries >= 1, "{threads} threads: {c:?}");
    }
}

/// The pipeline's speck fixture: group A's only mass sits in one cell
/// of a 10 x 10 grid while the pruner demands clusters of four cells, so
/// the search finds nothing and only the degradation ladder (whose last
/// step disables pruning) segments it.
fn speck_session(threads: usize) -> Session {
    let schema = Schema::new(vec![
        Attribute::quantitative("x", 0.0, 10.0),
        Attribute::quantitative("y", 0.0, 10.0),
        Attribute::categorical("g", ["A", "other"]),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for _ in 0..30 {
        ds.push(&[Value::Quant(5.5), Value::Quant(5.5), Value::Cat(0)]).unwrap();
    }
    for ix in 0..10 {
        for iy in 0..10 {
            for _ in 0..3 {
                let (x, y) = (ix as f64 + 0.5, iy as f64 + 0.5);
                ds.push(&[Value::Quant(x), Value::Quant(y), Value::Cat(1)]).unwrap();
            }
        }
    }
    let optimizer = OptimizerConfig {
        threads,
        // Clusters need 4 cells (3.5% of the 10x10 grid).
        bitop: BitOpConfig { min_area_fraction: 0.035, threads: 1 },
        ..OptimizerConfig::default()
    };
    let config =
        ArcsConfig { n_x_bins: 10, n_y_bins: 10, threads, optimizer, ..ArcsConfig::default() };
    let arcs = Arcs::new(config).unwrap();
    arcs.open(&ds, SegmentRequest::new("x", "y", "g").group("A")).unwrap()
}

/// A panic absorbed by a search that then finds nothing still reaches
/// the report of the degraded segmentation, and the report counts the
/// search's work beside the ladder's: one search point plus three ladder
/// steps.
#[test]
fn a_degraded_segmentation_reports_the_failed_search() {
    let _g = guard();
    let mut session = speck_session(2);
    faults::configure_from_spec("optimizer.evaluate=panic@1").unwrap();
    let seg = session.segment().unwrap();
    faults::clear();

    assert!(seg.degraded, "{seg:?}");
    assert_eq!(seg.evaluations, 4, "{seg:?}");
    let c = &session.report().counters;
    assert!(c.worker_panics >= 1, "{c:?}");
    assert!(c.shard_retries >= 1, "{c:?}");
    assert_eq!(c.evaluations, 4, "{c:?}");
    assert!(c.candidates_enumerated > 0, "{c:?}");
}

/// The retry-accounting contract documented on `RecoveryStats`: the
/// binner and BitOp route recovery through the same
/// `ExecPool::run_isolated` entry, so an identical persistent fault
/// schedule produces identical tallies in every stage — per failing
/// unit, `1 + MAX_SHARD_RETRIES` worker panics, `MAX_SHARD_RETRIES`
/// retries, and one sequential fallback.
#[test]
fn binner_and_bitop_tally_identical_fault_schedules_identically() {
    use arcs::core::binner::{Binner, MAX_SHARD_RETRIES};
    use arcs::core::bitop;
    use arcs::core::grid::Grid;

    let _g = guard();
    // 12_000 rows / MIN_ROWS_PER_WORKER (4_096) → exactly 2 binning
    // shards at 2 threads; the 4-row grid splits into exactly 2 stripes.
    let ds = f2_dataset(12_000);
    let schema = ds.schema().clone();
    let binner = Binner::equi_width(&schema, "age", "salary", "group", 8, 8).unwrap();
    let grid = Grid::parse("####\n####\n####\n####\n").unwrap();
    let units = 2u64; // shards and stripes alike

    faults::configure_from_spec("binner.shard=panic@1+").unwrap();
    let (_, binner_stats) = binner.bin_rows_parallel_with_stats(ds.rows(), 2).unwrap();
    faults::clear();

    faults::configure_from_spec("bitop.stripe=panic@1+").unwrap();
    let (_, bitop_stats) = bitop::enumerate_candidates_parallel_with_stats(&grid, 2);
    faults::clear();

    for (stage, stats) in [("binner", &binner_stats), ("bitop", &bitop_stats)] {
        assert_eq!(
            stats.worker_panics,
            units * (1 + MAX_SHARD_RETRIES as u64),
            "{stage}: {stats:?}"
        );
        assert_eq!(stats.shard_retries, units * MAX_SHARD_RETRIES as u64, "{stage}: {stats:?}");
        assert_eq!(stats.sequential_fallbacks, units, "{stage}: {stats:?}");
    }
    assert_eq!(
        binner_stats.faults_only(),
        bitop_stats.faults_only(),
        "the two stages diverged on an identical schedule"
    );
}

/// Satellite of the PR 10 pool port: a fault schedule hitting every
/// pooled stage (binning shards, BitOp stripes, optimizer evaluations)
/// must not wedge the shared worker pool — recovery reproduces the
/// fault-free segmentation bit-identically at every thread count, and
/// the pool keeps serving fresh sessions afterwards.
#[test]
fn pool_survives_fault_schedules_across_all_stages() {
    let _g = guard();
    let ds = f2_dataset(12_000);
    let clean_seg = {
        let mut session = arcs_with_threads(4).open(&ds, request()).unwrap();
        session.segment().unwrap()
    };

    for threads in [1, 2, 4, 8] {
        faults::configure_from_spec(
            "binner.shard=panic@1+;bitop.stripe=panic@1+;optimizer.evaluate=panic@1",
        )
        .unwrap();
        let mut session = arcs_with_threads(threads).open(&ds, request()).unwrap();
        let seg = session.segment().unwrap();
        faults::clear();
        assert_eq!(seg, clean_seg, "faulted run diverged at {threads} threads");
        let c = &session.report().counters;
        assert!(c.worker_panics > 0, "{threads} threads: {c:?}");
    }

    // The pool absorbed every injected panic without losing a worker:
    // a fault-free pooled run still completes and matches.
    let mut session = arcs_with_threads(4).open(&ds, request()).unwrap();
    assert_eq!(session.segment().unwrap(), clean_seg);
    assert_eq!(session.report().counters.worker_panics, 0);
}

/// `engine.mine` guards the bitmap build of the shared query body: it
/// fires on a clustered serving query (typed, never retried, nothing
/// cached) and never on a mine-only one, which builds no bitmap.
#[test]
fn engine_mine_fires_on_clustered_serving_queries() {
    let _g = guard();
    let ds = f2_dataset(12_000);
    let session = arcs_with_threads(1).open(&ds, request()).unwrap();
    let server = Server::new(session.bin_array().clone(), ServeConfig::default()).unwrap();
    let t = Thresholds::new(0.001, 0.5).unwrap();
    let clustered = QueryRequest::new(0, t).cluster(ClusterSpec::default());

    faults::configure_from_spec("engine.mine=error@1+").unwrap();
    assert!(server.query(&QueryRequest::new(0, t)).is_ok());
    let err = server.query(&clustered).unwrap_err();
    assert!(matches!(err, ArcsError::FaultInjected { point: "engine.mine" }), "{err}");
    assert_eq!(faults::hits("engine.mine"), 1);
    faults::clear();

    let served = server.query(&clustered).unwrap();
    assert!(!served.cache_hit, "a failed query must not be cached");
    assert!(served.result.clusters.is_some());
}
