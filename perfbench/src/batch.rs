//! `batch-1m`: one caller segmenting a 1M-tuple base input in a closed
//! loop — `Arcs::open` at 50×50 bins plus `Session::segment` for group A,
//! the paper's Fig 15 path. Each round draws its own input.

use std::collections::BTreeMap;
use std::time::Instant;

use arcs_core::bitop::cluster_with_stats;
use arcs_core::optimizer::optimize;
use arcs_core::smooth::smooth_with_stats;
use arcs_core::verify::verify_tuples;
use arcs_core::{
    Arcs, ArcsConfig, Binner, DeltaMiner, Grid, MdlScore, OccupancyIndex, SegmentRequest,
    Segmentation, ThresholdLattice,
};
use arcs_data::{Dataset, Tuple};

use crate::common::*;
use crate::layers;
use crate::trace::Tracer;

/// Jobs run after each round's set-up, before its window.
const WARMUP_JOBS: usize = 3;
/// Layer replays in the traced run; per-layer figures are their medians.
const REPLAYS: usize = 5;

fn config(threads: usize) -> ArcsConfig {
    let mut config = ArcsConfig {
        n_x_bins: BINS,
        n_y_bins: BINS,
        threads,
        ..ArcsConfig::default()
    };
    config.optimizer.threads = threads;
    config.optimizer.bitop.threads = threads;
    config.optimizer.max_wall_time = None;
    config
}

fn request() -> SegmentRequest {
    SegmentRequest::new(X_ATTR, Y_ATTR, CRITERION).group(GROUP)
}

fn job(arcs: &Arcs, ds: &Dataset) -> Result<(Segmentation, arcs_core::PipelineReport), String> {
    let mut session = arcs.open(ds, request()).map_err(|e| e.to_string())?;
    let seg = session.segment().map_err(|e| e.to_string())?;
    Ok((seg, *session.report()))
}

/// One job with its two calls spanned under op id `op`.
fn traced_job(
    arcs: &Arcs,
    ds: &Dataset,
    tracer: &mut Tracer,
    op: u64,
) -> Result<Segmentation, String> {
    let root = tracer.open(op, "job", None);
    let mut session = tracer
        .time(op, "arcs.open", Some(root), || arcs.open(ds, request()))
        .map_err(|e| e.to_string())?;
    let seg = tracer
        .time(op, "session.segment", Some(root), || session.segment())
        .map_err(|e| e.to_string())?;
    tracer.close(root);
    Ok(seg)
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let csv = args.work_dir.join("base.csv");
    let arcs = Arcs::new(config(PINNED_THREADS)).map_err(|e| e.to_string())?;
    let reference_arcs = Arcs::new(config(1)).map_err(|e| e.to_string())?;
    let mut first_counters = None;
    let check = |report: &mut Report, seg: &Segmentation, reference: &Segmentation| {
        report.attempted += 1;
        if seg != reference {
            report.mismatch("job: segmentation differs from the threads-1 reference");
        }
    };

    let mut loads = Vec::new();
    let mut rounds = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::with_capacity(4096);
    let mut ds = None;
    let mut cpu = None;
    let mut op = 0u64;
    for r in 0..ROUNDS {
        // Each round segments its own base input: the search's work depends
        // on the data (40 to 88 evaluations across seeds), so one input per
        // run would make a run's figures hinge on a single draw. Round 0's
        // is the seed's own.
        drop(ds.take());
        let seed = match r {
            0 => args.seed,
            _ => mix(args.seed.wrapping_add(r as u64)),
        };
        write_base_csv(&csv, seed)?;
        // Set-up: load the CSV the way `arcs segment` does.
        let start = Instant::now();
        let loaded =
            arcs_data::csv::load_csv_inferred(&csv, MAX_CATEGORIES).map_err(|e| e.to_string())?;
        loads.push(start.elapsed().as_secs_f64());
        let ds = ds.insert(loaded);
        // The threads-1 reference every job of the round must equal.
        let reference = job(&reference_arcs, ds)?.0;
        for _ in 0..WARMUP_JOBS {
            let (seg, pipeline) = job(&arcs, ds)?;
            check(report, &seg, &reference);
            first_counters.get_or_insert(pipeline.counters);
        }
        cpu.get_or_insert_with(CpuContext::open);
        let mut round = Round::default();
        let window = args.window() / ROUNDS as u32;
        let meter = Meter::start(vec!["self".into()]);
        let mut segs = Vec::new();
        while meter.elapsed() < window {
            op += 1;
            let spanned = args.trace && op.is_multiple_of(2);
            let start = Instant::now();
            let seg = if spanned {
                traced_job(&arcs, ds, &mut tracer, op)?
            } else {
                job(&arcs, ds)?.0
            };
            let elapsed = ms(start.elapsed());
            if spanned {
                traced.push(elapsed);
                round.traced += 1;
            } else {
                round.lat.push(elapsed);
            }
            segs.push(seg);
        }
        (round.seconds, round.cpu_s) = meter.read();
        rounds.push(round);
        // Checked after the window, outside the timed region.
        for seg in &segs {
            check(report, seg, &reference);
        }
    }
    let ds = ds.expect("ROUNDS > 0");
    cpu.expect("ROUNDS > 0").close(report);

    let figures = OpFigures::of(&rounds);
    let setup = median(&loads);
    let loads_txt: Vec<String> = loads.iter().map(|v| format!("{v:.3}")).collect();
    report.e2e(
        "setup_s",
        setup,
        "s",
        format!("median of {ROUNDS} CSV loads [{}]", loads_txt.join(", ")),
    );
    report.e2e(
        "mem.peak_rss_mb",
        peak_rss_mb("self"),
        "MB",
        "VmHWM of the benchmark process",
    );
    report.e2e(
        "op.p50_ms",
        figures.p50,
        "ms",
        "job.p50_ms: Arcs::open + Session::segment",
    );
    report.e2e(
        "op.cpu_ms",
        figures.cpu_ms,
        "ms",
        "CPU time per job, all threads",
    );
    figures.detail(report, "job");
    report.detail("jobs_per_s", figures.per_s, "1/s", "every window op");
    report.detail(
        "tuples_per_s",
        ds.len() as f64 * figures.per_s,
        "1/s",
        "tuples segmented per second",
    );

    // Deterministic work counters of one job on round 0's input (threads 2;
    // schedule-free ones only).
    if let Some(c) = first_counters {
        report
            .counters
            .insert("optimizer.evaluations".into(), c.evaluations);
        report
            .counters
            .insert("bitop.candidates".into(), c.candidates_enumerated);
        report
            .counters
            .insert("bitop.pruned".into(), c.clusters_pruned);
        report
            .counters
            .insert("smooth.words".into(), c.smooth_words_processed);
        report.counters.insert(
            "verify.tuples".into(),
            c.evaluations * arcs.config().sample_size.min(ds.len()) as u64,
        );
    }

    if args.trace {
        let mut values = replay(args, &ds, &arcs, report)?;
        values.insert("csv.load_ms", setup * 1e3);
        values.insert("trace.overhead_share", median(&traced) / figures.p50 - 1.0);
        tracer
            .write(&args.work_dir.join("spans-window.jsonl"))
            .map_err(|e| e.to_string())?;
        layers::fill(report, &values);
    }
    Ok(())
}

/// Replays a job layer by layer from the benchmark — binning, index,
/// lattice, the search, then every evaluated point of its trace
/// (re-mine → smooth → BitOp → verify → MDL) — and checks each replayed
/// evaluation equals the one the search recorded.
fn replay(
    args: &Args,
    ds: &Dataset,
    arcs: &Arcs,
    report: &mut Report,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let cfg = arcs.config().optimizer.clone();
    let schema = ds.schema();
    let gk = match &schema
        .attribute(schema.require(CRITERION).map_err(|e| e.to_string())?)
        .expect("criterion")
        .kind
    {
        arcs_data::AttrKind::Categorical { labels } => {
            labels.iter().position(|l| l == GROUP).expect("group A") as u32
        }
        _ => return Err("criterion is not categorical".into()),
    };
    let mut tracer = Tracer::with_capacity(REPLAYS * 512);
    let mut per_job: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |k: &'static str, v: f64| per_job.entry(k).or_default().push(v);
    for op in 0..REPLAYS as u64 {
        // Arcs::open bins with the same binner; its array must match the replay's.
        let session = arcs.open(ds, request()).map_err(|e| e.to_string())?;
        let root = tracer.open(op, "job", None);
        let binner = Binner::equi_width(schema, X_ATTR, Y_ATTR, CRITERION, BINS, BINS)
            .map_err(|e| e.to_string())?;
        let (array, recovery) = tracer
            .time(op, "binner.bin", Some(root), || {
                binner.bin_rows_parallel_with_stats(ds.rows(), PINNED_THREADS)
            })
            .map_err(|e| e.to_string())?;
        push(
            "binner.effective_workers",
            recovery.effective_workers as f64,
        );
        push("exec.tasks_run", recovery.pool_tasks_run as f64);
        push("exec.steals", recovery.pool_steals as f64);
        report.attempted += 1;
        if session.bin_array() != &array {
            report.mismatch("replayed binning differs from Arcs::open");
        }
        // The verification sample, drawn the way Arcs::open draws it.
        let sample: Vec<Tuple> = tracer
            .time(op, "sample", Some(root), || {
                let mut rng =
                    <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(arcs.config().seed);
                let k = arcs.config().sample_size.min(ds.len());
                arcs_data::sample::sample_rows(ds, k, &mut rng)
                    .map(|rows| rows.into_iter().cloned().collect())
            })
            .map_err(|e| e.to_string())?;
        let sample_refs: Vec<&Tuple> = sample.iter().collect();
        let index = tracer.time(op, "index.build", Some(root), || {
            OccupancyIndex::build(&array)
        });
        tracer.time(op, "optimizer.lattice", Some(root), || {
            ThresholdLattice::build(&array, gk)
        });
        let result = tracer
            .time(op, "optimizer.search", Some(root), || {
                optimize(&array, gk, &binner, &sample_refs, &cfg)
            })
            .map_err(|e| e.to_string())?;
        tracer.close(root);
        push("optimizer.evaluations", result.trace.len() as f64);

        // Point replay, on one sequential delta-mining chain with the
        // worker configuration the parallel search uses (BitOp threads 1).
        let point_cfg = arcs_core::BitOpConfig {
            threads: 1,
            ..cfg.bitop
        };
        let mut delta = DeltaMiner::new(&index, gk).map_err(|e| e.to_string())?;
        let mut seen: Vec<Grid> = Vec::new();
        let (mut dups, mut visited, mut words, mut cands, mut pruned, mut tuples) =
            (0, 0, 0, 0, 0, 0);
        let points = tracer.open(op, "points", None);
        for eval in &result.trace {
            let (v, _) = tracer.time(op, "engine.remine", Some(points), || {
                delta.update(&index, eval.thresholds)
            });
            visited += v;
            if seen.iter().any(|g| g == delta.grid()) {
                dups += 1;
            } else {
                seen.push(delta.grid().clone());
            }
            let (smoothed, sstats) = tracer
                .time(op, "smooth", Some(points), || {
                    smooth_with_stats(delta.grid(), &cfg.smoothing)
                })
                .map_err(|e| e.to_string())?;
            words += sstats.words_processed;
            let (clusters, cstats) = tracer
                .time(op, "bitop", Some(points), || {
                    cluster_with_stats(&smoothed, &point_cfg)
                })
                .map_err(|e| e.to_string())?;
            cands += cstats.candidates_enumerated;
            pruned += cstats.clusters_pruned;
            let errors = tracer.time(op, "verify", Some(points), || {
                verify_tuples(&clusters, &binner, sample_refs.iter().copied(), gk)
            });
            tuples += sample_refs.len() as u64;
            let score = tracer.time(op, "mdl", Some(points), || {
                MdlScore::compute(clusters.len(), errors.total(), cfg.mdl_weights)
            });
            report.attempted += 1;
            if clusters != eval.clusters || errors != eval.errors || score != eval.score {
                report.mismatch(format!(
                    "replayed evaluation at {:?} differs from the search trace",
                    eval.thresholds
                ));
            }
        }
        tracer.close(points);
        push(
            "optimizer.dup_grid_share",
            dups as f64 / result.trace.len().max(1) as f64,
        );
        push("engine.cells_visited", visited as f64);
        push("smooth.words", words as f64);
        push("bitop.candidates", cands as f64);
        push("bitop.pruned", pruned as f64);
        push("verify.tuples", tuples as f64);
    }
    tracer
        .write(&args.work_dir.join("spans-replay.jsonl"))
        .map_err(|e| e.to_string())?;

    let mut values: BTreeMap<&'static str, f64> =
        per_job.iter().map(|(k, v)| (*k, median(v))).collect();
    for (metric, span) in [
        ("binner.bin_ms", "binner.bin"),
        ("index.build_ms", "index.build"),
        ("optimizer.lattice_ms", "optimizer.lattice"),
        ("optimizer.search_ms", "optimizer.search"),
        ("engine.remine_ms", "engine.remine"),
        ("smooth.ms", "smooth"),
        ("bitop.ms", "bitop"),
        ("verify.ms", "verify"),
        ("mdl.ms", "mdl"),
    ] {
        values.insert(metric, median(&tracer.per_op_ms(span)));
    }
    values.insert("trace.span_coverage", median(&tracer.coverage("job")));
    Ok(values)
}
