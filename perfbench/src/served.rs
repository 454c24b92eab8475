//! The daemon workloads.
//!
//! * `explore-wire`: two connections walk disjoint halves of a seeded
//!   shuffle of the tenant's Fig 10 lattice with clustered queries; no
//!   point repeats, so every query misses the result cache.
//! * `ingest-durable`: a durable tenant; one connection appends 1,000-row
//!   batches back to back while the other queries fresh lattice points.

use std::collections::BTreeMap;
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::sync::{Arc, Barrier, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use arcs_core::engine::Thresholds;
use arcs_core::jsonio::Json;
use arcs_core::serve::QueryResult;
use arcs_core::{BinArray, OccupancyIndex};
use arcs_daemon::store::{bin_batch, TenantMeta, TenantStore, CHECKPOINT_META_FILE};

use crate::common::*;
use crate::daemon::{self, query_request, result_bytes, Conn, DaemonProc, Oracle};
use crate::layers;
use crate::trace::Tracer;

/// Queries per connection after each daemon start, before the window.
/// Round 0's are also the fixed prefix the deterministic counters cover.
const WARMUP_QUERIES: usize = 64;
const WARMUP_APPENDS: usize = 8;
const ROWS_PER_BATCH: usize = 1_000;
/// Distinct append batches, cycled in order.
const BATCH_POOL: usize = 256;
/// Appends replayed in-process for the WAL/swap/checkpoint split.
const REPLAY_APPENDS: usize = 128;
/// Answers replayed layer by layer in the traced run.
const REPLAY_QUERIES: usize = 300;

type Answers = Vec<(Thresholds, QueryResult)>;

/// What one query connection did in one round.
struct QueryLog {
    conn: Conn,
    warm: Answers,
    answers: Answers,
    /// Latencies in ms of the untraced and the spanned window ops.
    untraced: Vec<f64>,
    traced: Vec<f64>,
    tracer: Tracer,
    cache_hits: u64,
}

/// Holds ingest's two streams to one query per append: neither stream
/// starts an op while it is a whole op ahead of the other, so the mix, and
/// with it CPU per append, does not move with their relative speed.
#[derive(Default)]
struct Lockstep {
    /// Ops each stream completed in the window, and whether it has left.
    state: Mutex<([u64; 2], [bool; 2])>,
    turn: Condvar,
}

/// Stream indices in a [`Lockstep`].
const APPENDS: usize = 0;
const QUERIES: usize = 1;

impl Lockstep {
    /// Waits until stream `me` may start its next op; false once the other
    /// stream has left the window.
    fn wait(&self, me: usize) -> bool {
        let mut st = self.state.lock().expect("lockstep lock");
        loop {
            let (done, left) = *st;
            if left[1 - me] {
                return false;
            }
            if done[me] <= done[1 - me] {
                return true;
            }
            st = self.turn.wait(st).expect("lockstep lock");
        }
    }

    fn done(&self, me: usize) {
        self.state.lock().expect("lockstep lock").0[me] += 1;
        self.turn.notify_all();
    }
}

/// Marks a stream as gone from its [`Lockstep`] however its thread ends,
/// so the other stream never waits on it.
struct Leave<'a>(Option<&'a Lockstep>, usize);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        if let Some(lockstep) = self.0 {
            // Runs while unwinding too: recover the guard rather than panic
            // (every update leaves the state valid).
            let mut st = lockstep
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.1[self.1] = true;
            lockstep.turn.notify_all();
        }
    }
}

/// How a client thread takes part in a round: the daemon's address, whether
/// the run is traced, the barrier that opens the window, the window's
/// length, and the thread's first op id.
struct Window<'a> {
    addr: &'a str,
    trace: bool,
    barrier: &'a Barrier,
    length: Duration,
    op_base: u64,
}

impl<'a> Window<'a> {
    /// Connection `c`'s part in round `r`: a `ROUNDS`th of `--seconds`, and
    /// op ids unique across rounds and connections.
    fn of(args: &Args, proc: &'a DaemonProc, barrier: &'a Barrier, r: usize, c: u64) -> Self {
        Window {
            addr: &proc.addr,
            trace: args.trace,
            barrier,
            length: args.window() / ROUNDS as u32,
            op_base: (r as u64) << 40 | c << 32,
        }
    }
}

/// Closed-loop clustered queries over `points` in order: warm-up, the
/// barrier, then the window, in step with the appends when `lockstep` is
/// set. Every other op is spanned in a traced run.
fn query_loop(
    w: Window,
    points: Vec<Thresholds>,
    lockstep: Option<&Lockstep>,
) -> Result<QueryLog, String> {
    let _leave = Leave(lockstep, QUERIES);
    let mut next = points.into_iter();
    let mut take = || {
        next.next()
            .ok_or_else(|| "lattice points exhausted".to_string())
    };
    // Every thread reaches the barrier, even one whose set-up failed.
    let prepared = (|| {
        let mut conn = Conn::open(w.addr, w.trace)?;
        let mut warm = Vec::with_capacity(WARMUP_QUERIES);
        for _ in 0..WARMUP_QUERIES {
            let t = take()?;
            warm.push((t, conn.query(&query_request(t), None)?.result));
        }
        Ok::<_, String>((conn, warm))
    })();
    w.barrier.wait();
    let (mut conn, warm) = prepared?;
    let mut answers = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::with_capacity(if w.trace { 1 << 15 } else { 0 });
    let mut cache_hits = 0;
    let opened = Instant::now();
    let mut op = w.op_base;
    while opened.elapsed() < w.length {
        if lockstep.is_some_and(|l| !l.wait(QUERIES)) {
            break;
        }
        op += 1;
        let t = take()?;
        let request = query_request(t);
        let spanned = w.trace && op.is_multiple_of(2);
        let start = Instant::now();
        let answer = conn.query(&request, spanned.then_some((&mut tracer, op)))?;
        let elapsed = ms(start.elapsed());
        if let Some(l) = lockstep {
            l.done(QUERIES);
        }
        if spanned {
            traced.push(elapsed)
        } else {
            untraced.push(elapsed)
        }
        cache_hits += answer.cache_hit as u64;
        answers.push((t, answer.result));
    }
    Ok(QueryLog {
        conn,
        warm,
        answers,
        untraced,
        traced,
        tracer,
        cache_hits,
    })
}

/// What the append connection did in one round.
struct AppendLog {
    /// `(epoch, rows)` of every acked append, warm-up included, in order.
    acks: Vec<(u64, u64)>,
    /// The daemon's WAL bytes after the warm-up appends.
    warm_wal_bytes: u64,
    /// Latencies in ms of the untraced and the spanned window appends.
    untraced: Vec<f64>,
    traced: Vec<f64>,
    tracer: Tracer,
    /// Checkpoint commits seen in the tenant directory (traced runs).
    checkpoints: u64,
}

/// Back-to-back appends of `batches` in order, in step with the query
/// stream. Every other append is spanned in a traced run.
fn append_loop(
    w: Window,
    batches: &[String],
    tenant_dir: &Path,
    lockstep: &Lockstep,
) -> Result<AppendLog, String> {
    let _leave = Leave(Some(lockstep), APPENDS);
    let meta_inode = || {
        std::fs::metadata(tenant_dir.join(CHECKPOINT_META_FILE))
            .map(|m| m.ino())
            .unwrap_or(0)
    };
    // Every thread reaches the barrier, even one whose set-up failed.
    let prepared = (|| {
        let mut conn = Conn::open(w.addr, w.trace)?;
        let acks = (0..WARMUP_APPENDS)
            .map(|i| conn.append(&batches[i % batches.len()], None))
            .collect::<Result<Vec<_>, _>>()?;
        // No checkpoint fires below 256 records, so this is the log itself.
        let wal_bytes = conn
            .stats()?
            .get("durability")
            .and_then(|d| d.get("wal_bytes"))
            .and_then(Json::as_u64)
            .ok_or("stats reply lacks durability.wal_bytes")?;
        Ok::<_, String>((conn, acks, wal_bytes))
    })();
    w.barrier.wait();
    let (mut conn, mut acks, warm_wal_bytes) = prepared?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::with_capacity(if w.trace { 1 << 13 } else { 0 });
    let (mut checkpoints, mut inode) = (0u64, meta_inode());
    let opened = Instant::now();
    let mut op = w.op_base;
    while opened.elapsed() < w.length {
        if !lockstep.wait(APPENDS) {
            break;
        }
        op += 1;
        let rows = &batches[acks.len() % batches.len()];
        let spanned = w.trace && op.is_multiple_of(2);
        let start = Instant::now();
        let ack = conn.append(rows, spanned.then_some((&mut tracer, op)))?;
        let elapsed = ms(start.elapsed());
        lockstep.done(APPENDS);
        if spanned {
            traced.push(elapsed)
        } else {
            untraced.push(elapsed)
        }
        acks.push(ack);
        if w.trace {
            // Each checkpoint commits by renaming a fresh meta file in.
            let now = meta_inode();
            checkpoints += (now != inode) as u64;
            inode = now;
        }
    }
    Ok(AppendLog {
        acks,
        warm_wal_bytes,
        untraced,
        traced,
        tracer,
        checkpoints,
    })
}

fn joined<T>(handle: thread::ScopedJoinHandle<'_, Result<T, String>>) -> Result<T, String> {
    handle
        .join()
        .map_err(|_| "client thread panicked".to_string())?
}

/// `(cache hit ratio, snapshot swaps, epoch)` from a `stats` reply.
fn stats_fields(stats: &Json) -> (f64, u64, u64) {
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
    let lookups = n("cache_hits") + n("cache_misses");
    let ratio = if lookups == 0 {
        0.0
    } else {
        n("cache_hits") as f64 / lookups as f64
    };
    (ratio, n("snapshot_swaps"), n("epoch"))
}

/// The end-to-end figures both daemon workloads share.
fn common_e2e(report: &mut Report, setups: &[f64], rss: &[f64], what: &str) {
    let txt: Vec<String> = setups.iter().map(|v| format!("{v:.3}")).collect();
    report.e2e(
        "setup_s",
        median(setups),
        "s",
        format!(
            "median of {ROUNDS} daemon starts to first open answered ({what}) [{}]",
            txt.join(", ")
        ),
    );
    report.e2e(
        "mem.peak_rss_mb",
        median(rss),
        "MB",
        "VmHWM of the daemon, median over rounds",
    );
}

/// Spans, latencies and answered points kept from every round for the
/// traced run's per-layer split.
#[derive(Default)]
struct TraceKeep {
    tracer: Tracer,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    points: Vec<Thresholds>,
}

impl TraceKeep {
    fn keep(&mut self, log: &mut QueryLog) {
        self.tracer.merge(std::mem::take(&mut log.tracer));
        self.untraced.extend_from_slice(&log.untraced);
        self.traced.extend_from_slice(&log.traced);
        let room = REPLAY_QUERIES.saturating_sub(self.points.len());
        self.points
            .extend(log.answers.iter().take(room).map(|(t, _)| *t));
    }

    /// Per-layer figures shared by both daemon workloads: the oracle's
    /// load and binning (the daemon's set-up work), the client-side split
    /// of the spanned queries, and the layer replay of answered points on
    /// an identical in-process array.
    fn layers(
        &self,
        values: &mut BTreeMap<&'static str, f64>,
        oracle: &Oracle,
        replay_at: &BinArray,
    ) -> Result<(), String> {
        values.insert("csv.load_ms", oracle.load_ms);
        values.insert("binner.bin_ms", oracle.bin_ms);
        values.insert(
            "binner.effective_workers",
            oracle.bin_stats.effective_workers as f64,
        );
        values.insert("exec.tasks_run", oracle.bin_stats.pool_tasks_run as f64);
        values.insert("exec.steals", oracle.bin_stats.pool_steals as f64);
        values.insert("index.build_ms", oracle.index_ms);

        let t = &self.tracer;
        let (encode, decode, serve) = (
            t.per_op_ms("client.encode"),
            t.per_op_ms("client.decode"),
            t.per_op_ms("daemon.serve"),
        );
        let total = t.per_op_ms("query");
        values.insert("client.encode_ms", median(&encode));
        values.insert("client.decode_ms", median(&decode));
        values.insert("daemon.serve_ms", median(&serve));
        values.insert("daemon.other_ms", median(&t.per_op_self_ms("wire")));
        let covered: Vec<f64> = (0..total.len())
            .map(|i| (encode[i] + decode[i] + serve[i]) / total[i])
            .collect();
        values.insert("trace.span_coverage", median(&covered));
        values.insert("read.p50_ms", median(&self.untraced));
        values.insert(
            "trace.overhead_share",
            median(&self.traced) / median(&self.untraced) - 1.0,
        );

        let server = oracle.server(replay_at.clone())?;
        let mut replay = Tracer::with_capacity(self.points.len() * 8);
        let (rules, bytes) = daemon::replay_queries(&server, oracle.gk, &self.points, &mut replay)?;
        for (metric, span) in [
            ("serve.query_ms", "serve.query"),
            ("engine.mine_ms", "engine.mine"),
            ("engine.rule_grid_ms", "engine.rule_grid"),
            ("smooth.ms", "smooth"),
            ("bitop.ms", "bitop"),
            ("protocol.encode_ms", "protocol.encode"),
        ] {
            values.insert(metric, median(&replay.per_op_ms(span)));
        }
        values.insert("engine.rules", median(&rules));
        values.insert("protocol.bytes", median(&bytes));
        Ok(())
    }
}

/// Rules and encoded result bytes over round 0's warm-up answers — the
/// same fixed lattice prefix in every run with this seed.
fn query_counters(report: &mut Report, warm: &[&Answers]) {
    let (rules, bytes) = warm
        .iter()
        .flat_map(|w| w.iter())
        .fold((0u64, 0u64), |(r, b), (_, res)| {
            (r + res.rules.len() as u64, b + result_bytes(res) as u64)
        });
    report.counters.insert("engine.rules".into(), rules);
    report.counters.insert("protocol.bytes".into(), bytes);
}

pub fn explore(args: &Args, report: &mut Report) -> Result<(), String> {
    let csv = args.work_dir.join("base.csv");
    write_base_csv(&csv, args.seed)?;
    let oracle = Oracle::build(&csv)?;
    let server = oracle.server(oracle.base.clone())?;
    let points = oracle.lattice_points(args.seed);
    report.env("lattice_points", points.len());

    let (mut setups, mut rss, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let mut keep = TraceKeep::default();
    let (mut cpu, mut hit_ratios, mut swaps, mut hits_seen) = (None, Vec::new(), 0u64, 0u64);
    for r in 0..ROUNDS {
        let proc = DaemonProc::spawn(args, &csv, None)?;
        setups.push(proc.setup.as_secs_f64());
        // Disjoint per round and per connection: no point repeats.
        let list = |c: usize| {
            points
                .iter()
                .skip(2 * r + c)
                .step_by(2 * ROUNDS)
                .copied()
                .collect::<Vec<_>>()
        };
        cpu.get_or_insert_with(CpuContext::open);
        let barrier = Barrier::new(3);
        let window = |c| Window::of(args, &proc, &barrier, r, c);
        let (l0, l1, (seconds, cpu_s)) = thread::scope(|s| {
            let (w0, w1) = (window(0), window(1));
            let h0 = s.spawn(|| query_loop(w0, list(0), None));
            let h1 = s.spawn(|| query_loop(w1, list(1), None));
            barrier.wait();
            let meter = Meter::start(vec!["self".into(), proc.pid()]);
            let (l0, l1) = (joined(h0), joined(h1));
            (l0, l1, meter.read())
        });
        let (mut l0, mut l1) = (l0?, l1?);
        let stats = l0.conn.stats()?;
        rss.push(proc.peak_rss_mb());
        proc.stop();

        // Correctness: every answer equals the oracle at epoch 0.
        for log in [&l0, &l1] {
            daemon::check_answers(&server, oracle.gk, &log.warm, report);
            daemon::check_answers(&server, oracle.gk, &log.answers, report);
        }
        let (ratio, swapped, epoch) = stats_fields(&stats);
        report.attempted += 1;
        if epoch != 0 {
            report.mismatch(format!("round {r}: final stats epoch {epoch}, expected 0"));
        }
        hit_ratios.push(ratio);
        swaps += swapped;
        hits_seen += l0.cache_hits + l1.cache_hits;
        if r == 0 {
            query_counters(report, &[&l0.warm, &l1.warm]);
        }
        rounds.push(Round {
            lat: [&l0.untraced[..], &l1.untraced[..]].concat(),
            traced: l0.traced.len() + l1.traced.len(),
            seconds,
            cpu_s,
        });
        keep.keep(&mut l0);
        keep.keep(&mut l1);
    }
    cpu.expect("ROUNDS > 0").close(report);

    let figures = OpFigures::of(&rounds);
    common_e2e(report, &setups, &rss, "CSV load + bin");
    report.e2e(
        "op.p50_ms",
        figures.p50,
        "ms",
        "query.p50_ms: clustered query round trip",
    );
    report.e2e(
        "op.cpu_ms",
        figures.cpu_ms,
        "ms",
        "CPU time per query, benchmark + daemon",
    );
    figures.detail(report, "query");
    report.detail("queries_per_s", figures.per_s, "1/s", "both connections");
    report.detail(
        "cache_hits_seen",
        hits_seen as f64,
        "count",
        "answers flagged cache_hit",
    );

    if args.trace {
        let mut values = BTreeMap::new();
        keep.layers(&mut values, &oracle, &oracle.base)?;
        values.insert("serve.cache_hit_ratio", median(&hit_ratios));
        values.insert("serve.snapshot_swaps", swaps as f64);
        keep.tracer
            .write(&args.work_dir.join("spans-window.jsonl"))
            .map_err(|e| e.to_string())?;
        layers::fill(report, &values);
    }
    Ok(())
}

pub fn ingest(args: &Args, report: &mut Report) -> Result<(), String> {
    let csv = args.work_dir.join("base.csv");
    write_base_csv(&csv, args.seed)?;
    let oracle = Oracle::build(&csv)?;
    let batches = append_batches(args.seed, BATCH_POOL, ROWS_PER_BATCH);
    let points = oracle.lattice_points(args.seed);
    report.env("lattice_points", points.len());
    report.env(
        "checkpoint_policy",
        "every-256-records,500ms-scan(daemon-defaults)",
    );
    report.env("rows_per_append", ROWS_PER_BATCH);
    report.env("queries_per_append", 1);

    // Binned deltas of the batch pool: the oracle's appends.
    let mut bin_ms = Vec::with_capacity(BATCH_POOL);
    let deltas: Vec<BinArray> = batches
        .iter()
        .map(|rows| {
            let start = Instant::now();
            let delta = bin_batch(&oracle.schema, &oracle.binner, rows);
            bin_ms.push(ms(start.elapsed()));
            delta.map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    let (mut setups, mut rss, mut rounds, mut read_rounds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut keep = TraceKeep::default();
    let (mut appends_untraced, mut appends_traced) = (Vec::new(), Vec::new());
    let (mut cpu, mut hit_ratios, mut swaps, mut checkpoints) = (None, Vec::new(), 0u64, 0u64);
    let mut last_array = oracle.base.clone();
    for r in 0..ROUNDS {
        let dir = args.work_dir.join(format!("data-{r}"));
        let proc = DaemonProc::spawn(args, &csv, Some(&dir))?;
        setups.push(proc.setup.as_secs_f64());
        let tenant_dir = dir.join(daemon::DATASET);
        let list: Vec<Thresholds> = points.iter().skip(r).step_by(ROUNDS).copied().collect();
        cpu.get_or_insert_with(CpuContext::open);
        let barrier = Barrier::new(3);
        let lockstep = Lockstep::default();
        let window = |c| Window::of(args, &proc, &barrier, r, c);
        let (appends, queries, (seconds, cpu_s)) = thread::scope(|s| {
            let (w0, w1) = (window(0), window(1));
            let a = s.spawn(|| append_loop(w0, &batches, &tenant_dir, &lockstep));
            let q = s.spawn(|| query_loop(w1, list, Some(&lockstep)));
            barrier.wait();
            let meter = Meter::start(vec!["self".into(), proc.pid()]);
            let (a, q) = (joined(a), joined(q));
            (a, q, meter.read())
        });
        let (mut appends, mut queries) = (appends?, queries?);
        let stats = queries.conn.stats()?;
        rss.push(proc.peak_rss_mb());
        proc.stop();

        // Correctness: acks are consecutive epochs, every answer equals
        // the oracle at its epoch, and the final epoch counts every ack.
        for (i, &(epoch, rows)) in appends.acks.iter().enumerate() {
            report.attempted += 1;
            if epoch != i as u64 + 1 || rows != ROWS_PER_BATCH as u64 {
                report.mismatch(format!(
                    "round {r}: append #{i} acked epoch {epoch} with {rows} rows"
                ));
            }
        }
        let mut by_epoch: BTreeMap<u64, Answers> = BTreeMap::new();
        for (t, res) in queries
            .warm
            .drain(..)
            .chain(queries.answers.iter().cloned())
        {
            by_epoch.entry(res.epoch).or_default().push((t, res));
        }
        let server = oracle.server(oracle.base.clone())?;
        for epoch in 0..=appends.acks.len() as u64 {
            if epoch > 0 {
                server
                    .append(&deltas[(epoch as usize - 1) % BATCH_POOL])
                    .map_err(|e| e.to_string())?;
            }
            if let Some(answers) = by_epoch.remove(&epoch) {
                daemon::check_answers(&server, oracle.gk, &answers, report);
            }
        }
        for (epoch, answers) in by_epoch {
            report.attempted += answers.len() as u64;
            report.mismatch(format!(
                "round {r}: {} answers at epoch {epoch}, past the last ack",
                answers.len()
            ));
        }
        let (ratio, swapped, epoch) = stats_fields(&stats);
        report.attempted += 1;
        if epoch != appends.acks.len() as u64 {
            report.mismatch(format!(
                "round {r}: final stats epoch {epoch}, expected {} appends acked",
                appends.acks.len()
            ));
        }
        hit_ratios.push(ratio);
        swaps += swapped;
        checkpoints += appends.checkpoints;
        last_array = (**server.snapshot().array()).clone();
        if r == 0 {
            // Rows the daemon acked and the WAL it wrote for the warm-up
            // appends: the same batches in every run with this seed.
            let rows = appends.acks[..WARMUP_APPENDS].iter().map(|a| a.1).sum();
            report.counters.insert("rows.appended".into(), rows);
            report
                .counters
                .insert("wal.bytes".into(), appends.warm_wal_bytes);
        }

        rounds.push(Round {
            lat: appends.untraced.clone(),
            traced: appends.traced.len(),
            seconds,
            cpu_s,
        });
        read_rounds.push(Round {
            lat: [&queries.untraced[..], &queries.traced[..]].concat(),
            seconds,
            ..Round::default()
        });
        appends_untraced.extend_from_slice(&appends.untraced);
        appends_traced.extend_from_slice(&appends.traced);
        keep.tracer.merge(std::mem::take(&mut appends.tracer));
        keep.keep(&mut queries);
    }
    cpu.expect("ROUNDS > 0").close(report);

    let figures = OpFigures::of(&rounds);
    common_e2e(report, &setups, &rss, "CSV load + bin + durable create");
    report.e2e(
        "op.p50_ms",
        figures.p50,
        "ms",
        "append.p50_ms: 1,000-row batch to durable ack",
    );
    report.e2e(
        "op.cpu_ms",
        figures.cpu_ms,
        "ms",
        "CPU time per append and its one paired query, benchmark + daemon",
    );
    figures.detail(report, "append");
    report.detail("appends_per_s", figures.per_s, "1/s", "one connection");
    report.detail(
        "rows_per_s",
        figures.per_s * ROWS_PER_BATCH as f64,
        "1/s",
        "rows appended to durable ack per second",
    );
    let reads = OpFigures::of(&read_rounds);
    report.detail("query.p50_ms", reads.p50, "ms", "beside the appends");
    report.detail(
        "query.tail_ms",
        reads.tail,
        "ms",
        format!("p{TAIL_PCT}, beside the appends"),
    );
    report.detail(
        "queries_per_s",
        reads.per_s,
        "1/s",
        "beside the appends, one per append",
    );

    if args.trace {
        let mut values = BTreeMap::new();
        // Queries are replayed on the last round's final array.
        keep.layers(&mut values, &oracle, &last_array)?;
        values.insert("serve.cache_hit_ratio", median(&hit_ratios));
        values.insert("serve.snapshot_swaps", swaps as f64);
        values.insert("store.bin_batch_ms", median(&bin_ms));
        let replay = replay_appends(args, &oracle, &batches, &deltas)?;
        values.insert("wal.append_ms", median(&replay.wal_ms));
        values.insert("serve.swap_ms", median(&replay.swap_ms));
        values.insert("index.build_ms", median(&replay.index_ms));
        let warm_rows = report.counters["rows.appended"];
        values.insert(
            "wal.bytes_per_row",
            report.counters["wal.bytes"] as f64 / warm_rows.max(1) as f64,
        );
        values.insert("store.checkpoint_ms", median(&replay.checkpoint_ms));
        values.insert("store.checkpoints", checkpoints as f64);
        // The append's own spans. The daemon reports no time for an
        // append, so its wire span (socket, frame parse, bin, WAL, swap)
        // stays whole and only the client spans count as covered.
        let t = &keep.tracer;
        let (encode, decode, wire, total) = (
            t.per_op_ms("append.encode"),
            t.per_op_ms("append.decode"),
            t.per_op_ms("append.wire"),
            t.per_op_ms("append"),
        );
        let client: Vec<f64> = encode.iter().zip(&decode).map(|(e, d)| e + d).collect();
        let covered: Vec<f64> = client.iter().zip(&total).map(|(c, t)| c / t).collect();
        values.insert("append.client_ms", median(&client));
        values.insert("append.wire_ms", median(&wire));
        values.insert("trace.span_coverage", median(&covered));
        // Overhead on the gated op, the append, rather than the queries.
        values.insert(
            "trace.overhead_share",
            median(&appends_traced) / median(&appends_untraced) - 1.0,
        );
        keep.tracer
            .write(&args.work_dir.join("spans-window.jsonl"))
            .map_err(|e| e.to_string())?;
        layers::fill(report, &values);
    }
    Ok(())
}

struct AppendReplay {
    wal_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    index_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
}

/// Drives a scratch `TenantStore` the way a durable tenant's append does:
/// WAL append + fsync, then the snapshot swap under the same lock, with a
/// checkpoint every 16 appends.
fn replay_appends(
    args: &Args,
    oracle: &Oracle,
    batches: &[String],
    deltas: &[BinArray],
) -> Result<AppendReplay, String> {
    let dir = args.work_dir.join("replay-store");
    let meta = TenantMeta {
        x: X_ATTR.into(),
        y: Y_ATTR.into(),
        criterion: CRITERION.into(),
        n_x_bins: BINS,
        n_y_bins: BINS,
        schema: oracle.schema.clone(),
    };
    let store = TenantStore::create(&dir, &meta, &oracle.base, None).map_err(|e| e.to_string())?;
    let server = oracle.server(oracle.base.clone())?;
    let mut out = AppendReplay {
        wal_ms: vec![],
        swap_ms: vec![],
        index_ms: vec![],
        checkpoint_ms: vec![],
    };
    for i in 0..REPLAY_APPENDS {
        let mut swap = Duration::ZERO;
        let start = Instant::now();
        store
            .append(batches[i % batches.len()].as_bytes(), None, || {
                let t = Instant::now();
                let epoch = server.append(&deltas[i % deltas.len()]);
                swap = t.elapsed();
                epoch
            })
            .map_err(|e| e.to_string())?;
        let total = start.elapsed();
        out.wal_ms.push(ms(total.saturating_sub(swap)));
        out.swap_ms.push(ms(swap));
        let snapshot = server.snapshot();
        let t = Instant::now();
        std::hint::black_box(OccupancyIndex::build(snapshot.array()));
        out.index_ms.push(ms(t.elapsed()));
        if (i + 1) % 16 == 0 {
            let t = Instant::now();
            store
                .checkpoint_with(1, || (snapshot.epoch(), Arc::clone(snapshot.array())))
                .map_err(|e| e.to_string())?;
            out.checkpoint_ms.push(ms(t.elapsed()));
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
