//! The `arcs daemon` process, its in-process oracle, and the wire client
//! the daemon workloads drive it with.

use std::io::{BufRead, BufReader, BufWriter};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use arcs_core::engine::Thresholds;
use arcs_core::jsonio::Json;
use arcs_core::request::{query_result_to_json, Request};
use arcs_core::serve::{ClusterSpec, QueryResult, ServeConfig, Server};
use arcs_core::{BinArray, Binner, OccupancyIndex, ThresholdLattice};
use arcs_daemon::protocol::{
    query_outcome_from_json, query_response_to_json, read_frame, split_response, write_frame,
    WireRequest,
};
use arcs_daemon::Client;
use arcs_data::{AttrKind, Schema};

use crate::common::*;
use crate::trace::Tracer;

/// Tenant key the daemon serves the base input under.
pub const DATASET: &str = "base";
/// Daemon connection handlers and admitted in-flight requests, pinned.
pub const WORKERS: usize = 2;
/// Safety net: the daemon retires by itself if the benchmark dies.
const MAX_SECONDS: &str = "170";

/// A running `arcs daemon` child. Dropping it kills and reaps the process.
pub struct DaemonProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn until the first `open` was answered.
    pub setup: Duration,
    pub data_dir: Option<PathBuf>,
}

impl DaemonProc {
    pub fn spawn(args: &Args, csv: &Path, data_dir: Option<&Path>) -> Result<DaemonProc, String> {
        let start = Instant::now();
        let mut cmd = Command::new(&args.arcs_bin);
        cmd.arg("daemon")
            .args(["--listen", "127.0.0.1:0"])
            .arg("--datasets")
            .arg(format!("{DATASET}={}", csv.display()))
            .args(["--x", X_ATTR, "--y", Y_ATTR, "--criterion", CRITERION])
            .args([
                "--bins",
                &BINS.to_string(),
                "--max-categories",
                &MAX_CATEGORIES.to_string(),
            ])
            .args([
                "--workers",
                &WORKERS.to_string(),
                "--max-inflight",
                &WORKERS.to_string(),
            ])
            .args(["--max-seconds", MAX_SECONDS]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", args.arcs_bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // The banner line appears once the accept loop is live.
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("arcs daemon exited before listening".into());
            }
            addr = line
                .trim()
                .strip_prefix("arcsd listening on ")
                .map(str::to_string);
        }
        let addr = addr.expect("loop exits with an address");
        let mut proc = DaemonProc {
            child,
            _stdout: stdout,
            addr,
            setup: Duration::ZERO,
            data_dir: data_dir.map(Path::to_path_buf),
        };
        let mut client = proc.connect()?;
        client.open(DATASET).map_err(|e| e.to_string())?;
        proc.setup = start.elapsed();
        Ok(proc)
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| e.to_string())
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.pid())
    }

    /// Kills the daemon, waits for it, and removes its data directory.
    pub fn stop(mut self) {
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = self.data_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The in-process twin of the daemon's tenant: the same CSV load and
/// binning, and a cache-less [`Server`] over the identical array.
pub struct Oracle {
    pub schema: Schema,
    pub binner: Binner,
    pub gk: u32,
    pub base: BinArray,
    pub load_ms: f64,
    pub bin_ms: f64,
    pub bin_stats: arcs_core::RecoveryStats,
    pub index_ms: f64,
}

impl Oracle {
    pub fn build(csv: &Path) -> Result<Oracle, String> {
        let start = Instant::now();
        let ds =
            arcs_data::csv::load_csv_inferred(csv, MAX_CATEGORIES).map_err(|e| e.to_string())?;
        let load_ms = ms(start.elapsed());
        let schema = ds.schema().clone();
        let labels = match &schema
            .attribute(schema.require(CRITERION).map_err(|e| e.to_string())?)
            .expect("criterion")
            .kind
        {
            AttrKind::Categorical { labels } => labels.clone(),
            _ => return Err("criterion is not categorical".into()),
        };
        let gk = labels
            .iter()
            .position(|l| l == GROUP)
            .ok_or("group A missing")? as u32;
        let binner = Binner::equi_width(&schema, X_ATTR, Y_ATTR, CRITERION, BINS, BINS)
            .map_err(|e| e.to_string())?;
        // The daemon's tenant bins at available_parallelism (not exposed).
        let threads = arcs_core::metrics::default_threads();
        let start = Instant::now();
        let (base, bin_stats) = binner
            .bin_rows_parallel_with_stats(ds.rows(), threads)
            .map_err(|e| e.to_string())?;
        let bin_ms = ms(start.elapsed());
        let start = Instant::now();
        std::hint::black_box(OccupancyIndex::build(&base));
        let index_ms = ms(start.elapsed());
        Ok(Oracle {
            schema,
            binner,
            gk,
            base,
            load_ms,
            bin_ms,
            bin_stats,
            index_ms,
        })
    }

    /// A server answering like the daemon's tenant, without a result cache.
    pub fn server(&self, array: BinArray) -> Result<Server, String> {
        let config = ServeConfig {
            cache_capacity: 0,
            max_inflight: WORKERS,
            ..ServeConfig::default()
        };
        Server::new(array, config).map_err(|e| e.to_string())
    }

    /// Every point of the group's Fig 10 threshold lattice, shuffled.
    pub fn lattice_points(&self, seed: u64) -> Vec<Thresholds> {
        let lattice = ThresholdLattice::build(&self.base, self.gk);
        let mut points = Vec::new();
        for (i, &s) in lattice.supports().iter().enumerate() {
            for &c in lattice.confidences_for(i) {
                // Backed off a hair, as the optimizer does, so the cells at
                // the threshold qualify.
                points.push(
                    Thresholds::new((s - 1e-12).max(0.0), (c - 1e-12).max(0.0))
                        .expect("lattice values lie in [0, 1]"),
                );
            }
        }
        shuffle(&mut points, seed);
        points
    }
}

/// The clustered query the daemon workloads send.
pub fn query_request(t: Thresholds) -> Request {
    Request::new()
        .group(GROUP)
        .thresholds(t)
        .cluster(ClusterSpec::default())
}

/// Encoded size of a result document, as the daemon writes it.
pub fn result_bytes(result: &QueryResult) -> usize {
    query_result_to_json(result).to_string().len()
}

/// One connection to the daemon. Untraced runs go through the library's
/// [`Client`]; traced runs use [`Wire`], which performs the same calls as
/// `Client::call` from the protocol module's public functions so each
/// step can carry a span.
pub enum Conn {
    Client(Client),
    Wire(Wire),
}

pub struct Answer {
    pub result: QueryResult,
    pub cache_hit: bool,
}

impl Conn {
    pub fn open(addr: &str, traced: bool) -> Result<Conn, String> {
        if traced {
            let mut wire = Wire::connect(addr)?;
            wire.call(&WireRequest::Open {
                dataset: DATASET.into(),
            })?;
            Ok(Conn::Wire(wire))
        } else {
            let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
            client.open(DATASET).map_err(|e| e.to_string())?;
            Ok(Conn::Client(client))
        }
    }

    /// A clustered query; with `span = Some((tracer, op))` its layers are
    /// recorded under one op id.
    pub fn query(
        &mut self,
        request: &Request,
        span: Option<(&mut Tracer, u64)>,
    ) -> Result<Answer, String> {
        match self {
            Conn::Client(c) => {
                let out = c.query(request).map_err(|e| e.to_string())?;
                Ok(Answer {
                    result: out.result,
                    cache_hit: out.cache_hit,
                })
            }
            Conn::Wire(w) => w.query(request, span),
        }
    }

    /// An append of header-less CSV rows; returns the acked `(epoch, rows)`.
    /// With `span = Some((tracer, op))` its steps are recorded under one op id.
    pub fn append(
        &mut self,
        rows: &str,
        span: Option<(&mut Tracer, u64)>,
    ) -> Result<(u64, u64), String> {
        match self {
            Conn::Client(c) => c.append(None, rows).map_err(|e| e.to_string()),
            Conn::Wire(w) => w.append(rows, span),
        }
    }

    pub fn stats(&mut self) -> Result<Json, String> {
        match self {
            Conn::Client(c) => c.stats(Some(DATASET)).map_err(|e| e.to_string()),
            Conn::Wire(w) => {
                let body = w.call(&WireRequest::Stats {
                    dataset: Some(DATASET.into()),
                })?;
                body.get("stats")
                    .cloned()
                    .ok_or_else(|| "stats reply lacks `stats`".into())
            }
        }
    }
}

/// [`Client`]'s request/response steps, one public protocol function at a
/// time.
pub struct Wire {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Wire {
    fn connect(addr: &str) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Wire {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    fn round_trip(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        write_frame(&mut self.writer, payload).map_err(|e| e.to_string())?;
        read_frame(&mut self.reader).map_err(|e| e.to_string())
    }

    fn decode(payload: &[u8]) -> Result<Json, String> {
        let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        let json = arcs_core::jsonio::parse(text).map_err(|e| e.to_string())?;
        split_response(json).map_err(|e| e.to_string())
    }

    fn call(&mut self, request: &WireRequest) -> Result<Json, String> {
        let reply = self.round_trip(request.to_json().to_string().as_bytes())?;
        Self::decode(&reply)
    }

    /// A query round trip, the same steps with or without spans. Spans:
    /// `query` (root) → `client.encode`, `wire` (write + read, with the
    /// daemon's reported serve time as its `daemon.serve` child),
    /// `client.decode`.
    fn query(
        &mut self,
        request: &Request,
        span: Option<(&mut Tracer, u64)>,
    ) -> Result<Answer, String> {
        let start = Instant::now();
        let request = WireRequest::Query {
            dataset: None,
            request: request.clone(),
        };
        let payload = request.to_json().to_string();
        let sent = Instant::now();
        let reply = self.round_trip(payload.as_bytes())?;
        let received = Instant::now();
        let body = Self::decode(&reply)?;
        let out = query_outcome_from_json(&body).map_err(|e| e.to_string())?;
        let end = Instant::now();
        if let Some((tracer, op)) = span {
            let root = tracer.record(op, "query", None, start, end);
            tracer.record(op, "client.encode", Some(root), start, sent);
            let wire = tracer.record(op, "wire", Some(root), sent, received);
            tracer.record(op, "client.decode", Some(root), received, end);
            let serve_us = body.get("elapsed_us").and_then(Json::as_f64).unwrap_or(0.0);
            let served = (sent + Duration::from_secs_f64(serve_us / 1e6)).min(received);
            tracer.record(op, "daemon.serve", Some(wire), sent, served);
        }
        Ok(Answer {
            result: out.result,
            cache_hit: out.cache_hit,
        })
    }

    /// An append round trip, the same steps as `Client::append`. Spans:
    /// `append` (root) → `append.encode`, `append.wire` (write + read; the
    /// daemon reports no time for an append), `append.decode`.
    fn append(
        &mut self,
        rows: &str,
        span: Option<(&mut Tracer, u64)>,
    ) -> Result<(u64, u64), String> {
        let start = Instant::now();
        let request = WireRequest::Append {
            dataset: None,
            rows: rows.to_string(),
        };
        let payload = request.to_json().to_string();
        let sent = Instant::now();
        let reply = self.round_trip(payload.as_bytes())?;
        let received = Instant::now();
        let body = Self::decode(&reply)?;
        let field = |k: &str| {
            body.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("append reply lacks `{k}`"))
        };
        let ack = (field("epoch")?, field("rows")?);
        let end = Instant::now();
        if let Some((tracer, op)) = span {
            let root = tracer.record(op, "append", None, start, end);
            tracer.record(op, "append.encode", Some(root), start, sent);
            tracer.record(op, "append.wire", Some(root), sent, received);
            tracer.record(op, "append.decode", Some(root), received, end);
        }
        Ok(ack)
    }
}

/// Replays answered queries on an in-process server over the same array,
/// one layer at a time: `Server::query`, then its mine, full-grid rescan,
/// smoothing and BitOp on their own, then the daemon's response encoding.
pub fn replay_queries(
    server: &Server,
    gk: u32,
    points: &[Thresholds],
    tracer: &mut Tracer,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let spec = ClusterSpec::default();
    let snapshot = server.snapshot();
    let mut rules = Vec::with_capacity(points.len());
    let mut bytes = Vec::with_capacity(points.len());
    for (op, &t) in (0u64..).zip(points) {
        let request = arcs_core::serve::QueryRequest::new(gk, t).cluster(spec.clone());
        let response = tracer
            .time(op, "serve.query", None, || server.query(&request))
            .map_err(|e| e.to_string())?;
        let (mined, _) = tracer.time(op, "engine.mine", None, || {
            arcs_core::engine::mine_rules_indexed(snapshot.index(), gk, t)
        });
        rules.push(mined.len() as f64);
        let grid = tracer
            .time(op, "engine.rule_grid", None, || {
                arcs_core::engine::rule_grid(snapshot.array(), gk, t)
            })
            .map_err(|e| e.to_string())?;
        let smoothed = tracer
            .time(op, "smooth", None, || {
                arcs_core::smooth::smooth(&grid, &spec.smoothing)
            })
            .map_err(|e| e.to_string())?;
        tracer
            .time(op, "bitop", None, || {
                arcs_core::bitop::cluster_with_stats(&smoothed, &spec.bitop)
            })
            .map_err(|e| e.to_string())?;
        let text = tracer.time(op, "protocol.encode", None, || {
            query_response_to_json(&response).to_string()
        });
        bytes.push(text.len() as f64);
    }
    Ok((rules, bytes))
}

/// Checks answers given at the server's current epoch against it.
pub fn check_answers(
    server: &Server,
    gk: u32,
    answers: &[(Thresholds, QueryResult)],
    report: &mut Report,
) {
    let spec = ClusterSpec::default();
    for (t, got) in answers {
        report.attempted += 1;
        let request = arcs_core::serve::QueryRequest::new(gk, *t).cluster(spec.clone());
        match server.query(&request) {
            Ok(want) if *want.result == *got && got.epoch == server.snapshot().epoch() => {}
            Ok(_) => report.mismatch(format!(
                "answer at {t:?} (epoch {}) differs from the oracle",
                got.epoch
            )),
            Err(e) => report.mismatch(format!("oracle failed at {t:?}: {e}")),
        }
    }
}
