//! The `arcsd` daemon: a TCP accept loop feeding a persistent
//! connection-handler pool.
//!
//! One thread accepts connections and enqueues them on a bounded queue;
//! `workers` persistent handler threads pop connections and serve frames
//! until the peer closes, sends `close`, or violates the protocol. A
//! handler owns at most one connection at a time, so `workers` bounds the
//! daemon's concurrent connections; further accepted sockets wait in the
//! queue (up to its bound, then are dropped — the TCP peer sees EOF and
//! can retry).
//!
//! Failure model: per-tenant back-pressure lives in each tenant's
//! [`AdmissionGate`] (overload and deadline errors travel back as typed
//! wire codes); daemon-level failures are injectable at the
//! `daemon.accept` and `daemon.frame-decode` failpoints — an accept fault
//! drops that one connection, a decode fault fails that one frame; the
//! daemon itself keeps serving in both cases.
//!
//! Connection hygiene: every handler reads frames under two clocks — an
//! **idle timeout** between frames and a **read (stall) timeout** once a
//! frame has started — so a stalled or slow-loris peer can never pin a
//! handler-pool worker forever. Both fire a typed `PROTOCOL` error frame
//! before the daemon hangs up.
//!
//! Durability: when the registry holds durable tenants, a background
//! checkpointer folds their WALs into checkpoints, and
//! [`DaemonHandle::shutdown`] is a graceful drain — stop accepting,
//! finish in-flight frames, then checkpoint every tenant so the next
//! start replays nothing.
//!
//! Replication: with [`DaemonConfig::replication`] set, the daemon comes
//! up as a read-only **standby** — a tailer thread streams the primary's
//! WAL records and applies them through the ordinary durable append
//! path, and the `append` op answers the typed `NOT_PRIMARY` code until
//! the daemon is promoted (the `promote` op, or `SIGHUP` to an
//! `arcs daemon` process). Every daemon, primary or standby, serves the
//! `repl.*` ops, so standbys can chain.
//!
//! [`AdmissionGate`]: arcs_core::serve::AdmissionGate

use std::collections::VecDeque;
use std::io::{self, BufWriter, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use arcs_core::faults;
use arcs_core::jsonio::Json;

use crate::protocol::{
    ok_response, parse_frame_header, stats_to_json, write_frame, write_query_response, FrameError,
    WireError, WireRequest, CODE_NOT_PRIMARY, CODE_NO_DATASET, CODE_UNKNOWN_DATASET, HEADER_LEN,
};
use crate::registry::{Registry, Tenant};
use crate::repl::{self, ReplContext, ReplicationConfig};

/// Poll granularity for timed socket reads and the checkpointer: bounds
/// how late a timeout or a shutdown request can be noticed.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Persistent connection-handler threads (= concurrent connections).
    pub workers: usize,
    /// Accepted connections allowed to wait for a free handler before
    /// the daemon starts dropping new ones.
    pub max_pending: usize,
    /// How long a connection may sit idle *between* frames before the
    /// daemon sends a typed timeout error and closes it (`None` = wait
    /// forever).
    pub idle_timeout: Option<Duration>,
    /// How long a started frame may stall *mid-read* before the daemon
    /// gives up on the peer (the slow-loris guard; `None` = forever).
    pub read_timeout: Option<Duration>,
    /// Background checkpointer threshold: fold a durable tenant's WAL
    /// into a checkpoint once this many records accumulate (0 disables
    /// the checkpointer; shutdown still checkpoints).
    pub checkpoint_every: u64,
    /// How often the background checkpointer scans the tenants.
    pub checkpoint_interval: Duration,
    /// When set, the daemon starts as a read-only standby tailing the
    /// configured primary; `None` is an ordinary writable primary.
    pub replication: Option<ReplicationConfig>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 4,
            max_pending: 64,
            idle_timeout: Some(Duration::from_secs(30)),
            read_timeout: Some(Duration::from_secs(10)),
            checkpoint_every: 256,
            checkpoint_interval: Duration::from_millis(500),
            replication: None,
        }
    }
}

/// Queue shared between the accept loop and the handler pool.
#[derive(Debug, Default)]
struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

impl ConnQueue {
    /// Enqueues `stream` unless the queue is full. A dropped stream is a
    /// clean close from the peer's point of view.
    fn push(&self, stream: TcpStream, bound: usize) {
        let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        if queue.len() < bound {
            queue.push_back(stream);
            drop(queue);
            self.ready.notify_one();
        }
    }

    /// Blocks until a connection is available or `running` goes false.
    fn pop(&self, running: &AtomicBool) -> Option<TcpStream> {
        let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(stream) = queue.pop_front() {
                return Some(stream);
            }
            if !running.load(Ordering::SeqCst) {
                return None;
            }
            queue = self.ready.wait(queue).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Drops every queued connection (the shutdown path: sockets that
    /// never reached a handler are closed, not served).
    fn clear(&self) {
        let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        queue.clear();
    }
}

/// A bound-but-not-yet-running daemon.
#[derive(Debug)]
pub struct Daemon {
    listener: TcpListener,
    registry: Arc<Registry>,
    config: DaemonConfig,
}

impl Daemon {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<Registry>,
        config: DaemonConfig,
    ) -> io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        Ok(Daemon { listener, registry, config })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the accept loop and handler pool; returns a handle that
    /// serves until [`DaemonHandle::shutdown`].
    pub fn spawn(self) -> io::Result<DaemonHandle> {
        let addr = self.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let conns = Arc::new(ConnQueue::default());
        let repl_ctx = Arc::new(match &self.config.replication {
            Some(replication) => ReplContext::standby(&replication.primary),
            None => ReplContext::primary(),
        });

        let mut handlers = Vec::with_capacity(self.config.workers.max(1));
        for i in 0..self.config.workers.max(1) {
            let conns = Arc::clone(&conns);
            let running = Arc::clone(&running);
            let registry = Arc::clone(&self.registry);
            let config = self.config.clone();
            let repl_ctx = Arc::clone(&repl_ctx);
            handlers.push(std::thread::Builder::new().name(format!("arcsd-handler-{i}")).spawn(
                move || {
                    while let Some(stream) = conns.pop(&running) {
                        // A dying connection must not take its handler
                        // thread down with it.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            handle_connection(stream, &registry, &running, &config, &repl_ctx);
                        }));
                    }
                },
            )?);
        }

        let accept = {
            let running = Arc::clone(&running);
            let conns = Arc::clone(&conns);
            let listener = self.listener;
            let max_pending = self.config.max_pending.max(1);
            std::thread::Builder::new().name("arcsd-accept".into()).spawn(move || {
                for stream in listener.incoming() {
                    if !running.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // An injected accept fault drops this one connection;
                    // the loop keeps serving.
                    if faults::check("daemon.accept").is_err() {
                        continue;
                    }
                    conns.push(stream, max_pending);
                }
            })?
        };

        let checkpointer = if self.config.checkpoint_every > 0 {
            let running = Arc::clone(&running);
            let registry = Arc::clone(&self.registry);
            let every = self.config.checkpoint_every;
            let interval = self.config.checkpoint_interval;
            Some(std::thread::Builder::new().name("arcsd-checkpoint".into()).spawn(move || {
                let mut last = Instant::now();
                while running.load(Ordering::SeqCst) {
                    std::thread::sleep(POLL_TICK);
                    if last.elapsed() < interval {
                        continue;
                    }
                    last = Instant::now();
                    for tenant in registry.tenants() {
                        if let Err(err) = tenant.maybe_checkpoint(every) {
                            eprintln!("arcsd checkpoint: {}: {err}", tenant.name());
                        }
                    }
                }
            })?)
        } else {
            None
        };

        let tailer = match self.config.replication.clone() {
            Some(replication) => Some(repl::spawn_tailer(
                replication,
                Arc::clone(&self.registry),
                Arc::clone(&repl_ctx),
                Arc::clone(&running),
            )?),
            None => None,
        };

        Ok(DaemonHandle {
            addr,
            running,
            conns,
            accept,
            handlers,
            checkpointer,
            tailer,
            repl_ctx,
            registry: self.registry,
        })
    }
}

/// A running daemon. Dropping the handle *without* calling
/// [`shutdown`](DaemonHandle::shutdown) detaches the threads.
#[derive(Debug)]
pub struct DaemonHandle {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    conns: Arc<ConnQueue>,
    accept: JoinHandle<()>,
    handlers: Vec<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
    tailer: Option<JoinHandle<()>>,
    repl_ctx: Arc<ReplContext>,
    registry: Arc<Registry>,
}

impl DaemonHandle {
    /// The address the daemon serves on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's replication state: role and counters.
    pub fn repl(&self) -> &ReplContext {
        &self.repl_ctx
    }

    /// Graceful drain: stop accepting, let every handler finish its
    /// in-flight frame (connections idle between frames are closed at
    /// the next poll tick), join all threads, then checkpoint every
    /// durable tenant so the WAL is folded and the next start replays
    /// nothing. Queued connections that never reached a handler are
    /// dropped, not served.
    pub fn shutdown(self) {
        self.running.store(false, Ordering::SeqCst);
        // Unblock the accept loop: `incoming()` has no timeout, so poke
        // it with a throwaway connection to our own port.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        self.conns.clear();
        self.conns.ready.notify_all();
        for handler in self.handlers {
            self.conns.ready.notify_all();
            let _ = handler.join();
        }
        if let Some(checkpointer) = self.checkpointer {
            let _ = checkpointer.join();
        }
        if let Some(tailer) = self.tailer {
            let _ = tailer.join();
        }
        // Final flush: one checkpoint per durable tenant with anything
        // outstanding in its WAL.
        for tenant in self.registry.tenants() {
            if let Err(err) = tenant.maybe_checkpoint(1) {
                eprintln!("arcsd shutdown checkpoint: {}: {err}", tenant.name());
            }
        }
    }
}

/// Why a timed frame read stopped without producing a frame.
enum ReadStop {
    /// Peer closed cleanly at a frame boundary.
    Closed,
    /// The daemon is draining; no new frame had started.
    Shutdown,
    /// No frame arrived within the idle budget.
    IdleTimeout(Duration),
    /// A started frame stalled mid-read past the stall budget.
    StallTimeout(Duration),
    /// The bytes violate the framing rules.
    Protocol(String),
    /// Hard socket error.
    Io,
}

/// Reads one frame directly off `stream` under the two connection
/// clocks: the idle budget runs until the frame's first byte, the stall
/// budget from then on. The stream must already be in `POLL_TICK`
/// read-timeout mode. Between frames the `running` flag is honoured, so
/// a draining daemon releases idle connections within one tick; a frame
/// already in progress is always finished (the drain guarantee).
fn read_frame_timed(
    stream: &TcpStream,
    running: &AtomicBool,
    idle: Option<Duration>,
    stall: Option<Duration>,
) -> Result<Vec<u8>, ReadStop> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_timed(stream, Some(running), &mut header, idle, stall)?;
    let len = parse_frame_header(&header).map_err(|err| match err {
        FrameError::Protocol(message) => ReadStop::Protocol(message),
        FrameError::Closed => ReadStop::Closed,
        FrameError::Io(_) => ReadStop::Io,
    })?;
    let mut payload = vec![0u8; len];
    // The frame has started: the stall clock governs the payload too,
    // and shutdown no longer interrupts.
    read_exact_timed(stream, None, &mut payload, stall, stall).map_err(|stop| match stop {
        ReadStop::Closed => ReadStop::Protocol("truncated frame payload".into()),
        ReadStop::IdleTimeout(limit) => ReadStop::StallTimeout(limit),
        other => other,
    })?;
    Ok(payload)
}

/// Fills `buf` from `stream`, polling every `POLL_TICK`. `first_budget`
/// bounds the wait for the first byte, `rest_budget` the gap between
/// subsequent bytes. With `running` set, a shutdown before any byte
/// arrives aborts the read.
fn read_exact_timed(
    stream: &TcpStream,
    running: Option<&AtomicBool>,
    buf: &mut [u8],
    first_budget: Option<Duration>,
    rest_budget: Option<Duration>,
) -> Result<(), ReadStop> {
    let mut filled = 0;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        if filled == 0 {
            if let Some(running) = running {
                if !running.load(Ordering::SeqCst) {
                    return Err(ReadStop::Shutdown);
                }
            }
        }
        match (&mut (&*stream)).read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Err(ReadStop::Closed),
            Ok(0) => {
                return Err(ReadStop::Protocol(format!(
                    "connection cut after {filled} of {} bytes",
                    buf.len()
                )))
            }
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(err)
                if matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                let budget = if filled == 0 { first_budget } else { rest_budget };
                if let Some(limit) = budget {
                    if last_progress.elapsed() >= limit {
                        return Err(if filled == 0 {
                            ReadStop::IdleTimeout(limit)
                        } else {
                            ReadStop::StallTimeout(limit)
                        });
                    }
                }
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(ReadStop::Io),
        }
    }
    Ok(())
}

/// Serves one connection until close / EOF / timeout / protocol
/// violation / daemon drain.
fn handle_connection(
    stream: TcpStream,
    registry: &Registry,
    running: &AtomicBool,
    config: &DaemonConfig,
    repl_ctx: &ReplContext,
) {
    let _ = stream.set_nodelay(true);
    // Short poll ticks make both connection clocks and the shutdown
    // drain observable without a reader thread per timer.
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = BufWriter::new(write_half);
    // The connection's default dataset, bound by `open`.
    let mut current: Option<Arc<Tenant>> = None;

    loop {
        let payload =
            match read_frame_timed(&stream, running, config.idle_timeout, config.read_timeout) {
                Ok(payload) => payload,
                Err(ReadStop::Closed | ReadStop::Shutdown | ReadStop::Io) => return,
                Err(ReadStop::IdleTimeout(limit)) => {
                    let message =
                        format!("idle timeout: no request within {}ms", limit.as_millis());
                    let _ = send(&mut writer, &WireError::protocol(message).to_json());
                    return;
                }
                Err(ReadStop::StallTimeout(limit)) => {
                    let message =
                        format!("read timeout: frame stalled mid-read for {}ms", limit.as_millis());
                    let _ = send(&mut writer, &WireError::protocol(message).to_json());
                    return;
                }
                Err(ReadStop::Protocol(message)) => {
                    // Best effort: tell the peer why before hanging up. The
                    // stream may already be unusable; either way we're done.
                    let _ = send(&mut writer, &WireError::protocol(message).to_json());
                    return;
                }
            };

        let (reply, closing) = serve_frame(&payload, registry, &mut current, repl_ctx);
        if write_frame(&mut writer, reply.as_bytes()).is_err() || closing {
            return;
        }
    }
}

/// Decodes and executes one frame, always producing the response text;
/// the flag is set when the request was `close`.
fn serve_frame(
    payload: &[u8],
    registry: &Registry,
    current: &mut Option<Arc<Tenant>>,
    repl_ctx: &ReplContext,
) -> (String, bool) {
    if let Err(err) = faults::check("daemon.frame-decode") {
        return (WireError::from_arcs(&err).to_json().to_string(), false);
    }
    let request = match decode_request(payload) {
        Ok(request) => request,
        Err(err) => return (err.to_json().to_string(), false),
    };
    let closing = request == WireRequest::Close;
    let reply = execute(request, registry, current, repl_ctx)
        .unwrap_or_else(|err| err.to_json().to_string());
    (reply, closing)
}

/// Bytes → [`WireRequest`], with every failure mode a [`CODE_PROTOCOL`]
/// error: invalid UTF-8, invalid JSON, or an invalid request shape.
fn decode_request(payload: &[u8]) -> Result<WireRequest, WireError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| WireError::protocol("payload is not UTF-8"))?;
    let json = arcs_core::jsonio::parse(text)
        .map_err(|err| WireError::protocol(format!("payload is not JSON: {err}")))?;
    WireRequest::from_json(&json)
}

/// Resolves the tenant a request addresses: its explicit `dataset` key,
/// else the connection's `open`-bound default.
fn resolve(
    dataset: &Option<String>,
    registry: &Registry,
    current: &Option<Arc<Tenant>>,
) -> Result<Arc<Tenant>, WireError> {
    match dataset {
        Some(name) => lookup(registry, name),
        None => current.clone().ok_or_else(|| {
            WireError::new(CODE_NO_DATASET, "no dataset: send `open` or name one explicitly")
        }),
    }
}

fn lookup(registry: &Registry, name: &str) -> Result<Arc<Tenant>, WireError> {
    match registry.get(name) {
        Ok(Some(tenant)) => Ok(tenant),
        Ok(None) => Err(WireError::new(
            CODE_UNKNOWN_DATASET,
            format!("dataset `{name}` is not served (have: {})", registry.names().join(", ")),
        )),
        Err(err) => Err(WireError::from_arcs(&err)),
    }
}

/// Executes a decoded request against the registry and returns the reply
/// text.
fn execute(
    request: WireRequest,
    registry: &Registry,
    current: &mut Option<Arc<Tenant>>,
    repl_ctx: &ReplContext,
) -> Result<String, WireError> {
    let body = match request {
        WireRequest::Open { dataset } => {
            let tenant = lookup(registry, &dataset)?;
            let snapshot = tenant.server().snapshot();
            let labels = tenant.labels().iter().map(|l| Json::Str(l.clone())).collect::<Vec<_>>();
            let body = ok_response(vec![
                ("dataset", Json::Str(dataset)),
                ("epoch", Json::Num(snapshot.epoch() as f64)),
                ("labels", Json::Arr(labels)),
                ("n_tuples", Json::Num(snapshot.array().n_tuples() as f64)),
            ]);
            *current = Some(tenant);
            body
        }
        WireRequest::Query { dataset, request } => {
            let tenant = resolve(&dataset, registry, current)?;
            let response = tenant
                .server()
                .query_unified(&request, tenant.labels())
                .map_err(|err| WireError::from_arcs(&err))?;
            // The one reply printed without a tree.
            let mut text = String::new();
            write_query_response(&response, &mut text);
            return Ok(text);
        }
        WireRequest::Append { dataset, rows } => {
            if repl_ctx.role.is_standby() {
                let primary = repl_ctx.role.primary_addr().unwrap_or_default();
                return Err(WireError::new(
                    CODE_NOT_PRIMARY,
                    format!(
                        "this daemon is a read-only standby; send writes to the primary \
                         at {primary}"
                    ),
                ));
            }
            let tenant = resolve(&dataset, registry, current)?;
            let (epoch, merged) =
                tenant.append_csv(&rows).map_err(|err| WireError::from_arcs(&err))?;
            ok_response(vec![
                ("epoch", Json::Num(epoch as f64)),
                ("rows", Json::Num(merged as f64)),
            ])
        }
        WireRequest::Stats { dataset } => {
            let tenant = resolve(&dataset, registry, current)?;
            let mut stats = stats_to_json(&tenant.server().stats());
            if let (Json::Obj(pairs), Some(store)) = (&mut stats, tenant.store()) {
                pairs.push(("durability".to_string(), repl::durability(store).to_json()));
            }
            ok_response(vec![("stats", stats)])
        }
        WireRequest::ReplSubscribe { dataset } => {
            let tenant = lookup(registry, &dataset)?;
            repl::handle_subscribe(&tenant)?
        }
        WireRequest::ReplRecords { dataset, start_seq, max } => {
            let tenant = lookup(registry, &dataset)?;
            repl::handle_records(&tenant, start_seq, max, &repl_ctx.metrics)?
        }
        WireRequest::ReplHeartbeat { dataset } => {
            let tenant = match &dataset {
                Some(name) => Some(lookup(registry, name)?),
                None => None,
            };
            repl::handle_heartbeat(registry, repl_ctx, tenant)?
        }
        WireRequest::Promote => {
            let was_standby = repl_ctx.role.promote();
            if was_standby {
                eprintln!("arcsd repl: promoted to primary by request; writes now accepted");
            }
            ok_response(vec![
                ("role", Json::Str("primary".to_string())),
                ("was_standby", Json::Bool(was_standby)),
            ])
        }
        WireRequest::Close => ok_response(vec![("bye", Json::Bool(true))]),
    };
    Ok(body.to_string())
}

fn send(writer: &mut impl io::Write, body: &Json) -> io::Result<()> {
    write_frame(writer, body.to_string().as_bytes())
}
