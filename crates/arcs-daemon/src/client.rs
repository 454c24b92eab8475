//! A blocking `arcsd` client over one TCP connection.
//!
//! Wraps the frame codec into typed calls mirroring the wire ops. Every
//! daemon-side failure surfaces as [`ClientError::Wire`] carrying the
//! typed code, so callers (the CLI, tests) can branch on error class
//! without string matching.

use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use arcs_core::jsonio::Json;
use arcs_core::request::Request;

use crate::protocol::{
    read_frame, read_query_reply, split_response, write_frame, FrameError, QueryOutcome, WireError,
    WireRequest,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The daemon answered with a typed error frame.
    Wire(WireError),
    /// The daemon's bytes violated the protocol (or the connection died
    /// mid-frame).
    Protocol(String),
    /// A local socket error.
    Io(io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(err) => write!(f, "{err}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Io(err)
    }
}

impl ClientError {
    /// The typed wire code, when the daemon sent one.
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Wire(err) => Some(&err.code),
            _ => None,
        }
    }
}

/// First backoff step of a retrying client.
const BASE_BACKOFF: Duration = Duration::from_millis(25);

/// Backoff ceiling before jitter.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// Seed for the deterministic jitter.
const JITTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The sleep before retry number `attempt` (0-based): doubling from
/// [`BASE_BACKOFF`], capped at [`MAX_BACKOFF`], then jittered
/// deterministically into `[cap/2, cap]` so co-started clients don't
/// stampede in lockstep while runs stay reproducible.
fn backoff(attempt: u32) -> Duration {
    let doubled = BASE_BACKOFF.saturating_mul(1u32 << attempt.min(20));
    let capped = doubled.min(MAX_BACKOFF);
    let nanos = capped.as_nanos().min(u128::from(u64::MAX)) as u64;
    let half = nanos / 2;
    let jitter = if half == 0 { 0 } else { mix(attempt) % (half + 1) };
    Duration::from_nanos(half + jitter)
}

/// splitmix64 of `JITTER_SEED ^ attempt` — stateless, so the schedule is
/// a pure function of the attempt.
fn mix(attempt: u32) -> u64 {
    let mut z = JITTER_SEED.wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `true` for socket errors a fresh connect attempt can plausibly fix.
fn transient_connect_error(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

/// Metadata returned by `open`.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenInfo {
    /// The dataset key now bound as the connection default.
    pub dataset: String,
    /// Current snapshot epoch.
    pub epoch: u64,
    /// The criterion attribute's labels, in code order.
    pub labels: Vec<String>,
    /// Tuples in the current snapshot.
    pub n_tuples: u64,
}

/// One blocking connection to an `arcsd` daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Retries of `OVERLOADED` answers to idempotent calls (0 = none).
    retries: u32,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects, retrying transient failures up to `retries` times, and
    /// arms the returned client with the same number of retries. Without
    /// them (and with [`connect`](Client::connect)) a client never
    /// retries anything, which is what the deterministic tests rely on.
    ///
    /// Two failure classes are retried, both safe by construction:
    ///
    /// * **Transient connect errors** (refused / reset / aborted / timed
    ///   out) — no request was sent, so a retry cannot duplicate work.
    /// * **`OVERLOADED` responses** to idempotent calls (`open`, `query`,
    ///   `stats`) — the daemon *answered*, it just shed the request.
    ///   `append` is never retried: an ambiguous outcome must surface.
    ///
    /// The backoff doubles from 25 ms up to 1 s, then takes a
    /// deterministic half-to-full jitter.
    pub fn connect_with_retry(addr: impl ToSocketAddrs, retries: u32) -> Result<Self, ClientError> {
        let mut attempt = 0u32;
        loop {
            match TcpStream::connect(&addr) {
                Ok(stream) => {
                    let mut client = Self::from_stream(stream)?;
                    client.retries = retries;
                    return Ok(client);
                }
                Err(err) if attempt < retries && transient_connect_error(&err) => {
                    std::thread::sleep(backoff(attempt));
                    attempt += 1;
                }
                Err(err) => return Err(ClientError::Io(err)),
            }
        }
    }

    fn from_stream(stream: TcpStream) -> Result<Self, ClientError> {
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(read_half), writer: BufWriter::new(stream), retries: 0 })
    }

    /// One request/response round trip, the reply text decoded by `decode`
    /// ([`tree_reply`] for every op but `query`).
    fn call<T>(
        &mut self,
        request: &WireRequest,
        decode: fn(&str) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        write_frame(&mut self.writer, request.to_json().to_string().as_bytes())?;
        let payload = match read_frame(&mut self.reader) {
            Ok(payload) => payload,
            Err(FrameError::Closed) => {
                return Err(ClientError::Protocol("daemon closed the connection".into()))
            }
            Err(FrameError::Protocol(msg)) => return Err(ClientError::Protocol(msg)),
            Err(FrameError::Io(err)) => return Err(ClientError::Io(err)),
        };
        let text = std::str::from_utf8(&payload)
            .map_err(|_| ClientError::Protocol("response is not UTF-8".into()))?;
        decode(text)
    }

    /// [`call`](Client::call) for idempotent requests: with retries
    /// armed, retryable error frames (the daemon shedding load) are
    /// retried on the same connection with backoff.
    fn call_idempotent<T>(
        &mut self,
        request: &WireRequest,
        decode: fn(&str) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.call(request, decode) {
                Err(ClientError::Wire(err)) if attempt < self.retries && err.retryable() => {
                    std::thread::sleep(backoff(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Binds the connection's default dataset; returns its metadata.
    pub fn open(&mut self, dataset: &str) -> Result<OpenInfo, ClientError> {
        let request = WireRequest::Open { dataset: dataset.to_string() };
        let body = self.call_idempotent(&request, tree_reply)?;
        let field = |name: &str| {
            body.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol(format!("open response lacks `{name}`")))
        };
        let labels = match body.get("labels") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|item| item.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .unwrap_or_default(),
            _ => Vec::new(),
        };
        Ok(OpenInfo {
            dataset: dataset.to_string(),
            epoch: field("epoch")?,
            labels,
            n_tuples: field("n_tuples")?,
        })
    }

    /// Serves a unified [`Request`] against the connection's default
    /// dataset.
    pub fn query(&mut self, request: &Request) -> Result<QueryOutcome, ClientError> {
        self.query_on(None, request)
    }

    /// Serves a unified [`Request`] against an explicit dataset.
    pub fn query_on(
        &mut self,
        dataset: Option<&str>,
        request: &Request,
    ) -> Result<QueryOutcome, ClientError> {
        let request =
            WireRequest::Query { dataset: dataset.map(str::to_string), request: request.clone() };
        self.call_idempotent(&request, |text| read_query_reply(text).map_err(ClientError::Wire))
    }

    /// Merges header-less CSV `rows`; returns `(new epoch, rows merged)`.
    pub fn append(&mut self, dataset: Option<&str>, rows: &str) -> Result<(u64, u64), ClientError> {
        let request =
            WireRequest::Append { dataset: dataset.map(str::to_string), rows: rows.to_string() };
        let body = self.call(&request, tree_reply)?;
        let field = |name: &str| {
            body.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ClientError::Protocol(format!("append response lacks `{name}`")))
        };
        Ok((field("epoch")?, field("rows")?))
    }

    /// Fetches the dataset server's stats as the raw JSON document (the
    /// field names mirror [`ServerStats`]).
    ///
    /// [`ServerStats`]: arcs_core::serve::ServerStats
    pub fn stats(&mut self, dataset: Option<&str>) -> Result<Json, ClientError> {
        let body = self.call_idempotent(
            &WireRequest::Stats { dataset: dataset.map(str::to_string) },
            tree_reply,
        )?;
        body.get("stats")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("stats response lacks `stats`".into()))
    }

    /// Asks the daemon for a checkpoint transfer of `dataset` to
    /// bootstrap or re-sync a standby from. Returns the raw response
    /// body; decode it with [`crate::repl::parse_subscribe`].
    pub fn repl_subscribe(&mut self, dataset: &str) -> Result<Json, ClientError> {
        self.call_idempotent(
            &WireRequest::ReplSubscribe { dataset: dataset.to_string() },
            tree_reply,
        )
    }

    /// Fetches up to `max` shipped WAL records from `start_seq`. Returns
    /// the raw response body; decode it with
    /// [`crate::repl::parse_records`]. Idempotent by construction — the
    /// primary only reads its log.
    pub fn repl_records(
        &mut self,
        dataset: &str,
        start_seq: u64,
        max: u64,
    ) -> Result<Json, ClientError> {
        self.call_idempotent(
            &WireRequest::ReplRecords { dataset: dataset.to_string(), start_seq, max },
            tree_reply,
        )
    }

    /// Fetches the daemon's replication status: role, primary address,
    /// served datasets, counters, and (with a dataset named) that
    /// tenant's durability positions.
    pub fn repl_heartbeat(&mut self, dataset: Option<&str>) -> Result<Json, ClientError> {
        self.call_idempotent(
            &WireRequest::ReplHeartbeat { dataset: dataset.map(str::to_string) },
            tree_reply,
        )
    }

    /// Promotes a standby daemon to primary. Idempotent: promoting a
    /// primary is a no-op answering `was_standby: false`.
    pub fn promote(&mut self) -> Result<Json, ClientError> {
        self.call_idempotent(&WireRequest::Promote, tree_reply)
    }

    /// Says goodbye; the daemon closes the connection after responding.
    pub fn close(mut self) -> Result<(), ClientError> {
        self.call(&WireRequest::Close, tree_reply).map(|_| ())
    }
}

/// Parses a reply as a tree: the success body, or the typed error the
/// daemon sent.
fn tree_reply(text: &str) -> Result<Json, ClientError> {
    let json = arcs_core::jsonio::parse(text)
        .map_err(|err| ClientError::Protocol(format!("response is not JSON: {err}")))?;
    split_response(json).map_err(ClientError::Wire)
}
