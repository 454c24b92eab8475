//! The `arcsd` wire protocol: length-prefixed JSON frames.
//!
//! # Frame format (version 1)
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"AR"
//! 2       1     protocol version (currently 1)
//! 3       1     reserved (must be 0)
//! 4       4     payload length, u32 big-endian (<= MAX_FRAME)
//! 8       n     payload: one UTF-8 JSON document
//! ```
//!
//! A malformed header (bad magic, unknown version, non-zero reserved
//! byte, oversized length) or a connection that dies mid-frame is a
//! [`FrameError::Protocol`]; a connection closed cleanly *between* frames
//! is [`FrameError::Closed`]. Decoding never panics on arbitrary bytes.
//!
//! # Requests
//!
//! The payload of a request frame is `{"op": ...}` plus op-specific
//! fields. The `request` object of `query` is the canonical unified
//! [`Request`] JSON shape from [`arcs_core::request`] — the same schema
//! the library API serialises, so wire payloads and cache keys cannot
//! drift. Its `cluster` spec is
//! `{"smoothing":{"passes":P},"bitop":{"min_area_fraction":F}}`. Unknown
//! keys are ignored, so a spec that still names a setting which is now a
//! constant (the smoothing kernel, threshold or border mode, the BitOp
//! cell floor or cluster cap) decodes with that key dropped.
//!
//! | op       | fields | response |
//! |----------|--------|----------|
//! | `open`   | `dataset` | dataset metadata; binds the connection's default dataset |
//! | `query`  | `request`, optional `dataset` | the [`QueryResult`] + cache/retry bookkeeping |
//! | `append` | `rows` (header-less CSV), optional `dataset` | new epoch + rows merged |
//! | `stats`  | optional `dataset` | the server's [`ServerStats`] plus per-tenant durability figures |
//! | `close`  | — | goodbye frame, then the server closes the connection |
//! | `repl.subscribe` | `dataset` | replication bootstrap or re-sync: a checkpoint transfer (`tenant.json` plus the hex-armored checkpoint file) |
//! | `repl.records`   | `dataset`, `start_seq`, optional `max` | a batch of hex-armored WAL records from `start_seq`, or a re-sync signal |
//! | `repl.heartbeat` | optional `dataset` | role, primary address, and durability positions |
//! | `promote`        | — | flips a standby into a writable primary (idempotent on a primary) |
//!
//! # Responses
//!
//! Success: `{"ok": true, ...}`. Failure: `{"ok": false, "code": C,
//! "error": M}` where `C` is a stable error code — either an
//! [`ArcsError::code`] (mapped 1:1) or one of the daemon-level codes
//! [`CODE_PROTOCOL`], [`CODE_UNKNOWN_DATASET`], [`CODE_NO_DATASET`].
//!
//! A `query` reply is written from, and read into, the [`QueryResult`]
//! directly: [`write_query_response`] prints the frame text and
//! [`read_query_reply`] decodes it with a [`jsonio::Reader`], with no
//! [`Json`] tree on either side. The bytes are the ones
//! [`query_response_to_json`] prints, so the tree functions
//! ([`query_response_to_json`], [`split_response`],
//! [`query_outcome_from_json`]) remain as the reference the codec tests
//! compare against. Every other op's reply is a tree.
//!
//! The reply's `result` holds integers only: the mined array's `group`,
//! `n_tuples` and `group_total`, and each rule as `[x, y, count, total]`
//! ([`arcs_core::request::query_result_to_json`]). Both readers rebuild
//! every rule through [`BinnedRule::from_counts`], so a decoded result is
//! `==` to the daemon's by construction. A result in the earlier shape,
//! whose rules were objects of float measures, is a [`CODE_PROTOCOL`]
//! error to this reader, as this shape is to a reader of that one; the
//! frame version stays 1.
//!
//! [`QueryResult`]: arcs_core::serve::QueryResult
//! [`BinnedRule::from_counts`]: arcs_core::engine::BinnedRule::from_counts
//! [`ServerStats`]: arcs_core::serve::ServerStats
//! [`ArcsError::code`]: arcs_core::ArcsError::code

use std::io::{self, Read, Write};

use arcs_core::jsonio::{self, obj, write_number, Json, JsonError, Kind, Reader};
use arcs_core::request::{query_result_from_json, read_query_result, write_query_result, Request};
use arcs_core::serve::{QueryResponse, ServerStats};
use arcs_core::ArcsError;

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"AR";
/// The protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 8;
/// Largest accepted payload; larger lengths are a protocol error (and
/// guard the peer against allocation bombs).
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Error code for malformed frames, JSON, or requests.
pub const CODE_PROTOCOL: &str = "PROTOCOL";
/// Error code for a dataset name the daemon does not serve.
pub const CODE_UNKNOWN_DATASET: &str = "UNKNOWN_DATASET";
/// Error code for a request that names no dataset on a connection that
/// never sent `open`.
pub const CODE_NO_DATASET: &str = "NO_DATASET";
/// Error code for a write sent to a standby. The message names the
/// primary's address; the client must redirect, **never** retry here —
/// retrying against the standby can't succeed, and blind failover of a
/// non-idempotent append risks applying it twice.
pub const CODE_NOT_PRIMARY: &str = "NOT_PRIMARY";

/// Records per `repl.records` batch when the subscriber names no `max`.
pub const DEFAULT_REPL_BATCH: u64 = 256;

/// Codes a client may safely retry (with backoff) for *idempotent*
/// requests: the daemon answered but shed the work, so nothing was
/// partially applied. Part of the wire contract, like the codes
/// themselves.
pub const RETRYABLE_CODES: &[&str] = &["OVERLOADED"];

/// `true` when `code` is in [`RETRYABLE_CODES`].
pub fn retryable_code(code: &str) -> bool {
    RETRYABLE_CODES.contains(&code)
}

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The bytes on the wire violate the framing rules (bad magic or
    /// version, oversized length, or a connection cut mid-frame).
    Protocol(String),
    /// An I/O error other than EOF.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            FrameError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame (header + payload) and flushes.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let mut header = [0u8; HEADER_LEN];
    header[..2].copy_from_slice(&MAGIC);
    header[2] = VERSION;
    header[3] = 0;
    header[4..8].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    writer.write_all(&header)?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads exactly `buf.len()` bytes. `Ok(false)` means the reader was
/// already at EOF (no bytes read); an EOF after at least one byte is the
/// `UnexpectedEof` error.
fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("eof after {filled} of {} bytes", buf.len()),
                ))
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
    Ok(true)
}

/// Validates a frame header and returns the payload length. Shared by
/// [`read_frame`] and the daemon's timeout-aware reader, so the two
/// paths cannot drift on what a legal header is.
pub fn parse_frame_header(header: &[u8; HEADER_LEN]) -> Result<usize, FrameError> {
    if header[..2] != MAGIC {
        return Err(FrameError::Protocol(format!("bad magic {:02x}{:02x}", header[0], header[1])));
    }
    if header[2] != VERSION {
        return Err(FrameError::Protocol(format!("unsupported protocol version {}", header[2])));
    }
    if header[3] != 0 {
        return Err(FrameError::Protocol("non-zero reserved byte".into()));
    }
    let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    Ok(len)
}

/// Reads one frame's payload. See [`FrameError`] for the failure taxonomy;
/// this function never panics on arbitrary wire bytes.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    match read_exact_or_eof(reader, &mut header) {
        Ok(true) => {}
        Ok(false) => return Err(FrameError::Closed),
        Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => {
            return Err(FrameError::Protocol("truncated frame header".into()))
        }
        Err(err) => return Err(FrameError::Io(err)),
    }
    let len = parse_frame_header(&header)?;
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(reader, &mut payload) {
        Ok(true) => Ok(payload),
        Ok(false) if len == 0 => Ok(payload),
        Ok(false) => Err(FrameError::Protocol("truncated frame payload".into())),
        Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => {
            Err(FrameError::Protocol("truncated frame payload".into()))
        }
        Err(err) => Err(FrameError::Io(err)),
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Bind the connection's default dataset and return its metadata.
    Open {
        /// Dataset key as registered with the daemon.
        dataset: String,
    },
    /// Serve a unified [`Request`] against a dataset's current snapshot.
    Query {
        /// Explicit dataset, overriding the connection default.
        dataset: Option<String>,
        /// The canonical unified request.
        request: Request,
    },
    /// Merge header-less CSV rows as a copy-on-write snapshot append.
    Append {
        /// Explicit dataset, overriding the connection default.
        dataset: Option<String>,
        /// CSV rows in the dataset's schema, without a header line.
        rows: String,
    },
    /// Report the dataset server's stats.
    Stats {
        /// Explicit dataset, overriding the connection default.
        dataset: Option<String>,
    },
    /// A standby asking for a checkpoint transfer to bootstrap or
    /// re-sync from.
    ReplSubscribe {
        /// Dataset (tenant) to replicate.
        dataset: String,
    },
    /// Fetch a batch of WAL records for shipping to a standby.
    ReplRecords {
        /// Dataset (tenant) to replicate.
        dataset: String,
        /// First WAL sequence number wanted.
        start_seq: u64,
        /// Maximum records per batch.
        max: u64,
    },
    /// Replication liveness probe; also backs `arcs repl-status`.
    ReplHeartbeat {
        /// Explicit dataset for per-tenant positions (optional).
        dataset: Option<String>,
    },
    /// Promote a standby into a writable primary.
    Promote,
    /// Say goodbye; the server responds and closes the connection.
    Close,
}

impl WireRequest {
    /// Serialises to the canonical request JSON.
    pub fn to_json(&self) -> Json {
        match self {
            WireRequest::Open { dataset } => {
                obj(vec![("op", Json::Str("open".into())), ("dataset", Json::Str(dataset.clone()))])
            }
            WireRequest::Query { dataset, request } => {
                let mut pairs = vec![("op", Json::Str("query".into()))];
                if let Some(name) = dataset {
                    pairs.push(("dataset", Json::Str(name.clone())));
                }
                pairs.push(("request", request.to_json()));
                obj(pairs)
            }
            WireRequest::Append { dataset, rows } => {
                let mut pairs = vec![("op", Json::Str("append".into()))];
                if let Some(name) = dataset {
                    pairs.push(("dataset", Json::Str(name.clone())));
                }
                pairs.push(("rows", Json::Str(rows.clone())));
                obj(pairs)
            }
            WireRequest::Stats { dataset } => {
                let mut pairs = vec![("op", Json::Str("stats".into()))];
                if let Some(name) = dataset {
                    pairs.push(("dataset", Json::Str(name.clone())));
                }
                obj(pairs)
            }
            WireRequest::ReplSubscribe { dataset } => obj(vec![
                ("op", Json::Str("repl.subscribe".into())),
                ("dataset", Json::Str(dataset.clone())),
            ]),
            WireRequest::ReplRecords { dataset, start_seq, max } => obj(vec![
                ("op", Json::Str("repl.records".into())),
                ("dataset", Json::Str(dataset.clone())),
                ("start_seq", Json::Num(*start_seq as f64)),
                ("max", Json::Num(*max as f64)),
            ]),
            WireRequest::ReplHeartbeat { dataset } => {
                let mut pairs = vec![("op", Json::Str("repl.heartbeat".into()))];
                if let Some(name) = dataset {
                    pairs.push(("dataset", Json::Str(name.clone())));
                }
                obj(pairs)
            }
            WireRequest::Promote => obj(vec![("op", Json::Str("promote".into()))]),
            WireRequest::Close => obj(vec![("op", Json::Str("close".into()))]),
        }
    }

    /// Parses a request document. Any malformed shape is a typed
    /// [`WireError`] with [`CODE_PROTOCOL`]; this never panics.
    pub fn from_json(json: &Json) -> Result<Self, WireError> {
        let bad = |msg: &str| WireError::protocol(msg);
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("request needs a string `op`"))?;
        let dataset = match json.get("dataset") {
            None => None,
            Some(Json::Str(name)) => Some(name.clone()),
            Some(_) => return Err(bad("`dataset` must be a string")),
        };
        match op {
            "open" => Ok(WireRequest::Open {
                dataset: dataset.ok_or_else(|| bad("`open` needs a `dataset`"))?,
            }),
            "query" => {
                let doc = json.get("request").ok_or_else(|| bad("`query` needs a `request`"))?;
                let request = Request::from_json(doc)
                    .map_err(|err| WireError::new(CODE_PROTOCOL, format!("bad request: {err}")))?;
                Ok(WireRequest::Query { dataset, request })
            }
            "append" => {
                let rows = json
                    .get("rows")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("`append` needs string `rows`"))?;
                Ok(WireRequest::Append { dataset, rows: rows.to_string() })
            }
            "stats" => Ok(WireRequest::Stats { dataset }),
            "repl.subscribe" => Ok(WireRequest::ReplSubscribe {
                dataset: dataset.ok_or_else(|| bad("`repl.subscribe` needs a `dataset`"))?,
            }),
            "repl.records" => Ok(WireRequest::ReplRecords {
                dataset: dataset.ok_or_else(|| bad("`repl.records` needs a `dataset`"))?,
                start_seq: json
                    .get("start_seq")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("`repl.records` needs a numeric `start_seq`"))?,
                max: json.get("max").and_then(Json::as_u64).unwrap_or(DEFAULT_REPL_BATCH),
            }),
            "repl.heartbeat" => Ok(WireRequest::ReplHeartbeat { dataset }),
            "promote" => Ok(WireRequest::Promote),
            "close" => Ok(WireRequest::Close),
            other => Err(bad(&format!("unknown op `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A typed wire-level error: a stable code plus a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Stable error code (an [`ArcsError::code`] or a daemon-level code).
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    /// An error with an explicit code.
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        WireError { code: code.to_string(), message: message.into() }
    }

    /// A [`CODE_PROTOCOL`] error.
    pub fn protocol(message: impl Into<String>) -> Self {
        WireError::new(CODE_PROTOCOL, message)
    }

    /// Maps an [`ArcsError`] 1:1 onto its stable wire code.
    pub fn from_arcs(err: &ArcsError) -> Self {
        WireError { code: err.code().to_string(), message: err.to_string() }
    }

    /// Whether a client may retry the request that produced this error
    /// (idempotent requests only); see [`RETRYABLE_CODES`].
    pub fn retryable(&self) -> bool {
        retryable_code(&self.code)
    }

    /// Serialises to the `{"ok": false, ...}` response document.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("ok", Json::Bool(false)),
            ("code", Json::Str(self.code.clone())),
            ("error", Json::Str(self.message.clone())),
        ])
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// Malformed JSON in a peer's document is a [`CODE_PROTOCOL`] error.
impl From<JsonError> for WireError {
    fn from(err: JsonError) -> Self {
        WireError::protocol(err.to_string())
    }
}

/// Builds the success envelope `{"ok": true, ...fields}`.
pub fn ok_response(fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.extend(fields);
    obj(pairs)
}

/// Serialises a served [`QueryResponse`] (result + bookkeeping).
pub fn query_response_to_json(response: &QueryResponse) -> Json {
    ok_response(vec![
        ("result", arcs_core::request::query_result_to_json(&response.result)),
        ("cache_hit", Json::Bool(response.cache_hit)),
        ("retries", Json::Num(response.retries as f64)),
        ("elapsed_us", Json::Num(response.elapsed.as_micros() as f64)),
    ])
}

/// Prints a served [`QueryResponse`] as frame text: the bytes of
/// `query_response_to_json(response).to_string()`, written without the
/// tree.
pub fn write_query_response(response: &QueryResponse, out: &mut String) {
    out.push_str("{\"ok\":true,\"result\":");
    write_query_result(&response.result, out);
    out.push_str(",\"cache_hit\":");
    out.push_str(if response.cache_hit { "true" } else { "false" });
    out.push_str(",\"retries\":");
    write_number(response.retries as f64, out);
    out.push_str(",\"elapsed_us\":");
    write_number(response.elapsed.as_micros() as f64, out);
    out.push('}');
}

/// Serialises [`ServerStats`] under stable key names (one per field).
pub fn stats_to_json(stats: &ServerStats) -> Json {
    obj(vec![
        ("epoch", Json::Num(stats.epoch as f64)),
        ("inflight", Json::Num(stats.inflight as f64)),
        ("queued", Json::Num(stats.queued as f64)),
        ("admitted", Json::Num(stats.admitted as f64)),
        ("shed", Json::Num(stats.shed as f64)),
        ("timed_out", Json::Num(stats.timed_out as f64)),
        ("completed", Json::Num(stats.completed as f64)),
        ("retries", Json::Num(stats.retries as f64)),
        ("worker_panics", Json::Num(stats.worker_panics as f64)),
        ("cache_hits", Json::Num(stats.cache_hits as f64)),
        ("cache_misses", Json::Num(stats.cache_misses as f64)),
        ("cache_len", Json::Num(stats.cache_len as f64)),
        ("snapshot_swaps", Json::Num(stats.snapshot_swaps as f64)),
    ])
}

/// Per-tenant durability figures reported under the `durability` key of
/// a `stats` response (absent for non-durable tenants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Sequence number of the last durably appended WAL record.
    pub last_wal_seq: u64,
    /// Epoch of the last committed checkpoint.
    pub checkpoint_epoch: u64,
    /// `last_seq` of the last committed checkpoint.
    pub checkpoint_seq: u64,
    /// WAL bytes on disk since that checkpoint (header included).
    pub wal_bytes: u64,
}

impl DurabilityStats {
    /// Serialises under stable key names.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("last_wal_seq", Json::Num(self.last_wal_seq as f64)),
            ("checkpoint_epoch", Json::Num(self.checkpoint_epoch as f64)),
            ("checkpoint_seq", Json::Num(self.checkpoint_seq as f64)),
            ("wal_bytes", Json::Num(self.wal_bytes as f64)),
        ])
    }

    /// Decodes the `durability` object of a stats response.
    pub fn from_json(json: &Json) -> Result<Self, WireError> {
        let field = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| WireError::protocol(format!("durability lacks numeric `{key}`")))
        };
        Ok(DurabilityStats {
            last_wal_seq: field("last_wal_seq")?,
            checkpoint_epoch: field("checkpoint_epoch")?,
            checkpoint_seq: field("checkpoint_seq")?,
            wal_bytes: field("wal_bytes")?,
        })
    }
}

/// Splits a response document into `Ok(success body)` or the typed
/// [`WireError`] the peer sent. A document without a boolean `ok`, or a
/// failure without a code, is itself a [`CODE_PROTOCOL`] error.
pub fn split_response(json: Json) -> Result<Json, WireError> {
    let text = |key| json.get(key).and_then(Json::as_str);
    match reply_error(json.get("ok").and_then(Json::as_bool), text("code"), text("error")) {
        None => Ok(json),
        Some(err) => Err(err),
    }
}

/// The error a reply stands for, given its `ok`, `code` and `error`
/// members (each `None` when absent or of the wrong kind); `None` for a
/// success.
fn reply_error(ok: Option<bool>, code: Option<&str>, error: Option<&str>) -> Option<WireError> {
    match ok {
        Some(true) => None,
        Some(false) => Some(WireError {
            code: code.unwrap_or(CODE_PROTOCOL).to_string(),
            message: error.unwrap_or("peer sent a failure without a message").to_string(),
        }),
        None => Some(WireError::protocol("response lacks a boolean `ok`")),
    }
}

/// A decoded query response: the result plus serving bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The query result (bit-identical to the serving core's, since both
    /// build each rule from the same counts with
    /// [`BinnedRule::from_counts`](arcs_core::engine::BinnedRule::from_counts)).
    pub result: arcs_core::serve::QueryResult,
    /// Whether the daemon's result cache answered.
    pub cache_hit: bool,
    /// Panic-isolation retries the request needed.
    pub retries: u32,
}

/// Decodes a successful query response body.
pub fn query_outcome_from_json(json: &Json) -> Result<QueryOutcome, WireError> {
    let doc =
        json.get("result").ok_or_else(|| WireError::protocol("query response lacks `result`"))?;
    let result = query_result_from_json(doc).map_err(bad_result)?;
    let cache_hit = json.get("cache_hit").and_then(Json::as_bool).unwrap_or(false);
    let retries = decode_retries(json.get("retries").and_then(Json::as_f64))?;
    Ok(QueryOutcome { result, cache_hit, retries })
}

fn bad_result(err: ArcsError) -> WireError {
    WireError::protocol(format!("bad query result: {err}"))
}

/// The `retries` member as both decoders accept it: absent or not a
/// non-negative integer reads as 0, one past `u32::MAX` is an error.
fn decode_retries(n: Option<f64>) -> Result<u32, WireError> {
    match n.and_then(jsonio::exact_u64) {
        None => Ok(0),
        Some(n) => u32::try_from(n)
            .map_err(|_| WireError::protocol(format!("`retries` {n} does not fit in a u32"))),
    }
}

/// Decodes a `query` reply's frame text straight into a [`QueryOutcome`]
/// with a [`Reader`], building no tree. The outcome is the one
/// [`split_response`] then [`query_outcome_from_json`] give on the parsed
/// text: an `{"ok": false}` reply is the same typed [`WireError`], members
/// may come in any order, unknown ones are skipped, and of a repeated key
/// the first counts. Malformed JSON is a [`CODE_PROTOCOL`] error.
pub fn read_query_reply(text: &str) -> Result<QueryOutcome, WireError> {
    let mut r = Reader::new(text);
    // The first occurrence of each member, `Some(None)` when it has the
    // wrong kind: what `Json::get` and an `as_*` accessor would give.
    let (mut ok, mut code, mut error) = (None, None, None);
    let (mut result, mut cache_hit, mut retries) = (None, None, None);
    r.begin_object()?;
    while let Some(key) = r.key()? {
        match &*key {
            "ok" if ok.is_none() => ok = Some(r.read_if(Kind::Bool, Reader::bool)?),
            "code" if code.is_none() => code = Some(r.read_if(Kind::Str, Reader::string)?),
            "error" if error.is_none() => error = Some(r.read_if(Kind::Str, Reader::string)?),
            "result" if result.is_none() => {
                result = Some(read_query_result(&mut r).map_err(bad_result)?);
            }
            "cache_hit" if cache_hit.is_none() => {
                cache_hit = Some(r.read_if(Kind::Bool, Reader::bool)?);
            }
            "retries" if retries.is_none() => retries = Some(r.read_if(Kind::Num, Reader::number)?),
            _ => r.skip_value()?,
        }
    }
    r.finish()?;
    let (code, error) = (code.flatten(), error.flatten());
    if let Some(err) = reply_error(ok.flatten(), code.as_deref(), error.as_deref()) {
        return Err(err);
    }
    Ok(QueryOutcome {
        result: result.ok_or_else(|| WireError::protocol("query response lacks `result`"))?,
        cache_hit: cache_hit.flatten().unwrap_or(false),
        retries: decode_retries(retries.flatten())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_core::engine::Thresholds;

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"{}", b"x", &[0u8; 1000][..]] {
            let mut wire = Vec::new();
            write_frame(&mut wire, payload).unwrap();
            let back = read_frame(&mut &wire[..]).unwrap();
            assert_eq!(back, payload);
        }
    }

    #[test]
    fn clean_eof_is_closed_and_cut_frames_are_protocol_errors() {
        assert!(matches!(read_frame(&mut &[][..]), Err(FrameError::Closed)));

        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"op\":\"close\"}").unwrap();
        for cut in 1..wire.len() {
            let err = read_frame(&mut &wire[..cut]).unwrap_err();
            assert!(matches!(err, FrameError::Protocol(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn bad_headers_are_protocol_errors() {
        let cases: Vec<Vec<u8>> = vec![
            b"XX\x01\x00\x00\x00\x00\x00".to_vec(), // bad magic
            b"AR\x02\x00\x00\x00\x00\x00".to_vec(), // future version
            b"AR\x01\x07\x00\x00\x00\x00".to_vec(), // reserved set
            b"AR\x01\x00\xff\xff\xff\xff".to_vec(), // oversized length
        ];
        for wire in cases {
            let err = read_frame(&mut &wire[..]).unwrap_err();
            assert!(matches!(err, FrameError::Protocol(_)), "{wire:?}: {err}");
        }
    }

    #[test]
    fn requests_round_trip_through_json() {
        let requests = vec![
            WireRequest::Open { dataset: "trades".into() },
            WireRequest::Query {
                dataset: Some("trades".into()),
                request: Request::new().group("A").thresholds(Thresholds::new(0.01, 0.5).unwrap()),
            },
            WireRequest::Query {
                dataset: None,
                request: Request::new()
                    .group("Z \"2\"")
                    .thresholds(Thresholds::new(0.0, 0.25).unwrap()),
            },
            WireRequest::Append { dataset: None, rows: "1.5,2.5,A\n".into() },
            WireRequest::Stats { dataset: Some("users".into()) },
            WireRequest::ReplSubscribe { dataset: "trades".into() },
            WireRequest::ReplRecords { dataset: "trades".into(), start_seq: 7, max: 64 },
            WireRequest::ReplHeartbeat { dataset: None },
            WireRequest::ReplHeartbeat { dataset: Some("trades".into()) },
            WireRequest::Promote,
            WireRequest::Close,
        ];
        for request in requests {
            let text = request.to_json().to_string();
            let parsed = WireRequest::from_json(&arcs_core::jsonio::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed, request, "{text}");
        }
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        let bad = [
            "{}",
            "{\"op\": 3}",
            "{\"op\": \"frobnicate\"}",
            "{\"op\": \"open\"}",
            "{\"op\": \"open\", \"dataset\": 7}",
            "{\"op\": \"query\"}",
            "{\"op\": \"query\", \"request\": {\"thresholds\": \"high\"}}",
            "{\"op\": \"query\", \"request\": {\"group\": {\"code\": 3}}}",
            "{\"op\": \"append\"}",
            "{\"op\": \"append\", \"rows\": []}",
            "{\"op\": \"repl.subscribe\"}",
            "{\"op\": \"repl.subscribe\", \"dataset\": 7}",
            "{\"op\": \"repl.records\", \"start_seq\": 1}",
            "{\"op\": \"repl.records\", \"dataset\": \"t\"}",
        ];
        for text in bad {
            let err = WireRequest::from_json(&arcs_core::jsonio::parse(text).unwrap()).unwrap_err();
            assert_eq!(err.code, CODE_PROTOCOL, "{text} -> {err}");
        }
    }

    #[test]
    fn responses_split_into_body_or_typed_error() {
        let ok = ok_response(vec![("epoch", Json::Num(3.0))]);
        assert_eq!(split_response(ok).unwrap().get("epoch").and_then(Json::as_u64), Some(3));

        let err = split_response(WireError::new("OVERLOADED", "queue full").to_json()).unwrap_err();
        assert_eq!(err.code, "OVERLOADED");
        assert_eq!(err.message, "queue full");

        assert_eq!(
            split_response(arcs_core::jsonio::parse("{\"weird\": true}").unwrap())
                .unwrap_err()
                .code,
            CODE_PROTOCOL
        );
    }

    #[test]
    fn out_of_range_retries_are_errors() {
        let reply = |retries: &str| {
            let result = r#"{"epoch":0,"group":0,"n_tuples":0,"group_total":0,"rules":[]}"#;
            format!(r#"{{"ok":true,"result":{result},"retries":{retries}}}"#)
        };
        let tree = |text: &str| query_outcome_from_json(&arcs_core::jsonio::parse(text).unwrap());
        let max = reply("4294967295");
        assert_eq!(tree(&max).unwrap().retries, u32::MAX);
        assert_eq!(read_query_reply(&max).unwrap().retries, u32::MAX);
        let over = reply("4294967296");
        assert_eq!(tree(&over).unwrap_err().code, CODE_PROTOCOL);
        assert_eq!(read_query_reply(&over).unwrap_err().code, CODE_PROTOCOL);
        // Not a non-negative integer at all still reads as 0, as before.
        assert_eq!(read_query_reply(&reply("\"x\"")).unwrap().retries, 0);
        assert_eq!(tree(&reply("-1")).unwrap().retries, 0);
    }

    #[test]
    fn not_primary_is_never_retryable() {
        // Retrying a write against the same standby cannot succeed;
        // pinning the contract here so RETRYABLE_CODES can't grow it by
        // accident.
        let err = WireError::new(CODE_NOT_PRIMARY, "standby; primary is 127.0.0.1:4000");
        assert!(!err.retryable());
        assert_eq!(RETRYABLE_CODES, &["OVERLOADED"]);
    }

    #[test]
    fn durability_stats_round_trip() {
        let stats = DurabilityStats {
            last_wal_seq: 12,
            checkpoint_epoch: 9,
            checkpoint_seq: 9,
            wal_bytes: 301,
        };
        let text = stats.to_json().to_string();
        let back = DurabilityStats::from_json(&arcs_core::jsonio::parse(&text).unwrap()).unwrap();
        assert_eq!(back, stats);
        let err = DurabilityStats::from_json(&arcs_core::jsonio::parse("{}").unwrap()).unwrap_err();
        assert_eq!(err.code, CODE_PROTOCOL);
    }
}
