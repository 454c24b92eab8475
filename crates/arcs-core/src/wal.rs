//! Crash-safe durability: a per-tenant write-ahead append log plus
//! periodic [`BinArray`] checkpoints.
//!
//! The serving stack (PR 6/7) keeps every tenant in memory; this module
//! supplies the persistence layer under it. Durability is the classic
//! WAL contract: a row batch is written (and fsynced) to the log *before*
//! it is merged into the in-memory snapshot, so an acknowledged append
//! survives any crash, and a crash mid-write loses at most the
//! unacknowledged tail.
//!
//! # Log format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"ARCSWL\0" + version byte (1)
//! 8       8     start_seq, u64 LE — seq of the first record in this file
//! 16      ...   records
//! ```
//!
//! Each record:
//!
//! ```text
//! size  field
//! 4     body length, u32 LE (17 ..= MAX_RECORD_BODY)
//! n     body: kind (u8, 1 = append batch)
//!             seq (u64 LE, contiguous from the file's start_seq)
//!             feeder byte-offset (u64 LE, u64::MAX = none)
//!             payload (header-less CSV row batch, UTF-8)
//! 8     FNV-1a 64 checksum over the length prefix + body, u64 LE
//! ```
//!
//! # Recovery semantics
//!
//! [`replay`] scans the log front to back and returns the longest valid
//! prefix — it never panics on arbitrary bytes. The first invalid record
//! classifies the tail:
//!
//! * [`WalTail::Torn`] — the file ends mid-record (a crash during
//!   `write`). This is the *expected* crash artifact; [`WalWriter::recover`]
//!   heals it by truncating to the last whole record.
//! * [`WalTail::Corrupt`] — a checksum mismatch, bad length, unknown
//!   kind, or sequence gap strictly before end of file. This is bit rot
//!   or tampering, not a crash artifact; `recover` refuses to open the
//!   log and directs the operator to `arcs fsck --repair`.
//!
//! # Checkpoint ⇄ WAL epoch contract
//!
//! A checkpoint is the pair (`checkpoint.bin`, `checkpoint.meta`): a
//! PR-1 BinArray snapshot plus a small JSON document binding it to the
//! log. The invariants, enforced by [`load_checkpoint`] and the replay
//! path in `arcs-daemon`:
//!
//! 1. `meta.last_seq` is the seq of the last WAL record folded into the
//!    checkpointed array; `meta.epoch` is that array's serving epoch.
//! 2. Each WAL record advances the epoch by exactly one, so recovered
//!    epoch = `meta.epoch` + number of records replayed with
//!    `seq > meta.last_seq`.
//! 3. After a checkpoint commits (meta rename is the commit point), the
//!    log is reset to `start_seq = meta.last_seq + 1`. A crash between
//!    commit and reset is benign: replay skips records with
//!    `seq <= meta.last_seq`.
//! 4. `meta.array_checksum` must equal the loaded array's
//!    [`BinArray::checksum`]; a mismatch means the pair is torn and
//!    recovery must refuse.
//! 5. `meta.feeder_offset` is the CSV byte offset the feeder had durably
//!    consumed at `last_seq`; WAL records carry later offsets. The
//!    maximum over both is where a restarted feeder resumes, so it never
//!    re-reads (double-appends) acknowledged bytes.
//!
//! Both checkpoint files are written atomically (temp file + fsync +
//! rename + directory fsync); the meta is written *after* the array, so
//! an existing meta always refers to a fully-written array.
//!
//! # Failpoints
//!
//! `wal.write`, `wal.fsync`, `wal.checkpoint`, `wal.replay`, and
//! `wal.truncate` (see [`crate::faults`]) inject faults at each durability
//! boundary; the kill-and-recover chaos suite schedules them while
//! SIGKILLing daemon processes mid-append.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::binarray::{fnv1a64, BinArray};
use crate::error::ArcsError;
use crate::faults;
use crate::jsonio::{obj, Json};

/// Magic prefix of the log format; the trailing byte is the version.
pub const WAL_MAGIC: [u8; 8] = *b"ARCSWL\x00\x01";
/// Bytes of file header before the first record.
pub const WAL_HEADER_LEN: u64 = 16;
/// Fixed bytes of a record body before its payload (kind + seq + offset).
const BODY_PREFIX_LEN: usize = 1 + 8 + 8;
/// Largest accepted record body. The wire protocol caps append frames at
/// 8 MiB, so a length prefix beyond this is corruption, not data — and
/// the cap keeps a corrupt prefix from demanding an absurd allocation.
pub const MAX_RECORD_BODY: usize = 32 * 1024 * 1024;
/// Record kind: one validated row batch to merge.
const KIND_APPEND: u8 = 1;
/// On-disk encoding of "no feeder offset recorded".
const NO_OFFSET: u64 = u64::MAX;

fn checkpoint_err(message: impl Into<String>) -> ArcsError {
    ArcsError::Checkpoint { message: message.into() }
}

/// One durable append: a validated row batch, its log sequence number,
/// and (for feeder-driven appends) the CSV byte offset consumed by it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number, contiguous within a file.
    pub seq: u64,
    /// Feeder byte offset durably consumed once this record is applied.
    pub feeder_offset: Option<u64>,
    /// The header-less CSV row batch, exactly as validated before write.
    pub payload: Vec<u8>,
}

/// How [`replay`] classified the end of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// The file ends exactly at a record boundary.
    Clean,
    /// The file ends mid-record — the expected artifact of a crash during
    /// an append. Truncating to `valid_len` restores a consistent log.
    Torn {
        /// Byte length of the valid prefix.
        valid_len: u64,
        /// Bytes of partial record beyond it.
        dropped_bytes: u64,
    },
    /// A record failed validation (checksum, length, kind, or sequence)
    /// before end of file: bit rot rather than a torn write. Repair (via
    /// `arcs fsck --repair`) also truncates to `valid_len`, but the
    /// operator should know data beyond it is lost.
    Corrupt {
        /// Byte length of the valid prefix.
        valid_len: u64,
        /// Bytes beyond the valid prefix.
        dropped_bytes: u64,
        /// What failed on the first invalid record.
        reason: String,
    },
}

impl WalTail {
    /// `true` for a log that ends exactly at a record boundary.
    pub fn is_clean(&self) -> bool {
        matches!(self, WalTail::Clean)
    }

    /// The byte length of the valid prefix (the whole file when clean).
    pub fn valid_len(&self, file_len: u64) -> u64 {
        match self {
            WalTail::Clean => file_len,
            WalTail::Torn { valid_len, .. } | WalTail::Corrupt { valid_len, .. } => *valid_len,
        }
    }
}

/// The result of scanning a log: every record in the valid prefix plus
/// the tail classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// The file header's first sequence number.
    pub start_seq: u64,
    /// Records of the valid prefix, in sequence order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Sequence number the next append would receive.
    pub next_seq: u64,
    /// What the scan found past the valid prefix.
    pub tail: WalTail,
}

/// Reads exactly `buf.len()` bytes. `Ok(false)` = clean EOF before any
/// byte; an EOF partway through is reported as `Ok(true)` with `*short`
/// set (the caller treats it as a torn tail, never an error).
fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<(bool, bool)> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok((false, false)),
            Ok(0) => return Ok((true, true)),
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
    Ok((true, false))
}

/// Encodes one record exactly as [`WalWriter::append`] writes it: the
/// `u32` length prefix, the body (kind, seq, feeder offset, payload),
/// and the trailing FNV-1a-64 checksum. Replication ships these encoded
/// bytes verbatim so a standby re-verifies the same checksum the
/// primary's recovery path would.
pub fn encode_record(seq: u64, feeder_offset: Option<u64>, payload: &[u8]) -> Vec<u8> {
    let body_len = BODY_PREFIX_LEN + payload.len();
    let mut bytes = Vec::with_capacity(4 + body_len + 8);
    bytes.extend_from_slice(&(body_len as u32).to_le_bytes());
    bytes.push(KIND_APPEND);
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&feeder_offset.unwrap_or(NO_OFFSET).to_le_bytes());
    bytes.extend_from_slice(payload);
    let crc = fnv1a64(&[&bytes]);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Decodes one encoded record ([`encode_record`]'s output), verifying
/// the length prefix, the checksum, and the record kind — the same
/// validation [`replay`] applies on disk. `bytes` must hold exactly one
/// record; a short, long, or mangled buffer is a typed error, never a
/// panic. Sequence continuity is the caller's cursor to enforce.
pub fn decode_record(bytes: &[u8]) -> Result<WalRecord, ArcsError> {
    let bad = |what: String| checkpoint_err(format!("shipped WAL record: {what}"));
    if bytes.len() < 4 + BODY_PREFIX_LEN + 8 {
        return Err(bad(format!("torn: {} bytes is shorter than any record", bytes.len())));
    }
    let len_bytes: [u8; 4] = bytes[..4].try_into().expect("4-byte slice");
    let body_len = u32::from_le_bytes(len_bytes) as usize;
    if !(BODY_PREFIX_LEN..=MAX_RECORD_BODY).contains(&body_len) {
        return Err(bad(format!("record length {body_len} out of range")));
    }
    if bytes.len() != 4 + body_len + 8 {
        return Err(bad(format!(
            "torn: length prefix names {body_len} body bytes but {} were shipped",
            bytes.len().saturating_sub(4 + 8)
        )));
    }
    let body = &bytes[4..4 + body_len];
    let stored = u64::from_le_bytes(bytes[4 + body_len..].try_into().expect("8-byte slice"));
    let computed = fnv1a64(&[&len_bytes, body]);
    if stored != computed {
        return Err(bad(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    if body[0] != KIND_APPEND {
        return Err(bad(format!("unknown record kind {}", body[0])));
    }
    let seq = u64::from_le_bytes(body[1..9].try_into().expect("8-byte slice"));
    let offset = u64::from_le_bytes(body[9..17].try_into().expect("8-byte slice"));
    Ok(WalRecord {
        seq,
        feeder_offset: (offset != NO_OFFSET).then_some(offset),
        payload: body[BODY_PREFIX_LEN..].to_vec(),
    })
}

/// Scans the log at `path`, returning the longest valid record prefix
/// and a classification of whatever follows it. Never panics on
/// arbitrary bytes; the only errors are genuine I/O failures and an
/// unreadable *file header* (without one, not even an empty prefix can
/// be attributed to a sequence range).
pub fn replay(path: &Path) -> Result<WalReplay, ArcsError> {
    faults::check("wal.replay")?;
    let file_len = std::fs::metadata(path)
        .map_err(|e| checkpoint_err(format!("cannot stat WAL {}: {e}", path.display())))?
        .len();
    // A zero-byte file is the artifact of a crash between file creation
    // and the header write: classify it Clean with no records rather
    // than erroring, so recovery and the shipper can handle it. (A file
    // that is short but *non-empty* still fails below — a few stray
    // bytes cannot be attributed to any sequence range.)
    if file_len == 0 {
        return Ok(WalReplay {
            start_seq: 0,
            records: Vec::new(),
            valid_len: 0,
            next_seq: 0,
            tail: WalTail::Clean,
        });
    }
    let mut reader = BufReader::new(
        File::open(path)
            .map_err(|e| checkpoint_err(format!("cannot open WAL {}: {e}", path.display())))?,
    );

    let mut header = [0u8; WAL_HEADER_LEN as usize];
    match read_exact_or_eof(&mut reader, &mut header) {
        Ok((true, false)) => {}
        Ok(_) => {
            return Err(checkpoint_err(format!(
                "WAL {} is shorter than its {WAL_HEADER_LEN}-byte header",
                path.display()
            )))
        }
        Err(e) => return Err(ArcsError::Io(e.to_string())),
    }
    if header[..7] != WAL_MAGIC[..7] {
        return Err(checkpoint_err(format!("{} is not a WAL (bad magic)", path.display())));
    }
    if header[7] != WAL_MAGIC[7] {
        return Err(checkpoint_err(format!(
            "unsupported WAL version {} (this build reads version {})",
            header[7], WAL_MAGIC[7]
        )));
    }
    let start_seq = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));

    let mut records = Vec::new();
    let mut valid_len = WAL_HEADER_LEN;
    let mut next_seq = start_seq;
    let torn = |valid_len: u64| WalTail::Torn {
        valid_len,
        dropped_bytes: file_len.saturating_sub(valid_len),
    };
    let corrupt = |valid_len: u64, reason: String| WalTail::Corrupt {
        valid_len,
        dropped_bytes: file_len.saturating_sub(valid_len),
        reason,
    };

    let tail = loop {
        let mut len_bytes = [0u8; 4];
        match read_exact_or_eof(&mut reader, &mut len_bytes) {
            Ok((false, _)) => break WalTail::Clean,
            Ok((true, true)) => break torn(valid_len),
            Ok((true, false)) => {}
            Err(e) => return Err(ArcsError::Io(e.to_string())),
        }
        let body_len = u32::from_le_bytes(len_bytes) as usize;
        if !(BODY_PREFIX_LEN..=MAX_RECORD_BODY).contains(&body_len) {
            break corrupt(valid_len, format!("record length {body_len} out of range"));
        }
        let mut rest = vec![0u8; body_len + 8];
        match read_exact_or_eof(&mut reader, &mut rest) {
            Ok((true, false)) => {}
            Ok(_) => break torn(valid_len),
            Err(e) => return Err(ArcsError::Io(e.to_string())),
        }
        let (body, crc_bytes) = rest.split_at(body_len);
        let stored = u64::from_le_bytes(crc_bytes.try_into().expect("8-byte slice"));
        let computed = fnv1a64(&[&len_bytes, body]);
        if stored != computed {
            break corrupt(
                valid_len,
                format!("record checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"),
            );
        }
        if body[0] != KIND_APPEND {
            break corrupt(valid_len, format!("unknown record kind {}", body[0]));
        }
        let seq = u64::from_le_bytes(body[1..9].try_into().expect("8-byte slice"));
        if seq != next_seq {
            break corrupt(valid_len, format!("sequence gap: expected {next_seq}, found {seq}"));
        }
        let offset = u64::from_le_bytes(body[9..17].try_into().expect("8-byte slice"));
        records.push(WalRecord {
            seq,
            feeder_offset: (offset != NO_OFFSET).then_some(offset),
            payload: body[BODY_PREFIX_LEN..].to_vec(),
        });
        next_seq += 1;
        valid_len += 4 + body_len as u64 + 8;
    };

    Ok(WalReplay { start_seq, records, valid_len, next_seq, tail })
}

/// A position in the log an append can be rolled back to (used when the
/// in-memory merge fails *after* the record was made durable — the log
/// must not replay a batch the snapshot never applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalMark {
    len: u64,
    next_seq: u64,
}

/// The append half of the log: owns the file handle, assigns contiguous
/// sequence numbers, and fsyncs before acknowledging.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    len: u64,
    next_seq: u64,
    /// Set when a failed append could not be rolled back: the on-disk
    /// tail is in an unknown state, so further appends are refused (the
    /// checksummed format keeps even that state *detectable*).
    poisoned: bool,
}

impl WalWriter {
    /// Creates (truncating any existing file) a fresh log whose first
    /// record will carry `start_seq`. The header is fsynced — and the
    /// directory entry with it — before this returns.
    pub fn create(path: &Path, start_seq: u64) -> Result<Self, ArcsError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&start_seq.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        sync_parent(path)?;
        Ok(WalWriter { file, path: path.to_path_buf(), len: WAL_HEADER_LEN, next_seq: start_seq, poisoned: false })
    }

    /// Opens an existing log, healing a torn tail (the normal crash
    /// artifact) by truncating to the last whole record. A [`WalTail::
    /// Corrupt`] log is refused — mid-log bit rot needs an explicit
    /// `arcs fsck --repair` decision, not a silent discard.
    pub fn recover(path: &Path) -> Result<(Self, WalReplay), ArcsError> {
        let mut replayed = replay(path)?;
        // An empty file (crash between creation and the header write)
        // holds nothing to preserve: rewrite it as a fresh log at seq 1.
        // Callers pairing the log with a checkpoint reset it to
        // `last_seq + 1` before appending.
        if replayed.valid_len < WAL_HEADER_LEN {
            let writer = WalWriter::create(path, 1)?;
            replayed.start_seq = 1;
            replayed.next_seq = 1;
            replayed.valid_len = WAL_HEADER_LEN;
            return Ok((writer, replayed));
        }
        match &replayed.tail {
            WalTail::Clean | WalTail::Torn { .. } => {}
            WalTail::Corrupt { reason, dropped_bytes, .. } => {
                return Err(checkpoint_err(format!(
                    "WAL {} is corrupt ({reason}; {dropped_bytes} bytes past the valid prefix); \
                     run `arcs fsck --repair` to truncate it",
                    path.display()
                )))
            }
        }
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut writer = WalWriter {
            file,
            path: path.to_path_buf(),
            len: replayed.valid_len,
            next_seq: replayed.next_seq,
            poisoned: false,
        };
        if let WalTail::Torn { valid_len, .. } = replayed.tail {
            writer.file.set_len(valid_len)?;
            writer.file.sync_all()?;
        }
        writer.file.seek(SeekFrom::Start(writer.len))?;
        // The healed log is clean by construction; report the torn tail
        // to the caller through the replay value.
        replayed.valid_len = writer.len;
        Ok((writer, replayed))
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current byte length of the (valid) log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == WAL_HEADER_LEN
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The current position for a later [`rollback_to`](Self::rollback_to).
    pub fn mark(&self) -> WalMark {
        WalMark { len: self.len, next_seq: self.next_seq }
    }

    /// Durably appends one record: encode, write, fsync, acknowledge.
    /// Returns the record's sequence number. On any failure the partial
    /// record is rolled back (truncated) so the on-disk log still ends at
    /// a record boundary; if even the rollback fails the writer poisons
    /// itself and refuses further appends.
    pub fn append(&mut self, payload: &[u8], feeder_offset: Option<u64>) -> Result<u64, ArcsError> {
        if self.poisoned {
            return Err(ArcsError::Io(format!(
                "WAL {} writer is poisoned by an earlier failed rollback",
                self.path.display()
            )));
        }
        if payload.len() > MAX_RECORD_BODY - BODY_PREFIX_LEN {
            return Err(ArcsError::InvalidConfig(format!(
                "WAL record payload of {} bytes exceeds the {MAX_RECORD_BODY}-byte body cap",
                payload.len()
            )));
        }
        let seq = self.next_seq;
        let result = faults::check("wal.write")
            .and_then(|()| {
                let bytes = encode_record(seq, feeder_offset, payload);
                self.file.write_all(&bytes)?;
                faults::check("wal.fsync")?;
                self.file.sync_data()?;
                Ok(bytes.len() as u64)
            });
        match result {
            Ok(written) => {
                self.len += written;
                self.next_seq += 1;
                Ok(seq)
            }
            Err(err) => {
                // Drop whatever partial bytes the failed attempt left.
                if self.truncate_to(self.len).is_err() {
                    self.poisoned = true;
                }
                Err(err)
            }
        }
    }

    /// Truncates the log back to `mark`, dropping records appended after
    /// it. Used to undo a durable write whose in-memory merge then
    /// failed: memory and disk must agree on which batches exist.
    pub fn rollback_to(&mut self, mark: WalMark) -> Result<(), ArcsError> {
        if mark.len > self.len {
            return Err(ArcsError::InvalidConfig(
                "cannot roll a WAL forward: mark is past the current end".into(),
            ));
        }
        self.truncate_to(mark.len)?;
        self.len = mark.len;
        self.next_seq = mark.next_seq;
        Ok(())
    }

    fn truncate_to(&mut self, len: u64) -> Result<(), ArcsError> {
        self.file.set_len(len)?;
        self.file.sync_data()?;
        self.file.seek(SeekFrom::Start(len))?;
        Ok(())
    }

    /// Resets the log to empty with a new `start_seq` — the post-
    /// checkpoint truncation. Atomic via a sibling temp file renamed over
    /// the log: a crash at any instruction leaves either the old log
    /// (whose records the fresh checkpoint makes redundant — replay skips
    /// `seq <= last_seq`) or the new empty one.
    pub fn reset(&mut self, start_seq: u64) -> Result<(), ArcsError> {
        faults::check("wal.truncate")?;
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".reset");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = File::create(&tmp)?;
            let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
            header.extend_from_slice(&WAL_MAGIC);
            header.extend_from_slice(&start_seq.to_le_bytes());
            file.write_all(&header)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        sync_parent(&self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::Start(WAL_HEADER_LEN))?;
        self.file = file;
        self.len = WAL_HEADER_LEN;
        self.next_seq = start_seq;
        self.poisoned = false;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// The JSON sidecar binding a checkpointed array to the log (see the
/// module docs for the invariants it carries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Serving epoch of the checkpointed array.
    pub epoch: u64,
    /// Seq of the last WAL record folded into the array (0 = none yet).
    pub last_seq: u64,
    /// Feeder byte offset durably consumed as of `last_seq`.
    pub feeder_offset: Option<u64>,
    /// [`BinArray::checksum`] of the checkpointed array.
    pub array_checksum: u64,
}

impl CheckpointMeta {
    /// Serialises to the sidecar document.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("version", Json::Num(1.0)),
            ("epoch", Json::Num(self.epoch as f64)),
            ("last_seq", Json::Num(self.last_seq as f64)),
            (
                "feeder_offset",
                match self.feeder_offset {
                    Some(offset) => Json::Num(offset as f64),
                    None => Json::Null,
                },
            ),
            // The checksum exceeds f64's exact-integer range; ship it as
            // a hex string so the round trip is lossless.
            ("array_checksum", Json::Str(format!("{:#018x}", self.array_checksum))),
        ])
    }

    /// Parses a sidecar document written by [`to_json`](Self::to_json).
    pub fn from_json(json: &Json) -> Result<Self, ArcsError> {
        let bad = |what: &str| checkpoint_err(format!("checkpoint meta: {what}"));
        match json.get("version").and_then(Json::as_u64) {
            Some(1) => {}
            Some(v) => return Err(bad(&format!("unsupported version {v}"))),
            None => return Err(bad("missing version")),
        }
        let epoch = json.get("epoch").and_then(Json::as_u64).ok_or_else(|| bad("missing epoch"))?;
        let last_seq =
            json.get("last_seq").and_then(Json::as_u64).ok_or_else(|| bad("missing last_seq"))?;
        let feeder_offset = match json.get("feeder_offset") {
            None | Some(Json::Null) => None,
            Some(value) => {
                Some(value.as_u64().ok_or_else(|| bad("feeder_offset must be a number"))?)
            }
        };
        let checksum_text = json
            .get("array_checksum")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing array_checksum"))?;
        let array_checksum = checksum_text
            .strip_prefix("0x")
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| bad("array_checksum must be an 0x-prefixed hex string"))?;
        Ok(CheckpointMeta { epoch, last_seq, feeder_offset, array_checksum })
    }
}

/// Writes `bytes` to `path` atomically: temp file, fsync, rename, then
/// directory fsync, so a crash at any instruction leaves either the old
/// file or the new one — never a hybrid.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ArcsError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent(path)?;
    Ok(())
}

/// Persists a checkpoint: the array snapshot first, the meta sidecar
/// second. The meta rename is the commit point — an existing meta always
/// refers to a fully-written, checksummed array.
pub fn save_checkpoint(
    bin_path: &Path,
    meta_path: &Path,
    array: &BinArray,
    meta: &CheckpointMeta,
) -> Result<(), ArcsError> {
    faults::check("wal.checkpoint")?;
    let mut bytes = Vec::with_capacity(array.memory_bytes() + 64);
    array.write_to(&mut bytes)?;
    write_atomic(bin_path, &bytes)?;
    write_atomic(meta_path, meta.to_json().to_string().as_bytes())?;
    Ok(())
}

/// Loads a checkpoint pair. `Ok(None)` when no meta exists (a fresh
/// directory); a meta whose array is missing, unreadable, or whose
/// checksum disagrees is a typed [`ArcsError::Checkpoint`] — the pair is
/// torn and must not be served.
pub fn load_checkpoint(
    bin_path: &Path,
    meta_path: &Path,
) -> Result<Option<(CheckpointMeta, BinArray)>, ArcsError> {
    let text = match std::fs::read_to_string(meta_path) {
        Ok(text) => text,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(ArcsError::Io(err.to_string())),
    };
    let json = crate::jsonio::parse(&text)
        .map_err(|err| checkpoint_err(format!("checkpoint meta is not JSON: {err}")))?;
    let meta = CheckpointMeta::from_json(&json)?;
    let mut reader = BufReader::new(File::open(bin_path).map_err(|e| {
        checkpoint_err(format!(
            "checkpoint meta exists but the array {} cannot be opened: {e}",
            bin_path.display()
        ))
    })?);
    let array = BinArray::read_from(&mut reader)?;
    let checksum = array.checksum();
    if checksum != meta.array_checksum {
        return Err(checkpoint_err(format!(
            "checkpoint array checksum {checksum:#018x} disagrees with meta {:#018x}",
            meta.array_checksum
        )));
    }
    Ok(Some((meta, array)))
}

/// Fsyncs the directory holding `path` so a just-created or renamed
/// entry survives power loss. A bare file name's parent is the empty
/// path, which names the current directory. A no-op on platforms where
/// directories cannot be opened.
fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if dir.as_os_str().is_empty() => Path::new("."),
        Some(dir) => dir,
        None => return Ok(()),
    };
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("arcs-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn append_some(writer: &mut WalWriter, batches: &[(&str, Option<u64>)]) {
        for (payload, offset) in batches {
            writer.append(payload.as_bytes(), *offset).unwrap();
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("wal.log");
        let mut writer = WalWriter::create(&path, 1).unwrap();
        append_some(&mut writer, &[("1,2,A\n", None), ("3,4,B\n", Some(42)), ("", None)]);
        assert_eq!(writer.next_seq(), 4);

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.start_seq, 1);
        assert_eq!(replayed.next_seq, 4);
        assert!(replayed.tail.is_clean());
        assert_eq!(replayed.records.len(), 3);
        assert_eq!(replayed.records[0].payload, b"1,2,A\n");
        assert_eq!(replayed.records[0].feeder_offset, None);
        assert_eq!(replayed.records[1].seq, 2);
        assert_eq!(replayed.records[1].feeder_offset, Some(42));
        assert_eq!(replayed.records[2].payload, b"");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_byte_recovers_a_valid_prefix() {
        let dir = temp_dir("torn");
        let path = dir.join("wal.log");
        let mut writer = WalWriter::create(&path, 1).unwrap();
        append_some(&mut writer, &[("alpha,1\n", None), ("bravo,2\n", Some(7))]);
        let full = std::fs::read(&path).unwrap();
        let record_boundaries: Vec<u64> = {
            let replayed = replay(&path).unwrap();
            let mut ends = vec![WAL_HEADER_LEN];
            let mut len = WAL_HEADER_LEN;
            for record in &replayed.records {
                len += 4 + (BODY_PREFIX_LEN + record.payload.len()) as u64 + 8;
                ends.push(len);
            }
            ends
        };

        let cut_path = dir.join("cut.log");
        for cut in WAL_HEADER_LEN as usize..full.len() {
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let replayed = replay(&cut_path).unwrap();
            let boundary = record_boundaries
                .iter()
                .filter(|&&b| b <= cut as u64)
                .max()
                .copied()
                .unwrap();
            assert_eq!(replayed.valid_len, boundary, "cut at {cut}");
            if record_boundaries.contains(&(cut as u64)) {
                assert!(replayed.tail.is_clean());
            } else {
                assert!(
                    matches!(replayed.tail, WalTail::Torn { .. }),
                    "cut at {cut}: {:?}",
                    replayed.tail
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flips_classify_as_corrupt_and_keep_the_prefix() {
        let dir = temp_dir("flip");
        let path = dir.join("wal.log");
        let mut writer = WalWriter::create(&path, 1).unwrap();
        append_some(&mut writer, &[("first,1\n", None), ("second,2\n", None)]);
        let full = std::fs::read(&path).unwrap();
        let first_record_end = replay(&path).unwrap().valid_len as usize
            - (4 + BODY_PREFIX_LEN + "second,2\n".len() + 8);

        // Flip a byte inside the *second* record: the first must survive.
        let mut flipped = full.clone();
        let target = first_record_end + 10;
        flipped[target] ^= 0x40;
        let flip_path = dir.join("flip.log");
        std::fs::write(&flip_path, &flipped).unwrap();
        let replayed = replay(&flip_path).unwrap();
        assert_eq!(replayed.records.len(), 1, "first record must survive");
        assert_eq!(replayed.records[0].payload, b"first,1\n");
        assert!(matches!(replayed.tail, WalTail::Corrupt { .. }), "{:?}", replayed.tail);

        // recover() refuses corrupt logs, pointing at fsck.
        let err = WalWriter::recover(&flip_path).unwrap_err();
        assert!(err.to_string().contains("fsck"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_heals_torn_tails_and_appends_continue() {
        let dir = temp_dir("heal");
        let path = dir.join("wal.log");
        let mut writer = WalWriter::create(&path, 5).unwrap();
        append_some(&mut writer, &[("a,1\n", None)]);
        let keep = writer.len();
        append_some(&mut writer, &[("b,2\n", None)]);
        drop(writer);

        // Simulate a crash mid-write of the second record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..keep as usize + 3]).unwrap();

        let (mut writer, replayed) = WalWriter::recover(&path).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.records[0].seq, 5);
        assert!(matches!(replayed.tail, WalTail::Torn { dropped_bytes: 3, .. }));
        assert_eq!(writer.next_seq(), 6);

        // The healed log accepts appends and replays cleanly.
        append_some(&mut writer, &[("c,3\n", None)]);
        let replayed = replay(&path).unwrap();
        assert!(replayed.tail.is_clean());
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.records[1].seq, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rollback_drops_the_unmerged_record() {
        let dir = temp_dir("rollback");
        let path = dir.join("wal.log");
        let mut writer = WalWriter::create(&path, 1).unwrap();
        append_some(&mut writer, &[("keep,1\n", None)]);
        let mark = writer.mark();
        append_some(&mut writer, &[("drop,2\n", None)]);
        writer.rollback_to(mark).unwrap();
        assert_eq!(writer.next_seq(), 2);

        // The dropped seq is reused — the log stays contiguous.
        append_some(&mut writer, &[("redo,2\n", None)]);
        let replayed = replay(&path).unwrap();
        assert!(replayed.tail.is_clean());
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.records[1].payload, b"redo,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_starts_a_fresh_log_at_the_next_seq() {
        let dir = temp_dir("reset");
        let path = dir.join("wal.log");
        let mut writer = WalWriter::create(&path, 1).unwrap();
        append_some(&mut writer, &[("a,1\n", None), ("b,2\n", None)]);
        writer.reset(3).unwrap();
        assert!(writer.is_empty());
        append_some(&mut writer, &[("c,3\n", None)]);

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.start_seq, 3);
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.records[0].seq, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn headerless_or_foreign_files_are_typed_errors() {
        let dir = temp_dir("badheader");
        let short = dir.join("short.log");
        std::fs::write(&short, b"ARCS").unwrap();
        assert!(matches!(replay(&short), Err(ArcsError::Checkpoint { .. })));

        let foreign = dir.join("foreign.log");
        std::fs::write(&foreign, b"NOTAWAL!________").unwrap();
        let err = replay(&foreign).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        let future = dir.join("future.log");
        let mut bytes = WAL_MAGIC.to_vec();
        bytes[7] = 9;
        bytes.extend_from_slice(&1u64.to_le_bytes());
        std::fs::write(&future, &bytes).unwrap();
        let err = replay(&future).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_only_and_empty_logs_classify_clean() {
        let dir = temp_dir("edge-clean");

        // Header-only (zero-record) log: the shape right after create()
        // or reset() — Clean, no records, next_seq = start_seq.
        let header_only = dir.join("header-only.log");
        WalWriter::create(&header_only, 7).unwrap();
        let replayed = replay(&header_only).unwrap();
        assert!(replayed.tail.is_clean());
        assert!(replayed.records.is_empty());
        assert_eq!((replayed.start_seq, replayed.next_seq), (7, 7));
        assert_eq!(replayed.valid_len, WAL_HEADER_LEN);

        // A zero-byte file (crash between creation and the header
        // write): Clean with no records, never a panic or an error.
        let empty = dir.join("empty.log");
        std::fs::write(&empty, b"").unwrap();
        let replayed = replay(&empty).unwrap();
        assert!(replayed.tail.is_clean());
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.valid_len, 0);

        // recover() rewrites the missing header; appends then work.
        let (mut writer, _) = WalWriter::recover(&empty).unwrap();
        assert_eq!(writer.next_seq(), 1);
        append_some(&mut writer, &[("a,1\n", None)]);
        let replayed = replay(&empty).unwrap();
        assert!(replayed.tail.is_clean());
        assert_eq!(replayed.records.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn first_record_at_a_prior_truncate_point_is_clean() {
        let dir = temp_dir("edge-truncate");
        let path = dir.join("wal.log");

        // Fill a log, checkpoint-style reset (the truncate point), then
        // append: the first surviving record starts exactly where the
        // reset left the log.
        let mut writer = WalWriter::create(&path, 1).unwrap();
        append_some(&mut writer, &[("a,1\n", None), ("b,2\n", None), ("c,3\n", None)]);
        writer.reset(4).unwrap();
        append_some(&mut writer, &[("d,4\n", None)]);
        drop(writer);

        let replayed = replay(&path).unwrap();
        assert!(replayed.tail.is_clean());
        assert_eq!(replayed.start_seq, 4);
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.records[0].seq, 4);
        assert_eq!(replayed.records[0].payload, b"d,4\n");

        // The same shape through recover(): no healing needed.
        let (writer, replayed) = WalWriter::recover(&path).unwrap();
        assert!(replayed.tail.is_clean());
        assert_eq!(writer.next_seq(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shipped_records_round_trip_and_mangling_is_detected() {
        let bytes = encode_record(42, Some(17), b"x,y,A\n");
        let record = decode_record(&bytes).unwrap();
        assert_eq!(record.seq, 42);
        assert_eq!(record.feeder_offset, Some(17));
        assert_eq!(record.payload, b"x,y,A\n");

        // Torn short, torn long, and bit-flipped ships are all typed
        // errors — a standby never applies a damaged record.
        assert!(decode_record(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_record(&long).is_err());
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x10;
            assert!(decode_record(&flipped).is_err(), "flip at byte {i} went undetected");
        }
        assert!(decode_record(b"").is_err());
    }

    #[test]
    fn checkpoint_meta_round_trips() {
        for meta in [
            CheckpointMeta { epoch: 0, last_seq: 0, feeder_offset: None, array_checksum: 7 },
            CheckpointMeta {
                epoch: 12,
                last_seq: 97,
                feeder_offset: Some(1 << 40),
                array_checksum: u64::MAX,
            },
        ] {
            let text = meta.to_json().to_string();
            let back = CheckpointMeta::from_json(&crate::jsonio::parse(&text).unwrap()).unwrap();
            assert_eq!(back, meta, "{text}");
        }
        assert!(CheckpointMeta::from_json(&crate::jsonio::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn checkpoint_save_load_verifies_the_pair() {
        let dir = temp_dir("checkpoint");
        let bin = dir.join("checkpoint.bin");
        let meta_path = dir.join("checkpoint.meta");
        assert_eq!(load_checkpoint(&bin, &meta_path).unwrap(), None);

        let mut array = BinArray::new(4, 4, 2).unwrap();
        for i in 0..32u32 {
            array.add((i % 4) as usize, (i as usize / 4) % 4, i % 2);
        }
        let meta = CheckpointMeta {
            epoch: 3,
            last_seq: 9,
            feeder_offset: Some(128),
            array_checksum: array.checksum(),
        };
        save_checkpoint(&bin, &meta_path, &array, &meta).unwrap();
        let (back_meta, back_array) = load_checkpoint(&bin, &meta_path).unwrap().unwrap();
        assert_eq!(back_meta, meta);
        assert_eq!(back_array, array);

        // A meta pointing at a mismatched array is a torn pair.
        let other = BinArray::new(4, 4, 2).unwrap();
        let mut bytes = Vec::new();
        other.write_to(&mut bytes).unwrap();
        std::fs::write(&bin, &bytes).unwrap();
        assert!(matches!(
            load_checkpoint(&bin, &meta_path),
            Err(ArcsError::Checkpoint { .. })
        ));

        // A meta without its array is refused, not treated as fresh.
        std::fs::remove_file(&bin).unwrap();
        assert!(load_checkpoint(&bin, &meta_path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_payloads_are_refused_before_touching_disk() {
        let dir = temp_dir("oversize");
        let path = dir.join("wal.log");
        let mut writer = WalWriter::create(&path, 1).unwrap();
        let before = writer.len();
        let huge = vec![b'x'; MAX_RECORD_BODY];
        assert!(writer.append(&huge, None).is_err());
        assert_eq!(writer.len(), before);
        std::fs::remove_dir_all(&dir).ok();
    }
}
