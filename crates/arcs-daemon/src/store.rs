//! The per-tenant durable store: data-directory layout, write-ahead
//! logging around snapshot merges, checkpointing, recovery, and the
//! `arcs fsck` audit.
//!
//! # Data directory layout
//!
//! ```text
//! <data-dir>/
//!   <tenant>/
//!     tenant.json     — x, y, criterion, bin counts, schema (how to rebuild the Binner)
//!     checkpoint.meta — header (epoch, last_seq, feeder offset) + the array's byte form
//!     wal.log         — write-ahead log since the checkpoint: one delta array per append
//! ```
//!
//! A checkpoint is one file under one checksum (format in
//! [`arcs_core::wal`]), so one [`write_atomic`] rename commits it: a
//! crash leaves either the old checkpoint or the new one.
//!
//! `tenant.json` makes a directory self-describing: a restarted daemon
//! rebuilds the tenant's [`Binner`] from it without the original CSV, to
//! bin the rows of later appends. Nothing on disk holds a row: each WAL
//! record is the append's binned delta in the array's one byte form
//! ([`BinArray::write_to`]), so recovery, [`fsck`]'s deep audit and a
//! standby decode it and merge it, and none of them parses CSV or builds
//! a binner. The checkpoint and the log implement the checkpoint ⇄ WAL
//! epoch contract documented in [`arcs_core::wal`]; [`TenantStore::open`]
//! and [`fsck`]'s deep audit apply it through one routine.
//!
//! # Write-ahead ordering
//!
//! [`TenantStore::append`] holds the tenant's single append lock across
//! the whole sequence *WAL append (fsync) → in-memory merge*: log order
//! is epoch order, an acknowledged batch is always durable, and a merge
//! failure rolls the just-written record back so disk and memory never
//! disagree about which batches exist.
//!
//! A directory written in an earlier format (a version 1 log of CSV rows,
//! or a checkpoint holding a version 1 array) is refused with an error
//! naming the version, and [`fsck`] leaves it byte for byte as it is.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use arcs_core::jsonio::{obj, Json};
use arcs_core::repl::ShippedRecord;
use arcs_core::wal::{
    decode_checkpoint, load_checkpoint, replay, save_checkpoint, write_atomic, CheckpointMeta,
    WalRecord, WalReplay, WalTail, WalWriter, WAL_MAGIC,
};
use arcs_core::{faults, ArcsError, BinArray, Binner};
use arcs_data::{AttrKind, Attribute, Schema};

/// File name of the tenant descriptor inside a tenant directory.
pub const TENANT_META_FILE: &str = "tenant.json";
/// File name of the checkpoint: its header and the array snapshot.
pub const CHECKPOINT_META_FILE: &str = "checkpoint.meta";
/// File name of the write-ahead log.
pub const WAL_FILE: &str = "wal.log";

fn checkpoint_err(message: impl Into<String>) -> ArcsError {
    ArcsError::Checkpoint { message: message.into() }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `true` when `name` is safe to use as a tenant directory name: no path
/// separators, no traversal, a bounded character set.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

// ---------------------------------------------------------------------------
// tenant.json
// ---------------------------------------------------------------------------

/// The self-describing tenant descriptor persisted as `tenant.json`:
/// everything needed to rebuild the binner on restart.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMeta {
    /// X-axis (LHS) attribute name.
    pub x: String,
    /// Y-axis (LHS) attribute name.
    pub y: String,
    /// Criterion (RHS) attribute name.
    pub criterion: String,
    /// Number of x bins.
    pub n_x_bins: usize,
    /// Number of y bins.
    pub n_y_bins: usize,
    /// The schema appended rows must conform to.
    pub schema: Schema,
}

fn schema_to_json(schema: &Schema) -> Json {
    let attributes = schema
        .attributes()
        .iter()
        .map(|attr| match &attr.kind {
            AttrKind::Quantitative { min, max } => obj(vec![
                ("name", Json::Str(attr.name.clone())),
                ("kind", Json::Str("quantitative".into())),
                ("min", Json::Num(*min)),
                ("max", Json::Num(*max)),
            ]),
            AttrKind::Categorical { labels } => obj(vec![
                ("name", Json::Str(attr.name.clone())),
                ("kind", Json::Str("categorical".into())),
                ("labels", Json::Arr(labels.iter().map(|l| Json::Str(l.clone())).collect())),
            ]),
        })
        .collect();
    obj(vec![("attributes", Json::Arr(attributes))])
}

fn schema_from_json(json: &Json) -> Result<Schema, ArcsError> {
    let bad = |what: &str| checkpoint_err(format!("tenant.json schema: {what}"));
    let items = json
        .get("attributes")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing attributes array"))?;
    let mut attributes = Vec::with_capacity(items.len());
    for item in items {
        let name =
            item.get("name").and_then(Json::as_str).ok_or_else(|| bad("attribute lacks a name"))?;
        match item.get("kind").and_then(Json::as_str) {
            Some("quantitative") => {
                let min =
                    item.get("min").and_then(Json::as_f64).ok_or_else(|| bad("missing min"))?;
                let max =
                    item.get("max").and_then(Json::as_f64).ok_or_else(|| bad("missing max"))?;
                attributes.push(Attribute::quantitative(name, min, max));
            }
            Some("categorical") => {
                let labels = item
                    .get("labels")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("missing labels"))?
                    .iter()
                    .map(|l| l.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| bad("labels must be strings"))?;
                attributes.push(Attribute::categorical(name, labels));
            }
            _ => return Err(bad("attribute kind must be quantitative or categorical")),
        }
    }
    Schema::new(attributes).map_err(|err| checkpoint_err(format!("tenant.json schema: {err}")))
}

impl TenantMeta {
    /// Serialises to the `tenant.json` document.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("version", Json::Num(1.0)),
            ("x", Json::Str(self.x.clone())),
            ("y", Json::Str(self.y.clone())),
            ("criterion", Json::Str(self.criterion.clone())),
            ("n_x_bins", Json::Num(self.n_x_bins as f64)),
            ("n_y_bins", Json::Num(self.n_y_bins as f64)),
            ("schema", schema_to_json(&self.schema)),
        ])
    }

    /// Parses a `tenant.json` document.
    pub fn from_json(json: &Json) -> Result<Self, ArcsError> {
        let bad = |what: &str| checkpoint_err(format!("tenant.json: {what}"));
        match json.get("version").and_then(Json::as_u64) {
            Some(1) => {}
            Some(v) => return Err(bad(&format!("unsupported version {v}"))),
            None => return Err(bad("missing version")),
        }
        let text = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("missing {key}")))
        };
        let count = |key: &str| {
            json.get(key).and_then(Json::as_usize).ok_or_else(|| bad(&format!("missing {key}")))
        };
        Ok(TenantMeta {
            x: text("x")?,
            y: text("y")?,
            criterion: text("criterion")?,
            n_x_bins: count("n_x_bins")?,
            n_y_bins: count("n_y_bins")?,
            schema: schema_from_json(json.get("schema").ok_or_else(|| bad("missing schema"))?)?,
        })
    }

    /// Builds the tenant's binner from the persisted configuration — the
    /// only way a tenant gets one.
    pub fn build_binner(&self) -> Result<Binner, ArcsError> {
        Binner::equi_width(
            &self.schema,
            &self.x,
            &self.y,
            &self.criterion,
            self.n_x_bins,
            self.n_y_bins,
        )
    }

    fn save(&self, dir: &Path) -> Result<(), ArcsError> {
        write_atomic(&dir.join(TENANT_META_FILE), self.to_json().to_string().as_bytes())
    }

    fn load(dir: &Path) -> Result<Self, ArcsError> {
        let path = dir.join(TENANT_META_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| checkpoint_err(format!("cannot read {}: {e}", path.display())))?;
        let json = arcs_core::jsonio::parse(&text)
            .map_err(|e| checkpoint_err(format!("{} is not JSON: {e}", path.display())))?;
        TenantMeta::from_json(&json)
    }
}

// ---------------------------------------------------------------------------
// The durable store
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct StoreState {
    wal: WalWriter,
    /// Epoch of the last committed checkpoint.
    checkpoint_epoch: u64,
    /// `last_seq` of the last committed checkpoint.
    checkpoint_seq: u64,
    /// Latest durably recorded feeder byte offset.
    feeder_offset: Option<u64>,
}

/// What recovery found when opening an existing tenant directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records replayed from the WAL on top of the checkpoint.
    pub replayed_records: u64,
    /// Bytes of torn tail healed (0 after a clean shutdown).
    pub torn_bytes: u64,
    /// The serving epoch the tenant resumed at.
    pub epoch: u64,
}

/// One tenant's durable half: the WAL writer, checkpoint bookkeeping,
/// and the single append lock ordering durable writes against merges.
#[derive(Debug)]
pub struct TenantStore {
    dir: PathBuf,
    state: Mutex<StoreState>,
}

impl TenantStore {
    /// Initialises a fresh tenant directory: `tenant.json`, an epoch-0
    /// checkpoint of `array`, and an empty WAL starting at seq 1. The
    /// initial checkpoint means a restart never needs the original CSV.
    /// `feeder_offset` records where a feeder tailing this tenant's CSV
    /// starts, so a restart before the first feeder merge still resumes
    /// at the right byte.
    pub fn create(
        dir: &Path,
        meta: &TenantMeta,
        array: &BinArray,
        feeder_offset: Option<u64>,
    ) -> Result<Self, ArcsError> {
        std::fs::create_dir_all(dir)?;
        meta.save(dir)?;
        let checkpoint = CheckpointMeta { epoch: 0, last_seq: 0, feeder_offset };
        save_checkpoint(&dir.join(CHECKPOINT_META_FILE), &checkpoint, array)?;
        let wal = WalWriter::create(&dir.join(WAL_FILE), 1)?;
        Ok(TenantStore {
            dir: dir.to_path_buf(),
            state: Mutex::new(StoreState {
                wal,
                checkpoint_epoch: 0,
                checkpoint_seq: 0,
                feeder_offset,
            }),
        })
    }

    /// Opens an existing tenant directory: loads `tenant.json` and the
    /// checkpoint, recovers the WAL (healing a torn tail), and replays
    /// records past the checkpoint into the array. Returns the store,
    /// the descriptor, the recovered array, and a recovery report; the
    /// caller stands the serving stack up at `report.epoch`.
    pub fn open(dir: &Path) -> Result<(Self, TenantMeta, BinArray, RecoveryReport), ArcsError> {
        let meta = TenantMeta::load(dir)?;
        let (checkpoint, mut array) = load_checkpoint(&dir.join(CHECKPOINT_META_FILE))?
            .ok_or_else(|| {
                checkpoint_err(format!(
                    "{} has a tenant.json but no checkpoint; the directory is torn",
                    dir.display()
                ))
            })?;
        let (mut wal, log) = WalWriter::recover(&dir.join(WAL_FILE))?;
        let replayed = replay_onto(&checkpoint, &log, &mut array)?;
        // An empty log (including a zero-byte file recover just rebuilt a
        // header for) carries no sequence information of its own: anchor
        // it to the checkpoint, or fresh appends would receive sequence
        // numbers at or below `last_seq` and be skipped by the next
        // replay.
        if wal.is_empty() && wal.next_seq() != checkpoint.last_seq + 1 {
            wal.reset(checkpoint.last_seq + 1)?;
        }
        let torn_bytes = match log.tail {
            WalTail::Torn { dropped_bytes, .. } => dropped_bytes,
            _ => 0,
        };
        let report = RecoveryReport {
            replayed_records: replayed.records,
            torn_bytes,
            epoch: replayed.epoch,
        };
        let store = TenantStore {
            dir: dir.to_path_buf(),
            state: Mutex::new(StoreState {
                wal,
                checkpoint_epoch: checkpoint.epoch,
                checkpoint_seq: checkpoint.last_seq,
                feeder_offset: replayed.feeder_offset,
            }),
        };
        Ok((store, meta, array, report))
    }

    /// The tenant directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The latest durably recorded feeder byte offset (checkpoint or WAL,
    /// whichever is newer). A restarted feeder resumes here.
    pub fn feeder_offset(&self) -> Option<u64> {
        lock(&self.state).feeder_offset
    }

    /// Records appended since the last checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        let st = lock(&self.state);
        (st.wal.next_seq() - 1).saturating_sub(st.checkpoint_seq)
    }

    /// WAL bytes accumulated since the last checkpoint.
    pub fn wal_bytes(&self) -> u64 {
        lock(&self.state).wal.len()
    }

    /// Write-ahead append: durably logs `payload` (with its feeder
    /// offset, when driven by the feeder), then runs `merge` — the
    /// in-memory snapshot swap — under the same lock. A merge failure
    /// rolls the record back; a log failure never reaches the merge.
    /// Returns `merge`'s result (the new epoch). The payload is logged as
    /// it is handed over; recovery reads it as the delta's byte form
    /// ([`BinArray::write_to`]), so a tenant hands over exactly that.
    pub fn append(
        &self,
        payload: &[u8],
        feeder_offset: Option<u64>,
        merge: impl FnOnce() -> Result<u64, ArcsError>,
    ) -> Result<u64, ArcsError> {
        let mut st = lock(&self.state);
        let mark = st.wal.mark();
        st.wal.append(payload, feeder_offset)?;
        match merge() {
            Ok(epoch) => {
                if feeder_offset.is_some() {
                    st.feeder_offset = feeder_offset;
                }
                Ok(epoch)
            }
            Err(err) => {
                // The record is durable but the snapshot never applied it;
                // drop it so replay cannot resurrect a batch memory rejected.
                st.wal.rollback_to(mark)?;
                Err(err)
            }
        }
    }

    /// Checkpoints when at least `min_records` have accumulated since
    /// the last one. `capture` reads the serving state — it runs under
    /// the append lock, so the (epoch, array) pair it returns is exactly
    /// the state produced by the logged records. After the checkpoint
    /// commits (its rename), the WAL is reset. Returns whether a
    /// checkpoint was written.
    pub fn checkpoint_with(
        &self,
        min_records: u64,
        capture: impl FnOnce() -> (u64, Arc<BinArray>),
    ) -> Result<bool, ArcsError> {
        let mut st = lock(&self.state);
        let last_seq = st.wal.next_seq() - 1;
        let pending = last_seq.saturating_sub(st.checkpoint_seq);
        if pending < min_records.max(1) {
            return Ok(false);
        }
        let (epoch, array) = capture();
        let expected = st.checkpoint_epoch + pending;
        if epoch != expected {
            return Err(checkpoint_err(format!(
                "epoch drift: serving epoch {epoch} but the log implies {expected} \
                 ({pending} records past checkpoint epoch {})",
                st.checkpoint_epoch
            )));
        }
        let meta = CheckpointMeta { epoch, last_seq, feeder_offset: st.feeder_offset };
        save_checkpoint(&self.dir.join(CHECKPOINT_META_FILE), &meta, &array)?;
        // The checkpoint is committed from here on: even if the reset
        // fails, replay skips seq <= last_seq, so update the bookkeeping
        // first and surface the reset error only for visibility.
        st.checkpoint_epoch = epoch;
        st.checkpoint_seq = last_seq;
        st.wal.reset(last_seq + 1)?;
        Ok(true)
    }

    // -- replication (primary side) -----------------------------------

    /// Sequence number of the last durably appended record (0 when the
    /// log has never held one).
    pub fn last_wal_seq(&self) -> u64 {
        lock(&self.state).wal.next_seq().saturating_sub(1)
    }

    /// Epoch of the last committed checkpoint.
    pub fn checkpoint_epoch(&self) -> u64 {
        lock(&self.state).checkpoint_epoch
    }

    /// `last_seq` of the last committed checkpoint.
    pub fn checkpoint_seq(&self) -> u64 {
        lock(&self.state).checkpoint_seq
    }

    /// Reads up to `max` WAL records starting at `from_seq`, re-encoded
    /// for shipping to a standby. Runs under the append lock, so the
    /// batch is a consistent prefix of the log: no append or checkpoint
    /// reset can interleave with the read.
    ///
    /// When `from_seq` predates the live log (those records were folded
    /// into a checkpoint and truncated away), the standby is too far
    /// behind to tail — the plan says so and it must install a
    /// [`CheckpointTransfer`] instead.
    ///
    /// The `repl.record` failpoint fires once per shipped record; a
    /// fault cuts the batch short at a record boundary (a torn ship),
    /// which the standby tolerates by re-requesting from its cursor.
    pub fn ship_records(&self, from_seq: u64, max: usize) -> Result<ShipPlan, ArcsError> {
        let st = lock(&self.state);
        let replayed = replay(st.wal.path())?;
        if from_seq < replayed.start_seq {
            return Ok(ShipPlan::Resync);
        }
        let mut records = Vec::new();
        for record in replayed.records.iter().filter(|r| r.seq >= from_seq).take(max.max(1)) {
            if faults::check("repl.record").is_err() {
                break;
            }
            records.push(ShippedRecord::encode(record));
        }
        Ok(ShipPlan::Records(records))
    }

    /// Reads the committed checkpoint (plus the tenant descriptor) for
    /// transfer to a bootstrapping or lagging standby. Needs no lock: a
    /// checkpoint commits by one rename, so a read sees a whole file.
    pub fn checkpoint_transfer(&self) -> Result<CheckpointTransfer, ArcsError> {
        let unreadable = |name: &str, e: std::io::Error| {
            checkpoint_err(format!("cannot read {}: {e}", self.dir.join(name).display()))
        };
        Ok(CheckpointTransfer {
            tenant_json: std::fs::read_to_string(self.dir.join(TENANT_META_FILE))
                .map_err(|e| unreadable(TENANT_META_FILE, e))?,
            checkpoint: std::fs::read(self.dir.join(CHECKPOINT_META_FILE))
                .map_err(|e| unreadable(CHECKPOINT_META_FILE, e))?,
        })
    }
}

/// What [`TenantStore::ship_records`] decided a tailing standby needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipPlan {
    /// Records from the live log, starting exactly at the requested
    /// sequence (empty when the standby is caught up).
    Records(Vec<ShippedRecord>),
    /// The requested sequence predates the live log: the standby must
    /// install a full checkpoint transfer and tail from there.
    Resync,
}

/// A committed checkpoint packaged for shipping: the tenant descriptor
/// and the checkpoint file's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointTransfer {
    /// `tenant.json` text.
    pub tenant_json: String,
    /// The checkpoint file: header plus array snapshot.
    pub checkpoint: Vec<u8>,
}

/// Installs a shipped checkpoint transfer as a standby tenant directory,
/// overwriting whatever stale state is there. The checkpoint is decoded
/// first, so a transfer mangled in flight is a typed error that touches
/// nothing; then the descriptor, the checkpoint (its rename commits it)
/// and a fresh WAL anchored at `last_seq + 1` are written, the order a
/// primary creates its own directory in.
pub fn install_transfer(dir: &Path, transfer: &CheckpointTransfer) -> Result<(), ArcsError> {
    let (checkpoint, _) = decode_checkpoint(&transfer.checkpoint)?;
    std::fs::create_dir_all(dir)?;
    write_atomic(&dir.join(TENANT_META_FILE), transfer.tenant_json.as_bytes())?;
    write_atomic(&dir.join(CHECKPOINT_META_FILE), &transfer.checkpoint)?;
    WalWriter::create(&dir.join(WAL_FILE), checkpoint.last_seq + 1)?;
    Ok(())
}

/// Where replaying a log on top of a checkpoint ended.
struct Replayed {
    /// Records folded in (those with `seq > last_seq`).
    records: u64,
    /// The serving epoch after them.
    epoch: u64,
    /// The latest feeder offset over the checkpoint and the records.
    feeder_offset: Option<u64>,
}

/// The checkpoint ⇄ WAL epoch contract, the one routine recovery and
/// fsck's deep audit share: refuses a log that starts past
/// `last_seq + 1` (records were lost between them), folds every record
/// with `seq > last_seq` into `array`, and counts the epoch and feeder
/// offset it ends at.
fn replay_onto(
    checkpoint: &CheckpointMeta,
    log: &WalReplay,
    array: &mut BinArray,
) -> Result<Replayed, ArcsError> {
    if log.start_seq > checkpoint.last_seq + 1 {
        return Err(checkpoint_err(format!(
            "sequence loss: WAL starts at seq {} but the checkpoint covers only up to {}",
            log.start_seq, checkpoint.last_seq
        )));
    }
    let mut replayed =
        Replayed { records: 0, epoch: checkpoint.epoch, feeder_offset: checkpoint.feeder_offset };
    for record in log.records.iter().filter(|r| r.seq > checkpoint.last_seq) {
        apply_record(array, record)?;
        replayed.records += 1;
        replayed.epoch += 1;
        if record.feeder_offset.is_some() {
            replayed.feeder_offset = record.feeder_offset;
        }
    }
    Ok(replayed)
}

/// Decodes one WAL record's delta and merges it into `array` — the
/// replay half of [`TenantStore::append`], bit-identical to the merge
/// the append made. A record whose payload is not a delta of `array`'s
/// grid does not apply.
fn apply_record(array: &mut BinArray, record: &WalRecord) -> Result<(), ArcsError> {
    BinArray::read_from(&record.payload)
        .and_then(|delta| array.merge(&delta))
        .map_err(|err| checkpoint_err(format!("WAL record {} does not apply: {err}", record.seq)))
}

/// Scans header-less CSV `rows` against `schema` in place and bins them
/// into a delta array: where appended rows arrive (wire appends and the
/// feeder), the only place a batch is parsed. The first bad row rejects
/// the batch with a [`arcs_data::DataError::Parse`] naming its line
/// within the batch (the first row is line 1).
pub fn bin_batch(schema: &Schema, binner: &Binner, rows: &str) -> Result<BinArray, ArcsError> {
    let mut delta = binner.new_bin_array()?;
    arcs_data::csv::scan_csv_rows(schema, rows.as_bytes(), |row| {
        let (x, y, g) = binner.bin_values(row);
        delta.add(x, y, g);
        Ok(())
    })?;
    Ok(delta)
}

// ---------------------------------------------------------------------------
// fsck
// ---------------------------------------------------------------------------

/// Audit result of one tenant directory.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantAudit {
    /// Directory (= tenant) name.
    pub name: String,
    /// Checkpoint epoch, when the checkpoint loaded.
    pub checkpoint_epoch: Option<u64>,
    /// Checkpoint `last_seq`, when the checkpoint loaded.
    pub checkpoint_seq: Option<u64>,
    /// WAL records in the valid prefix.
    pub wal_records: u64,
    /// Tail classification: `clean`, `torn`, or `corrupt`.
    pub tail: String,
    /// Reason the tail is invalid, for torn/corrupt tails.
    pub tail_reason: Option<String>,
    /// Bytes past the valid prefix (0 when clean).
    pub dropped_bytes: u64,
    /// Whether `--repair` truncated the tail / cleaned temp files.
    pub repaired: bool,
    /// Stale temporary files removed by repair.
    pub stale_tmp_removed: u64,
    /// Problems fsck cannot repair (missing/unreadable checkpoint,
    /// unreadable descriptor, records that fail to apply, sequence loss).
    pub errors: Vec<String>,
}

impl TenantAudit {
    /// `true` when the tenant needs no repair and has no errors.
    pub fn clean(&self) -> bool {
        self.errors.is_empty() && self.tail == "clean"
    }

    /// Serialises the audit for `arcs fsck --json` / jq assertions.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("checkpoint_epoch", self.checkpoint_epoch.map_or(Json::Null, |e| Json::Num(e as f64))),
            ("checkpoint_seq", self.checkpoint_seq.map_or(Json::Null, |s| Json::Num(s as f64))),
            ("wal_records", Json::Num(self.wal_records as f64)),
            ("tail", Json::Str(self.tail.clone())),
            ("tail_reason", self.tail_reason.clone().map_or(Json::Null, Json::Str)),
            ("dropped_bytes", Json::Num(self.dropped_bytes as f64)),
            ("repaired", Json::Bool(self.repaired)),
            ("stale_tmp_removed", Json::Num(self.stale_tmp_removed as f64)),
            ("errors", Json::Arr(self.errors.iter().map(|e| Json::Str(e.clone())).collect())),
        ])
    }
}

/// The whole data directory's audit.
#[derive(Debug, Clone, PartialEq)]
pub struct FsckReport {
    /// The audited data directory.
    pub data_dir: PathBuf,
    /// One audit per tenant directory found.
    pub tenants: Vec<TenantAudit>,
}

impl FsckReport {
    /// `true` when every tenant is clean (possibly after repair).
    pub fn clean(&self) -> bool {
        self.tenants.iter().all(|t| t.clean() || (t.repaired && t.errors.is_empty()))
    }

    /// Serialises the report for `arcs fsck` output.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("data_dir", Json::Str(self.data_dir.display().to_string())),
            ("clean", Json::Bool(self.clean())),
            ("tenants", Json::Arr(self.tenants.iter().map(TenantAudit::to_json).collect())),
        ])
    }
}

/// Audits (and with `repair`, fixes) every tenant directory under
/// `data_dir`. Repairs are the *safe* subset: truncating an invalid WAL
/// tail to the last whole record and removing stale temporary files. A
/// missing or unreadable checkpoint, an unreadable descriptor, a log
/// that starts past the checkpoint, or a record that no longer applies
/// is reported as an error — fsck never deletes checkpoints or invents
/// data.
pub fn fsck(data_dir: &Path, repair: bool) -> Result<FsckReport, ArcsError> {
    let mut tenants = Vec::new();
    let entries = std::fs::read_dir(data_dir)
        .map_err(|e| ArcsError::Io(format!("cannot read {}: {e}", data_dir.display())))?;
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.is_dir() && path.join(TENANT_META_FILE).is_file())
        .collect();
    dirs.sort();
    for dir in dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| dir.display().to_string());
        tenants.push(audit_tenant(&dir, name, repair));
    }
    Ok(FsckReport { data_dir: data_dir.to_path_buf(), tenants })
}

fn audit_tenant(dir: &Path, name: String, repair: bool) -> TenantAudit {
    let mut audit = TenantAudit {
        name,
        checkpoint_epoch: None,
        checkpoint_seq: None,
        wal_records: 0,
        tail: "clean".into(),
        tail_reason: None,
        dropped_bytes: 0,
        repaired: false,
        stale_tmp_removed: 0,
        errors: Vec::new(),
    };

    if repair {
        audit.stale_tmp_removed = remove_stale_tmp(dir);
        if audit.stale_tmp_removed > 0 {
            audit.repaired = true;
        }
    }

    if let Err(err) = TenantMeta::load(dir) {
        audit.errors.push(format!("tenant.json: {err}"));
    }

    let checkpoint = match load_checkpoint(&dir.join(CHECKPOINT_META_FILE)) {
        Ok(Some((meta, array))) => {
            audit.checkpoint_epoch = Some(meta.epoch);
            audit.checkpoint_seq = Some(meta.last_seq);
            Some((meta, array))
        }
        Ok(None) => {
            audit.errors.push("checkpoint missing (tenant.json exists)".into());
            None
        }
        Err(err) => {
            audit.errors.push(format!("checkpoint: {err}"));
            None
        }
    };

    let wal_path = dir.join(WAL_FILE);
    let replayed = if wal_path.is_file() {
        match replay(&wal_path) {
            Ok(replayed) => Some(replayed),
            Err(err) if other_wal_version(&wal_path) => {
                // A log this build cannot read is not damage: recreating
                // it would drop every record in it.
                audit.errors.push(format!("wal: {err}"));
                None
            }
            Err(err) => {
                // An unreadable header: repair can only recreate an empty
                // log continuing from the checkpoint.
                if repair {
                    if let Some((meta, _)) = &checkpoint {
                        match WalWriter::create(&wal_path, meta.last_seq + 1) {
                            Ok(_) => {
                                audit.repaired = true;
                                audit.tail = "clean".into();
                                audit.tail_reason.replace(format!("log recreated after: {err}"));
                            }
                            Err(err) => audit.errors.push(format!("wal recreate: {err}")),
                        }
                    } else {
                        audit
                            .errors
                            .push(format!("wal: {err} (no checkpoint to anchor a new log)"));
                    }
                } else {
                    audit.errors.push(format!("wal: {err}"));
                }
                None
            }
        }
    } else {
        if let Some((meta, _)) = &checkpoint {
            if repair {
                match WalWriter::create(&wal_path, meta.last_seq + 1) {
                    Ok(_) => audit.repaired = true,
                    Err(err) => audit.errors.push(format!("wal recreate: {err}")),
                }
            } else {
                audit.errors.push("wal.log missing".into());
            }
        } else {
            audit.errors.push("wal.log missing".into());
        }
        None
    };

    if let Some(replayed) = replayed {
        audit.wal_records = replayed.records.len() as u64;
        match &replayed.tail {
            WalTail::Clean => {}
            WalTail::Torn { valid_len, dropped_bytes } => {
                audit.tail = "torn".into();
                audit.dropped_bytes = *dropped_bytes;
                audit.tail_reason = Some("file ends mid-record".into());
                if repair {
                    match truncate_file(&wal_path, *valid_len) {
                        Ok(()) => {
                            audit.repaired = true;
                            audit.tail = "clean".into();
                        }
                        Err(err) => audit.errors.push(format!("truncate: {err}")),
                    }
                }
            }
            WalTail::Corrupt { valid_len, dropped_bytes, reason } => {
                audit.tail = "corrupt".into();
                audit.dropped_bytes = *dropped_bytes;
                audit.tail_reason = Some(reason.clone());
                if repair {
                    match truncate_file(&wal_path, *valid_len) {
                        Ok(()) => {
                            audit.repaired = true;
                            audit.tail = "clean".into();
                        }
                        Err(err) => audit.errors.push(format!("truncate: {err}")),
                    }
                }
            }
        }

        // Deep audit: the surviving records must apply on top of the
        // checkpoint through the routine recovery runs.
        if let Some((checkpoint, mut array)) = checkpoint {
            if let Err(err) = replay_onto(&checkpoint, &replayed, &mut array) {
                audit.errors.push(err.to_string());
            }
        }
    }

    audit
}

/// `true` when the file at `path` starts with the WAL magic but names a
/// format version other than this build's.
fn other_wal_version(path: &Path) -> bool {
    let mut header = [0u8; 8];
    std::fs::File::open(path).and_then(|mut file| file.read_exact(&mut header)).is_ok()
        && header[..7] == WAL_MAGIC[..7]
        && header[7] != WAL_MAGIC[7]
}

fn truncate_file(path: &Path, len: u64) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_data()?;
    Ok(())
}

fn remove_stale_tmp(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if (name.ends_with(".tmp") || name.ends_with(".reset"))
            && std::fs::remove_file(&path).is_ok()
        {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_data::{Dataset, Value};

    fn tiny_schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("g", ["A", "other"]),
        ])
        .unwrap()
    }

    fn tiny_meta() -> TenantMeta {
        TenantMeta {
            x: "x".into(),
            y: "y".into(),
            criterion: "g".into(),
            n_x_bins: 10,
            n_y_bins: 10,
            schema: tiny_schema(),
        }
    }

    fn tiny_array(meta: &TenantMeta) -> BinArray {
        let mut ds = Dataset::new(meta.schema.clone());
        for i in 0..40 {
            let (x, y) = ((i % 10) as f64 + 0.5, ((i / 10) % 10) as f64 + 0.5);
            ds.push(&[Value::Quant(x), Value::Quant(y), Value::Cat((i % 2) as u32)]).unwrap();
        }
        meta.build_binner().unwrap().bin_rows_parallel(ds.rows(), 1).unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("arcs-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The delta of header-less CSV `rows` and its byte form: what a
    /// tenant's append hands [`TenantStore::append`].
    fn delta_of(meta: &TenantMeta, rows: &str) -> (BinArray, Vec<u8>) {
        let delta = bin_batch(&meta.schema, &meta.build_binner().unwrap(), rows).unwrap();
        let mut bytes = Vec::new();
        delta.write_to(&mut bytes).unwrap();
        (delta, bytes)
    }

    #[test]
    fn tenant_meta_round_trips() {
        let meta = tiny_meta();
        let text = meta.to_json().to_string();
        let back = TenantMeta::from_json(&arcs_core::jsonio::parse(&text).unwrap()).unwrap();
        assert_eq!(back, meta);
        assert!(TenantMeta::from_json(&arcs_core::jsonio::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn tenant_names_are_validated() {
        for good in ["trades", "a", "x-1_2.v3", "UPPER"] {
            assert!(valid_tenant_name(good), "{good}");
        }
        for bad in ["", ".", "..", ".hidden", "a/b", "a\\b", "a b", "é", &"x".repeat(200)] {
            assert!(!valid_tenant_name(bad), "{bad}");
        }
    }

    #[test]
    fn create_open_round_trips_with_wal_replay() {
        let dir = temp_dir("roundtrip");
        let meta = tiny_meta();
        let array = tiny_array(&meta);
        let store = TenantStore::create(&dir, &meta, &array, Some(100)).unwrap();

        // Two durable appends, as the serving path would issue them.
        let mut live = array.clone();
        let mut epoch = 0u64;
        for (rows, offset) in [("2.5,2.5,A\n", None), ("3.5,3.5,other\n", Some(250u64))] {
            let (delta, bytes) = delta_of(&meta, rows);
            epoch = store
                .append(&bytes, offset, || {
                    live.merge(&delta)?;
                    epoch += 1;
                    Ok(epoch)
                })
                .unwrap();
        }
        assert_eq!(store.records_since_checkpoint(), 2);
        assert_eq!(store.feeder_offset(), Some(250));
        drop(store);

        let (reopened, back_meta, recovered, report) = TenantStore::open(&dir).unwrap();
        assert_eq!(back_meta, meta);
        assert_eq!(report, RecoveryReport { replayed_records: 2, torn_bytes: 0, epoch: 2 });
        assert_eq!(recovered.checksum(), live.checksum());
        assert_eq!(reopened.feeder_offset(), Some(250));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_merges_roll_the_wal_back() {
        let dir = temp_dir("rollback");
        let meta = tiny_meta();
        let array = tiny_array(&meta);
        let store = TenantStore::create(&dir, &meta, &array, None).unwrap();

        let (_, bytes) = delta_of(&meta, "9.5,9.5,A\n");
        let err = store
            .append(&bytes, None, || Err(ArcsError::InvalidConfig("merge failed".into())))
            .unwrap_err();
        assert!(matches!(err, ArcsError::InvalidConfig(_)));
        assert_eq!(store.records_since_checkpoint(), 0);
        drop(store);

        // Recovery sees no record of the failed batch.
        let (_, _, recovered, report) = TenantStore::open(&dir).unwrap();
        assert_eq!(report.replayed_records, 0);
        assert_eq!(recovered.checksum(), array.checksum());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_recovery_resumes() {
        let dir = temp_dir("checkpoint");
        let meta = tiny_meta();
        let array = tiny_array(&meta);
        let store = TenantStore::create(&dir, &meta, &array, None).unwrap();

        let mut live = array.clone();
        let mut epoch = 0u64;
        let push = |store: &TenantStore, live: &mut BinArray, epoch: &mut u64, rows: &str| {
            let (delta, bytes) = delta_of(&meta, rows);
            store
                .append(&bytes, None, || {
                    live.merge(&delta)?;
                    *epoch += 1;
                    Ok(*epoch)
                })
                .unwrap();
        };
        push(&store, &mut live, &mut epoch, "1.5,1.5,A\n");
        push(&store, &mut live, &mut epoch, "2.5,2.5,other\n");

        // Below the threshold: no checkpoint.
        assert!(!store.checkpoint_with(3, || unreachable!()).unwrap());
        let live_snapshot = Arc::new(live.clone());
        assert!(store.checkpoint_with(2, || (epoch, Arc::clone(&live_snapshot))).unwrap());
        assert_eq!(store.records_since_checkpoint(), 0);

        push(&store, &mut live, &mut epoch, "3.5,3.5,A\n");
        drop(store);

        let (_, _, recovered, report) = TenantStore::open(&dir).unwrap();
        assert_eq!(report.replayed_records, 1, "only the post-checkpoint record replays");
        assert_eq!(report.epoch, 3);
        assert_eq!(recovered.checksum(), live.checksum());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_drift_is_refused_at_checkpoint() {
        let dir = temp_dir("drift");
        let meta = tiny_meta();
        let array = tiny_array(&meta);
        let store = TenantStore::create(&dir, &meta, &array, None).unwrap();
        store.append(&delta_of(&meta, "1.5,1.5,A\n").1, None, || Ok(1)).unwrap();
        let snapshot = Arc::new(array.clone());
        let err = store.checkpoint_with(1, || (7, Arc::clone(&snapshot))).unwrap_err();
        assert!(err.to_string().contains("epoch drift"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_detects_and_repairs_torn_and_corrupt_tails() {
        let data_dir = temp_dir("fsck");
        let dir = data_dir.join("trades");
        let meta = tiny_meta();
        let array = tiny_array(&meta);
        let store = TenantStore::create(&dir, &meta, &array, None).unwrap();
        let mut live = array.clone();
        let mut epoch = 0;
        for rows in ["1.5,1.5,A\n", "2.5,2.5,other\n"] {
            let (delta, bytes) = delta_of(&meta, rows);
            store
                .append(&bytes, None, || {
                    live.merge(&delta)?;
                    epoch += 1;
                    Ok(epoch)
                })
                .unwrap();
        }
        drop(store);

        // Clean directory audits clean.
        let report = fsck(&data_dir, false).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.tenants[0].wal_records, 2);

        // Tear the tail: detected without repair, fixed with it.
        let wal_path = dir.join(WAL_FILE);
        let full = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &full[..full.len() - 5]).unwrap();
        let report = fsck(&data_dir, false).unwrap();
        assert!(!report.clean());
        assert_eq!(report.tenants[0].tail, "torn");
        let report = fsck(&data_dir, true).unwrap();
        assert!(report.clean(), "{report:?}");
        assert!(report.tenants[0].repaired);
        assert!(TenantStore::open(&dir).is_ok(), "repaired directory must open");

        // Corrupt a byte mid-log: classified corrupt, repair truncates.
        let full = std::fs::read(&wal_path).unwrap();
        let mut flipped = full.clone();
        let target = flipped.len() - 10;
        flipped[target] ^= 0x20;
        std::fs::write(&wal_path, &flipped).unwrap();
        let report = fsck(&data_dir, false).unwrap();
        assert!(!report.clean());
        assert_eq!(report.tenants[0].tail, "corrupt");
        let report = fsck(&data_dir, true).unwrap();
        assert!(report.clean(), "{report:?}");
        let (_, _, _, recovery) = TenantStore::open(&dir).unwrap();
        assert_eq!(recovery.torn_bytes, 0);
        std::fs::remove_dir_all(&data_dir).ok();
    }

    #[test]
    fn fsck_reports_unrepairable_problems() {
        let data_dir = temp_dir("fsck-bad");
        let dir = data_dir.join("broken");
        let meta = tiny_meta();
        let array = tiny_array(&meta);
        TenantStore::create(&dir, &meta, &array, None).unwrap();

        // A missing checkpoint is beyond fsck's remit.
        std::fs::remove_file(dir.join(CHECKPOINT_META_FILE)).unwrap();
        let report = fsck(&data_dir, true).unwrap();
        assert!(!report.clean());
        assert!(report.tenants[0].errors.iter().any(|e| e.contains("checkpoint")), "{report:?}");
        std::fs::remove_dir_all(&data_dir).ok();
    }

    /// Appends `rows` batches through the store the way the serving path
    /// would, returning the live array and final epoch.
    fn append_all(
        store: &TenantStore,
        meta: &TenantMeta,
        array: &BinArray,
        rows: &[&str],
    ) -> (BinArray, u64) {
        let mut live = array.clone();
        let mut epoch = 0u64;
        for batch in rows {
            let (delta, bytes) = delta_of(meta, batch);
            epoch = store
                .append(&bytes, None, || {
                    live.merge(&delta)?;
                    epoch += 1;
                    Ok(epoch)
                })
                .unwrap();
        }
        (live, epoch)
    }

    #[test]
    fn ship_records_streams_the_live_log_and_signals_resync() {
        let dir = temp_dir("ship");
        let meta = tiny_meta();
        let array = tiny_array(&meta);
        let store = TenantStore::create(&dir, &meta, &array, None).unwrap();
        let batches = ["1.5,1.5,A\n", "2.5,2.5,other\n", "3.5,3.5,A\n"];
        let (live, epoch) = append_all(&store, &meta, &array, &batches);

        // The full log ships in order and decodes back to the payloads.
        let ShipPlan::Records(all) = store.ship_records(1, 100).unwrap() else {
            panic!("expected records");
        };
        assert_eq!(all.len(), 3);
        for (i, shipped) in all.iter().enumerate() {
            assert_eq!(shipped.seq, i as u64 + 1);
            assert_eq!(shipped.decode().unwrap().payload, delta_of(&meta, batches[i]).1);
        }

        // A mid-log cursor gets the suffix; `max` bounds the batch; a
        // caught-up cursor gets an empty batch, not an error.
        assert!(
            matches!(store.ship_records(3, 100).unwrap(), ShipPlan::Records(r) if r.len() == 1)
        );
        assert!(matches!(store.ship_records(1, 2).unwrap(), ShipPlan::Records(r) if r.len() == 2));
        assert!(
            matches!(store.ship_records(4, 100).unwrap(), ShipPlan::Records(r) if r.is_empty())
        );

        // After a checkpoint truncates the log, pre-checkpoint cursors
        // must re-sync; the caught-up cursor still tails normally.
        let snapshot = Arc::new(live);
        assert!(store.checkpoint_with(1, || (epoch, Arc::clone(&snapshot))).unwrap());
        assert_eq!(store.ship_records(2, 100).unwrap(), ShipPlan::Resync);
        assert!(
            matches!(store.ship_records(4, 100).unwrap(), ShipPlan::Records(r) if r.is_empty())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_transfer_installs_as_an_identical_standby() {
        let data_dir = temp_dir("transfer");
        let primary_dir = data_dir.join("primary");
        let standby_dir = data_dir.join("standby");
        let meta = tiny_meta();
        let array = tiny_array(&meta);
        let store = TenantStore::create(&primary_dir, &meta, &array, Some(64)).unwrap();
        let (live, epoch) = append_all(&store, &meta, &array, &["1.5,1.5,A\n", "2.5,2.5,other\n"]);
        let snapshot = Arc::new(live.clone());
        assert!(store.checkpoint_with(1, || (epoch, Arc::clone(&snapshot))).unwrap());

        let transfer = store.checkpoint_transfer().unwrap();
        let (header, _) = decode_checkpoint(&transfer.checkpoint).unwrap();
        assert_eq!((header.epoch, header.last_seq, header.feeder_offset), (2, 2, Some(64)));

        // A checkpoint mangled or cut short in flight is refused before
        // anything is written.
        let mut flipped = transfer.clone();
        flipped.checkpoint[40] ^= 0x40;
        assert!(install_transfer(&standby_dir, &flipped).is_err());
        let mut cut = transfer.clone();
        cut.checkpoint.truncate(cut.checkpoint.len() - 1);
        assert!(install_transfer(&standby_dir, &cut).is_err());
        assert!(!standby_dir.exists(), "a refused transfer wrote nothing");

        // The intact transfer installs and opens bit-identically at the
        // primary's checkpoint state.
        install_transfer(&standby_dir, &transfer).unwrap();
        let (standby, standby_meta, recovered, report) = TenantStore::open(&standby_dir).unwrap();
        assert_eq!(standby_meta, meta);
        assert_eq!(report.epoch, 2);
        assert_eq!(recovered.checksum(), live.checksum());
        assert_eq!(standby.last_wal_seq(), 2);
        assert_eq!(standby.checkpoint_epoch(), 2);
        assert_eq!(standby.checkpoint_seq(), 2);

        // The standby's log continues the primary's numbering.
        append_all(&standby, &meta, &recovered, &["4.5,4.5,A\n"]);
        let ShipPlan::Records(records) = standby.ship_records(3, 10).unwrap() else {
            panic!("expected records");
        };
        assert_eq!(records[0].seq, 3);
        std::fs::remove_dir_all(&data_dir).ok();
    }

    #[test]
    fn wal_starting_past_the_checkpoint_is_refused_by_open_and_fsck() {
        let data_dir = temp_dir("seq-loss");
        let dir = data_dir.join("t");
        let meta = tiny_meta();
        let array = tiny_array(&meta);
        let store = TenantStore::create(&dir, &meta, &array, None).unwrap();
        let (live, epoch) = append_all(&store, &meta, &array, &["1.5,1.5,A\n", "2.5,2.5,other\n"]);
        let snapshot = Arc::new(live);
        assert!(store.checkpoint_with(1, || (epoch, Arc::clone(&snapshot))).unwrap());
        drop(store);

        // The checkpoint covers seqs 1..=2; a log that starts at 5 lost
        // records 3 and 4.
        let wal_path = dir.join(WAL_FILE);
        let mut wal = WalWriter::create(&wal_path, 5).unwrap();
        wal.append(&delta_of(&meta, "3.5,3.5,A\n").1, None).unwrap();
        drop(wal);
        let wal_bytes = std::fs::read(&wal_path).unwrap();

        let err = TenantStore::open(&dir).unwrap_err();
        assert!(matches!(err, ArcsError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("sequence loss"), "{err}");
        for repair in [false, true] {
            let report = fsck(&data_dir, repair).unwrap();
            assert!(!report.clean(), "{report:?}");
            assert_eq!(report.tenants[0].errors, vec![err.to_string()]);
        }
        assert_eq!(std::fs::read(&wal_path).unwrap(), wal_bytes, "fsck left the log alone");
        std::fs::remove_dir_all(&data_dir).ok();
    }

    /// A directory in the two-file layout (a JSON `checkpoint.meta`
    /// sidecar plus an epoch-versioned array file) is refused, and
    /// `fsck --repair` deletes none of it.
    #[test]
    fn two_file_checkpoint_layout_is_refused_and_left_on_disk() {
        let data_dir = temp_dir("two-file");
        let dir = data_dir.join("t");
        std::fs::create_dir_all(&dir).unwrap();
        let meta = tiny_meta();
        let array = tiny_array(&meta);
        meta.save(&dir).unwrap();
        let mut array_bytes = Vec::new();
        array.write_to(&mut array_bytes).unwrap();
        let sidecar = "{\"version\":1,\"epoch\":0,\"last_seq\":0,\"feeder_offset\":null}";
        std::fs::write(dir.join("checkpoint.0.bin"), &array_bytes).unwrap();
        std::fs::write(dir.join(CHECKPOINT_META_FILE), sidecar).unwrap();
        WalWriter::create(&dir.join(WAL_FILE), 1).unwrap();

        let err = TenantStore::open(&dir).unwrap_err();
        assert!(matches!(err, ArcsError::Checkpoint { .. }), "{err}");
        let report = fsck(&data_dir, true).unwrap();
        assert!(!report.clean(), "{report:?}");
        assert!(report.tenants[0].errors[0].starts_with("checkpoint: "), "{report:?}");
        assert_eq!(std::fs::read(dir.join("checkpoint.0.bin")).unwrap(), array_bytes);
        assert_eq!(std::fs::read_to_string(dir.join(CHECKPOINT_META_FILE)).unwrap(), sidecar);
        std::fs::remove_dir_all(&data_dir).ok();
    }

    /// The previous format's checkpoint file for `array` at epoch 0: the
    /// same header, holding the array's version 1 dense form (the
    /// dimensions and tuple count as `u64`s, every counter as a `u32`,
    /// an FNV-1a checksum), under the file's FNV-1a checksum.
    fn v1_checkpoint(array: &BinArray) -> Vec<u8> {
        let fnv = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let mut dense = b"ARCSBA\x00\x01".to_vec();
        for value in [array.nx() as u64, array.ny() as u64, array.nseg() as u64, array.n_tuples()] {
            dense.extend_from_slice(&value.to_le_bytes());
        }
        for y in 0..array.ny() {
            for x in 0..array.nx() {
                for g in 0..array.nseg() as u32 {
                    dense.extend_from_slice(&array.group_count(x, y, g).to_le_bytes());
                }
                dense.extend_from_slice(&array.cell_total(x, y).to_le_bytes());
            }
        }
        let checksum = fnv(&dense);
        dense.extend_from_slice(&checksum.to_le_bytes());
        let mut file = b"ARCSCP\x00\x01".to_vec();
        for value in [0, 0, u64::MAX] {
            file.extend_from_slice(&value.to_le_bytes());
        }
        file.extend_from_slice(&dense);
        let checksum = fnv(&file);
        file.extend_from_slice(&checksum.to_le_bytes());
        file
    }

    /// What the previous format wrote — a version 1 log of CSV rows, or a
    /// checkpoint holding a version 1 array — is refused by `open` with
    /// an error naming the version, and `fsck` reports it and leaves it
    /// byte for byte, `--repair` included.
    #[test]
    fn earlier_format_versions_are_refused_and_left_on_disk() {
        let data_dir = temp_dir("v1");
        let dir = data_dir.join("t");
        let meta = tiny_meta();
        let array = tiny_array(&meta);
        TenantStore::create(&dir, &meta, &array, None).unwrap();
        let (wal_path, checkpoint_path) = (dir.join(WAL_FILE), dir.join(CHECKPOINT_META_FILE));

        let mut v1_log = b"ARCSWL\x00\x01".to_vec();
        v1_log.extend_from_slice(&1u64.to_le_bytes());
        v1_log.extend_from_slice(&arcs_core::wal::encode_record(1, None, b"1.5,1.5,A\n"));
        let cases = [
            (v1_log, std::fs::read(&checkpoint_path).unwrap(), "WAL version 1"),
            (std::fs::read(&wal_path).unwrap(), v1_checkpoint(&array), "bin array version 1"),
        ];
        for (log, checkpoint, version) in cases {
            std::fs::write(&wal_path, &log).unwrap();
            std::fs::write(&checkpoint_path, &checkpoint).unwrap();
            let err = TenantStore::open(&dir).unwrap_err();
            assert!(matches!(err, ArcsError::Checkpoint { .. }), "{err}");
            assert!(err.to_string().contains(version), "{version}: {err}");
            for repair in [false, true] {
                let report = fsck(&data_dir, repair).unwrap();
                assert!(!report.clean(), "{report:?}");
                let errors = &report.tenants[0].errors;
                assert!(errors.iter().any(|e| e.contains(version)), "{version}: {errors:?}");
                assert_eq!(std::fs::read(&wal_path).unwrap(), log, "{version}: the log moved");
                assert_eq!(std::fs::read(&checkpoint_path).unwrap(), checkpoint, "{version}");
            }
        }
        std::fs::remove_dir_all(&data_dir).ok();
    }

    #[test]
    fn empty_wal_file_reanchors_to_the_checkpoint_on_open() {
        let dir = temp_dir("reanchor");
        let meta = tiny_meta();
        let array = tiny_array(&meta);
        let store = TenantStore::create(&dir, &meta, &array, None).unwrap();
        let (live, epoch) = append_all(&store, &meta, &array, &["1.5,1.5,A\n", "2.5,2.5,other\n"]);
        let snapshot = Arc::new(live.clone());
        assert!(store.checkpoint_with(1, || (epoch, Arc::clone(&snapshot))).unwrap());
        drop(store);

        // Lose the log entirely (a zero-byte file, e.g. created but never
        // written). Recovery must anchor the fresh log at checkpoint
        // last_seq + 1 so new appends are not replay-skipped.
        std::fs::write(dir.join(WAL_FILE), b"").unwrap();
        let (reopened, _, recovered, report) = TenantStore::open(&dir).unwrap();
        assert_eq!(report, RecoveryReport { replayed_records: 0, torn_bytes: 0, epoch: 2 });
        assert_eq!(recovered.checksum(), live.checksum());
        assert_eq!(reopened.last_wal_seq(), 2);
        let (live2, _) = append_all(&reopened, &meta, &recovered, &["3.5,3.5,A\n"]);
        drop(reopened);

        let (_, _, recovered2, report2) = TenantStore::open(&dir).unwrap();
        assert_eq!(report2.replayed_records, 1, "the new append must replay, not be skipped");
        assert_eq!(report2.epoch, 3);
        assert_eq!(recovered2.checksum(), live2.checksum());
        std::fs::remove_dir_all(&dir).ok();
    }
}
