//! WAL-shipping replication: the daemon-side wiring.
//!
//! The transport-independent pieces (shipped-record framing, the
//! counters) live in [`arcs_core::repl`]; this module connects them to
//! sockets and tenants:
//!
//! * **[`RoleState`] / [`ReplContext`]** — whether this daemon is the
//!   writable primary or a read-only standby, shared by every connection
//!   handler (the `append` arm refuses writes on a standby with the
//!   typed `NOT_PRIMARY` code) and flipped exactly once by promotion
//!   (the `promote` wire op, or `SIGHUP` to an `arcs daemon` standby
//!   process, which calls [`RoleState::promote`]).
//! * **Primary handlers** — [`handle_subscribe`], [`handle_records`],
//!   and [`handle_heartbeat`] serve the `repl.*` wire ops by reading the
//!   tenant's [`TenantStore`]: a subscriber gets a checkpoint transfer
//!   (`tenant.json` plus the checkpoint file), records ship as the exact
//!   encoded WAL bytes (hex-armored), and a request that predates the
//!   live log is told to re-sync.
//! * **The tailer** — a standby runs one background thread that polls
//!   the primary: heartbeat → discover tenants → fetch record batches →
//!   [`apply_batch`], which decodes each record's delta array and appends
//!   it through [`Tenant::append_delta`], the routine live writes take,
//!   so the standby's WAL, checkpoints, and epochs obey exactly the
//!   durability invariants of a primary. The array's byte form is
//!   canonical, so the standby logs each record with the primary's seq,
//!   feeder offset and payload bytes, and parses no CSV. Each
//!   shipped seq is checked against the standby log's next seq: a lower
//!   one is a duplicate to skip, a higher one a gap. A gap or checksum
//!   failure refuses the batch (never a partial apply past the valid
//!   prefix); a gap triggers a checkpoint re-sync.
//!
//! Fault schedules drive the subsystem through the `repl.subscribe`,
//! `repl.records`, `repl.record`, `repl.apply`, and `repl.heartbeat`
//! failpoints catalogued in [`arcs_core::faults`].
//!
//! [`TenantStore`]: crate::store::TenantStore

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use arcs_core::faults;
use arcs_core::jsonio::{obj, Json};
use arcs_core::repl::{from_hex, to_hex, ReplMetrics, ShippedRecord};
use arcs_core::serve::ServeConfig;
use arcs_core::BinArray;

use crate::client::Client;
use crate::protocol::{ok_response, DurabilityStats, WireError, DEFAULT_REPL_BATCH, MAX_FRAME};
use crate::registry::{Registry, Tenant};
use crate::store::{
    install_transfer, valid_tenant_name, CheckpointTransfer, ShipPlan, TenantStore,
};

// ---------------------------------------------------------------------------
// Role
// ---------------------------------------------------------------------------

/// The daemon's replication role. Starts as `primary` (writable) or
/// `standby` (read-only, tailing a primary); promotion flips a standby
/// to primary exactly once and is irreversible for the process lifetime
/// — a demotion would have to reconcile writes the old primary acked,
/// which is re-seeding, not a flag flip.
#[derive(Debug)]
pub struct RoleState {
    standby: AtomicBool,
    primary: Mutex<String>,
}

impl RoleState {
    /// A writable primary.
    pub fn primary() -> RoleState {
        RoleState { standby: AtomicBool::new(false), primary: Mutex::new(String::new()) }
    }

    /// A read-only standby tailing the primary at `primary_addr`.
    pub fn standby(primary_addr: &str) -> RoleState {
        RoleState { standby: AtomicBool::new(true), primary: Mutex::new(primary_addr.to_string()) }
    }

    /// `true` while this daemon refuses writes.
    pub fn is_standby(&self) -> bool {
        self.standby.load(Ordering::SeqCst)
    }

    /// `"primary"` or `"standby"`, for status output.
    pub fn name(&self) -> &'static str {
        if self.is_standby() {
            "standby"
        } else {
            "primary"
        }
    }

    /// The primary's address, while this daemon is a standby.
    pub fn primary_addr(&self) -> Option<String> {
        if self.is_standby() {
            Some(self.primary.lock().unwrap_or_else(|p| p.into_inner()).clone())
        } else {
            None
        }
    }

    /// Promotes a standby to primary. Returns whether the call actually
    /// flipped the role (`false` on an already-primary daemon, making
    /// promotion idempotent).
    pub fn promote(&self) -> bool {
        self.standby.swap(false, Ordering::SeqCst)
    }
}

/// Replication state shared by every connection handler and the tailer:
/// the role and the subsystem counters.
#[derive(Debug)]
pub struct ReplContext {
    /// Writable primary vs read-only standby.
    pub role: RoleState,
    /// Lock-free replication counters.
    pub metrics: ReplMetrics,
}

impl ReplContext {
    /// Context for a writable primary.
    pub fn primary() -> ReplContext {
        ReplContext { role: RoleState::primary(), metrics: ReplMetrics::new() }
    }

    /// Context for a standby tailing `primary_addr`.
    pub fn standby(primary_addr: &str) -> ReplContext {
        ReplContext { role: RoleState::standby(primary_addr), metrics: ReplMetrics::new() }
    }
}

/// How a standby daemon tails its primary.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// The primary's `HOST:PORT`.
    pub primary: String,
    /// The standby's data directory (checkpoint transfers install here).
    pub data_dir: PathBuf,
    /// How often the tailer polls the primary.
    pub poll_interval: Duration,
    /// Serving configuration for tenants the tailer installs.
    pub serve: ServeConfig,
}

impl ReplicationConfig {
    /// A config tailing `primary` into `data_dir` at a 50 ms poll with
    /// default serving limits.
    pub fn new(primary: &str, data_dir: &std::path::Path) -> ReplicationConfig {
        ReplicationConfig {
            primary: primary.to_string(),
            data_dir: data_dir.to_path_buf(),
            poll_interval: Duration::from_millis(50),
            serve: ServeConfig::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Primary-side wire handlers
// ---------------------------------------------------------------------------

fn wire(err: &arcs_core::ArcsError) -> WireError {
    WireError::from_arcs(err)
}

fn durable_store(tenant: &Tenant) -> Result<&TenantStore, WireError> {
    tenant.store().ok_or_else(|| {
        wire(&arcs_core::ArcsError::InvalidConfig(format!(
            "dataset `{}` is not durable: only data-dir tenants replicate",
            tenant.name()
        )))
    })
}

/// Per-tenant durability figures for `stats` and `repl.heartbeat`.
pub fn durability(store: &TenantStore) -> DurabilityStats {
    DurabilityStats {
        last_wal_seq: store.last_wal_seq(),
        checkpoint_epoch: store.checkpoint_epoch(),
        checkpoint_seq: store.checkpoint_seq(),
        wal_bytes: store.wal_bytes(),
    }
}

/// Serves `repl.subscribe`: a standby bootstrapping or re-syncing a
/// tenant. The reply carries a checkpoint transfer — `tenant.json` plus
/// the checkpoint file, hex-armored — for the standby to install and
/// tail from.
pub fn handle_subscribe(tenant: &Tenant) -> Result<Json, WireError> {
    faults::check("repl.subscribe").map_err(|e| wire(&e))?;
    let transfer = durable_store(tenant)?.checkpoint_transfer().map_err(|e| wire(&e))?;
    Ok(ok_response(vec![
        ("dataset", Json::Str(tenant.name().to_string())),
        ("tenant_json", Json::Str(transfer.tenant_json)),
        ("checkpoint_hex", Json::Str(to_hex(&transfer.checkpoint))),
    ]))
}

/// Serves `repl.records`: up to `max` encoded WAL records from
/// `start_seq`, or the re-sync signal when the cursor predates the live
/// log. Ships the exact bytes the primary's own recovery would replay.
/// The batch stops before the encoded reply would pass [`MAX_FRAME`],
/// but always carries at least one record, so a standby far behind
/// catches up over several replies.
pub fn handle_records(
    tenant: &Tenant,
    start_seq: u64,
    max: u64,
    metrics: &ReplMetrics,
) -> Result<Json, WireError> {
    faults::check("repl.records").map_err(|e| wire(&e))?;
    let store = durable_store(tenant)?;
    match store.ship_records(start_seq, max as usize).map_err(|e| wire(&e))? {
        ShipPlan::Resync => Ok(ok_response(vec![("resync", Json::Bool(true))])),
        ShipPlan::Records(records) => {
            let last_seq = store.last_wal_seq();
            let reply = |items| {
                ok_response(vec![
                    ("resync", Json::Bool(false)),
                    ("records", Json::Arr(items)),
                    ("last_seq", Json::Num(last_seq as f64)),
                ])
            };
            let mut size = reply(Vec::new()).to_string().len();
            let mut items = Vec::new();
            for record in &records {
                let item = obj(vec![
                    ("seq", Json::Num(record.seq as f64)),
                    ("hex", Json::Str(record.to_hex())),
                ]);
                // The item plus the comma before it, after the first.
                let grown = size + item.to_string().len() + usize::from(!items.is_empty());
                if !items.is_empty() && grown > MAX_FRAME {
                    break;
                }
                size = grown;
                items.push(item);
            }
            ReplMetrics::add(&metrics.records_shipped, items.len() as u64);
            Ok(reply(items))
        }
    }
}

/// Serves `repl.heartbeat`: the daemon's role, its primary's address
/// (when it is a standby), the datasets it serves, the replication
/// counters, and — when a dataset is named — that tenant's durability
/// positions. Also the body behind `arcs repl-status`.
pub fn handle_heartbeat(
    registry: &Registry,
    ctx: &ReplContext,
    tenant: Option<Arc<Tenant>>,
) -> Result<Json, WireError> {
    faults::check("repl.heartbeat").map_err(|e| wire(&e))?;
    ReplMetrics::add(&ctx.metrics.heartbeats, 1);
    let [shipped, applied, gaps, resyncs, heartbeats] = ctx.metrics.snapshot();
    let mut fields = vec![
        ("role", Json::Str(ctx.role.name().to_string())),
        ("primary", ctx.role.primary_addr().map_or(Json::Null, Json::Str)),
        ("datasets", Json::Arr(registry.names().into_iter().map(Json::Str).collect())),
        (
            "repl",
            obj(vec![
                ("records_shipped", Json::Num(shipped as f64)),
                ("records_applied", Json::Num(applied as f64)),
                ("gaps_refused", Json::Num(gaps as f64)),
                ("resyncs", Json::Num(resyncs as f64)),
                ("heartbeats", Json::Num(heartbeats as f64)),
            ]),
        ),
    ];
    if let Some(tenant) = tenant {
        fields.push(("dataset", Json::Str(tenant.name().to_string())));
        if let Some(store) = tenant.store() {
            fields.push(("durability", durability(store).to_json()));
        }
    }
    Ok(ok_response(fields))
}

// ---------------------------------------------------------------------------
// Standby-side parsing and apply
// ---------------------------------------------------------------------------

/// Decodes a `repl.subscribe` response body into the transfer it
/// carries. The checkpoint inside is verified at install time.
pub fn parse_subscribe(body: &Json) -> Result<CheckpointTransfer, String> {
    let text = |key: &str| {
        body.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("subscribe transfer lacks `{key}`"))
    };
    Ok(CheckpointTransfer {
        tenant_json: text("tenant_json")?.to_string(),
        checkpoint: from_hex(text("checkpoint_hex")?).map_err(|e| e.to_string())?,
    })
}

/// What a `repl.records` response told the standby.
#[derive(Debug)]
pub enum RecordsOutcome {
    /// The cursor predates the primary's log: re-sync.
    Resync,
    /// A batch of shipped records (possibly empty when caught up).
    Batch(Vec<ShippedRecord>),
}

/// Decodes a `repl.records` response body. Each record's hex armor is
/// decoded here; the CRC inside is verified later, at apply time.
pub fn parse_records(body: &Json) -> Result<RecordsOutcome, String> {
    match body.get("resync").and_then(Json::as_bool) {
        Some(true) => Ok(RecordsOutcome::Resync),
        Some(false) => {
            let items = body
                .get("records")
                .and_then(Json::as_arr)
                .ok_or("records response lacks `records`")?;
            let mut records = Vec::with_capacity(items.len());
            for item in items {
                let seq = item
                    .get("seq")
                    .and_then(Json::as_u64)
                    .ok_or("shipped record lacks numeric `seq`")?;
                let hex =
                    item.get("hex").and_then(Json::as_str).ok_or("shipped record lacks `hex`")?;
                records.push(ShippedRecord::from_hex(seq, hex).map_err(|e| e.to_string())?);
            }
            Ok(RecordsOutcome::Batch(records))
        }
        None => Err("records response lacks boolean `resync`".into()),
    }
}

/// Why [`apply_batch`] stopped.
#[derive(Debug, PartialEq, Eq)]
pub enum BatchOutcome {
    /// Every record admitted; `0` is a caught-up no-op.
    Applied(u64),
    /// The batch was refused mid-way (checksum failure, injected fault,
    /// or a record that does not apply). Nothing past the valid prefix
    /// was applied; re-fetching from the cursor retries cleanly.
    Refused {
        /// Records applied before the refusal.
        applied: u64,
        /// Why the batch stopped.
        reason: String,
    },
    /// The stream has a sequence gap (or the logs diverged): applying
    /// further would silently lose records, so the standby must re-sync
    /// from a checkpoint transfer.
    Gap {
        /// Records applied before the gap.
        applied: u64,
        /// Why the stream is unusable.
        reason: String,
    },
}

/// Applies one shipped batch to a standby tenant: each record's delta is
/// decoded and appended through [`Tenant::append_delta`], the durable
/// append path live writes take. Each record's seq is compared
/// with the standby log's next seq (`last_wal_seq() + 1`): a lower seq
/// is an already-applied duplicate and is skipped, a higher one is a
/// gap that stops everything with [`BatchOutcome::Gap`] (applying past
/// it would silently lose the records in between), and a checksum or
/// apply failure refuses the rest of the batch. The `repl.apply`
/// failpoint fires once per record.
pub fn apply_batch(
    tenant: &Tenant,
    records: &[ShippedRecord],
    metrics: &ReplMetrics,
) -> BatchOutcome {
    let Some(store) = tenant.store() else {
        return BatchOutcome::Refused { applied: 0, reason: "tenant is not durable".into() };
    };
    let mut applied = 0u64;
    for shipped in records {
        if let Err(err) = faults::check("repl.apply") {
            ReplMetrics::add(&metrics.gaps_refused, 1);
            return BatchOutcome::Refused { applied, reason: format!("injected fault: {err}") };
        }
        let next_seq = store.last_wal_seq() + 1;
        if shipped.seq < next_seq {
            continue;
        }
        if shipped.seq > next_seq {
            ReplMetrics::add(&metrics.gaps_refused, 1);
            return BatchOutcome::Gap {
                applied,
                reason: format!(
                    "replication sequence gap: expected {next_seq}, primary shipped {} — \
                     refusing to apply past missing records; re-sync required",
                    shipped.seq
                ),
            };
        }
        let record = match shipped.decode() {
            Ok(record) => record,
            Err(err) => {
                ReplMetrics::add(&metrics.gaps_refused, 1);
                return BatchOutcome::Refused { applied, reason: err.to_string() };
            }
        };
        let merged = BinArray::read_from(&record.payload)
            .and_then(|delta| tenant.append_delta(&delta, record.feeder_offset));
        if let Err(err) = merged {
            ReplMetrics::add(&metrics.gaps_refused, 1);
            return BatchOutcome::Refused {
                applied,
                reason: format!("record {} does not apply: {err}", record.seq),
            };
        }
        if store.last_wal_seq() != shipped.seq {
            ReplMetrics::add(&metrics.gaps_refused, 1);
            return BatchOutcome::Gap {
                applied,
                reason: format!(
                    "standby log assigned seq {} to shipped record {} — logs diverged",
                    store.last_wal_seq(),
                    shipped.seq
                ),
            };
        }
        applied += 1;
        ReplMetrics::add(&metrics.records_applied, 1);
    }
    BatchOutcome::Applied(applied)
}

// ---------------------------------------------------------------------------
// The tailer
// ---------------------------------------------------------------------------

/// Spawns the standby tailer thread: poll the primary, discover its
/// tenants, bootstrap or tail each one, stop on promotion or shutdown.
pub(crate) fn spawn_tailer(
    config: ReplicationConfig,
    registry: Arc<Registry>,
    ctx: Arc<ReplContext>,
    running: Arc<AtomicBool>,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name("arcsd-repl-tail".into()).spawn(move || {
        let mut client: Option<Client> = None;
        let mut last_error: Option<String> = None;
        while running.load(Ordering::SeqCst) {
            if !ctx.role.is_standby() {
                break;
            }
            if client.is_none() {
                client = Client::connect(config.primary.as_str()).ok();
            }
            let outcome = match client.as_mut() {
                None => Err(format!("primary {} unreachable", config.primary)),
                Some(conn) => tail_once(conn, &registry, &ctx, &config),
            };
            match outcome {
                Ok(()) => last_error = None,
                Err(err) => {
                    // A failed sweep poisons the connection state the
                    // least by starting over with a fresh connect.
                    client = None;
                    if last_error.as_deref() != Some(err.as_str()) {
                        eprintln!("arcsd repl: {err} (retrying)");
                        last_error = Some(err);
                    }
                }
            }
            std::thread::sleep(config.poll_interval);
        }
    })
}

/// One tailer sweep: heartbeat, then sync every tenant the primary
/// serves. Any failure aborts the sweep (the next tick retries from the
/// standby's durable cursors, so a half-finished sweep loses nothing).
fn tail_once(
    client: &mut Client,
    registry: &Registry,
    ctx: &ReplContext,
    config: &ReplicationConfig,
) -> Result<(), String> {
    let heartbeat = client.repl_heartbeat(None).map_err(|e| format!("heartbeat: {e}"))?;
    ReplMetrics::add(&ctx.metrics.heartbeats, 1);
    let datasets: Vec<String> = match heartbeat.get("datasets") {
        Some(Json::Arr(items)) => {
            items.iter().filter_map(|i| i.as_str().map(str::to_string)).collect()
        }
        _ => return Err("heartbeat lacks `datasets`".into()),
    };
    for name in datasets {
        if !ctx.role.is_standby() {
            break; // promoted mid-sweep: stop applying immediately
        }
        if !valid_tenant_name(&name) {
            continue; // never let a peer's name touch our filesystem
        }
        sync_tenant(client, registry, ctx, config, &name)?;
    }
    Ok(())
}

/// Brings one tenant up to date: bootstrap via checkpoint transfer when
/// it does not exist locally, otherwise fetch and apply a record batch;
/// a sequence gap falls back to a transfer.
fn sync_tenant(
    client: &mut Client,
    registry: &Registry,
    ctx: &ReplContext,
    config: &ReplicationConfig,
    name: &str,
) -> Result<(), String> {
    // Deliberately not `registry.get`: the tailer is a maintenance path
    // and must not trip the `daemon.tenant-lookup` failpoint.
    let local = registry.tenants().into_iter().find(|t| t.name() == name);
    let tenant = match local {
        None => return resync(client, registry, ctx, config, name),
        Some(tenant) if tenant.is_durable() => tenant,
        Some(_) => return Ok(()), // an ephemeral tenant shadows the name; leave it be
    };
    let from = tenant.store().expect("durable tenant has a store").last_wal_seq() + 1;
    let body = client
        .repl_records(name, from, DEFAULT_REPL_BATCH)
        .map_err(|e| format!("{name}: records: {e}"))?;
    match parse_records(&body).map_err(|e| format!("{name}: {e}"))? {
        RecordsOutcome::Resync => resync(client, registry, ctx, config, name),
        RecordsOutcome::Batch(records) => match apply_batch(&tenant, &records, &ctx.metrics) {
            BatchOutcome::Applied(_) => Ok(()),
            BatchOutcome::Refused { reason, .. } => Err(format!("{name}: batch refused: {reason}")),
            BatchOutcome::Gap { reason, .. } => {
                eprintln!("arcsd repl: {name}: {reason} — re-syncing from checkpoint");
                resync(client, registry, ctx, config, name)
            }
        },
    }
}

/// Full checkpoint re-sync: request a transfer, install it under the
/// standby's data directory, and (re)register the recovered tenant. The
/// registry insert atomically replaces any stale tenant under the name.
fn resync(
    client: &mut Client,
    registry: &Registry,
    ctx: &ReplContext,
    config: &ReplicationConfig,
    name: &str,
) -> Result<(), String> {
    let body = client.repl_subscribe(name).map_err(|e| format!("{name}: subscribe: {e}"))?;
    let transfer = parse_subscribe(&body).map_err(|e| format!("{name}: {e}"))?;
    install_transfer(&config.data_dir.join(name), &transfer)
        .map_err(|e| format!("{name}: install: {e}"))?;
    let (tenant, report) = Tenant::open_durable(name, &config.data_dir, config.serve.clone())
        .map_err(|e| format!("{name}: open after install: {e}"))?;
    registry.insert(tenant);
    ReplMetrics::add(&ctx.metrics.resyncs, 1);
    eprintln!("arcsd repl: {name}: installed checkpoint transfer (epoch {})", report.epoch);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_flip_exactly_once() {
        let role = RoleState::standby("127.0.0.1:4000");
        assert!(role.is_standby());
        assert_eq!(role.name(), "standby");
        assert_eq!(role.primary_addr().as_deref(), Some("127.0.0.1:4000"));

        assert!(role.promote(), "first promotion flips");
        assert!(!role.promote(), "second promotion is a no-op");
        assert!(!role.is_standby());
        assert_eq!(role.name(), "primary");
        assert_eq!(role.primary_addr(), None);

        let primary = RoleState::primary();
        assert!(!primary.promote(), "a primary stays a primary");
    }

    #[test]
    fn subscribe_and_records_bodies_round_trip() {
        let transfer =
            CheckpointTransfer { tenant_json: "{\"v\":1}".into(), checkpoint: vec![1, 2, 3] };
        let body = ok_response(vec![
            ("dataset", Json::Str("t".into())),
            ("tenant_json", Json::Str(transfer.tenant_json.clone())),
            ("checkpoint_hex", Json::Str(to_hex(&transfer.checkpoint))),
        ]);
        assert_eq!(parse_subscribe(&body).unwrap(), transfer);

        assert!(matches!(
            parse_records(&ok_response(vec![("resync", Json::Bool(true))])),
            Ok(RecordsOutcome::Resync)
        ));
        let record = arcs_core::WalRecord { seq: 4, feeder_offset: None, payload: b"a\n".to_vec() };
        let shipped = ShippedRecord::encode(&record);
        let body = ok_response(vec![
            ("resync", Json::Bool(false)),
            (
                "records",
                Json::Arr(vec![obj(vec![
                    ("seq", Json::Num(4.0)),
                    ("hex", Json::Str(shipped.to_hex())),
                ])]),
            ),
        ]);
        match parse_records(&body).unwrap() {
            RecordsOutcome::Batch(records) => {
                assert_eq!(records, vec![shipped]);
                assert_eq!(records[0].decode().unwrap(), record);
            }
            other => panic!("expected a batch, got {other:?}"),
        }

        assert!(parse_subscribe(&ok_response(vec![])).is_err());
        assert!(parse_records(&ok_response(vec![])).is_err());
    }
}
