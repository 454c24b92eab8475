//! Replication integration tests, fully in-process: a primary and a
//! standby daemon over real TCP sockets. The standby bootstraps from a
//! checkpoint transfer, tails the primary's WAL, serves bit-identical
//! reads, refuses writes until promoted, and re-syncs after falling
//! behind a folded log. The kill-9 process-level failover proofs live in
//! the CLI crate's `repl_chaos` suite.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arcs_core::engine::Thresholds;
use arcs_core::jsonio::Json;
use arcs_core::request::Request;
use arcs_core::serve::ServeConfig;
use arcs_core::BinArray;
use arcs_daemon::daemon::{Daemon, DaemonConfig, DaemonHandle};
use arcs_daemon::protocol::MAX_FRAME;
use arcs_daemon::registry::{Registry, Tenant, TenantConfig};
use arcs_daemon::repl::{apply_batch, BatchOutcome, ReplicationConfig};
use arcs_daemon::store::{install_transfer, ShipPlan};
use arcs_daemon::Client;
use arcs_data::{Attribute, Dataset, Schema, Value};

/// A scratch directory that removes itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("arcs-repl-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn grid_dataset() -> Dataset {
    let schema = Schema::new(vec![
        Attribute::quantitative("x", 0.0, 10.0),
        Attribute::quantitative("y", 0.0, 10.0),
        Attribute::categorical("g", ["A", "other"]),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for ix in 0..10usize {
        for iy in 0..10usize {
            let inside = (2..5).contains(&ix) && (2..5).contains(&iy);
            for _ in 0..if inside { 6 } else { 1 } {
                ds.push(&[
                    Value::Quant(ix as f64 + 0.5),
                    Value::Quant(iy as f64 + 0.5),
                    Value::Cat(u32::from(!inside)),
                ])
                .unwrap();
            }
        }
    }
    ds
}

fn tenant_config() -> TenantConfig {
    TenantConfig { n_x_bins: 10, n_y_bins: 10, ..TenantConfig::new("x", "y", "g") }
}

/// Header-less CSV batch `k`: distinct per `k` so epochs differ.
fn batch(k: u64) -> String {
    let mut rows = String::new();
    for i in 0..5 {
        let x = ((k + i) % 10) as f64 + 0.5;
        let y = ((k * 3 + i) % 10) as f64 + 0.5;
        rows.push_str(&format!("{x},{y},{}\n", if i % 2 == 0 { "A" } else { "other" }));
    }
    rows
}

fn request() -> Request {
    Request::new().group("A").thresholds(Thresholds::new(0.01, 0.5).unwrap())
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn spawn_primary(data: &Path, config: &TenantConfig) -> (DaemonHandle, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    registry.insert(
        Tenant::from_dataset_durable("trades", &grid_dataset(), config, data, None).unwrap(),
    );
    let handle = Daemon::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        DaemonConfig { workers: 2, ..DaemonConfig::default() },
    )
    .unwrap()
    .spawn()
    .unwrap();
    (handle, registry)
}

fn spawn_standby(primary_addr: &str, data: &Path) -> (DaemonHandle, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    // Mirror the CLI's standby startup: recover whatever already lives
    // in the data dir before the tailer takes over.
    registry.open_data_dir(data, &ServeConfig::default()).unwrap();
    let replication = ReplicationConfig {
        poll_interval: Duration::from_millis(10),
        ..ReplicationConfig::new(primary_addr, data)
    };
    let handle = Daemon::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        DaemonConfig { workers: 2, replication: Some(replication), ..DaemonConfig::default() },
    )
    .unwrap()
    .spawn()
    .unwrap();
    (handle, registry)
}

/// The standby's durable position for `dataset`, read over the wire from
/// the extended `stats` op; `None` until the tenant exists there.
fn standby_wal_seq(client: &mut Client, dataset: &str) -> Option<u64> {
    let stats = client.stats(Some(dataset)).ok()?;
    stats.get("durability")?.get("last_wal_seq")?.as_u64()
}

/// Tentpole path: the standby bootstraps a tenant it has never seen from
/// a checkpoint transfer, tails the primary's appends, serves reads that
/// are bit-identical to the primary's, refuses writes with the typed
/// `NOT_PRIMARY` code, and — once promoted — accepts writes itself.
#[test]
fn standby_bootstraps_tails_serves_reads_and_promotes() {
    let primary_data = TempDir::new("primary");
    let standby_data = TempDir::new("standby");
    let (primary, _primary_registry) = spawn_primary(primary_data.path(), &tenant_config());
    let (standby, _standby_registry) =
        spawn_standby(&primary.addr().to_string(), standby_data.path());

    // Oracle: the same appends, in-process, never replicated.
    let oracle = Tenant::from_dataset("trades", &grid_dataset(), &tenant_config()).unwrap();

    let mut writer = Client::connect(primary.addr()).unwrap();
    writer.open("trades").unwrap();
    let appends = 4u64;
    for k in 0..appends {
        oracle.append_csv(&batch(k)).unwrap();
        let (epoch, rows) = writer.append(None, &batch(k)).unwrap();
        assert_eq!((epoch, rows), (k + 1, 5));
    }

    // The standby converges to the acked durable prefix.
    let mut reader = Client::connect(standby.addr()).unwrap();
    wait_for("standby to apply every acked append", || {
        standby_wal_seq(&mut reader, "trades") == Some(appends)
    });

    // Reads on the standby are bit-identical to the oracle.
    let info = reader.open("trades").unwrap();
    assert_eq!(info.epoch, appends);
    let expected = oracle.server().query_unified(&request(), oracle.labels()).unwrap();
    let outcome = reader.query(&request()).unwrap();
    assert_eq!(outcome.result, *expected.result, "standby read differs from the primary's");

    // Writes are refused with the typed redirect, which is not retryable.
    let err = reader.append(Some("trades"), &batch(99)).unwrap_err();
    assert_eq!(err.code(), Some("NOT_PRIMARY"));

    // The standby names itself a standby and points at its primary.
    let status = reader.repl_heartbeat(Some("trades")).unwrap();
    assert_eq!(status.get("role").and_then(Json::as_str), Some("standby"));
    assert_eq!(
        status.get("primary").and_then(Json::as_str),
        Some(primary.addr().to_string().as_str())
    );

    // Promotion flips the role exactly once; writes then flow.
    let promoted = reader.promote().unwrap();
    assert_eq!(promoted.get("was_standby"), Some(&Json::Bool(true)));
    let again = reader.promote().unwrap();
    assert_eq!(again.get("was_standby"), Some(&Json::Bool(false)));
    let (epoch, rows) = reader.append(Some("trades"), &batch(appends)).unwrap();
    assert_eq!((epoch, rows), (appends + 1, 5));

    // The promoted daemon still matches an oracle that took the same
    // write — the replicated prefix plus the new append, bit-identical.
    oracle.append_csv(&batch(appends)).unwrap();
    let expected = oracle.server().query_unified(&request(), oracle.labels()).unwrap();
    let outcome = reader.query_on(Some("trades"), &request()).unwrap();
    assert_eq!(outcome.result, *expected.result);

    writer.close().unwrap();
    reader.close().unwrap();
    standby.shutdown();
    primary.shutdown();
}

/// A standby that falls behind a folded log (primary checkpointed while
/// the standby was down, so the records it needs are gone) refuses the
/// gap and re-syncs from a fresh checkpoint transfer instead of applying
/// past missing records.
#[test]
fn lagging_standby_resyncs_from_a_checkpoint_transfer() {
    let primary_data = TempDir::new("lag-primary");
    let standby_data = TempDir::new("lag-standby");
    let (primary, primary_registry) = spawn_primary(primary_data.path(), &tenant_config());
    let oracle = Tenant::from_dataset("trades", &grid_dataset(), &tenant_config()).unwrap();

    let mut writer = Client::connect(primary.addr()).unwrap();
    writer.open("trades").unwrap();
    for k in 0..2u64 {
        oracle.append_csv(&batch(k)).unwrap();
        writer.append(None, &batch(k)).unwrap();
    }

    // First standby incarnation: converge, then go away.
    {
        let (standby, _) = spawn_standby(&primary.addr().to_string(), standby_data.path());
        let mut reader = Client::connect(standby.addr()).unwrap();
        wait_for("standby to catch up before the outage", || {
            standby_wal_seq(&mut reader, "trades") == Some(2)
        });
        standby.shutdown();
    }

    // While the standby is down, the primary advances AND folds its log,
    // so the standby's next cursor predates the live WAL.
    for k in 2..5u64 {
        oracle.append_csv(&batch(k)).unwrap();
        writer.append(None, &batch(k)).unwrap();
    }
    let tenant = primary_registry.get("trades").unwrap().unwrap();
    assert!(tenant.maybe_checkpoint(1).unwrap(), "primary folded its WAL");

    // Second incarnation: must re-sync (gap refused), then converge.
    let (standby, _) = spawn_standby(&primary.addr().to_string(), standby_data.path());
    let mut reader = Client::connect(standby.addr()).unwrap();
    wait_for("standby to re-sync past the folded log", || {
        standby_wal_seq(&mut reader, "trades") == Some(5)
    });
    assert!(
        standby.repl().metrics.snapshot()[3] >= 1,
        "convergence must have gone through a checkpoint re-sync"
    );

    let expected = oracle.server().query_unified(&request(), oracle.labels()).unwrap();
    reader.open("trades").unwrap();
    let outcome = reader.query(&request()).unwrap();
    assert_eq!(outcome.result, *expected.result, "re-synced standby differs from oracle");

    writer.close().unwrap();
    reader.close().unwrap();
    standby.shutdown();
    primary.shutdown();
}

/// A standby 40 large records behind — more than one frame's worth once
/// hex-armoured — catches up by tailing: the primary splits the backlog
/// over several `repl.records` replies, each under the frame cap, and
/// never forces a checkpoint re-sync. The standby logs each record with
/// the primary's bytes.
#[test]
fn a_backlog_larger_than_one_frame_is_tailed_over_several_replies() {
    let primary_data = TempDir::new("backlog-primary");
    let standby_data = TempDir::new("backlog-standby");
    let wide = TenantConfig { n_x_bins: 200, n_y_bins: 200, ..tenant_config() };
    let (primary, primary_registry) = spawn_primary(primary_data.path(), &wide);
    let tenant = primary_registry.get("trades").unwrap().unwrap();

    // The standby already holds the epoch-0 checkpoint, so it resumes
    // tailing at seq 1 instead of bootstrapping.
    let transfer = tenant.store().unwrap().checkpoint_transfer().unwrap();
    install_transfer(&standby_data.path().join("trades"), &transfer).unwrap();

    // A record holds its delta's nonzero counts, so each delta touches
    // nine in ten of the 80,000 group slots of a 200 x 200 grid: ~144 KB
    // a record, ~290 KB of hex, and the 40 records need more than one
    // 8 MiB frame.
    let records = 40u64;
    for k in 0..records {
        let mut delta = BinArray::new(200, 200, 2).unwrap();
        for x in 0..200 {
            for y in 0..200 {
                for g in 0..2 {
                    if !(x * 7 + y + g + k as usize).is_multiple_of(10) {
                        delta.add(x, y, g as u32);
                    }
                }
            }
        }
        tenant.append_delta(&delta, None).unwrap();
    }
    let hex_bytes: usize = match tenant.store().unwrap().ship_records(1, 1_000).unwrap() {
        ShipPlan::Records(shipped) => shipped.iter().map(|r| r.to_hex().len()).sum(),
        ShipPlan::Resync => panic!("the log was not folded"),
    };
    assert!(hex_bytes > MAX_FRAME, "only {hex_bytes} bytes of hex: not a multi-frame backlog");

    let (standby, standby_registry) =
        spawn_standby(&primary.addr().to_string(), standby_data.path());
    let mut reader = Client::connect(standby.addr()).unwrap();
    wait_for("standby to tail the whole backlog", || {
        standby_wal_seq(&mut reader, "trades") == Some(records)
    });
    assert_eq!(primary.repl().metrics.snapshot()[0], records, "records_shipped");
    assert_eq!(standby.repl().metrics.snapshot()[3], 0, "resyncs");
    let replica = standby_registry.get("trades").unwrap().unwrap();
    assert_eq!(replica.server().snapshot().epoch(), records);
    assert_eq!(replica.server().snapshot().checksum(), tenant.server().snapshot().checksum());
    assert_eq!(
        replica.store().unwrap().ship_records(1, 1_000).unwrap(),
        tenant.store().unwrap().ship_records(1, 1_000).unwrap(),
        "the standby's log holds the primary's records byte for byte"
    );

    reader.close().unwrap();
    standby.shutdown();
    primary.shutdown();
}

/// The strict gap proof, driven directly through the apply path: a batch
/// with a missing sequence number applies exactly the valid prefix and
/// stops with `Gap` — never a partial apply past the hole, never a
/// panic. A corrupted record likewise refuses the rest of its batch.
#[test]
fn apply_batch_refuses_gaps_and_corruption_past_the_valid_prefix() {
    let primary_data = TempDir::new("gap-primary");
    let standby_data = TempDir::new("gap-standby");

    let primary = Tenant::from_dataset_durable(
        "t",
        &grid_dataset(),
        &tenant_config(),
        primary_data.path(),
        None,
    )
    .unwrap();
    for k in 0..3u64 {
        primary.append_csv(&batch(k)).unwrap();
    }
    let store = primary.store().unwrap();

    // Stand the replica up from a transfer, exactly as the tailer would.
    let transfer = store.checkpoint_transfer().unwrap();
    install_transfer(&standby_data.path().join("t"), &transfer).unwrap();
    let (standby, _) =
        Tenant::open_durable("t", standby_data.path(), ServeConfig::default()).unwrap();
    let metrics = arcs_core::ReplMetrics::new();

    let arcs_daemon::store::ShipPlan::Records(shipped) = store.ship_records(1, 64).unwrap() else {
        panic!("live log should ship records");
    };
    assert_eq!(shipped.len(), 3);

    // Drop the middle record: seq 1 applies, then the hole stops it.
    let gapped = vec![shipped[0].clone(), shipped[2].clone()];
    match apply_batch(&standby, &gapped, &metrics) {
        BatchOutcome::Gap { applied, reason } => {
            assert_eq!(applied, 1, "exactly the valid prefix applied");
            assert!(reason.contains("gap"), "gap named in: {reason}");
        }
        other => panic!("expected a gap refusal, got {other:?}"),
    }
    assert_eq!(standby.store().unwrap().last_wal_seq(), 1);
    assert_eq!(metrics.snapshot(), [0, 1, 1, 0, 0], "one applied, one gap refused");

    // A corrupted record refuses the batch at the CRC, applying nothing.
    let mut torn = shipped[1].clone();
    torn.bytes[10] ^= 0x40;
    match apply_batch(&standby, &[torn, shipped[2].clone()], &metrics) {
        BatchOutcome::Refused { applied: 0, .. } => {}
        other => panic!("expected a checksum refusal, got {other:?}"),
    }
    assert_eq!(standby.store().unwrap().last_wal_seq(), 1, "nothing applied past the tear");

    // The intact batch from the same cursor then converges bit-identically.
    match apply_batch(&standby, &shipped[1..], &metrics) {
        BatchOutcome::Applied(2) => {}
        other => panic!("expected the clean tail to apply, got {other:?}"),
    }
    assert_eq!(standby.store().unwrap().last_wal_seq(), 3);

    // Re-shipping the already-applied batch is a run of duplicates:
    // skipped, not a gap, and nothing moves.
    match apply_batch(&standby, &shipped, &metrics) {
        BatchOutcome::Applied(0) => {}
        other => panic!("expected duplicates to be skipped, got {other:?}"),
    }
    assert_eq!(standby.store().unwrap().last_wal_seq(), 3);
    assert_eq!(metrics.snapshot(), [0, 3, 2, 0, 0], "duplicates are neither applied nor refused");
    assert_eq!(
        standby.server().snapshot().checksum(),
        primary.server().snapshot().checksum(),
        "replica state diverged from the primary"
    );
}
