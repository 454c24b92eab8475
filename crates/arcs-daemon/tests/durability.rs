//! Durability integration tests: daemon restart recovery over real TCP,
//! feeder offset persistence across restarts (the byte-0 re-read
//! regression), connection-hygiene timeouts, and graceful-drain
//! checkpointing.
//!
//! The kill-9 chaos proofs (child *process* killed mid-append) live in
//! the CLI crate's `daemon_chaos` suite, where a separate binary exists
//! to kill; here the restarts are in-process but exercise the identical
//! recovery path (`Registry::open_data_dir` → checkpoint + WAL replay).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arcs_core::engine::Thresholds;
use arcs_core::jsonio::{self, Json};
use arcs_core::request::Request;
use arcs_core::serve::ServeConfig;
use arcs_core::BinArray;
use arcs_daemon::daemon::{Daemon, DaemonConfig};
use arcs_daemon::feeder::FEED_CHUNK_BYTES;
use arcs_daemon::protocol::{read_frame, write_frame, CODE_PROTOCOL};
use arcs_daemon::registry::{Registry, Tenant, TenantConfig};
use arcs_daemon::store::WAL_FILE;
use arcs_daemon::{Client, Feeder};
use arcs_data::{Attribute, Dataset, Schema, Value};

/// A scratch directory that removes itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("arcs-durab-{tag}-{}-{n}", std::process::id()));
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
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Full loop over the wire: create durable tenants, append through TCP,
/// gracefully shut down, reopen the data directory in a fresh daemon —
/// stats and query results must be bit-identical to an in-process
/// oracle that performed the same appends without ever restarting.
#[test]
fn daemon_restart_serves_bit_identical_state_over_the_wire() {
    let data = TempDir::new("restart");
    let appends = 3u64;

    // Oracle: same dataset, same appends, never persisted.
    let oracle = Tenant::from_dataset("trades", &grid_dataset(), &tenant_config()).unwrap();
    for k in 0..appends {
        oracle.append_csv(&batch(k)).unwrap();
    }
    let expected = oracle.server().query_unified(&request(), oracle.labels()).unwrap();

    // First daemon incarnation: create durable, append over TCP.
    {
        let registry = Arc::new(Registry::new());
        registry.insert(
            Tenant::from_dataset_durable(
                "trades",
                &grid_dataset(),
                &tenant_config(),
                data.path(),
                None,
            )
            .unwrap(),
        );
        let handle = Daemon::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            DaemonConfig { workers: 2, ..DaemonConfig::default() },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let addr = handle.addr();
        let mut client = Client::connect(addr).unwrap();
        client.open("trades").unwrap();
        for k in 0..appends {
            let (epoch, rows) = client.append(None, &batch(k)).unwrap();
            assert_eq!((epoch, rows), (k + 1, 5));
        }
        client.close().unwrap();
        handle.shutdown();
    }

    // Second incarnation: recover purely from the data directory.
    let registry = Arc::new(Registry::new());
    let reports = registry.open_data_dir(data.path(), &ServeConfig::default()).unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].0, "trades");
    assert_eq!(reports[0].1.epoch, appends, "recovered at the acknowledged epoch");
    // Graceful shutdown checkpointed, so nothing was left to replay.
    assert_eq!(reports[0].1.replayed_records, 0);
    assert_eq!(reports[0].1.torn_bytes, 0);

    let handle = Daemon::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        DaemonConfig { workers: 2, ..DaemonConfig::default() },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let info = client.open("trades").unwrap();
    assert_eq!(info.epoch, appends);
    assert_eq!(info.n_tuples, oracle.server().snapshot().array().n_tuples());
    let outcome = client.query(&request()).unwrap();
    assert_eq!(outcome.result, *expected.result, "recovered query differs from oracle");
    client.close().unwrap();
    handle.shutdown();
}

/// A crash (no graceful shutdown, no checkpoint) leaves the appends in
/// the WAL only; reopening replays them all and matches the oracle.
#[test]
fn uncheckpointed_appends_survive_in_the_wal() {
    let data = TempDir::new("replay");
    let appends = 4u64;

    let oracle = Tenant::from_dataset("t", &grid_dataset(), &tenant_config()).unwrap();
    {
        let durable =
            Tenant::from_dataset_durable("t", &grid_dataset(), &tenant_config(), data.path(), None)
                .unwrap();
        for k in 0..appends {
            oracle.append_csv(&batch(k)).unwrap();
            durable.append_csv(&batch(k)).unwrap();
        }
        // Dropped without checkpoint: the process "crashed" here.
    }

    let (recovered, report) =
        Tenant::open_durable("t", data.path(), ServeConfig::default()).unwrap();
    assert_eq!(report.replayed_records, appends);
    assert_eq!(report.epoch, appends);
    let oracle_snap = oracle.server().snapshot();
    let recovered_snap = recovered.server().snapshot();
    assert_eq!(recovered_snap.epoch(), oracle_snap.epoch());
    assert_eq!(recovered_snap.checksum(), oracle_snap.checksum());
}

/// Regression test for the feeder restart bug: a restarted feeder must
/// resume at the durable byte offset, never re-read the CSV from byte 0
/// (which double-appended every batch it had already merged).
#[test]
fn restarted_feeder_resumes_at_durable_offset_not_byte_zero() {
    let data = TempDir::new("feeder");
    let feed = data.path().join("feed.csv");
    std::fs::write(&feed, "").unwrap();

    let oracle = Tenant::from_dataset("f", &grid_dataset(), &tenant_config()).unwrap();
    let base_tuples = oracle.server().snapshot().array().n_tuples();

    // Incarnation 1: feeder tails two batches into the durable tenant.
    {
        let tenant = Arc::new(
            Tenant::from_dataset_durable(
                "f",
                &grid_dataset(),
                &tenant_config(),
                data.path(),
                Some(0),
            )
            .unwrap(),
        );
        let feeder =
            Feeder::spawn_at(Arc::clone(&tenant), feed.clone(), Duration::from_millis(5), 0)
                .unwrap();
        for k in 0..2u64 {
            let mut file = std::fs::OpenOptions::new().append(true).open(&feed).unwrap();
            file.write_all(batch(k).as_bytes()).unwrap();
            drop(file);
            wait_for("feeder merge", || tenant.server().snapshot().epoch() == k + 1);
        }
        feeder.stop();
        // No checkpoint call: the offset must survive via the WAL alone.
    }
    let feed_len = std::fs::metadata(&feed).unwrap().len();

    // Incarnation 2: recovery hands back the consumed offset…
    let (tenant, report) = Tenant::open_durable("f", data.path(), ServeConfig::default()).unwrap();
    let tenant = Arc::new(tenant);
    assert_eq!(report.epoch, 2);
    let resume = tenant.store().unwrap().feeder_offset().expect("offset persisted");
    assert_eq!(resume, feed_len, "durable offset covers exactly the merged batches");

    // …and a feeder spawned there merges nothing until NEW bytes arrive.
    let feeder =
        Feeder::spawn_at(Arc::clone(&tenant), feed.clone(), Duration::from_millis(5), resume)
            .unwrap();
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(tenant.server().snapshot().epoch(), 2, "restart double-appended old rows");

    let mut file = std::fs::OpenOptions::new().append(true).open(&feed).unwrap();
    file.write_all(batch(2).as_bytes()).unwrap();
    drop(file);
    wait_for("post-restart merge", || tenant.server().snapshot().epoch() == 3);
    feeder.stop();

    // Exactly-once end to end: equals an oracle that saw each batch once.
    for k in 0..3u64 {
        oracle.append_csv(&batch(k)).unwrap();
    }
    let snap = tenant.server().snapshot();
    assert_eq!(snap.array().n_tuples(), base_tuples + 15);
    assert_eq!(snap.checksum(), oracle.server().snapshot().checksum());
}

/// A burst several feeder budgets long — what a restart after downtime
/// finds — merges completely within the budget: no batch fails, every
/// WAL payload fits [`FEED_CHUNK_BYTES`], the durable feeder offset sits
/// at the burst's end, and a restart recovers the same array.
#[test]
fn feeder_merges_a_burst_larger_than_its_budget_in_chunks() {
    let data = TempDir::new("feeder-burst");
    let feed = data.path().join("feed.csv");
    let mut burst = String::new();
    let mut rows = 0u64;
    while burst.len() < 3 * FEED_CHUNK_BYTES + FEED_CHUNK_BYTES / 2 {
        let group = if rows.is_multiple_of(3) { "A" } else { "other" };
        burst.push_str(&format!("{}.25,{}.75,{group}\n", rows % 10, (rows / 7) % 10));
        rows += 1;
    }
    std::fs::write(&feed, &burst).unwrap();

    let tenant = Arc::new(
        Tenant::from_dataset_durable("b", &grid_dataset(), &tenant_config(), data.path(), Some(0))
            .unwrap(),
    );
    let feeder =
        Feeder::spawn_at(Arc::clone(&tenant), feed.clone(), Duration::from_millis(5), 0).unwrap();
    wait_for("the whole burst to merge", || {
        feeder.stats().rows_merged.load(Ordering::Relaxed) == rows
    });
    let batches = feeder.stats().batches_merged.load(Ordering::Relaxed);
    assert_eq!(feeder.stats().batches_failed.load(Ordering::Relaxed), 0);
    assert!(batches >= 4, "a {}-byte burst merged as {batches} batches", burst.len());
    feeder.stop();

    let log = arcs_core::wal::replay(&data.path().join("b").join(WAL_FILE)).unwrap();
    assert_eq!(log.records.len() as u64, batches);
    let logged: u64 =
        log.records.iter().map(|r| BinArray::read_from(&r.payload).unwrap().n_tuples()).sum();
    assert_eq!(logged, rows, "every row is in exactly one record");
    assert_eq!(tenant.store().unwrap().feeder_offset(), Some(burst.len() as u64));

    let oracle = Tenant::from_dataset("b", &grid_dataset(), &tenant_config()).unwrap();
    oracle.append_csv(&burst).unwrap();
    let live = tenant.server().snapshot();
    assert_eq!(live.epoch(), batches);
    assert_eq!(live.checksum(), oracle.server().snapshot().checksum());
    drop(tenant);

    let (recovered, report) =
        Tenant::open_durable("b", data.path(), ServeConfig::default()).unwrap();
    assert_eq!(report.epoch, batches);
    assert_eq!(recovered.server().snapshot().checksum(), live.checksum());
    assert_eq!(recovered.store().unwrap().feeder_offset(), Some(burst.len() as u64));
}

/// Reads one raw frame off a socket and returns the decoded JSON body.
fn read_json_frame(stream: &mut TcpStream) -> Json {
    let payload = read_frame(stream).expect("error frame before close");
    jsonio::parse(std::str::from_utf8(&payload).unwrap()).unwrap()
}

fn spawn_hygiene_daemon(config: DaemonConfig) -> arcs_daemon::DaemonHandle {
    let registry = Arc::new(Registry::new());
    registry.insert(Tenant::from_dataset("t", &grid_dataset(), &tenant_config()).unwrap());
    Daemon::bind("127.0.0.1:0", registry, config).unwrap().spawn().unwrap()
}

/// A connection that never sends a request is told why and hung up on:
/// a typed `PROTOCOL` idle-timeout error, then EOF.
#[test]
fn idle_connections_get_a_typed_timeout_and_are_closed() {
    let handle = spawn_hygiene_daemon(DaemonConfig {
        workers: 1,
        idle_timeout: Some(Duration::from_millis(120)),
        ..DaemonConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let body = read_json_frame(&mut stream);
    assert_eq!(body.get("code").and_then(Json::as_str), Some(CODE_PROTOCOL));
    let message = body.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(message.contains("idle timeout"), "unexpected message: {message}");
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "connection left open");
    handle.shutdown();
}

/// A slow-loris peer that stalls mid-frame hits the read (stall)
/// timeout — also typed, also closed — while the idle clock alone would
/// have let it sit forever.
#[test]
fn stalled_frames_get_a_typed_read_timeout() {
    let handle = spawn_hygiene_daemon(DaemonConfig {
        workers: 1,
        idle_timeout: Some(Duration::from_secs(60)),
        read_timeout: Some(Duration::from_millis(120)),
        ..DaemonConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // First bytes of a valid frame header, then silence.
    let mut frame = Vec::new();
    write_frame(&mut frame, br#"{"op":"stats"}"#).unwrap();
    stream.write_all(&frame[..3]).unwrap();
    stream.flush().unwrap();

    let body = read_json_frame(&mut stream);
    assert_eq!(body.get("code").and_then(Json::as_str), Some(CODE_PROTOCOL));
    let message = body.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(message.contains("read timeout"), "unexpected message: {message}");
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "connection left open");
    handle.shutdown();
}

/// The background checkpointer truncates the WAL while the daemon
/// serves: after enough appends, a reopen replays only the records past
/// the last checkpoint, not the whole history.
#[test]
fn background_checkpointer_truncates_the_wal_under_load() {
    let data = TempDir::new("ckptr");
    {
        let registry = Arc::new(Registry::new());
        let tenant = registry.insert(
            Tenant::from_dataset_durable("t", &grid_dataset(), &tenant_config(), data.path(), None)
                .unwrap(),
        );
        let handle = Daemon::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            DaemonConfig {
                workers: 2,
                checkpoint_every: 4,
                checkpoint_interval: Duration::from_millis(10),
                ..DaemonConfig::default()
            },
        )
        .unwrap()
        .spawn()
        .unwrap();

        let mut client = Client::connect(handle.addr()).unwrap();
        client.open("t").unwrap();
        for k in 0..10u64 {
            client.append(None, &batch(k)).unwrap();
        }
        client.close().unwrap();
        // The checkpointer (10ms interval, threshold 4) must fire.
        wait_for("background checkpoint", || {
            tenant.store().unwrap().records_since_checkpoint() < 10
        });
        handle.shutdown();
    }

    let (_, report) = Tenant::open_durable("t", data.path(), ServeConfig::default()).unwrap();
    assert_eq!(report.epoch, 10);
    // Graceful shutdown checkpoints the remainder: nothing to replay.
    assert_eq!(report.replayed_records, 0);
}

/// `shutdown` is a drain: queued work finishes, the final checkpoint
/// lands, and an immediately reopened registry answers identically.
#[test]
fn graceful_shutdown_checkpoints_every_durable_tenant() {
    let data = TempDir::new("drain");
    {
        let registry = Arc::new(Registry::new());
        for name in ["a", "b"] {
            registry.insert(
                Tenant::from_dataset_durable(
                    name,
                    &grid_dataset(),
                    &tenant_config(),
                    data.path(),
                    None,
                )
                .unwrap(),
            );
        }
        let handle = Daemon::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            DaemonConfig { workers: 2, ..DaemonConfig::default() },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        for name in ["a", "b"] {
            client.append(Some(name), &batch(7)).unwrap();
        }
        client.close().unwrap();
        handle.shutdown();
    }

    let registry = Arc::new(Registry::new());
    let reports = registry.open_data_dir(data.path(), &ServeConfig::default()).unwrap();
    assert_eq!(reports.len(), 2);
    for (name, report) in &reports {
        assert_eq!(report.epoch, 1, "tenant {name}");
        assert_eq!(report.replayed_records, 0, "tenant {name} WAL not checkpointed");
    }
}
