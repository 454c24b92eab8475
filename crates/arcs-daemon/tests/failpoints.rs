//! Fault-injection replay through the daemon's four failpoints
//! (`cargo test -p arcs-daemon --features failpoints`).
//!
//! Each scenario arms a deterministic schedule and asserts the documented
//! blast radius: an accept fault drops one connection, a decode fault
//! fails one frame, a lookup fault fails one request, a feeder fault
//! retries one tick — and in every case the daemon keeps serving.
#![cfg(feature = "failpoints")]

use std::sync::{Arc, Mutex};
use std::time::Duration;

use arcs_core::engine::Thresholds;
use arcs_core::faults;
use arcs_core::request::Request;
use arcs_daemon::daemon::{Daemon, DaemonConfig};
use arcs_daemon::registry::{Registry, Tenant, TenantConfig};
use arcs_daemon::{Client, ClientError};
use arcs_data::{Attribute, Dataset, Schema, Value};

/// Failpoint state is process-global; serialise every test in this binary.
static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::clear();
    g
}

fn dataset() -> Dataset {
    let schema = Schema::new(vec![
        Attribute::quantitative("x", 0.0, 10.0),
        Attribute::quantitative("y", 0.0, 10.0),
        Attribute::categorical("g", ["A", "other"]),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for i in 0..100 {
        let (x, y) = ((i % 10) as f64 + 0.5, ((i / 10) % 10) as f64 + 0.5);
        let g = u32::from(!(2.0..5.0).contains(&x) || !(2.0..5.0).contains(&y));
        ds.push(&[Value::Quant(x), Value::Quant(y), Value::Cat(g)]).unwrap();
    }
    ds
}

fn config() -> TenantConfig {
    TenantConfig { n_x_bins: 10, n_y_bins: 10, ..TenantConfig::new("x", "y", "g") }
}

fn start() -> arcs_daemon::DaemonHandle {
    let registry = Arc::new(Registry::new());
    registry.insert(Tenant::from_dataset("alpha", &dataset(), &config()).unwrap());
    Daemon::bind("127.0.0.1:0", registry, DaemonConfig::default()).unwrap().spawn().unwrap()
}

fn query() -> Request {
    Request::new().group("A").thresholds(Thresholds::new(0.0, 0.5).unwrap())
}

/// An injected accept fault drops exactly one connection; the daemon
/// keeps accepting afterwards.
#[test]
fn accept_fault_drops_one_connection_and_the_daemon_keeps_serving() {
    let _g = guard();
    let handle = start();
    faults::configure_from_spec("daemon.accept=error@1").unwrap();

    // The TCP connect itself succeeds (the kernel accepted it); the
    // daemon then drops the socket, so the first call sees a close.
    let mut dropped = Client::connect(handle.addr()).unwrap();
    let err = dropped.open("alpha").unwrap_err();
    assert!(
        matches!(err, ClientError::Protocol(_) | ClientError::Io(_)),
        "expected a dropped connection, got: {err}"
    );

    // The very next connection is served normally.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.open("alpha").unwrap().epoch, 0);
    client.query(&query()).unwrap();
    client.close().unwrap();

    assert!(faults::hits("daemon.accept") >= 1);
    faults::clear();
    handle.shutdown();
}

/// A frame-decode fault fails exactly one frame with a typed
/// FAULT_INJECTED code — the connection itself survives.
#[test]
fn frame_decode_fault_fails_one_frame_not_the_connection() {
    let _g = guard();
    let handle = start();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.open("alpha").unwrap().epoch, 0);

    faults::configure_from_spec("daemon.frame-decode=error@1").unwrap();
    let err = client.query(&query()).unwrap_err();
    assert_eq!(err.code(), Some("FAULT_INJECTED"), "{err}");

    // Same connection, next frame: served.
    let outcome = client.query(&query()).unwrap();
    assert_eq!(outcome.result.epoch, 0);
    client.close().unwrap();
    faults::clear();
    handle.shutdown();
}

/// A tenant-lookup fault surfaces as a typed wire error on that request;
/// the next lookup resolves.
#[test]
fn tenant_lookup_fault_is_a_typed_wire_error() {
    let _g = guard();
    let handle = start();
    let mut client = Client::connect(handle.addr()).unwrap();

    faults::configure_from_spec("daemon.tenant-lookup=error@1").unwrap();
    let err = client.open("alpha").unwrap_err();
    assert_eq!(err.code(), Some("FAULT_INJECTED"), "{err}");

    assert_eq!(client.open("alpha").unwrap().epoch, 0);
    client.close().unwrap();
    faults::clear();
    handle.shutdown();
}

/// A feeder-merge fault makes the feeder retry the same bytes on the
/// next tick; the rows land exactly once.
#[test]
fn feeder_merge_fault_retries_the_same_batch_without_loss() {
    use std::io::Write as _;

    let _g = guard();
    let dir = std::env::temp_dir().join("arcsd-feeder-fault-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("feed.csv");
    std::fs::write(&path, "").unwrap();

    let tenant = Arc::new(Tenant::from_dataset("fed", &dataset(), &config()).unwrap());
    faults::configure_from_spec("daemon.feeder-merge=error@1").unwrap();
    let feeder =
        arcs_daemon::Feeder::spawn(Arc::clone(&tenant), path.clone(), Duration::from_millis(5))
            .unwrap();

    let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
    file.write_all(b"2.5,2.5,A\n3.5,3.5,A\n").unwrap();
    file.flush().unwrap();

    // The first merge tick is faulted and retried; the batch still lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while tenant.server().snapshot().epoch() < 1 {
        assert!(std::time::Instant::now() < deadline, "feeder never recovered");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = feeder.stats();
    assert!(stats.retries.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    assert_eq!(stats.rows_merged.load(std::sync::atomic::Ordering::Relaxed), 2);
    assert_eq!(tenant.server().snapshot().epoch(), 1);

    feeder.stop();
    faults::clear();
    std::fs::remove_file(&path).ok();
}
