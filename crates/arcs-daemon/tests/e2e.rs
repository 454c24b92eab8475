//! End-to-end daemon tests over real localhost TCP: concurrent clients
//! against multiple tenant datasets with interleaved appends, verified
//! bit-identically against an in-process `serve::Server` oracle, plus the
//! typed-error and feeder paths.

use std::sync::Arc;
use std::time::Duration;

use arcs_core::engine::Thresholds;
use arcs_core::request::Request;
use arcs_core::serve::{ClusterSpec, QueryResult, ServeConfig};
use arcs_core::smooth::SmoothConfig;
use arcs_core::BitOpConfig;
use arcs_daemon::daemon::{Daemon, DaemonConfig};
use arcs_daemon::protocol::{CODE_NO_DATASET, CODE_PROTOCOL, CODE_UNKNOWN_DATASET};
use arcs_daemon::registry::{Registry, Tenant, TenantConfig};
use arcs_daemon::Client;
use arcs_data::{Attribute, Dataset, Schema, Value};

/// A 10×10 grid dataset with a dense group-A block; `shift` moves the
/// block so the two tenants hold genuinely different data.
fn grid_dataset(shift: usize) -> Dataset {
    let schema = Schema::new(vec![
        Attribute::quantitative("x", 0.0, 10.0),
        Attribute::quantitative("y", 0.0, 10.0),
        Attribute::categorical("g", ["A", "other"]),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for ix in 0..10usize {
        for iy in 0..10usize {
            let inside = (2 + shift..5 + shift).contains(&ix) && (2..5).contains(&iy);
            let copies = if inside { 8 } else { 1 };
            for _ in 0..copies {
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

/// Rows appended mid-test (header-less CSV in the datasets' schema).
fn delta_rows() -> String {
    let mut rows = String::new();
    for i in 0..40 {
        let (x, y) = ((i % 10) as f64 + 0.5, ((i / 10) % 10) as f64 + 0.5);
        rows.push_str(&format!("{x},{y},{}\n", if i % 2 == 0 { "A" } else { "other" }));
    }
    rows
}

fn tenant_config() -> TenantConfig {
    TenantConfig { n_x_bins: 10, n_y_bins: 10, ..TenantConfig::new("x", "y", "g") }
}

/// The threshold/cluster sweep both the clients and the oracle run.
fn sweep() -> Vec<Request> {
    let mut requests = Vec::new();
    for (i, support_pct) in [0u32, 1, 2, 4].into_iter().enumerate() {
        let thresholds = Thresholds::new(support_pct as f64 / 100.0, 0.5).unwrap();
        let mut request = Request::new().group("A").thresholds(thresholds);
        if i % 2 == 0 {
            request = request.cluster(ClusterSpec {
                smoothing: SmoothConfig::disabled(),
                bitop: BitOpConfig::no_pruning(),
            });
        }
        requests.push(request);
    }
    requests
}

/// Starts a daemon serving `alpha` and `beta`, returning its handle and
/// the registry (for in-process oracle access).
fn start() -> (arcs_daemon::DaemonHandle, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    registry.insert(Tenant::from_dataset("alpha", &grid_dataset(0), &tenant_config()).unwrap());
    registry.insert(Tenant::from_dataset("beta", &grid_dataset(3), &tenant_config()).unwrap());
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        DaemonConfig { workers: 6, max_pending: 64, ..DaemonConfig::default() },
    )
    .unwrap();
    (daemon.spawn().unwrap(), registry)
}

/// The acceptance scenario: two concurrent TCP clients per tenant run the
/// threshold sweep while appends interleave; every wire response must be
/// bit-identical to an independent in-process oracle server's result for
/// the same epoch.
#[test]
fn concurrent_tenants_match_the_in_process_oracle_across_epochs() {
    let (handle, _registry) = start();
    let addr = handle.addr();

    // Independent oracles (NOT the daemon's servers): replay epoch 0 and
    // the epoch-1 delta, recording the expected result per (dataset,
    // request, epoch).
    let datasets = [("alpha", grid_dataset(0)), ("beta", grid_dataset(3))];
    let mut oracle: std::collections::BTreeMap<(String, usize, u64), QueryResult> =
        std::collections::BTreeMap::new();
    for (name, dataset) in &datasets {
        let tenant = Tenant::from_dataset(name, dataset, &tenant_config()).unwrap();
        for epoch in 0..2u64 {
            if epoch == 1 {
                tenant.append_csv(&delta_rows()).unwrap();
            }
            for (i, request) in sweep().iter().enumerate() {
                let response = tenant.server().query_unified(request, tenant.labels()).unwrap();
                assert_eq!(response.result.epoch, epoch);
                oracle.insert((name.to_string(), i, epoch), (*response.result).clone());
            }
        }
    }
    let oracle = Arc::new(oracle);

    // Two reader clients per tenant race the appends. Each records every
    // (request index, result) pair it observed for later verification.
    let mut readers = Vec::new();
    for (name, _) in &datasets {
        for reader in 0..2 {
            let name = name.to_string();
            let oracle = Arc::clone(&oracle);
            readers.push(std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let info = client.open(&name).unwrap();
                assert_eq!(info.labels, ["A".to_string(), "other".to_string()]);
                let mut checked = 0usize;
                for round in 0..6 {
                    for (i, request) in sweep().iter().enumerate() {
                        let outcome = client.query(request).unwrap();
                        let epoch = outcome.result.epoch;
                        assert!(epoch <= 1, "unexpected epoch {epoch}");
                        let expected = &oracle[&(name.clone(), i, epoch)];
                        assert_eq!(
                            &outcome.result, expected,
                            "{name} reader {reader} round {round} request {i} epoch {epoch}",
                        );
                        checked += 1;
                    }
                }
                client.close().unwrap();
                checked
            }));
        }
    }

    // Interleave: let the readers get going, then append the delta to
    // both tenants through the wire (epoch 0 → 1 mid-sweep).
    std::thread::sleep(Duration::from_millis(20));
    let mut writer = Client::connect(addr).unwrap();
    for (name, _) in &datasets {
        let (epoch, rows) = writer.append(Some(name), &delta_rows()).unwrap();
        assert_eq!((epoch, rows), (1, 40));
    }
    writer.close().unwrap();

    let mut total = 0;
    for reader in readers {
        total += reader.join().unwrap();
    }
    assert_eq!(total, 4 * 6 * sweep().len());

    // Both tenants ended on epoch 1 with disjoint serving stats.
    let mut client = Client::connect(addr).unwrap();
    for (name, _) in &datasets {
        let stats = client.stats(Some(name)).unwrap();
        let get = |k: &str| stats.get(k).and_then(arcs_core::jsonio::Json::as_u64).unwrap();
        assert_eq!(get("epoch"), 1, "{name}");
        assert_eq!(get("snapshot_swaps"), 1, "{name}");
        assert!(get("completed") >= 12, "{name}: {stats}");
    }
    client.close().unwrap();
    handle.shutdown();
}

/// Daemon-level failures arrive as typed wire codes, and a failed request
/// never poisons the connection.
#[test]
fn typed_error_codes_travel_the_wire() {
    let (handle, registry) = start();
    let mut client = Client::connect(handle.addr()).unwrap();

    // No dataset bound yet.
    let err = client
        .query(&Request::new().group("A").thresholds(Thresholds::new(0.0, 0.5).unwrap()))
        .unwrap_err();
    assert_eq!(err.code(), Some(CODE_NO_DATASET));

    // Unknown dataset.
    let err = client.open("gamma").unwrap_err();
    assert_eq!(err.code(), Some(CODE_UNKNOWN_DATASET));

    // Library errors map 1:1 onto their ArcsError codes.
    client.open("alpha").unwrap();
    let err = client
        .query(&Request::new().group("missing").thresholds(Thresholds::new(0.0, 0.5).unwrap()))
        .unwrap_err();
    assert_eq!(err.code(), Some("UNKNOWN_GROUP"));

    let err = client.query(&Request::new().group("A")).unwrap_err();
    assert_eq!(err.code(), Some("INVALID_CONFIG"));

    let err = client.append(None, "1.0,not-a-number,A\n").unwrap_err();
    assert_eq!(err.code(), Some("DATA"));

    // An expired deadline is a typed DEADLINE_EXCEEDED. (A nonzero one
    // travels as at least 1 ms, which this small query can meet.)
    let err = client
        .query(
            &Request::new()
                .group("A")
                .thresholds(Thresholds::new(0.0, 0.5).unwrap())
                .deadline(Duration::ZERO),
        )
        .unwrap_err();
    assert_eq!(err.code(), Some("DEADLINE_EXCEEDED"));

    // Overload: hold the only in-flight slot of a tiny-gate tenant, then
    // query it over the wire.
    let tiny = Tenant::from_dataset(
        "tiny",
        &grid_dataset(0),
        &TenantConfig {
            serve: ServeConfig { max_inflight: 1, max_queued: 0, ..ServeConfig::default() },
            ..tenant_config()
        },
    )
    .unwrap();
    let tiny = registry.insert(tiny);
    let permit = tiny.server().gate().admit(None).unwrap();
    let err = client
        .query_on(
            Some("tiny"),
            &Request::new().group("A").thresholds(Thresholds::new(0.0, 0.5).unwrap()),
        )
        .unwrap_err();
    assert_eq!(err.code(), Some("OVERLOADED"));
    drop(permit);

    // The connection survived every error above.
    let outcome = client
        .query(&Request::new().group("A").thresholds(Thresholds::new(0.0, 0.5).unwrap()))
        .unwrap();
    assert_eq!(outcome.result.epoch, 0);
    client.close().unwrap();
    handle.shutdown();
}

/// Garbage bytes on the socket get a typed PROTOCOL error frame back
/// (when the header parses at all) and never crash the daemon.
#[test]
fn garbage_on_the_socket_is_answered_with_a_protocol_error() {
    use std::io::Write as _;

    let (handle, _registry) = start();

    // Valid frame, garbage JSON payload: typed PROTOCOL error, and the
    // connection stays usable.
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    arcs_daemon::protocol::write_frame(&mut writer, b"not json at all").unwrap();
    let payload = arcs_daemon::protocol::read_frame(&mut reader).unwrap();
    let body = arcs_core::jsonio::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
    let err = arcs_daemon::protocol::split_response(body).unwrap_err();
    assert_eq!(err.code, CODE_PROTOCOL);

    // Garbage framing bytes: the daemon answers with a PROTOCOL error
    // frame and hangs up.
    writer.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    writer.flush().unwrap();
    let payload = arcs_daemon::protocol::read_frame(&mut reader).unwrap();
    let body = arcs_core::jsonio::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
    let err = arcs_daemon::protocol::split_response(body).unwrap_err();
    assert_eq!(err.code, CODE_PROTOCOL);

    // A fresh connection still works: the daemon survived.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.open("alpha").unwrap().epoch, 0);
    client.close().unwrap();
    handle.shutdown();
}

/// The feeder tails a growing CSV file into periodic delta merges, skips
/// poison batches atomically, and survives truncation.
#[test]
fn feeder_tails_a_growing_csv_into_epoch_bumps() {
    use std::io::Write as _;

    let dir = std::env::temp_dir().join("arcsd-feeder-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("feed.csv");
    std::fs::write(&path, "x,y,g\n1.5,1.5,A\n").unwrap();

    let tenant = Arc::new(Tenant::from_dataset("fed", &grid_dataset(0), &tenant_config()).unwrap());
    let feeder =
        arcs_daemon::Feeder::spawn(Arc::clone(&tenant), path.clone(), Duration::from_millis(5))
            .unwrap();

    // Pre-existing bytes are not a delta: the epoch must stay 0.
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(tenant.server().snapshot().epoch(), 0);

    // Append two good rows; the feeder merges them as one batch.
    let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
    file.write_all(b"2.5,2.5,A\n3.5,3.5,A\n").unwrap();
    file.flush().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while tenant.server().snapshot().epoch() < 1 {
        assert!(std::time::Instant::now() < deadline, "feeder never merged");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A poison batch is skipped (not retried forever, not half-merged).
    let epoch_before = tenant.server().snapshot().epoch();
    file.write_all(b"oops,4.5,A\n").unwrap();
    file.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(tenant.server().snapshot().epoch(), epoch_before);
    assert!(feeder.stats().batches_failed.load(std::sync::atomic::Ordering::Relaxed) >= 1);

    // Good rows after the poison batch still merge.
    file.write_all(b"4.5,4.5,other\n").unwrap();
    file.flush().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while tenant.server().snapshot().epoch() < epoch_before + 1 {
        assert!(std::time::Instant::now() < deadline, "feeder wedged after poison batch");
        std::thread::sleep(Duration::from_millis(5));
    }

    feeder.stop();
    std::fs::remove_file(&path).ok();
}
