//! Kill-the-primary failover chaos proofs for `arcs daemon
//! --replicate-from`: a primary and a standby run as real child
//! processes over TCP; the primary is SIGKILLed (mid-stream or after
//! quiescing), the standby is promoted, and it must serve exactly a
//! prefix of the acknowledged append stream, bit-identical to an
//! in-process oracle — never a phantom batch, never a diverged result.
//!
//! With the `failpoints` feature, `repl.*` fault schedules are armed on
//! the primary (and the apply failpoint on the standby) and replication
//! must still converge through the injected failures.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use arcs_core::engine::Thresholds;
use arcs_core::jsonio::Json;
use arcs_core::request::Request;
use arcs_core::serve::{ClusterSpec, QueryResult};
use arcs_core::smooth::SmoothConfig;
use arcs_core::BitOpConfig;
use arcs_daemon::registry::{Tenant, TenantConfig};
use arcs_daemon::Client;

fn arcs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_arcs"))
}

/// A scratch directory that removes itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("arcs-replchaos-{tag}-{}-{n}", std::process::id()));
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

/// Kills the child on drop so a failing assertion never leaks a daemon.
struct Reaper(Child);

impl Reaper {
    fn sigkill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        self.sigkill();
    }
}

/// The base dataset: a 10×10 grid with a dense group-A block.
fn write_base_csv(path: &Path) {
    let mut text = String::from("x,y,g\n");
    for ix in 0..10usize {
        for iy in 0..10usize {
            let inside = (2..5).contains(&ix) && (2..5).contains(&iy);
            for _ in 0..if inside { 6 } else { 1 } {
                text.push_str(&format!(
                    "{}.5,{}.5,{}\n",
                    ix,
                    iy,
                    if inside { "A" } else { "other" }
                ));
            }
        }
    }
    std::fs::write(path, text).unwrap();
}

/// Header-less append batch `k` — 5 rows, distinct per `k`.
fn batch(k: u64) -> String {
    let mut rows = String::new();
    for i in 0..5 {
        let x = ((k + i) % 10) as f64 + 0.5;
        let y = ((k * 3 + i) % 10) as f64 + 0.5;
        rows.push_str(&format!("{x},{y},{}\n", if i % 2 == 0 { "A" } else { "other" }));
    }
    rows
}

/// The query sweep the promoted standby and the oracle must agree on.
fn sweep() -> Vec<Request> {
    let thresholds = Thresholds::new(0.01, 0.5).unwrap();
    vec![
        Request::new().group("A").thresholds(thresholds),
        Request::new().group("A").thresholds(thresholds).cluster(ClusterSpec {
            smoothing: SmoothConfig::disabled(),
            bitop: BitOpConfig::no_pruning(),
        }),
    ]
}

/// Spawns an `arcs daemon` child, returning it and the bound address
/// (read from the port file). `extra` carries the role-specific flags
/// (`--datasets ...` for a primary, `--replicate-from ...` for a
/// standby); `failpoints` arms an `ARCS_FAILPOINTS` schedule.
fn spawn_daemon(data_dir: &Path, extra: &[&str], failpoints: Option<&str>) -> (Reaper, String) {
    static PORT_FILE: AtomicU64 = AtomicU64::new(0);
    let pf = std::env::temp_dir().join(format!(
        "arcs-replchaos-port-{}-{}",
        std::process::id(),
        PORT_FILE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&pf);

    let mut cmd = arcs();
    cmd.args(["daemon", "--listen", "127.0.0.1:0"])
        .args(["--data-dir", data_dir.to_str().unwrap()])
        .args(["--checkpoint-every", "4", "--checkpoint-interval-ms", "10"])
        .args(["--port-file", pf.to_str().unwrap()])
        .args(["--max-seconds", "120"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(schedule) = failpoints {
        cmd.env("ARCS_FAILPOINTS", schedule);
    }
    let child = Reaper(cmd.spawn().expect("daemon child spawns"));

    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&pf) {
            let text = text.trim().to_string();
            if !text.is_empty() {
                break text;
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote its port file");
        std::thread::sleep(Duration::from_millis(10));
    };
    let _ = std::fs::remove_file(&pf);
    (child, addr)
}

fn spawn_primary(data_dir: &Path, base_csv: &Path, failpoints: Option<&str>) -> (Reaper, String) {
    let datasets = format!("t={}", base_csv.display());
    spawn_daemon(
        data_dir,
        &[
            "--datasets",
            &datasets,
            "--x",
            "x",
            "--y",
            "y",
            "--criterion",
            "g",
            "--bins",
            "10",
            "--max-categories",
            "4",
        ],
        failpoints,
    )
}

fn spawn_standby(data_dir: &Path, primary: &str, failpoints: Option<&str>) -> (Reaper, String) {
    spawn_daemon(data_dir, &["--replicate-from", primary, "--repl-poll-ms", "10"], failpoints)
}

fn connect(addr: &str) -> Client {
    Client::connect_with_retry(addr, 5).expect("client connects")
}

/// The standby's applied WAL position for `t`, via the extended `stats`
/// op; `None` until the tenant has bootstrapped there.
fn standby_seq(addr: &str) -> Option<u64> {
    let mut client = Client::connect(addr).ok()?;
    let stats = client.stats(Some("t")).ok()?;
    stats.get("durability")?.get("last_wal_seq")?.as_u64()
}

fn wait_standby_seq(addr: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while standby_seq(addr) != Some(want) {
        assert!(
            Instant::now() < deadline,
            "standby never converged to seq {want} (at {:?})",
            standby_seq(addr)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits until the standby's applied position stops moving (its primary
/// is dead, so "stable across a few polls" means it has drained whatever
/// it had already fetched).
fn settled_standby_seq(addr: &str) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = None;
    let mut stable = 0;
    loop {
        let seq = standby_seq(addr);
        if let Some(current) = seq.filter(|_| seq == last) {
            stable += 1;
            if stable >= 3 {
                return current;
            }
        } else {
            stable = 0;
            last = seq;
        }
        assert!(Instant::now() < deadline, "standby position never settled");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// In-process oracle: the base CSV plus exactly `batches`, queried
/// through the library.
fn oracle_results(base_csv: &Path, batches: &[u64]) -> (u64, Vec<QueryResult>) {
    let ds = arcs_data::csv::load_csv_inferred(base_csv, 4).unwrap();
    let config = TenantConfig { n_x_bins: 10, n_y_bins: 10, ..TenantConfig::new("x", "y", "g") };
    let tenant = Tenant::from_dataset("t", &ds, &config).unwrap();
    for &k in batches {
        tenant.append_csv(&batch(k)).unwrap();
    }
    let results = sweep()
        .iter()
        .map(|request| {
            (*tenant.server().query_unified(request, tenant.labels()).unwrap().result).clone()
        })
        .collect();
    (tenant.server().snapshot().array().n_tuples(), results)
}

/// Promotes the daemon at `addr` and asserts the sweep is bit-identical
/// to the oracle over the durable prefix its epoch names.
fn promote_and_verify(addr: &str, base_csv: &Path, acked: &[u64], in_flight: Option<u64>) -> u64 {
    let mut client = connect(addr);
    let promoted = client.promote().expect("promote");
    assert_eq!(promoted.get("was_standby"), Some(&Json::Bool(true)));

    let info = client.open("t").expect("promoted standby serves");
    let candidates: Vec<u64> = acked.iter().copied().chain(in_flight).collect();
    assert!(
        info.epoch <= candidates.len() as u64,
        "standby epoch {} exceeds every durable candidate: a phantom batch appeared",
        info.epoch,
    );
    let durable = &candidates[..info.epoch as usize];
    let (expect_tuples, expected) = oracle_results(base_csv, durable);
    assert_eq!(info.n_tuples, expect_tuples, "tuple count diverged from the oracle");
    for (i, request) in sweep().iter().enumerate() {
        let outcome = client.query(request).expect("promoted query");
        assert_eq!(outcome.result.epoch, info.epoch);
        assert_eq!(
            outcome.result, expected[i],
            "sweep request {i} differs from the durable-prefix oracle",
        );
    }

    // The promoted daemon is a writable primary now.
    let (epoch, rows) = client.append(None, &batch(1000)).expect("post-promotion write");
    assert_eq!((epoch, rows), (info.epoch + 1, 5));
    let _ = client.close();
    info.epoch
}

/// The headline failover proof: quiesce the standby at the acked prefix,
/// SIGKILL the primary, promote — the standby serves exactly the acked
/// stream, bit-identical, and accepts writes.
#[test]
fn sigkill_primary_then_promoted_standby_serves_the_acked_prefix() {
    let primary_data = TempDir::new("kill-primary");
    let standby_data = TempDir::new("kill-standby");
    let base_csv = primary_data.path().join("base.csv");
    write_base_csv(&base_csv);

    let (mut primary, primary_addr) = spawn_primary(primary_data.path(), &base_csv, None);
    let (_standby, standby_addr) = spawn_standby(standby_data.path(), &primary_addr, None);

    let mut writer = connect(&primary_addr);
    writer.open("t").unwrap();
    let acked: Vec<u64> = (0..6u64).filter(|&k| writer.append(None, &batch(k)).is_ok()).collect();
    assert_eq!(acked.len(), 6, "unraced appends must all ack");
    drop(writer);

    // Writes to the standby are refused with the typed redirect, and the
    // CLI maps it onto the data-error exit class (3).
    let refused = arcs()
        .args(["client", "--addr", &standby_addr, "append", "--dataset", "t"])
        .args(["--rows", &batch(50)])
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(3), "NOT_PRIMARY must exit 3");
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("NOT_PRIMARY"),
        "the refusal names its code"
    );

    wait_standby_seq(&standby_addr, acked.len() as u64);
    primary.sigkill();

    let epoch = promote_and_verify(&standby_addr, &base_csv, &acked, None);
    assert_eq!(epoch, acked.len() as u64, "quiesced standby serves every acked append");
}

/// The racing variant: the SIGKILL lands while appends stream. The
/// settled standby may trail the acked stream (records it never got to
/// fetch) and may carry the one in-flight batch — but whatever epoch it
/// settled on must be an exact, bit-identical prefix of the append
/// stream.
#[test]
fn sigkill_primary_mid_stream_standby_serves_an_exact_prefix() {
    let primary_data = TempDir::new("race-primary");
    let standby_data = TempDir::new("race-standby");
    let base_csv = primary_data.path().join("base.csv");
    write_base_csv(&base_csv);

    let (primary, primary_addr) = spawn_primary(primary_data.path(), &base_csv, None);
    let (_standby, standby_addr) = spawn_standby(standby_data.path(), &primary_addr, None);

    let mut writer = connect(&primary_addr);
    writer.open("t").unwrap();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(80));
        let mut primary = primary;
        primary.sigkill();
    });

    let mut acked: Vec<u64> = Vec::new();
    let mut in_flight = None;
    for k in 0..100_000u64 {
        match writer.append(None, &batch(k)) {
            Ok(_) => acked.push(k),
            Err(_) => {
                in_flight = Some(k);
                break;
            }
        }
    }
    killer.join().unwrap();
    assert!(in_flight.is_some(), "the kill never interrupted the stream");

    let settled = settled_standby_seq(&standby_addr);
    assert!(
        settled <= acked.len() as u64 + 1,
        "standby applied {settled} records but only {} were acked (+1 in flight)",
        acked.len(),
    );
    promote_and_verify(&standby_addr, &base_csv, &acked, in_flight);
}

/// Injected `repl.*` fault schedules: the subscribe handshake, the
/// record fetch, the per-record encoder, the heartbeat (primary side)
/// and the per-record apply (standby side) each fail mid-run — the
/// tailer must retry/re-sync through every schedule and still converge
/// to the full acked prefix, after which the kill-and-promote proof runs
/// unchanged.
#[cfg(feature = "failpoints")]
#[test]
fn repl_fault_schedules_still_converge_then_fail_over() {
    // (primary-side schedule, standby-side schedule)
    let schedules: &[(&str, Option<&str>)] = &[
        ("repl.subscribe=error@1", None),
        ("repl.records=error@2", None),
        ("repl.record=error@2", None),
        ("repl.heartbeat=error@2", None),
        ("repl.subscribe=error@2;repl.records=error@3", Some("repl.apply=error@2")),
    ];
    for (primary_faults, standby_faults) in schedules {
        let primary_data = TempDir::new("fault-primary");
        let standby_data = TempDir::new("fault-standby");
        let base_csv = primary_data.path().join("base.csv");
        write_base_csv(&base_csv);

        let (mut primary, primary_addr) =
            spawn_primary(primary_data.path(), &base_csv, Some(primary_faults));
        let (_standby, standby_addr) =
            spawn_standby(standby_data.path(), &primary_addr, *standby_faults);

        let mut writer = connect(&primary_addr);
        writer.open("t").unwrap();
        let acked: Vec<u64> =
            (0..5u64).filter(|&k| writer.append(None, &batch(k)).is_ok()).collect();
        assert_eq!(acked.len(), 5, "{primary_faults}: appends are not on the fault path");
        drop(writer);

        wait_standby_seq(&standby_addr, acked.len() as u64);
        primary.sigkill();
        let epoch = promote_and_verify(&standby_addr, &base_csv, &acked, None);
        assert_eq!(epoch, acked.len() as u64, "{primary_faults}: acked records lost");
    }
}
