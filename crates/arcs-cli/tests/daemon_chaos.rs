//! Kill-and-recover chaos proofs for `arcs daemon --data-dir`: a child
//! daemon *process* is killed with SIGKILL mid-append-stream (and, with
//! the `failpoints` feature, while injected WAL faults fire), restarted
//! on the same data directory, and must answer every query bit-identical
//! to an in-process oracle that saw only the durable prefix.
//!
//! The durability contract under test:
//!
//! * every **acknowledged** append survives the kill (acked ≤ recovered
//!   epoch);
//! * at most the one **in-flight** append may additionally land
//!   (recovered epoch ≤ acked + 1) — never a half-applied batch, never
//!   a phantom;
//! * `arcs fsck` classifies whatever the kill left behind and
//!   `--repair` brings the directory back to exit-code 0.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use arcs_core::engine::Thresholds;
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
        let dir = std::env::temp_dir().join(format!("arcs-chaos-{tag}-{}-{n}", std::process::id()));
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

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The base dataset: a 10×10 grid with a dense group-A block, written
/// as a real CSV file so the child daemon infers the same schema the
/// oracle loads.
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

/// Header-less append batch `k` — 5 rows, distinct per `k`, inside the
/// base data's value ranges so binning never rejects them.
fn batch(k: u64) -> String {
    let mut rows = String::new();
    for i in 0..5 {
        let x = ((k + i) % 10) as f64 + 0.5;
        let y = ((k * 3 + i) % 10) as f64 + 0.5;
        rows.push_str(&format!("{x},{y},{}\n", if i % 2 == 0 { "A" } else { "other" }));
    }
    rows
}

/// The query sweep both the recovered daemon and the oracle must agree
/// on — with and without clustering.
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

/// Spawns `arcs daemon` on the given data dir, returning the child and
/// the address it bound (read from the port file: the readiness signal).
fn spawn_daemon(
    data_dir: &Path,
    base_csv: Option<&Path>,
    failpoints: Option<&str>,
) -> (Reaper, String) {
    static PORT_FILE: AtomicU64 = AtomicU64::new(0);
    let pf = std::env::temp_dir().join(format!(
        "arcs-chaos-port-{}-{}",
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
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(csv) = base_csv {
        // --max-categories 4: x and y (10 distinct values) overflow into
        // quantitative attributes; g (2 labels) stays categorical.
        cmd.args(["--datasets", &format!("t={}", csv.display())])
            .args(["--x", "x", "--y", "y", "--criterion", "g", "--bins", "10"])
            .args(["--max-categories", "4"]);
    }
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

fn connect(addr: &str) -> Client {
    // Exercises the client's bounded-backoff retry on the (racy)
    // just-restarted daemon.
    Client::connect_with_retry(addr, 5).expect("client connects")
}

/// In-process oracle: the base CSV loaded the way the daemon loads it,
/// plus exactly the durable batches, queried through the library.
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

/// Runs `arcs fsck` on the directory; returns (exit code, stdout JSON).
fn run_fsck(data_dir: &Path, repair: bool) -> (i32, String) {
    let mut cmd = arcs();
    cmd.args(["fsck", "--data-dir", data_dir.to_str().unwrap()]);
    if repair {
        cmd.arg("--repair");
    }
    let out = cmd.output().expect("fsck runs");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Audits the kill site, repairs if needed, and asserts the repair took.
fn fsck_heals(data_dir: &Path) {
    let (code, report) = run_fsck(data_dir, false);
    assert!(report.contains("\"tenants\""), "fsck printed no report: {report}");
    if code != 0 {
        let (code, report) = run_fsck(data_dir, true);
        assert_eq!(code, 0, "fsck --repair did not heal: {report}");
        let (code, report) = run_fsck(data_dir, false);
        assert_eq!(code, 0, "directory still dirty after repair: {report}");
    }
}

/// Restarts on the data dir and checks the recovered daemon against the
/// oracle: epoch in [acked, acked + in-flight], every sweep query
/// bit-identical, tuple counts equal.
fn assert_recovery(data_dir: &Path, base_csv: &Path, acked: &[u64], in_flight: Option<u64>) {
    let (_child, addr) = spawn_daemon(data_dir, None, None);
    let mut client = connect(&addr);
    let info = client.open("t").expect("recovered tenant serves");

    let candidates: Vec<u64> = acked.iter().copied().chain(in_flight).collect();
    let floor = acked.len() as u64;
    assert!(
        info.epoch >= floor && info.epoch <= candidates.len() as u64,
        "recovered epoch {} outside [{floor}, {}]: an acked append was lost \
         or a phantom appeared",
        info.epoch,
        candidates.len(),
    );

    let durable = &candidates[..info.epoch as usize];
    let (expect_tuples, expected) = oracle_results(base_csv, durable);
    assert_eq!(info.n_tuples, expect_tuples, "tuple count diverged from oracle");
    for (i, request) in sweep().iter().enumerate() {
        let outcome = client.query(request).expect("recovered query");
        assert_eq!(outcome.result.epoch, info.epoch);
        assert_eq!(
            outcome.result, expected[i],
            "sweep request {i} differs from the durable-prefix oracle",
        );
    }
    let _ = client.close();
}

/// The headline proof: SIGKILL lands mid-append-stream (a racing killer
/// thread), fsck classifies and heals the wreckage, and the restarted
/// daemon serves exactly the durable prefix.
#[test]
fn sigkill_mid_append_stream_recovers_the_durable_prefix() {
    let data = TempDir::new("sigkill");
    let base_csv = data.path().join("base.csv");
    write_base_csv(&base_csv);

    let (child, addr) = spawn_daemon(data.path(), Some(&base_csv), None);
    let mut client = connect(&addr);
    client.open("t").unwrap();

    // The killer fires while the main thread streams appends as fast as
    // the wire allows: the SIGKILL lands between, or inside, an append.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(80));
        let mut child = child;
        let _ = child.0.kill();
        let _ = child.0.wait();
    });

    let mut acked: Vec<u64> = Vec::new();
    let mut in_flight = None;
    for k in 0..100_000u64 {
        match client.append(None, &batch(k)) {
            Ok((epoch, rows)) => {
                assert_eq!((epoch, rows), (acked.len() as u64 + 1, 5));
                acked.push(k);
            }
            Err(_) => {
                // Sent but unacknowledged: durable iff its WAL record hit
                // the disk before the kill.
                in_flight = Some(k);
                break;
            }
        }
    }
    killer.join().unwrap();
    assert!(in_flight.is_some(), "the kill never interrupted the stream");
    assert!(!acked.is_empty(), "no append was acknowledged before the kill");

    fsck_heals(data.path());
    assert_recovery(data.path(), &base_csv, &acked, in_flight);
}

/// A second kill cycle on the *same* directory: recovery must compose —
/// checkpoint + WAL from run 1, more appends, another SIGKILL, and the
/// third incarnation still matches the oracle.
#[test]
fn repeated_kill_cycles_compose() {
    let data = TempDir::new("cycles");
    let base_csv = data.path().join("base.csv");
    write_base_csv(&base_csv);

    let mut acked: Vec<u64> = Vec::new();
    let mut next_k = 0u64;
    for cycle in 0..2 {
        let (child, addr) =
            spawn_daemon(data.path(), (cycle == 0).then_some(base_csv.as_path()), None);
        let mut client = connect(&addr);
        let info = client.open("t").unwrap();
        // Earlier acked appends must all have survived the last cycle;
        // an unacknowledged in-flight batch may have landed too.
        assert!(info.epoch >= acked.len() as u64, "cycle {cycle} lost acked appends");
        while info.epoch > acked.len() as u64 {
            acked.push(next_k);
            next_k += 1;
        }
        for _ in 0..7 {
            let k = next_k;
            next_k += 1;
            if client.append(None, &batch(k)).is_ok() {
                acked.push(k);
            }
        }
        drop(client);
        drop(child); // Reaper: SIGKILL, no drain, no final checkpoint.
    }

    fsck_heals(data.path());
    // All batches were acked (appends above are unraced), so recovery
    // must land exactly on them.
    assert_recovery(data.path(), &base_csv, &acked, None);
}

/// Copies a tenant directory (one level deep — its layout is flat).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().flatten() {
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// `arcs fsck` against a corruption corpus: every mangled WAL —
/// truncated mid-record, bit-flipped, garbage-extended, or deleted
/// outright — is *detected* (exit 3), *repaired* (`--repair` exits 0),
/// and the repaired directory restarts and serves a durable prefix
/// bit-identical to the oracle.
#[test]
fn fsck_detects_and_repairs_every_generated_corruption() {
    let pristine = TempDir::new("fsck-pristine");
    let base_csv = pristine.path().join("base.csv");
    write_base_csv(&base_csv);

    // Build a pristine durable directory: checkpoint + non-empty WAL.
    let acked: Vec<u64> = {
        let (child, addr) = spawn_daemon(pristine.path(), Some(&base_csv), None);
        let mut client = connect(&addr);
        client.open("t").unwrap();
        let acked = (0..6u64).filter(|&k| client.append(None, &batch(k)).is_ok()).collect();
        drop(client);
        drop(child); // SIGKILL: no final checkpoint, the WAL stays hot.
        acked
    };
    assert_eq!(acked.len(), 6);
    let wal = |dir: &Path| dir.join("t").join("wal.log");
    let pristine_wal = std::fs::read(wal(pristine.path())).unwrap();
    assert!(pristine_wal.len() > 32, "WAL unexpectedly empty");

    // The corpus: one closure per corruption class, mirroring what the
    // WAL codec proptests generate.
    type Corruptor = fn(&Path, &[u8]);
    let corpus: &[(&str, Corruptor)] = &[
        ("truncate-mid-record", |path, bytes| {
            // Shaving 3 bytes always cuts inside the final record (a
            // record is never shorter than its 8-byte trailing CRC).
            std::fs::write(path, &bytes[..bytes.len() - 3]).unwrap();
        }),
        ("bit-flip-body", |path, bytes| {
            let mut bytes = bytes.to_vec();
            let mid = 16 + (bytes.len() - 16) / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(path, bytes).unwrap();
        }),
        ("garbage-tail", |path, bytes| {
            let mut bytes = bytes.to_vec();
            bytes.extend_from_slice(&[0xAB; 37]);
            std::fs::write(path, bytes).unwrap();
        }),
        ("wal-deleted", |path, _| {
            std::fs::remove_file(path).unwrap();
        }),
    ];

    for (tag, corrupt) in corpus {
        let work = TempDir::new(tag);
        copy_dir(&pristine.path().join("t"), &work.path().join("t"));
        corrupt(&wal(work.path()), &pristine_wal);

        let (code, report) = run_fsck(work.path(), false);
        assert_eq!(code, 3, "{tag}: corruption not detected: {report}");
        let (code, report) = run_fsck(work.path(), true);
        assert_eq!(code, 0, "{tag}: repair failed: {report}");
        let (code, report) = run_fsck(work.path(), false);
        assert_eq!(code, 0, "{tag}: still dirty after repair: {report}");

        // The repaired directory serves a (possibly shortened) durable
        // prefix that matches the oracle exactly.
        let (_child, addr) = spawn_daemon(work.path(), None, None);
        let mut client = connect(&addr);
        let info = client.open("t").expect("repaired tenant serves");
        assert!(info.epoch <= acked.len() as u64, "{tag}: phantom records appeared");
        let durable = &acked[..info.epoch as usize];
        let (expect_tuples, expected) = oracle_results(&base_csv, durable);
        assert_eq!(info.n_tuples, expect_tuples, "{tag}: tuples diverged");
        for (i, request) in sweep().iter().enumerate() {
            let outcome = client.query(request).unwrap();
            assert_eq!(outcome.result, expected[i], "{tag}: query {i} diverged");
        }
        let _ = client.close();
    }
}

/// `fsck --repair` is idempotent: repairing a damaged directory exits 0,
/// and repairing the already-repaired directory exits 0 again without
/// changing anything (a repair must never manufacture new problems for
/// the next repair to find).
#[test]
fn fsck_repair_twice_both_exit_zero() {
    let data = TempDir::new("fsck-idem");
    let base_csv = data.path().join("base.csv");
    write_base_csv(&base_csv);

    {
        let (child, addr) = spawn_daemon(data.path(), Some(&base_csv), None);
        let mut client = connect(&addr);
        client.open("t").unwrap();
        for k in 0..6u64 {
            client.append(None, &batch(k)).unwrap();
        }
        drop(client);
        drop(child); // SIGKILL: the WAL stays hot.
    }
    // Tear the WAL tail so the first repair has real work to do.
    let wal = data.path().join("t").join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();

    let (code, report) = run_fsck(data.path(), true);
    assert_eq!(code, 0, "first repair failed: {report}");
    let healed = std::fs::read(&wal).unwrap();

    let (code, report) = run_fsck(data.path(), true);
    assert_eq!(code, 0, "second repair failed: {report}");
    assert_eq!(std::fs::read(&wal).unwrap(), healed, "second repair modified the WAL");

    let (code, report) = run_fsck(data.path(), false);
    assert_eq!(code, 0, "directory dirty after repeated repair: {report}");
}

/// Injected-fault schedules: WAL writes, fsyncs, checkpoints, and
/// truncations fail mid-run, the process is SIGKILLed, and recovery
/// still serves exactly the acknowledged prefix. Failed appends roll
/// back completely — they never surface after restart.
#[cfg(feature = "failpoints")]
#[test]
fn fault_schedules_then_sigkill_recover_exactly_the_acked_prefix() {
    let schedules = [
        "wal.write=error@3",
        "wal.fsync=error@2",
        "wal.write=error@2;wal.fsync=error@4",
        // Visit 1 of wal.checkpoint is the epoch-0 checkpoint during
        // tenant creation; @2+ fails every *background* checkpoint.
        "wal.checkpoint=error@2+",
        "wal.truncate=error@1+",
    ];
    for schedule in schedules {
        let data = TempDir::new("faultkill");
        let base_csv = data.path().join("base.csv");
        write_base_csv(&base_csv);

        let (child, addr) = spawn_daemon(data.path(), Some(&base_csv), Some(schedule));
        let mut client = connect(&addr);
        client.open("t").unwrap();

        let mut acked: Vec<u64> = Vec::new();
        for k in 0..8u64 {
            if client.append(None, &batch(k)).is_ok() {
                acked.push(k);
            }
            // Give the (faulty) background checkpointer chances to fire
            // between appends.
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(client);
        drop(child); // SIGKILL with the schedule still armed.

        fsck_heals(data.path());
        // Every append was answered before the kill, so the durable set
        // is exactly the acked ones: no in-flight candidate.
        assert_recovery(data.path(), &base_csv, &acked, None);
    }
}
