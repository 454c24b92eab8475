//! Process-level tests of the `arcs` binary: exit codes, stdout/stderr
//! routing, and an end-to-end generate → segment run through the real
//! entry point.

use std::path::PathBuf;
use std::process::Command;

fn arcs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_arcs"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("arcs-cli-process-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = arcs().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("segment"));
}

#[test]
fn unknown_command_exits_nonzero_on_stderr() {
    let out = arcs().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command"));
    assert!(out.stdout.is_empty());
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = arcs().output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("USAGE"));
}

#[test]
fn generate_and_segment_end_to_end() {
    let csv = tmp("proc_f2.csv");
    let csv_str = csv.to_str().expect("utf-8 path");

    let out = arcs()
        .args(["generate", "--out", csv_str, "--n", "12000", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(csv.exists());

    let out = arcs()
        .args([
            "segment",
            csv_str,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--group",
            "A",
            "--bins",
            "40",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("=>  group = A"), "{stdout}");

    std::fs::remove_file(&csv).ok();
}

/// `--checkpoint` with a bare file name writes the snapshot into the
/// working directory, and `--resume` from it reproduces the run's body.
#[test]
fn bare_checkpoint_name_writes_and_resumes_in_the_working_directory() {
    let dir = tmp("bare-ckpt");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = arcs()
        .current_dir(&dir)
        .args(["generate", "--out", "data.csv", "--n", "5000", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let segment = |flag: &str| {
        let out = arcs()
            .current_dir(&dir)
            .args([
                "segment",
                "data.csv",
                "--x",
                "age",
                "--y",
                "salary",
                "--criterion",
                "group",
                "--group",
                "A",
                "--bins",
                "30",
                "--checkpoint-every",
                "2000",
                flag,
                "run.ckpt",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{flag}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let written = segment("--checkpoint");
    assert!(dir.join("run.ckpt").exists());
    let resumed = segment("--resume");
    assert!(resumed.starts_with("resumed from checkpoint run.ckpt covering 5000 tuples\n"));
    let body: String = resumed.lines().skip(1).map(|l| format!("{l}\n")).collect();
    assert_eq!(body, written);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flag_value_reports_usage_error() {
    let out = arcs()
        .args(["generate", "--out", "/tmp/x.csv", "--n", "not-a-number"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("invalid value"), "{stderr}");
}

/// Writes a fixture whose data rows are >5% corrupted (truncated rows and
/// non-numeric garbage), returning (path, bad-row count).
fn corrupted_fixture(name: &str) -> (PathBuf, usize) {
    let csv = tmp(name);
    let mut text = String::from("age,salary,group\n");
    let mut bad = 0usize;
    for i in 0..600 {
        match i % 12 {
            4 => {
                text.push_str("banana,50000,A\n"); // non-numeric
                bad += 1;
            }
            9 => {
                text.push_str("41.0,62000\n"); // truncated row
                bad += 1;
            }
            _ => {
                let group = if i % 3 == 0 { "A" } else { "B" };
                let age = 20.0 + (i % 60) as f64;
                let salary = 20_000.0 + (i * 211 % 130_000) as f64;
                text.push_str(&format!("{age},{salary},{group}\n"));
            }
        }
    }
    std::fs::write(&csv, text).expect("fixture written");
    (csv, bad)
}

/// The ISSUE acceptance scenario: a corrupted CSV (≥5% bad rows) errors
/// cleanly with exit code 3 under the default fail policy, and completes
/// `segment` under --on-bad-row skip with an accurate ingest report.
#[test]
fn corrupted_csv_exit_codes_and_skip_recovery() {
    let (csv, bad) = corrupted_fixture("proc_corrupt.csv");
    let csv_str = csv.to_str().expect("utf-8 path");
    let base = [
        "segment",
        csv_str,
        "--x",
        "age",
        "--y",
        "salary",
        "--criterion",
        "group",
        "--group",
        "A",
        "--bins",
        "20",
    ];

    let out = arcs().args(base).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "expected data-error exit");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line"), "{stderr}");
    assert!(out.stdout.is_empty());

    let out = arcs().args(base).args(["--on-bad-row", "skip"]).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("ingest:"), "{stdout}");
    assert!(stdout.contains(&format!("skipped {bad}")), "{stdout}");
    assert!(stdout.contains("rows read 600"), "{stdout}");

    std::fs::remove_file(&csv).ok();
}

/// Internal errors (e.g. an unwritable output path) exit with code 4,
/// distinct from usage (2) and data (3) errors.
#[test]
fn unwritable_output_is_an_internal_error() {
    let out = arcs()
        .args(["generate", "--out", "/nonexistent-dir/x.csv", "--n", "100"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(4));
}

/// Kills and reaps a child daemon when a test ends, on success or panic.
#[cfg(unix)]
struct Reaper(std::process::Child);

#[cfg(unix)]
impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `arcs daemon` with `args` plus a fresh `--port-file` under
/// `dir`, and returns it once the file names its address.
#[cfg(unix)]
fn spawn_daemon(dir: &std::path::Path, name: &str, args: &[&str]) -> (Reaper, String) {
    let port_file = dir.join(format!("{name}.port"));
    let child = arcs()
        .arg("daemon")
        .args(["--listen", "127.0.0.1:0"])
        .args(args)
        .arg("--port-file")
        .arg(&port_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon starts");
    let reaper = Reaper(child);
    for _ in 0..600 {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            if addr.ends_with('\n') {
                return (reaper, addr.trim().to_string());
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    panic!("daemon `{name}` never wrote its port file");
}

/// Sends `signal` (a `kill` name such as `TERM`) to the daemon.
#[cfg(unix)]
fn signal(daemon: &Reaper, signal: &str) {
    let status = Command::new("kill")
        .args([format!("-{signal}"), daemon.0.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -{signal} failed");
}

/// Waits up to 30 s for the daemon to exit and returns its exit code.
#[cfg(unix)]
fn exit_code(daemon: &mut Reaper) -> Option<i32> {
    for _ in 0..600 {
        if let Some(status) = daemon.0.try_wait().expect("wait on daemon") {
            return status.code();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    panic!("daemon did not exit within 30 s");
}

/// `arcs repl-status --addr <addr>`'s `role`.
#[cfg(unix)]
fn role(addr: &str) -> String {
    let out = arcs().args(["repl-status", "--addr", addr]).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let status = arcs_core::jsonio::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    status.get("role").and_then(|r| r.as_str()).expect("role").to_string()
}

/// SIGTERM drains a durable daemon the way its usage text promises: it
/// exits 0 after checkpointing every tenant, so fsck finds the appended
/// records folded into the checkpoint and none left in the log.
#[cfg(unix)]
#[test]
fn sigterm_drains_a_durable_daemon_and_checkpoints_every_record() {
    let dir = tmp("sigterm-drain");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("f2.csv");
    let out = arcs()
        .args(["generate", "--out", csv.to_str().unwrap(), "--n", "2000", "--seed", "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&csv).unwrap();
    let rows: String = text.lines().skip(1).take(5).map(|l| format!("{l}\n")).collect();
    let delta = dir.join("delta.csv");
    std::fs::write(&delta, rows).unwrap();
    let data = dir.join("data");
    let datasets = format!("d={}", csv.display());
    let (mut daemon, addr) = spawn_daemon(
        &dir,
        "durable",
        &[
            "--data-dir",
            data.to_str().unwrap(),
            "--datasets",
            &datasets,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--bins",
            "20",
        ],
    );
    for _ in 0..3 {
        let out = arcs()
            .args(["client", "--addr", &addr, "append", "--dataset", "d", "--rows-file"])
            .arg(&delta)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }

    signal(&daemon, "TERM");
    assert_eq!(exit_code(&mut daemon), Some(0), "SIGTERM must drain and exit 0");

    let out = arcs().args(["fsck", "--data-dir"]).arg(&data).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let report = arcs_core::jsonio::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let tenant = match report.get("tenants") {
        Some(arcs_core::jsonio::Json::Arr(tenants)) if tenants.len() == 1 => tenants[0].clone(),
        other => panic!("expected one tenant, got {other:?}"),
    };
    assert_eq!(tenant.get("checkpoint_epoch").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(tenant.get("wal_records").and_then(|v| v.as_u64()), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGHUP promotes a standby `arcs daemon` to primary.
#[cfg(unix)]
#[test]
fn sighup_promotes_a_standby() {
    let dir = tmp("sighup-promote");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("f2.csv");
    let out = arcs()
        .args(["generate", "--out", csv.to_str().unwrap(), "--n", "2000", "--seed", "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let datasets = format!("d={}", csv.display());
    let primary_data = dir.join("primary");
    let (mut primary, primary_addr) = spawn_daemon(
        &dir,
        "primary",
        &[
            "--data-dir",
            primary_data.to_str().unwrap(),
            "--datasets",
            &datasets,
            "--x",
            "age",
            "--y",
            "salary",
            "--criterion",
            "group",
            "--bins",
            "20",
        ],
    );
    let standby_data = dir.join("standby");
    let (mut standby, standby_addr) = spawn_daemon(
        &dir,
        "standby",
        &[
            "--data-dir",
            standby_data.to_str().unwrap(),
            "--replicate-from",
            &primary_addr,
            "--repl-poll-ms",
            "20",
        ],
    );
    assert_eq!(role(&standby_addr), "standby");

    signal(&standby, "HUP");
    let mut promoted = false;
    for _ in 0..200 {
        if role(&standby_addr) == "primary" {
            promoted = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(promoted, "SIGHUP did not promote the standby");

    for daemon in [&mut standby, &mut primary] {
        signal(daemon, "TERM");
        assert_eq!(exit_code(daemon), Some(0));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `arcs daemon --datasets` opens a tenant in memory bounded by its bin
/// array, not by the file (the paper's §4.3 / Fig 15 bound): once the
/// daemon listens, its peak resident set is under half the CSV's size.
#[cfg(target_os = "linux")]
#[test]
fn daemon_opens_a_large_csv_in_memory_below_the_file_size() {
    let dir = tmp("daemon-memory");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("big.csv");
    let out = arcs()
        .args(["generate", "--out", csv.to_str().unwrap(), "--n", "240000", "--seed", "8"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let file_bytes = std::fs::metadata(&csv).unwrap().len();
    assert!(file_bytes >= 25_000_000, "only {file_bytes} bytes of CSV");

    let datasets = format!("big={}", csv.display());
    let (daemon, _addr) = spawn_daemon(
        &dir,
        "memory",
        &["--datasets", &datasets, "--x", "age", "--y", "salary", "--criterion", "group"],
    );
    let status = std::fs::read_to_string(format!("/proc/{}/status", daemon.0.id())).unwrap();
    let peak_kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/<pid>/status");
    assert!(
        peak_kb * 1024 < file_bytes / 2,
        "daemon peaked at {peak_kb} kB opening a {file_bytes}-byte CSV"
    );
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// The deadline envelope through `arcs daemon`: a client deadline of
/// 0 ms, or a daemon whose `--deadline-ms 0` default applies to every
/// query, expires at admission and exits 6 with `deadline` on stderr;
/// the same query without a deadline is answered.
#[cfg(unix)]
#[test]
fn expired_deadlines_exit_6_through_the_daemon() {
    let dir = tmp("daemon-deadline");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("f2.csv");
    let out = arcs()
        .args(["generate", "--out", csv.to_str().unwrap(), "--n", "2000", "--seed", "13"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let datasets = format!("d={}", csv.display());
    let serve = ["--datasets", &datasets, "--x", "age", "--y", "salary", "--criterion", "group"];
    let query = |addr: &str, extra: &[&str]| {
        arcs()
            .args(["client", "--addr", addr, "query", "--dataset", "d", "--group", "A"])
            .args(["--support", "0", "--confidence", "0"])
            .args(extra)
            .output()
            .expect("binary runs")
    };

    // The expired query goes first: a cached answer is served to an
    // admitted request before its deadline is checked.
    let (_daemon, addr) = spawn_daemon(&dir, "plain", &serve);
    let out = query(&addr, &["--deadline-ms", "0"]);
    assert_eq!(out.status.code(), Some(6));
    assert!(String::from_utf8_lossy(&out.stderr).contains("deadline"));
    let out = query(&addr, &[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let (_expiring, addr) =
        spawn_daemon(&dir, "expiring", &[&serve[..], &["--deadline-ms", "0"]].concat());
    let out = query(&addr, &[]);
    assert_eq!(out.status.code(), Some(6));
    assert!(String::from_utf8_lossy(&out.stderr).contains("deadline"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A zero admission limit is refused as a usage error before the daemon
/// binds its port.
#[test]
fn daemon_refuses_a_zero_admission_limit() {
    let out = arcs()
        .args(["daemon", "--listen", "127.0.0.1:0", "--datasets", "d=unused.csv"])
        .args(["--x", "age", "--y", "salary", "--criterion", "group", "--max-inflight", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--max-inflight"));
}
