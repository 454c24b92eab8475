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
            "segment", csv_str, "--x", "age", "--y", "salary", "--criterion", "group",
            "--group", "A", "--bins", "40",
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
                "segment", "data.csv", "--x", "age", "--y", "salary", "--criterion", "group",
                "--group", "A", "--bins", "30", "--checkpoint-every", "2000", flag, "run.ckpt",
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
        "segment", csv_str, "--x", "age", "--y", "salary", "--criterion", "group",
        "--group", "A", "--bins", "20",
    ];

    let out = arcs().args(base).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "expected data-error exit");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line"), "{stderr}");
    assert!(out.stdout.is_empty());

    let out = arcs()
        .args(base)
        .args(["--on-bad-row", "skip"])
        .output()
        .expect("binary runs");
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
