//! The deterministic work counters repeat exactly between two runs with
//! the same seed, on every workload.
//!
//! Needs the `arcs` binary next to the benchmark's own (as `run.py`
//! builds them), or its path in `ARCS_BIN`:
//!
//! ```text
//! CARGO_TARGET_DIR=.bench_build cargo build --release -p arcs-cli
//! CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::Command;

fn arcs_bin() -> PathBuf {
    let bin = std::env::var_os("ARCS_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_BIN_EXE_arcs-perfbench")).with_file_name("arcs")
        });
    assert!(
        bin.is_file(),
        "{} missing: build arcs-cli into the same target dir or set ARCS_BIN",
        bin.display()
    );
    bin
}

/// Runs one short workload on the benchmark's own input and returns its
/// `counters` line.
fn counters(workload: &str, run: usize) -> String {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "arcs-perfbench-repeat-{}-{workload}-{run}",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_arcs-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1.5",
            "--trace",
            "0",
        ])
        .arg("--arcs")
        .arg(arcs_bin())
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("benchmark runs");
    let _ = std::fs::remove_dir_all(&work);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout
            .lines()
            .last()
            .unwrap_or("")
            .contains("\"correct\":true"),
        "{stdout}"
    );
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("counters "))
        .expect("a counters line")
        .to_string()
}

#[test]
fn work_counters_repeat_for_a_fixed_seed() {
    for (workload, keys) in [
        (
            "batch-1m",
            &[
                "optimizer.evaluations",
                "bitop.candidates",
                "bitop.pruned",
                "smooth.words",
                "verify.tuples",
            ][..],
        ),
        ("explore-wire", &["engine.rules", "protocol.bytes"][..]),
        ("ingest-durable", &["rows.appended", "wal.bytes"][..]),
    ] {
        let first = counters(workload, 0);
        for key in keys {
            assert!(
                first.contains(&format!("\"{key}\":")),
                "{workload} lacks {key}: {first}"
            );
        }
        assert_eq!(
            first,
            counters(workload, 1),
            "{workload} counters differ between runs"
        );
    }
}
