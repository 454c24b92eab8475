//! End-to-end and per-layer benchmark of ARCS: the library's batch
//! segmentation path and the `arcs daemon` served read and durable
//! ingest paths.
//!
//! ```text
//! arcs-perfbench --workload <batch-1m|explore-wire|ingest-durable> --seed N
//!     --seconds S --trace <0|1> --arcs <arcs binary> --work-dir <dir>
//!     [--commit SHA]
//! ```
//!
//! Prints an environment line, every metric by name and unit, the
//! deterministic work counters, and as its last line one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exits 1 when any answer differs from its oracle.

mod batch;
mod common;
mod daemon;
mod layers;
mod served;
mod trace;

use common::{Args, Report, BASE_ROWS, PINNED_THREADS};

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("arcs-perfbench: {msg}");
            std::process::exit(2);
        }
    };
    if let Err(msg) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "arcs-perfbench: work dir {}: {msg}",
            args.work_dir.display()
        );
        std::process::exit(2);
    }
    let mut report = Report::default();
    report.env("workload", &args.workload);
    report.env("seed", args.seed);
    report.env("seconds", args.seconds);
    report.env("trace", args.trace as u8);
    report.env("rows", BASE_ROWS);
    report.env("nproc", arcs_core::metrics::default_threads());
    report.env("library_threads", PINNED_THREADS);
    report.env("optimizer_threads", PINNED_THREADS);
    report.env("bitop_threads", PINNED_THREADS);
    report.env("daemon_workers", daemon::WORKERS);
    report.env("daemon_max_inflight", daemon::WORKERS);
    report.env("daemon_bin_and_bitop_threads", "available_parallelism");
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    report.env("profile", profile);
    report.env("commit", &args.commit);
    let outcome = match args.workload.as_str() {
        "batch-1m" => batch::run(&args, &mut report),
        "explore-wire" => served::explore(&args, &mut report),
        "ingest-durable" => served::ingest(&args, &mut report),
        other => Err(format!("unknown workload `{other}`")),
    };
    if let Err(msg) = outcome {
        eprintln!("arcs-perfbench: {}: {msg}", args.workload);
        std::process::exit(1);
    }
    report.print(args.trace);
    if !report.correct() {
        std::process::exit(1);
    }
}
