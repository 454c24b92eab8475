//! PR 10 scaling bench: threads-vs-throughput for the persistent worker
//! pool across the three pooled stages — sharded binning, BitOp candidate
//! enumeration, and the parallel threshold search.
//!
//! Every configuration is gated on bit-identity first (the pool's
//! sequential-replay selection rule guarantees results do not depend on
//! the thread count); a divergence aborts the benchmark. The sweep then
//! times each stage at 1, 2, 4, and 8 requested threads and reports
//! wall-clock milliseconds plus the speedup over the single-thread run.
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin scaling_sweep -- \
//!     [--tuples 200000] [--quick] [--json FILE]
//! ```
//!
//! On a 1-CPU container the expected result is *no* speedup — the point
//! of the committed baseline is the honest shape of the curve (see
//! BENCH_pr10.json), not a marketing number: `effective_workers` in the
//! output shows how far each stage's work-size clamp actually fanned out.

use std::time::Instant;

use arcs_bench::{arg_or, has_flag, Table};
use arcs_core::bitop::{self, BitOpConfig};
use arcs_core::{optimize, Binner, Grid, OptimizerConfig};
use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};
use arcs_data::Tuple;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A blocky pseudo-random grid large enough that striped enumeration has
/// real work per stripe: rectangular patches over a `width x height`
/// bitmap, deterministic in `seed`.
fn blocky_grid(width: usize, height: usize, patches: usize, seed: u64) -> Grid {
    let mut grid = Grid::new(width, height).expect("dims valid");
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..patches {
        let x0 = next() as usize % width;
        let y0 = next() as usize % height;
        let w = 1 + next() as usize % 40;
        let h = 1 + next() as usize % 12;
        for y in y0..(y0 + h).min(height) {
            for x in x0..(x0 + w).min(width) {
                grid.set(x, y);
            }
        }
    }
    grid
}

struct Row {
    threads: usize,
    bin_ms: f64,
    bin_workers: u64,
    enum_ms: f64,
    opt_ms: f64,
    opt_workers: u64,
}

fn main() {
    let quick = has_flag("--quick");
    let tuples: usize = arg_or("--tuples", if quick { 30_000 } else { 200_000 });
    let seed: u64 = arg_or("--seed", 42);
    let json_path: String = arg_or("--json", String::new());
    let (bin_reps, enum_reps, opt_reps) = if quick { (3, 5, 1) } else { (10, 30, 3) };

    println!("== scaling_sweep: persistent-pool threads vs throughput ==\n");

    let mut gen =
        AgrawalGenerator::new(GeneratorConfig::paper_defaults(seed)).expect("valid config");
    let ds = gen.generate(tuples);
    let binner = Binner::equi_width(ds.schema(), "age", "salary", "group", 50, 50)
        .expect("schema has the Agrawal attributes");
    // The same rows as tuples, from the same stream: the reference the
    // column pass must equal, and the search's sample.
    let stream: Vec<Tuple> = AgrawalGenerator::new(GeneratorConfig::paper_defaults(seed))
        .expect("valid config")
        .take(tuples)
        .collect();
    let sample: Vec<&Tuple> = stream.iter().take(4_000).collect();
    let grid = blocky_grid(1024, 256, if quick { 120 } else { 400 }, seed);

    // ---- correctness gate: bit-identical at every thread count ---------
    let base_array = binner.bin_rows(&stream).expect("sequential binning");
    let base_rects = bitop::enumerate_candidates(&grid);
    let opt_config = |threads: usize| OptimizerConfig {
        threads,
        bitop: BitOpConfig { threads, ..BitOpConfig::default() },
        max_evaluations: if quick { 12 } else { 40 },
        ..OptimizerConfig::default()
    };
    let base_opt =
        optimize(&base_array, 0, &binner, &sample, &opt_config(1)).expect("sequential search");
    for &threads in &THREADS {
        let parallel = binner.bin_rows_parallel(ds.rows(), threads).expect("parallel binning");
        assert_eq!(
            parallel.checksum(),
            base_array.checksum(),
            "binning diverged at {threads} threads"
        );
        assert_eq!(
            bitop::enumerate_candidates_parallel(&grid, threads),
            base_rects,
            "enumeration diverged at {threads} threads"
        );
        let opt = optimize(&base_array, 0, &binner, &sample, &opt_config(threads))
            .expect("parallel search");
        assert_eq!(opt.best, base_opt.best, "search diverged at {threads} threads");
        assert_eq!(opt.trace, base_opt.trace, "trace diverged at {threads} threads");
    }

    // ---- timed sweep ---------------------------------------------------
    let mut rows = Vec::new();
    for &threads in &THREADS {
        let mut bin_workers = 0u64;
        let start = Instant::now();
        for _ in 0..bin_reps {
            let (_, stats) =
                binner.bin_rows_parallel_with_stats(ds.rows(), threads).expect("parallel binning");
            bin_workers = stats.effective_workers;
        }
        let bin_ms = start.elapsed().as_secs_f64() * 1e3 / bin_reps as f64;

        let start = Instant::now();
        for _ in 0..enum_reps {
            std::hint::black_box(bitop::enumerate_candidates_parallel(&grid, threads));
        }
        let enum_ms = start.elapsed().as_secs_f64() * 1e3 / enum_reps as f64;

        let mut opt_workers = 0u64;
        let start = Instant::now();
        for _ in 0..opt_reps {
            let result = optimize(&base_array, 0, &binner, &sample, &opt_config(threads))
                .expect("parallel search");
            opt_workers = result.stats.workers_effective;
        }
        let opt_ms = start.elapsed().as_secs_f64() * 1e3 / opt_reps as f64;

        rows.push(Row { threads, bin_ms, bin_workers, enum_ms, opt_ms, opt_workers });
    }

    let base = &rows[0];
    let (bin1, enum1, opt1) = (base.bin_ms, base.enum_ms, base.opt_ms);
    let mut table = Table::new([
        "threads",
        "bin ms",
        "bin x",
        "bin workers",
        "enum ms",
        "enum x",
        "opt ms",
        "opt x",
        "opt workers",
    ]);
    for r in &rows {
        table.row([
            r.threads.to_string(),
            format!("{:.3}", r.bin_ms),
            format!("{:.2}x", bin1 / r.bin_ms),
            r.bin_workers.to_string(),
            format!("{:.3}", r.enum_ms),
            format!("{:.2}x", enum1 / r.enum_ms),
            format!("{:.1}", r.opt_ms),
            format!("{:.2}x", opt1 / r.opt_ms),
            r.opt_workers.to_string(),
        ]);
    }
    println!("{}", table.render());
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    println!("cpus_available: {cpus} (speedups are bounded by this, not the thread knob)");

    if !json_path.is_empty() {
        let sweep_json: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"threads\":{},\"bin_ms\":{:.6},\"bin_speedup\":{:.3},\
                     \"bin_effective_workers\":{},\"enum_ms\":{:.6},\
                     \"enum_speedup\":{:.3},\"opt_ms\":{:.6},\"opt_speedup\":{:.3},\
                     \"opt_effective_workers\":{}}}",
                    r.threads,
                    r.bin_ms,
                    bin1 / r.bin_ms,
                    r.bin_workers,
                    r.enum_ms,
                    enum1 / r.enum_ms,
                    r.opt_ms,
                    opt1 / r.opt_ms,
                    r.opt_workers,
                )
            })
            .collect();
        let json = format!(
            "{{\"schema_version\":1,\"benchmark\":\"scaling_sweep\",\
             \"cpus_available\":{cpus},\"tuples\":{tuples},\
             \"grid\":\"{}x{}\",\"sweep\":[{}]}}",
            grid.width(),
            grid.height(),
            sweep_json.join(","),
        );
        std::fs::write(&json_path, &json).expect("write --json file");
        println!("wrote {json_path}");
    }
}
