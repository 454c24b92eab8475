//! PR 5 microbench: output-sensitive re-mining and word-parallel
//! smoothing against their naive references.
//!
//! Replays the Figure-10 optimizer access pattern — a snake walk over a
//! support × confidence lattice against one fixed `BinArray` — twice:
//! once with the full-scan `rule_grid_into` (every point pays `nx · ny`
//! cells) and once with `OccupancyIndex` + `DeltaMiner` (index build
//! *included* in the timed region; each point pays only the cells whose
//! qualification can change). A second section times the scalar smoothing
//! reference against the bit-sliced word kernel.
//!
//! ```sh
//! cargo run --release -p arcs-bench --bin remine_sweep -- \
//!     [--tuples 500000] [--quick] [--json FILE]
//! ```
//!
//! `--quick` shrinks the dataset and lattice for CI smoke runs. Both
//! variants are checked for bit-identical output before timing; a
//! divergence aborts the benchmark.

use std::time::Instant;

use arcs_bench::{arg_or, has_flag, Table};
use arcs_core::engine::{rule_grid, rule_grid_into};
use arcs_core::smooth::{smooth_reference, smooth_with_stats};
use arcs_core::{BinArray, Binner, DeltaMiner, Grid, OccupancyIndex, SmoothConfig, Thresholds};
use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};

/// Snake walk over a support × confidence lattice: successive points
/// differ in one coordinate by one step, exactly like the optimizer's
/// neighbour moves.
fn lattice_walk(supports: usize, confidences: usize) -> Vec<Thresholds> {
    let mut walk = Vec::with_capacity(supports * confidences);
    for (i, si) in (0..supports).enumerate() {
        let s = 0.002 + 0.10 * si as f64 / supports as f64;
        let cs: Vec<f64> =
            (0..confidences).map(|ci| 0.05 + 0.9 * ci as f64 / confidences as f64).collect();
        let order: Vec<f64> = if i % 2 == 0 { cs } else { cs.into_iter().rev().collect() };
        for c in order {
            walk.push(Thresholds::new(s, c).expect("thresholds in range"));
        }
    }
    walk
}

struct SweepResult {
    name: &'static str,
    nx: usize,
    ny: usize,
    occupied: usize,
    points: usize,
    full_ms: f64,
    delta_ms: f64,
    cells_full: u64,
    cells_delta: u64,
}

/// Times one workload: full-scan re-mining vs index + delta walk.
fn sweep(name: &'static str, ba: &BinArray, walk: &[Thresholds], reps: usize) -> SweepResult {
    // Correctness gate first: the two variants must agree at every point.
    let probe_index = OccupancyIndex::build(ba);
    let mut probe = DeltaMiner::new(&probe_index, 0).expect("group 0 exists");
    for &t in walk {
        probe.update(&probe_index, t);
        assert_eq!(
            probe.grid(),
            &rule_grid(ba, 0, t).expect("grid dims valid"),
            "delta miner diverged from full scan at {t:?}"
        );
    }
    let occupied = ba.occupied_cells().count();

    let start = Instant::now();
    for _ in 0..reps {
        let mut grid = Grid::new(ba.nx(), ba.ny()).expect("grid dims valid");
        for &t in walk {
            rule_grid_into(ba, 0, t, &mut grid).expect("full scan mines");
        }
    }
    let full_ms = start.elapsed().as_secs_f64() * 1e3 / reps as f64;
    let cells_full = (ba.nx() * ba.ny() * walk.len()) as u64;

    let mut cells_delta = 0u64;
    let start = Instant::now();
    for rep in 0..reps {
        // The index build is part of the cost being claimed — time it.
        let index = OccupancyIndex::build(ba);
        let mut delta = DeltaMiner::new(&index, 0).expect("group 0 exists");
        let mut touched = 0u64;
        for &t in walk {
            let (visited, _) = delta.update(&index, t);
            touched += visited;
        }
        if rep == 0 {
            cells_delta = touched;
        }
    }
    let delta_ms = start.elapsed().as_secs_f64() * 1e3 / reps as f64;

    SweepResult {
        name,
        nx: ba.nx(),
        ny: ba.ny(),
        occupied,
        points: walk.len(),
        full_ms,
        delta_ms,
        cells_full,
        cells_delta,
    }
}

/// A synthetic sparse array: `spots` occupied cells scattered over a
/// large grid — the regime where output sensitivity matters most.
fn sparse_array(nx: usize, ny: usize, spots: usize) -> BinArray {
    let mut ba = BinArray::new(nx, ny, 2).expect("dims valid");
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..spots {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = (state >> 33) as usize % nx;
        let y = (state >> 17) as usize % ny;
        for j in 0..(1 + i % 40) {
            ba.add(x, y, (j % 2) as u32);
        }
    }
    ba
}

fn main() {
    let quick = has_flag("--quick");
    let tuples: usize = arg_or("--tuples", if quick { 50_000 } else { 500_000 });
    let seed: u64 = arg_or("--seed", 42);
    let json_path: String = arg_or("--json", String::new());

    let (s_steps, c_steps, reps) = if quick { (4, 4, 3) } else { (10, 10, 20) };
    let walk = lattice_walk(s_steps, c_steps);

    println!("== remine_sweep: output-sensitive re-mining vs full scan ==\n");

    let mut gen =
        AgrawalGenerator::new(GeneratorConfig::paper_defaults(seed)).expect("valid config");
    let ds = gen.generate(tuples);
    let binner = Binner::equi_width(ds.schema(), "age", "salary", "group", 50, 50)
        .expect("schema has the Agrawal attributes");
    let agrawal = binner.bin_rows_parallel(ds.rows(), 1).expect("binning succeeds");

    let sparse = sparse_array(200, 200, if quick { 60 } else { 120 });

    let sweeps = [
        sweep("agrawal-50x50", &agrawal, &walk, reps),
        sweep("sparse-200x200", &sparse, &walk, reps),
    ];

    let mut table = Table::new([
        "workload",
        "occupied",
        "points",
        "full ms",
        "indexed ms",
        "speedup",
        "cells full",
        "cells delta",
    ]);
    for r in &sweeps {
        table.row([
            r.name.to_string(),
            format!("{}/{}", r.occupied, r.nx * r.ny),
            r.points.to_string(),
            format!("{:.3}", r.full_ms),
            format!("{:.3}", r.delta_ms),
            format!("{:.2}x", r.full_ms / r.delta_ms),
            r.cells_full.to_string(),
            r.cells_delta.to_string(),
        ]);
    }
    println!("{}", table.render());

    // ---- smoothing: scalar reference vs word kernel --------------------
    let mid = Thresholds::new(0.01, 0.3).expect("in range");
    let rule_grid = rule_grid(&agrawal, 0, mid).expect("grid dims valid");
    let config = SmoothConfig { passes: 2 };
    let smooth_reps = if quick { 20 } else { 200 };

    let reference = smooth_reference(&rule_grid, &config).expect("reference smooths");
    let (word, stats) = smooth_with_stats(&rule_grid, &config).expect("word kernel smooths");
    assert_eq!(word, reference, "word kernel diverged from scalar reference");

    let start = Instant::now();
    for _ in 0..smooth_reps {
        smooth_reference(&rule_grid, &config).expect("reference smooths");
    }
    let scalar_ms = start.elapsed().as_secs_f64() * 1e3 / smooth_reps as f64;
    let start = Instant::now();
    for _ in 0..smooth_reps {
        smooth_with_stats(&rule_grid, &config).expect("word kernel smooths");
    }
    let word_ms = start.elapsed().as_secs_f64() * 1e3 / smooth_reps as f64;

    let mut stable = Table::new(["grid", "passes", "scalar ms", "word ms", "speedup", "words"]);
    stable.row([
        format!("{}x{}", rule_grid.width(), rule_grid.height()),
        config.passes.to_string(),
        format!("{scalar_ms:.4}"),
        format!("{word_ms:.4}"),
        format!("{:.2}x", scalar_ms / word_ms),
        stats.words_processed.to_string(),
    ]);
    println!("{}", stable.render());

    if !json_path.is_empty() {
        let cpus = std::thread::available_parallelism().map_or(0, usize::from);
        let sweep_json: Vec<String> = sweeps
            .iter()
            .map(|r| {
                format!(
                    "{{\"workload\":\"{}\",\"nx\":{},\"ny\":{},\"occupied\":{},\
                     \"points\":{},\"full_scan_ms\":{:.6},\"indexed_ms\":{:.6},\
                     \"speedup\":{:.3},\"cells_full\":{},\"cells_delta\":{}}}",
                    r.name,
                    r.nx,
                    r.ny,
                    r.occupied,
                    r.points,
                    r.full_ms,
                    r.delta_ms,
                    r.full_ms / r.delta_ms,
                    r.cells_full,
                    r.cells_delta
                )
            })
            .collect();
        let json = format!(
            "{{\"schema_version\":1,\"benchmark\":\"remine_sweep\",\
             \"cpus_available\":{cpus},\"tuples\":{tuples},\"reps\":{reps},\
             \"remine\":[{}],\
             \"smoothing\":{{\"width\":{},\"height\":{},\"passes\":{},\
             \"scalar_ms\":{scalar_ms:.6},\"word_ms\":{word_ms:.6},\
             \"speedup\":{:.3},\"smooth_words_processed\":{}}}}}",
            sweep_json.join(","),
            rule_grid.width(),
            rule_grid.height(),
            config.passes,
            scalar_ms / word_ms,
            stats.words_processed,
        );
        std::fs::write(&json_path, &json).expect("write --json file");
        println!("wrote {json_path}");
    }
}
