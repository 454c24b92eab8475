//! Criterion micro-benchmarks for the BitOp clustering algorithm: grid
//! size and density sweeps (the paper claims linear time in the output).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use arcs_core::bitop::{self, BitOpConfig};
use arcs_core::cover::connected_components;
use arcs_core::smooth::{smooth, SmoothConfig};
use arcs_core::{Grid, Rect};

/// A grid with `blocks x blocks` rectangular clusters laid out on a lattice.
fn blocky_grid(side: usize, blocks: usize) -> Grid {
    let mut grid = Grid::new(side, side).expect("valid dims");
    let cell = side / blocks;
    let block = (cell * 2) / 3;
    for by in 0..blocks {
        for bx in 0..blocks {
            let x0 = bx * cell;
            let y0 = by * cell;
            if block > 0 {
                grid.set_rect(Rect {
                    x0,
                    y0,
                    x1: (x0 + block - 1).min(side - 1),
                    y1: (y0 + block - 1).min(side - 1),
                });
            }
        }
    }
    grid
}

/// A noisy grid: deterministic pseudo-random cells at the given density.
fn noisy_grid(side: usize, density_pct: u64) -> Grid {
    let mut grid = Grid::new(side, side).expect("valid dims");
    let mut state = 0x9e3779b97f4a7c15u64;
    for y in 0..side {
        for x in 0..side {
            // splitmix64 step
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            if z % 100 < density_pct {
                grid.set(x, y);
            }
        }
    }
    grid
}

fn bench_bitop(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitop/cluster_blocky");
    group.sample_size(10);
    for side in [50usize, 100, 250, 500, 1000] {
        let grid = blocky_grid(side, 4);
        group.throughput(Throughput::Elements((side * side) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(side), &grid, |b, grid| {
            b.iter(|| bitop::cluster(grid, &BitOpConfig::default()).expect("clusters"));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("bitop/enumerate_noisy");
    for density in [5u64, 20, 50] {
        let grid = noisy_grid(200, density);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{density}pct")),
            &grid,
            |b, grid| {
                b.iter(|| bitop::enumerate_candidates(grid));
            },
        );
    }
    group.finish();

    // Parallel enumeration thread sweep (paper §5 parallelism claim).
    let mut group = c.benchmark_group("bitop/enumerate_parallel_1000");
    group.sample_size(10);
    let grid = blocky_grid(1000, 8);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            b.iter(|| bitop::enumerate_candidates_parallel(&grid, threads));
        });
    }
    group.finish();

    // The low-pass filter (applied once per optimizer evaluation).
    let mut group = c.benchmark_group("smooth/box3");
    group.sample_size(10);
    for side in [50usize, 200, 1000] {
        let grid = blocky_grid(side, 4);
        group.throughput(Throughput::Elements((side * side) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(side), &grid, |b, grid| {
            b.iter(|| smooth(grid, &SmoothConfig::default()).expect("smoothing succeeds"));
        });
    }
    group.finish();

    // The image-processing baseline, for cost comparison with BitOp.
    let mut group = c.benchmark_group("cover/connected_components");
    group.sample_size(10);
    for side in [50usize, 200, 1000] {
        let grid = blocky_grid(side, 4);
        group.throughput(Throughput::Elements((side * side) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(side), &grid, |b, grid| {
            b.iter(|| connected_components(grid));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bitop);
criterion_main!(benches);
