//! The BitOp clustering algorithm (paper §3.3.1, Figure 6).
//!
//! BitOp locates rectangular clusters of set cells in a bitmap grid using
//! only word-wide bitwise ANDs and run extraction:
//!
//! * For every start row `r0`, a running mask is ANDed with each
//!   successive row. While the mask is unchanged the candidate rectangles
//!   keep growing taller; whenever the mask *loses* bits, the maximal
//!   horizontal runs of the prior mask are emitted as candidate rectangles
//!   spanning rows `r0 .. r-1`; when the mask empties, the start row is
//!   finished.
//! * The candidates are consumed greedily: the largest is selected, its
//!   cells cleared from the grid, and enumeration repeats — the classic
//!   greedy set-cover approximation the paper cites (reference \[5\]),
//!   "near optimal … in O(|C|) time where C is the final set of clusters".
//!
//! Candidates smaller than the prune threshold terminate the loop
//! (paper §3.5: "if the algorithm cannot locate a sufficiently large
//! cluster it terminates").

use crate::cluster::Rect;
use crate::error::ArcsError;
use crate::grid::{for_each_run, Grid};
use crate::metrics::RecoveryStats;

/// Safety cap on the number of clusters one [`cluster`] call returns.
/// The greedy loop always terminates (each selection clears at least one
/// cell), but the cap keeps adversarial salt-and-pepper grids from
/// producing thousands of 1-cell clusters when pruning is disabled.
pub const MAX_CLUSTERS: usize = 10_000;

/// Configuration of the greedy BitOp clustering loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitOpConfig {
    /// Minimum cluster size as a fraction of the total grid area
    /// (paper §3.5: clusters smaller than ~1% of the grid are pruned);
    /// the effective threshold is at least one cell.
    pub min_area_fraction: f64,
    /// Worker threads for candidate enumeration (paper §5 notes the
    /// algorithm parallelises trivially). Defaults to
    /// [`available_parallelism`](std::thread::available_parallelism);
    /// `1` = sequential. Results are bit-identical either way.
    pub threads: usize,
}

impl Default for BitOpConfig {
    fn default() -> Self {
        BitOpConfig { min_area_fraction: 0.01, threads: crate::metrics::default_threads() }
    }
}

impl BitOpConfig {
    /// A configuration with pruning disabled: every cluster down to a
    /// single cell is kept.
    pub fn no_pruning() -> Self {
        BitOpConfig { min_area_fraction: 0.0, ..BitOpConfig::default() }
    }

    /// The effective minimum area in cells for a `width × height` grid.
    pub fn min_area(&self, width: usize, height: usize) -> usize {
        let by_fraction = (self.min_area_fraction * (width * height) as f64).ceil() as usize;
        by_fraction.max(1)
    }

    fn validate(&self) -> Result<(), ArcsError> {
        if !(0.0..=1.0).contains(&self.min_area_fraction) {
            return Err(ArcsError::InvalidConfig(format!(
                "min_area_fraction {} outside [0, 1]",
                self.min_area_fraction
            )));
        }
        if self.threads == 0 {
            return Err(ArcsError::InvalidConfig("threads must be > 0".into()));
        }
        Ok(())
    }
}

/// Enumerates every candidate rectangle the Figure 6 scan produces for the
/// current grid. Candidates may overlap and subsume one another; the
/// greedy loop in [`cluster`] resolves that.
pub fn enumerate_candidates(grid: &Grid) -> Vec<Rect> {
    enumerate_rows(grid, 0, grid.height())
}

/// Parallel candidate enumeration (paper §5: "parallel implementations of
/// the algorithm would be straightforward"): start rows are striped across
/// `threads` workers — each scan is independent because the running mask
/// only reads the grid. Results are identical to [`enumerate_candidates`]
/// including order (stripes are concatenated in row order).
pub fn enumerate_candidates_parallel(grid: &Grid, threads: usize) -> Vec<Rect> {
    enumerate_candidates_parallel_with_stats(grid, threads).0
}

/// [`enumerate_candidates_parallel`] plus panic-isolation tallies.
///
/// Stripes run on the persistent worker pool under
/// [`ExecPool::run_isolated`](crate::exec::ExecPool::run_isolated) — one
/// stripe at `threads == 1` included. A panicked stripe is retried up to
/// [`MAX_SHARD_RETRIES`](crate::exec::MAX_SHARD_RETRIES) times, then
/// recomputed with the `bitop.stripe` failpoint out of the loop. Each
/// attempt rescans the stripe from the read-only grid, so recovery is
/// side-effect free and the concatenated result stays bit-identical,
/// stripe order included. Enumeration has no typed-error channel, so an
/// unrecoverable final-pass panic re-raises as a panic carrying the
/// [`ArcsError::WorkerPanicked`] message.
pub fn enumerate_candidates_parallel_with_stats(
    grid: &Grid,
    threads: usize,
) -> (Vec<Rect>, RecoveryStats) {
    let height = grid.height();
    // `max(1)` keeps a zero-height grid (unreachable through the
    // validated `Grid` constructors) from dividing by zero: it simply
    // has no stripes and no candidates.
    let stripe = height.div_ceil(threads.max(1)).max(1);
    let ranges: Vec<(usize, usize)> =
        (0..height).step_by(stripe).map(|lo| (lo, (lo + stripe).min(height))).collect();
    let scan = |&(lo, hi): &(usize, usize)| Ok(enumerate_rows(grid, lo, hi));
    let (stripes, stats) = crate::exec::ExecPool::global()
        .run_isolated(
            "bitop",
            threads,
            &ranges,
            |range| {
                fault_check_stripe();
                scan(range)
            },
            scan,
        )
        .unwrap_or_else(|err| panic!("{err}"));
    let mut stripes = stripes.into_iter();
    let mut rects = stripes.next().unwrap_or_default();
    for stripe in stripes {
        rects.extend(stripe);
    }
    (rects, stats)
}

/// The `bitop.stripe` failpoint, panic-only by construction: enumeration
/// returns no `Result`, so `error`/`alloc` actions configured on this
/// point are escalated to panics (which the isolation layer then
/// recovers).
fn fault_check_stripe() {
    if let Err(err) = crate::faults::check("bitop.stripe") {
        panic!("injected fault at failpoint `bitop.stripe`: {err}");
    }
}

/// Figure 6 scan restricted to start rows `r0 ∈ [row_lo, row_hi)` (each
/// scan still extends downward through the whole grid).
///
/// The inner loop is word-parallel in the style of the bit-sliced
/// smoothing kernel: one branch-free pass ANDs the running mask with the
/// next row into a second buffer while OR-folding a change detector
/// (`mask ^ next`) and a liveness accumulator, so the per-word
/// `changed`/`empty` branches of the scalar formulation disappear from
/// the hot loop. The scalar oracle is kept as
/// [`enumerate_candidates_reference`]; a proptest pins their equivalence.
fn enumerate_rows(grid: &Grid, row_lo: usize, row_hi: usize) -> Vec<Rect> {
    let mut candidates = Vec::new();
    let height = grid.height();
    let width = grid.width();
    let words = grid.words_per_row();
    let mut mask = vec![0u64; words];
    let mut next = vec![0u64; words];

    for r0 in row_lo..row_hi.min(height) {
        mask.copy_from_slice(grid.row(r0));
        if mask.iter().all(|&w| w == 0) {
            continue;
        }
        let mut top = r0; // last row included in the current mask
        for r in r0 + 1..height {
            // next = mask & row[r], with `diff`/`live` OR-accumulated
            // word-parallel instead of branched per word.
            let row = grid.row(r);
            let mut diff = 0u64;
            let mut live = 0u64;
            for ((n, &m), &w) in next.iter_mut().zip(&mask).zip(row) {
                let and = m & w;
                *n = and;
                diff |= m ^ and;
                live |= and;
            }
            if diff == 0 {
                top = r;
                continue;
            }
            // Emit the prior mask's runs: rectangles spanning rows r0..=top.
            emit_runs(&mask, width, r0, top, &mut candidates);
            std::mem::swap(&mut mask, &mut next);
            if live == 0 {
                top = r0; // unused; loop exits
                break;
            }
            top = r;
        }
        if mask.iter().any(|&w| w != 0) {
            emit_runs(&mask, width, r0, top, &mut candidates);
        }
    }
    candidates
}

fn emit_runs(mask: &[u64], width: usize, y0: usize, y1: usize, out: &mut Vec<Rect>) {
    for_each_run(mask, width, |x0, x1| {
        out.push(Rect { x0, y0, x1, y1 });
    });
}

/// The scalar oracle for [`enumerate_candidates`]: the pre-bit-slicing
/// formulation with per-word `changed`/`empty` branches and the
/// bit-at-a-time run extraction
/// ([`for_each_run_reference`](crate::grid::for_each_run_reference)).
/// Kept verbatim for differential testing — a proptest asserts the
/// word-parallel kernel produces the identical candidate list on random
/// grids.
pub fn enumerate_candidates_reference(grid: &Grid) -> Vec<Rect> {
    let mut candidates = Vec::new();
    let height = grid.height();
    let width = grid.width();
    let words = grid.words_per_row();
    let mut mask = vec![0u64; words];

    for r0 in 0..height {
        mask.copy_from_slice(grid.row(r0));
        if mask.iter().all(|&w| w == 0) {
            continue;
        }
        let mut top = r0;
        for r in r0 + 1..height {
            let row = grid.row(r);
            let mut changed = false;
            let mut empty = true;
            for (m, &w) in mask.iter().zip(row) {
                let next = m & w;
                if next != *m {
                    changed = true;
                }
                if next != 0 {
                    empty = false;
                }
            }
            if !changed {
                top = r;
                continue;
            }
            crate::grid::for_each_run_reference(&mask, width, |x0, x1| {
                candidates.push(Rect { x0, y0: r0, x1, y1: top });
            });
            for (m, &w) in mask.iter_mut().zip(row) {
                *m &= w;
            }
            if empty {
                break;
            }
            top = r;
        }
        if mask.iter().any(|&w| w != 0) {
            crate::grid::for_each_run_reference(&mask, width, |x0, x1| {
                candidates.push(Rect { x0, y0: r0, x1, y1: top });
            });
        }
    }
    candidates
}

/// Work counters from one greedy clustering run. Independent of thread
/// count — both describe what was enumerated, not how it was scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Candidate rectangles enumerated across all greedy iterations.
    pub candidates_enumerated: u64,
    /// Residual candidates below the prune threshold when the loop
    /// terminated (§3.5) — the clusters the area prune suppressed.
    pub clusters_pruned: u64,
    /// Panic-isolation tallies from the parallel enumeration workers.
    pub recovery: RecoveryStats,
}

/// Runs the full greedy BitOp clustering on a copy of `grid`: enumerate
/// candidates, select the largest (ties: bottom-most, then left-most),
/// clear it, repeat until the grid is empty or no candidate reaches the
/// prune threshold.
pub fn cluster(grid: &Grid, config: &BitOpConfig) -> Result<Vec<Rect>, ArcsError> {
    cluster_with_stats(grid, config).map(|(clusters, _)| clusters)
}

/// [`cluster`] plus [`ClusterStats`] for the observability layer.
pub fn cluster_with_stats(
    grid: &Grid,
    config: &BitOpConfig,
) -> Result<(Vec<Rect>, ClusterStats), ArcsError> {
    crate::faults::check("bitop.enumerate")?;
    config.validate()?;
    let min_area = config.min_area(grid.width(), grid.height());
    let mut work = grid.clone();
    let mut clusters = Vec::new();
    let mut stats = ClusterStats::default();

    while !work.is_empty() && clusters.len() < MAX_CLUSTERS {
        let (candidates, recovery) =
            enumerate_candidates_parallel_with_stats(&work, config.threads);
        stats.recovery.merge(&recovery);
        stats.candidates_enumerated += candidates.len() as u64;
        let best = candidates.iter().copied().max_by(|a, b| {
            a.area()
                .cmp(&b.area())
                .then(b.y0.cmp(&a.y0)) // prefer smaller y0
                .then(b.x0.cmp(&a.x0)) // then smaller x0
        });
        match best {
            Some(rect) if rect.area() >= min_area => {
                debug_assert!(work.rect_is_full(rect), "candidate {rect:?} not fully set");
                work.clear_rect(rect);
                clusters.push(rect);
            }
            // §3.5: no sufficiently large cluster remains — terminate,
            // recording how many residual candidates the prune suppressed.
            _ => {
                stats.clusters_pruned +=
                    candidates.iter().filter(|r| r.area() < min_area).count() as u64;
                break;
            }
        }
    }
    Ok((clusters, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rects(grid_art: &str, config: &BitOpConfig) -> Vec<Rect> {
        let grid = Grid::parse(grid_art).unwrap();
        cluster(&grid, config).unwrap()
    }

    #[test]
    fn paper_worked_example() {
        // The §3.3.1 walk-through grid (top line = row 0 here):
        //   row3  1 0 0
        //   row2  1 1 0
        //   row1  0 1 1
        // As art with row 1 first:
        let grid = Grid::parse(
            "
            .##
            ##.
            #..
            ",
        )
        .unwrap();
        let candidates = enumerate_candidates(&grid);
        // Start row 0: mask 011 -> emits (1..2, 0..0); mask &= row1 = 010
        //   -> row2 AND = 000 -> emits (1..1, 0..1).
        // Start row 1: mask 110 -> row2 AND = 100, emits (0..1, 1..1);
        //   then end of grid emits (0..0, 1..2).
        // Start row 2: mask 100 -> emits (0..0, 2..2).
        assert!(candidates.contains(&Rect { x0: 1, y0: 0, x1: 2, y1: 0 }));
        assert!(candidates.contains(&Rect { x0: 1, y0: 0, x1: 1, y1: 1 }));
        assert!(candidates.contains(&Rect { x0: 0, y0: 1, x1: 1, y1: 1 }));
        assert!(candidates.contains(&Rect { x0: 0, y0: 1, x1: 0, y1: 2 }));
        assert!(candidates.contains(&Rect { x0: 0, y0: 2, x1: 0, y1: 2 }));
        assert_eq!(candidates.len(), 5);
    }

    #[test]
    fn single_full_rectangle_found_exactly() {
        let found = rects(
            "
            ......
            .####.
            .####.
            .####.
            ......
            ",
            &BitOpConfig::no_pruning(),
        );
        assert_eq!(found, vec![Rect { x0: 1, y0: 1, x1: 4, y1: 3 }]);
    }

    #[test]
    fn two_disjoint_rectangles() {
        let found = rects(
            "
            ##..##
            ##..##
            ......
            ",
            &BitOpConfig::no_pruning(),
        );
        assert_eq!(found.len(), 2);
        assert!(found.contains(&Rect { x0: 0, y0: 0, x1: 1, y1: 1 }));
        assert!(found.contains(&Rect { x0: 4, y0: 0, x1: 5, y1: 1 }));
    }

    #[test]
    fn l_shape_covered_by_two_clusters() {
        // The greedy choice takes the largest rectangle first.
        let found = rects(
            "
            #..
            #..
            ###
            ",
            &BitOpConfig::no_pruning(),
        );
        let total: usize = found.iter().map(Rect::area).sum();
        assert_eq!(total, 5, "clusters {found:?} must cover all 5 cells");
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn plus_shape() {
        let found = rects(
            "
            .#.
            ###
            .#.
            ",
            &BitOpConfig::no_pruning(),
        );
        let covered: usize = found.iter().map(Rect::area).sum();
        assert_eq!(covered, 5);
        // First cluster is one of the 3-cell bars.
        assert_eq!(found[0].area(), 3);
    }

    #[test]
    fn full_grid_is_one_cluster() {
        let found = rects(
            "
            ####
            ####
            ",
            &BitOpConfig::no_pruning(),
        );
        assert_eq!(found, vec![Rect { x0: 0, y0: 0, x1: 3, y1: 1 }]);
    }

    #[test]
    fn empty_grid_yields_nothing() {
        let grid = Grid::new(5, 5).unwrap();
        assert!(enumerate_candidates(&grid).is_empty());
        assert!(cluster(&grid, &BitOpConfig::no_pruning()).unwrap().is_empty());
    }

    #[test]
    fn pruning_drops_small_specks() {
        // A 4x4 block plus an isolated cell; 5% of 8x4 (1.6 -> 2 cells)
        // drops the speck.
        let config = BitOpConfig { min_area_fraction: 0.05, threads: 1 };
        let found = rects(
            "
            ####....
            ####...#
            ####....
            ####....
            ",
            &config,
        );
        assert_eq!(found, vec![Rect { x0: 0, y0: 0, x1: 3, y1: 3 }]);
    }

    #[test]
    fn fraction_pruning_uses_grid_area() {
        let config = BitOpConfig {
            min_area_fraction: 0.10, // 10% of 8x4 = 3.2 -> 4 cells
            threads: 1,
        };
        assert_eq!(config.min_area(8, 4), 4);
        let found = rects(
            "
            ##..####
            ##......
            ........
            ........
            ",
            &config,
        );
        // 2x2 block (4 cells) kept; 1x4 run (4 cells) kept; nothing smaller.
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|r| r.area() >= 4));
    }

    #[test]
    fn clusters_never_overlap() {
        let grid = Grid::parse(
            "
            ######..
            ######..
            ..######
            ..######
            ",
        )
        .unwrap();
        let found = cluster(&grid, &BitOpConfig::no_pruning()).unwrap();
        for (i, a) in found.iter().enumerate() {
            for b in &found[i + 1..] {
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
        }
        let covered: usize = found.iter().map(Rect::area).sum();
        assert_eq!(covered, grid.count_ones());
    }

    #[test]
    fn max_clusters_caps_output() {
        // One row of alternating cells: with pruning off every set cell
        // is its own 1-cell cluster, more than the cap allows.
        let width = 2 * MAX_CLUSTERS + 2;
        let mut grid = Grid::new(width, 1).unwrap();
        for x in (0..width).step_by(2) {
            grid.set(x, 0);
        }
        let config = BitOpConfig { threads: 1, ..BitOpConfig::no_pruning() };
        let found = cluster(&grid, &config).unwrap();
        assert_eq!(found.len(), MAX_CLUSTERS);
    }

    #[test]
    fn default_threads_track_available_parallelism() {
        assert_eq!(BitOpConfig::default().threads, crate::metrics::default_threads());
        assert!(BitOpConfig::default().threads >= 1);
    }

    #[test]
    fn stats_count_candidates_and_pruned_residue() {
        // A 4x4 block plus an isolated speck; 5% of 8x4 (2 cells) prunes
        // the speck.
        let grid = Grid::parse(
            "
            ####....
            ####...#
            ####....
            ####....
            ",
        )
        .unwrap();
        let config = BitOpConfig { min_area_fraction: 0.05, threads: 1 };
        let (clusters, stats) = cluster_with_stats(&grid, &config).unwrap();
        assert_eq!(clusters, vec![Rect { x0: 0, y0: 0, x1: 3, y1: 3 }]);
        assert!(stats.candidates_enumerated >= 2);
        assert_eq!(stats.clusters_pruned, 1);
        // Counts and fault tallies are schedule-independent; the pool
        // telemetry inside `recovery` (tasks run, steals, queue depth,
        // effective workers) legitimately varies with the thread count,
        // so compare through `faults_only()`.
        let (_, parallel_stats) =
            cluster_with_stats(&grid, &BitOpConfig { threads: 4, ..config }).unwrap();
        assert_eq!(stats.candidates_enumerated, parallel_stats.candidates_enumerated);
        assert_eq!(stats.clusters_pruned, parallel_stats.clusters_pruned);
        assert_eq!(stats.recovery.faults_only(), parallel_stats.recovery.faults_only());
        // Without pruning nothing is suppressed.
        let (_, loose) = cluster_with_stats(&grid, &BitOpConfig::no_pruning()).unwrap();
        assert_eq!(loose.clusters_pruned, 0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let grid = Grid::new(4, 4).unwrap();
        let bad = BitOpConfig { min_area_fraction: 1.5, ..BitOpConfig::default() };
        assert!(cluster(&grid, &bad).is_err());
        let bad = BitOpConfig { threads: 0, ..BitOpConfig::default() };
        assert!(cluster(&grid, &bad).is_err());
    }

    #[test]
    fn parallel_enumeration_matches_sequential() {
        // A deterministic pseudo-random grid exercising word boundaries.
        let mut grid = Grid::new(130, 23).unwrap();
        let mut state = 12345u64;
        for y in 0..23 {
            for x in 0..130 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state >> 60 > 7 {
                    grid.set(x, y);
                }
            }
        }
        let sequential = enumerate_candidates(&grid);
        for threads in [2, 3, 8, 64] {
            let parallel = enumerate_candidates_parallel(&grid, threads);
            assert_eq!(parallel, sequential, "{threads} threads");
        }
        // Clustering with threads produces identical clusters.
        let base = cluster(&grid, &BitOpConfig::no_pruning()).unwrap();
        let threaded =
            cluster(&grid, &BitOpConfig { threads: 4, ..BitOpConfig::no_pruning() }).unwrap();
        assert_eq!(base, threaded);
    }

    #[test]
    fn parallel_enumeration_survives_zero_height_grid() {
        // Regression: the stripe partitioner used to clamp `threads` to
        // `height` without a floor, so a zero-height grid produced
        // `threads == 0` and `height.div_ceil(0)` panicked. The public
        // `Grid` constructors reject zero dimensions, hence the
        // test-only degenerate constructor.
        let grid = Grid::degenerate_zero_height(8);
        for threads in [1, 2, 4] {
            let (rects, stats) = enumerate_candidates_parallel_with_stats(&grid, threads);
            assert!(rects.is_empty());
            assert_eq!(stats.effective_workers, 1);
            assert!(!stats.any());
        }
    }

    #[test]
    fn parallel_enumeration_handles_tiny_grids() {
        let grid = Grid::parse("#.\n.#\n").unwrap();
        assert_eq!(enumerate_candidates_parallel(&grid, 16), enumerate_candidates(&grid));
        let empty = Grid::new(3, 3).unwrap();
        assert!(enumerate_candidates_parallel(&empty, 4).is_empty());
    }

    #[test]
    fn wide_grid_crossing_word_boundaries() {
        // A 100-wide rectangle spanning the u64 boundary.
        let mut grid = Grid::new(100, 3).unwrap();
        grid.set_rect(Rect { x0: 30, y0: 0, x1: 95, y1: 2 });
        let found = cluster(&grid, &BitOpConfig::no_pruning()).unwrap();
        assert_eq!(found, vec![Rect { x0: 30, y0: 0, x1: 95, y1: 2 }]);
    }

    #[test]
    fn figure5_style_overlap_resolved_greedily() {
        // Two overlapping rectangles; greedy picks the bigger, then covers
        // the remainder.
        let found = rects(
            "
            ####....
            ####....
            ####....
            ########
            ########
            ",
            &BitOpConfig::no_pruning(),
        );
        let covered: usize = found.iter().map(Rect::area).sum();
        assert_eq!(covered, 28);
        // Largest-first: the full-height 4x5 = 20-cell left column beats
        // the 8x2 = 16-cell bottom block; the bottom-right remainder follows.
        assert_eq!(found[0], Rect { x0: 0, y0: 0, x1: 3, y1: 4 });
        assert_eq!(found[1], Rect { x0: 4, y0: 3, x1: 7, y1: 4 });
        assert_eq!(found.len(), 2);
    }
}
