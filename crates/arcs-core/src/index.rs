//! Output-sensitive re-mining: the occupancy index and the delta miner.
//!
//! The paper's §3.2 headline is that thresholds can change and rules be
//! re-mined "without touching the source data"; the §3.7 optimizer leans
//! on that by re-mining at many `(support, confidence)` lattice points.
//! A naive re-mine still scans all `nx · ny` bin-array cells per point,
//! although only the *occupied* cells can ever produce a rule. This
//! module makes the hot loop output-sensitive:
//!
//! * [`OccupancyIndex`] — built once per `BinArray`, a CSR-style list of
//!   the occupied cells plus, per criterion group, that group's cells
//!   sorted by support count and by confidence. Re-mining then iterates
//!   occupied cells only.
//! * [`DeltaMiner`] — an incremental re-miner holding the qualifying-cell
//!   grid for its current thresholds. Moving to new thresholds touches
//!   only the cells whose support count or confidence lies between the
//!   old and new cut — the cells that can possibly change qualification —
//!   so a Figure 10 threshold sweep pays per *crossing*, not per cell.
//!
//! ### Invalidation contract
//!
//! The index snapshots the array's per-cell counts; it is valid for as
//! long as the array is not mutated. [`Session`](crate::session::Session)
//! never modifies its array after construction, so a session-held index
//! lives for the session. Callers mutating an array (e.g. via
//! [`BinArray::merge`](crate::binarray::BinArray::merge)) must rebuild
//! the index.

// Public-API paths must fail with typed errors, never panic.
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use crate::binarray::BinArray;
use crate::engine::{min_support_count_for, Thresholds};
use crate::error::ArcsError;
use crate::grid::Grid;

/// One occupied cell of a criterion group, snapshotted from the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupCell {
    /// x bin index.
    pub x: usize,
    /// y bin index.
    pub y: usize,
    /// Group tuple count in the cell (`> 0` by construction).
    pub count: u32,
    /// Total tuple count in the cell (all groups), `>= count`.
    pub total: u32,
    /// Cell confidence `count / total`, precomputed with the same `f64`
    /// expression the reference miner uses.
    pub confidence: f64,
}

/// Per-group slice of the index: the group's occupied cells in row-major
/// (mining emission) order, plus permutations sorted by support count and
/// by confidence for threshold-crossing range queries.
#[derive(Debug, Clone, PartialEq)]
struct GroupIndex {
    /// Cells with `count > 0`, row-major (y outer, x inner).
    cells: Vec<GroupCell>,
    /// Indices into `cells`, ascending by `count` (stable: row-major ties).
    by_count: Vec<u32>,
    /// Indices into `cells`, ascending by `confidence` (stable ties).
    by_conf: Vec<u32>,
    /// Total group tuples (the group's base-rate numerator).
    group_total: u64,
}

/// A one-time index of the occupied cells of a [`BinArray`] — see the
/// module docs for the contract. Build cost is one scan of the array plus
/// `O(m log m)` over the `m` occupied group cells; every subsequent
/// re-mine is proportional to occupied (or crossing) cells only.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyIndex {
    nx: usize,
    ny: usize,
    nseg: usize,
    n_tuples: u64,
    /// Occupied cells (any group), row-major.
    occupied: Vec<(usize, usize)>,
    groups: Vec<GroupIndex>,
}

impl OccupancyIndex {
    /// Builds the index with one row-major scan of `array`.
    pub fn build(array: &BinArray) -> Self {
        let nseg = array.nseg();
        let mut occupied = Vec::new();
        let mut groups: Vec<GroupIndex> = (0..nseg)
            .map(|_| GroupIndex {
                cells: Vec::new(),
                by_count: Vec::new(),
                by_conf: Vec::new(),
                group_total: 0,
            })
            .collect();
        for y in 0..array.ny() {
            for x in 0..array.nx() {
                let total = array.cell_total(x, y);
                if total == 0 {
                    continue;
                }
                occupied.push((x, y));
                for (g, group) in groups.iter_mut().enumerate() {
                    let count = array.group_count(x, y, g as u32);
                    if count == 0 {
                        continue;
                    }
                    group.group_total += count as u64;
                    group.cells.push(GroupCell {
                        x,
                        y,
                        count,
                        total,
                        confidence: count as f64 / total as f64,
                    });
                }
            }
        }
        for group in &mut groups {
            let mut by_count: Vec<u32> = (0..group.cells.len() as u32).collect();
            // Stable sorts keep ties in row-major order, so walks over the
            // permutations are deterministic.
            by_count.sort_by_key(|&i| group.cells[i as usize].count);
            let mut by_conf: Vec<u32> = (0..group.cells.len() as u32).collect();
            by_conf.sort_by(|&a, &b| {
                group.cells[a as usize].confidence.total_cmp(&group.cells[b as usize].confidence)
            });
            group.by_count = by_count;
            group.by_conf = by_conf;
        }
        OccupancyIndex {
            nx: array.nx(),
            ny: array.ny(),
            nseg,
            n_tuples: array.n_tuples(),
            occupied,
            groups,
        }
    }

    /// Grid width the index was built for.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height the index was built for.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of criterion groups the index was built for.
    pub fn nseg(&self) -> usize {
        self.nseg
    }

    /// Tuple count of the array the index was built from.
    pub fn n_tuples(&self) -> u64 {
        self.n_tuples
    }

    /// Occupied cells (any group), row-major.
    pub fn occupied(&self) -> &[(usize, usize)] {
        &self.occupied
    }

    /// The occupied cells of group `gk` in row-major order, or an empty
    /// slice for an out-of-range group.
    pub fn group_cells(&self, gk: u32) -> &[GroupCell] {
        self.groups.get(gk as usize).map_or(&[], |g| &g.cells)
    }

    /// Total tuples of group `gk` (0 for an out-of-range group).
    pub fn group_total(&self, gk: u32) -> u64 {
        self.groups.get(gk as usize).map_or(0, |g| g.group_total)
    }

    fn group(&self, gk: u32) -> Option<&GroupIndex> {
        self.groups.get(gk as usize)
    }
}

/// An incremental re-miner for one criterion group: owns the qualifying
/// cell [`Grid`] at its current thresholds and updates it in place when
/// the thresholds move, touching only cells whose support count or
/// confidence lies between the old and new cuts.
///
/// The very first [`update`](DeltaMiner::update) fills the grid from the
/// index's by-count suffix (still output-sensitive: only cells at or
/// above the support cut are visited).
#[derive(Debug, Clone)]
pub struct DeltaMiner {
    gk: u32,
    grid: Grid,
    /// `(min_count, min_confidence)` the grid currently reflects.
    current: Option<(u64, f64)>,
}

impl DeltaMiner {
    /// Creates a miner for group `gk` with an empty grid sized to `index`.
    pub fn new(index: &OccupancyIndex, gk: u32) -> Result<Self, ArcsError> {
        Ok(DeltaMiner { gk, grid: Grid::new(index.nx, index.ny)?, current: None })
    }

    /// The qualifying-cell grid at the thresholds of the last
    /// [`update`](DeltaMiner::update) (empty before the first).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The group this miner mines.
    pub fn gk(&self) -> u32 {
        self.gk
    }

    /// Moves the grid to `thresholds`, returning
    /// `(cells_visited, cells_changed)`: how many indexed cells were
    /// examined and how many actually flipped qualification. The resulting
    /// grid is bit-identical to a from-scratch
    /// [`rule_grid`](crate::engine::rule_grid) at the same thresholds.
    pub fn update(&mut self, index: &OccupancyIndex, thresholds: Thresholds) -> (u64, u64) {
        debug_assert!(
            index.nx == self.grid.width() && index.ny == self.grid.height(),
            "delta miner used with a foreign index"
        );
        let new_count = min_support_count_for(index.n_tuples, thresholds.min_support);
        let new_conf = thresholds.min_confidence;
        let Some(group) = index.group(self.gk) else {
            // Out-of-range group: nothing can qualify.
            self.grid.reset();
            self.current = Some((new_count, new_conf));
            return (0, 0);
        };
        let mut visited = 0u64;
        let mut changed = 0u64;
        match self.current {
            None => {
                self.grid.reset();
                // First fill: the by-count suffix at or above the support
                // cut is exactly the support-qualifying cell set.
                let start = group
                    .by_count
                    .partition_point(|&i| (group.cells[i as usize].count as u64) < new_count);
                for &i in &group.by_count[start..] {
                    let cell = group.cells[i as usize];
                    visited += 1;
                    if cell.confidence >= new_conf {
                        self.grid.set(cell.x, cell.y);
                        changed += 1;
                    }
                }
            }
            Some((old_count, old_conf)) => {
                // Qualification is a conjunction of two monotone
                // predicates; a cell can flip only if its count lies in
                // [min, max) of the count cuts or its confidence lies in
                // [min, max) of the confidence cuts. Re-deriving the full
                // predicate for every touched cell keeps the update
                // idempotent (cells in both ranges are simply examined
                // twice).
                let (c_lo, c_hi) = (old_count.min(new_count), old_count.max(new_count));
                let start = group
                    .by_count
                    .partition_point(|&i| (group.cells[i as usize].count as u64) < c_lo);
                let end = group
                    .by_count
                    .partition_point(|&i| (group.cells[i as usize].count as u64) < c_hi);
                for &i in &group.by_count[start..end] {
                    visited += 1;
                    changed += self.requalify(group.cells[i as usize], new_count, new_conf);
                }
                let (f_lo, f_hi) = (old_conf.min(new_conf), old_conf.max(new_conf));
                let start =
                    group.by_conf.partition_point(|&i| group.cells[i as usize].confidence < f_lo);
                let end =
                    group.by_conf.partition_point(|&i| group.cells[i as usize].confidence < f_hi);
                for &i in &group.by_conf[start..end] {
                    visited += 1;
                    changed += self.requalify(group.cells[i as usize], new_count, new_conf);
                }
            }
        }
        self.current = Some((new_count, new_conf));
        (visited, changed)
    }

    /// Recomputes one cell's qualification from scratch and applies it,
    /// returning 1 when the stored bit flipped.
    fn requalify(&mut self, cell: GroupCell, min_count: u64, min_conf: f64) -> u64 {
        let qualifies = (cell.count as u64) >= min_count && cell.confidence >= min_conf;
        let was = self.grid.get(cell.x, cell.y);
        if qualifies == was {
            return 0;
        }
        if qualifies {
            self.grid.set(cell.x, cell.y);
        } else {
            self.grid.clear(cell.x, cell.y);
        }
        1
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::engine::rule_grid;

    /// 4x4 array, 2 groups (same shape as the engine's demo array).
    fn demo_array() -> BinArray {
        let mut ba = BinArray::new(4, 4, 2).unwrap();
        for _ in 0..40 {
            ba.add(0, 0, 0);
        }
        for _ in 0..10 {
            ba.add(0, 0, 1);
        }
        for _ in 0..45 {
            ba.add(1, 0, 0);
        }
        for _ in 0..5 {
            ba.add(1, 0, 1);
        }
        for _ in 0..5 {
            ba.add(2, 2, 0);
        }
        for _ in 0..95 {
            ba.add(2, 2, 1);
        }
        for _ in 0..10 {
            ba.add(3, 3, 0);
        }
        ba // N = 210
    }

    #[test]
    fn index_snapshots_occupied_cells() {
        let ba = demo_array();
        let index = OccupancyIndex::build(&ba);
        assert_eq!(index.occupied(), &[(0, 0), (1, 0), (2, 2), (3, 3)]);
        let g0 = index.group_cells(0);
        assert_eq!(g0.len(), 4);
        assert_eq!(g0[0].count, 40);
        assert_eq!(g0[0].total, 50);
        assert_eq!(index.group_total(0), 100);
        assert_eq!(index.group_total(1), 110);
        // Group 1 occupies only three cells — (3,3) is pure group 0.
        assert_eq!(index.group_cells(1).len(), 3);
        // Out-of-range groups are empty, not a panic.
        assert!(index.group_cells(7).is_empty());
        assert_eq!(index.group_total(7), 0);
    }

    #[test]
    fn first_update_matches_rule_grid() {
        let ba = demo_array();
        let index = OccupancyIndex::build(&ba);
        for (s, c) in [(0.0, 0.0), (0.1, 0.5), (0.04, 0.0), (0.0, 0.9), (1.0, 1.0)] {
            let t = Thresholds::new(s, c).unwrap();
            let mut miner = DeltaMiner::new(&index, 0).unwrap();
            let (visited, _) = miner.update(&index, t);
            assert_eq!(miner.grid(), &rule_grid(&ba, 0, t).unwrap(), "({s}, {c})");
            assert!(visited <= 4, "visited {visited} of 4 occupied cells");
        }
    }

    #[test]
    fn delta_walk_stays_bit_identical_and_output_sensitive() {
        let ba = demo_array();
        let index = OccupancyIndex::build(&ba);
        let mut miner = DeltaMiner::new(&index, 0).unwrap();
        let walk = [(0.0, 0.0), (0.04, 0.0), (0.04, 0.9), (0.2, 0.9), (0.0, 0.0), (1.0, 1.0)];
        for (s, c) in walk {
            let t = Thresholds::new(s, c).unwrap();
            let (visited, changed) = miner.update(&index, t);
            assert_eq!(miner.grid(), &rule_grid(&ba, 0, t).unwrap(), "({s}, {c})");
            assert!(changed <= visited);
        }
        // An unchanged threshold pair touches nothing at all.
        let t = Thresholds::new(1.0, 1.0).unwrap();
        assert_eq!(miner.update(&index, t), (0, 0));
    }

    #[test]
    fn empty_array_index_is_empty() {
        let ba = BinArray::new(3, 3, 2).unwrap();
        let index = OccupancyIndex::build(&ba);
        assert!(index.occupied().is_empty());
        let mut miner = DeltaMiner::new(&index, 0).unwrap();
        let t = Thresholds::new(0.0, 0.0).unwrap();
        assert_eq!(miner.update(&index, t), (0, 0));
        assert!(miner.grid().is_empty());
    }
}
