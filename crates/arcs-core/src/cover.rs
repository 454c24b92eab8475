//! Alternative clusterers and an exact-cover oracle.
//!
//! The paper notes that finding the fewest clusters covering a grid is an
//! instance of the NP-complete k-decision set-covering problem, and that
//! BitOp's greedy selection is a near-optimal approximation (its
//! reference \[5\]). This module provides:
//!
//! * [`connected_components`] — the obvious image-processing baseline the
//!   paper contrasts itself with (§1.1): flood-fill components and take
//!   bounding boxes. Unlike BitOp the boxes may include unset cells
//!   (over-covering), which is exactly why ARCS prefers exact rectangles.
//! * [`optimal_cover`] — an exact branch-and-bound minimum rectangle
//!   partition for small grids (≤ 64 cells), used by the test suite to
//!   measure BitOp's approximation quality.

use std::collections::HashMap;

use crate::cluster::Rect;
use crate::error::ArcsError;
use crate::grid::Grid;

/// Flood-fills 4-connected components of set cells and returns each
/// component's bounding box (largest first). Bounding boxes of L-shaped or
/// diagonal components include unset cells.
pub fn connected_components(grid: &Grid) -> Vec<Rect> {
    let w = grid.width();
    let h = grid.height();
    let mut visited = vec![false; w * h];
    let mut out = Vec::new();
    let mut stack = Vec::new();

    for (sx, sy) in grid.iter_set() {
        if visited[sy * w + sx] {
            continue;
        }
        let (mut x0, mut y0, mut x1, mut y1) = (sx, sy, sx, sy);
        stack.push((sx, sy));
        visited[sy * w + sx] = true;
        while let Some((x, y)) = stack.pop() {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
            let mut push = |nx: usize, ny: usize, stack: &mut Vec<(usize, usize)>| {
                if grid.get(nx, ny) && !visited[ny * w + nx] {
                    visited[ny * w + nx] = true;
                    stack.push((nx, ny));
                }
            };
            if x > 0 {
                push(x - 1, y, &mut stack);
            }
            if x + 1 < w {
                push(x + 1, y, &mut stack);
            }
            if y > 0 {
                push(x, y - 1, &mut stack);
            }
            if y + 1 < h {
                push(x, y + 1, &mut stack);
            }
        }
        out.push(Rect { x0, y0, x1, y1 });
    }
    out.sort_by_key(|r| std::cmp::Reverse(r.area()));
    out
}

/// Exact minimum number of disjoint, fully-set rectangles partitioning the
/// set cells — branch and bound with memoisation over the cell bitmask.
/// Only available for grids with at most 64 cells *total*
/// (`width * height <= 64`); larger grids return an error.
pub fn optimal_cover(grid: &Grid) -> Result<Vec<Rect>, ArcsError> {
    let w = grid.width();
    let h = grid.height();
    if w * h > 64 {
        return Err(ArcsError::InvalidConfig(format!(
            "optimal_cover supports at most 64 cells, grid has {}",
            w * h
        )));
    }
    let mut mask: u64 = 0;
    for (x, y) in grid.iter_set() {
        mask |= 1 << (y * w + x);
    }
    let mut memo: HashMap<u64, Vec<Rect>> = HashMap::new();
    Ok(solve(mask, w, h, &mut memo))
}

/// Minimum partition of `mask` into fully-set rectangles, fully memoised
/// (every reachable sub-mask is solved exactly once).
fn solve(mask: u64, w: usize, h: usize, memo: &mut HashMap<u64, Vec<Rect>>) -> Vec<Rect> {
    if mask == 0 {
        return Vec::new();
    }
    if let Some(cached) = memo.get(&mask) {
        return cached.clone();
    }

    // Anchor on the lowest set bit (first remaining cell in row-major
    // order): the rectangle covering it in any partition must have the
    // anchor as its top-left corner — cells above or to the left of the
    // anchor on its row/column would precede it in row-major order and
    // thus already be removed from the mask.
    let anchor = mask.trailing_zeros() as usize;
    let (ax, ay) = (anchor % w, anchor / w);
    let cell = |x: usize, y: usize| mask & (1 << (y * w + x)) != 0;

    let mut best: Option<Vec<Rect>> = None;
    // Enumerate all rectangles with top-left (ax, ay) whose cells are all
    // in `mask`.
    let mut max_x1 = w - 1;
    for y1 in ay..h {
        if !cell(ax, y1) {
            break;
        }
        // Shrink the right edge to the widest run valid on every row so far.
        let mut x1 = ax;
        while x1 < max_x1 && cell(x1 + 1, y1) {
            x1 += 1;
        }
        max_x1 = max_x1.min(x1);
        for x1 in ax..=max_x1 {
            let rect = Rect { x0: ax, y0: ay, x1, y1 };
            let mut rect_mask = 0u64;
            for (x, y) in rect.cells() {
                rect_mask |= 1 << (y * w + x);
            }
            let mut rest = solve(mask & !rect_mask, w, h, memo);
            rest.push(rect);
            if best.as_ref().is_none_or(|b| rest.len() < b.len()) {
                best = Some(rest);
            }
        }
    }
    let best = best.expect("anchor cell admits at least the 1x1 rectangle");
    memo.insert(mask, best.clone());
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitop::{self, BitOpConfig};

    #[test]
    fn components_of_disjoint_blocks() {
        let grid = Grid::parse(
            "
            ##..#
            ##..#
            .....
            ..#..
            ",
        )
        .unwrap();
        let comps = connected_components(&grid);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], Rect { x0: 0, y0: 0, x1: 1, y1: 1 });
        assert!(comps.contains(&Rect { x0: 4, y0: 0, x1: 4, y1: 1 }));
        assert!(comps.contains(&Rect { x0: 2, y0: 3, x1: 2, y1: 3 }));
    }

    #[test]
    fn components_bounding_box_overcovers_l_shape() {
        let grid = Grid::parse(
            "
            #..
            #..
            ###
            ",
        )
        .unwrap();
        let comps = connected_components(&grid);
        assert_eq!(comps.len(), 1);
        // The bbox covers 9 cells but only 5 are set: the over-covering
        // BitOp avoids.
        assert_eq!(comps[0].area(), 9);
        assert_eq!(grid.count_ones(), 5);
    }

    #[test]
    fn components_empty_grid() {
        let grid = Grid::new(4, 4).unwrap();
        assert!(connected_components(&grid).is_empty());
    }

    #[test]
    fn optimal_cover_single_rect() {
        let grid = Grid::parse(
            "
            .##.
            .##.
            ",
        )
        .unwrap();
        let cover = optimal_cover(&grid).unwrap();
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0], Rect { x0: 1, y0: 0, x1: 2, y1: 1 });
    }

    #[test]
    fn optimal_cover_l_shape_needs_two() {
        let grid = Grid::parse(
            "
            #..
            #..
            ###
            ",
        )
        .unwrap();
        let cover = optimal_cover(&grid).unwrap();
        assert_eq!(cover.len(), 2);
        let covered: usize = cover.iter().map(Rect::area).sum();
        assert_eq!(covered, 5);
    }

    #[test]
    fn optimal_cover_plus_shape_needs_three() {
        let grid = Grid::parse(
            "
            .#.
            ###
            .#.
            ",
        )
        .unwrap();
        let cover = optimal_cover(&grid).unwrap();
        assert_eq!(cover.len(), 3);
    }

    #[test]
    fn optimal_cover_empty_and_oversized() {
        let grid = Grid::new(5, 5).unwrap();
        assert!(optimal_cover(&grid).unwrap().is_empty());
        let big = Grid::new(9, 8).unwrap();
        assert!(optimal_cover(&big).is_err());
    }

    #[test]
    fn optimal_cover_is_a_disjoint_partition() {
        let grid = Grid::parse(
            "
            ###..##.
            .###.##.
            .###....
            ..##..#.
            ",
        )
        .unwrap();
        let cover = optimal_cover(&grid).unwrap();
        let covered: usize = cover.iter().map(Rect::area).sum();
        assert_eq!(covered, grid.count_ones());
        for (i, a) in cover.iter().enumerate() {
            assert!(grid.rect_is_full(*a));
            for b in &cover[i + 1..] {
                assert!(!a.overlaps(b));
            }
        }
    }

    #[test]
    fn bitop_matches_optimum_on_easy_grids() {
        for art in ["####\n####\n", "##..\n##..\n..##\n..##\n", "#.\n.#\n"] {
            let grid = Grid::parse(art).unwrap();
            let greedy = bitop::cluster(&grid, &BitOpConfig::no_pruning()).unwrap();
            let optimal = optimal_cover(&grid).unwrap();
            assert_eq!(greedy.len(), optimal.len(), "grid:\n{art}");
        }
    }

    #[test]
    fn bitop_never_beats_the_oracle() {
        // Greedy can use more rectangles, never fewer.
        let grid = Grid::parse(
            "
            ###.
            .###
            ###.
            ",
        )
        .unwrap();
        let greedy = bitop::cluster(&grid, &BitOpConfig::no_pruning()).unwrap();
        let optimal = optimal_cover(&grid).unwrap();
        assert!(greedy.len() >= optimal.len());
    }
}
