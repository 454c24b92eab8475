//! Grid smoothing (paper §3.4, Figure 7).
//!
//! Mined-rule grids often contain jagged edges and small holes where no
//! association rule cleared the thresholds; these inhibit finding large,
//! complete clusters. ARCS applies an image-processing *low-pass filter*
//! before clustering: each cell is replaced by the average of its 3×3
//! neighbourhood and re-binarised against a threshold — filling holes and
//! removing isolated specks in one pass. The filter is the paper's one: a
//! uniform 3×3 box whose cut is [`SMOOTH_CUT`] set cells of nine.
//!
//! [`smooth`] runs a **word-parallel** kernel: the 3×3 neighbourhood
//! counts of 64 cells are computed at once with bit-sliced carry-save
//! adds over the grid's packed `u64` row words (shifts within a row,
//! whole words from the rows above/below), and the binarisation becomes
//! a bit-plane comparison against the cut. The output is bit-identical
//! to the scalar [`smooth_reference`] oracle, which is kept for property
//! tests.
//!
//! The paper's §5 reports that using the association-rule *support values*
//! instead of binary cell values in the filter is promising;
//! [`smooth_support`] implements that variant.

use crate::error::ArcsError;
use crate::grid::Grid;

/// The binarisation cut of the 3×3 box filter: a cell is set in the
/// output when at least this many of the nine cells of its neighbourhood
/// (itself included) are set. 4 of 9 is the smallest count reaching 40%
/// of the window, so the filter fills interior holes (8/9), removes
/// isolated specks (1/9) and keeps the corners of solid blocks (4/9).
/// Out-of-bounds neighbours count as unset, so a border cell is judged
/// against the full window: a cell in a grid corner survives only when
/// all four cells of its in-bounds window are set.
pub const SMOOTH_CUT: u32 = 4;

/// Configuration of the smoothing pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmoothConfig {
    /// Number of filter passes (one is almost always enough; zero
    /// disables the filter).
    pub passes: usize,
}

impl Default for SmoothConfig {
    fn default() -> Self {
        SmoothConfig { passes: 1 }
    }
}

impl SmoothConfig {
    /// A disabled config (zero passes) — the grid passes through untouched.
    pub fn disabled() -> Self {
        SmoothConfig { passes: 0 }
    }
}

/// Work counter of one [`smooth_with_stats`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SmoothStats {
    /// Packed 64-bit row words the kernel processed, summed over passes.
    pub words_processed: u64,
}

/// Applies the low-pass filter to a binary grid and returns the smoothed
/// grid. Out-of-bounds neighbours count as unset, so the grid does not
/// bleed past its borders.
pub fn smooth(grid: &Grid, config: &SmoothConfig) -> Result<Grid, ArcsError> {
    smooth_with_stats(grid, config).map(|(out, _)| out)
}

/// [`smooth`] plus its [`SmoothStats`] work counter.
pub fn smooth_with_stats(
    grid: &Grid,
    config: &SmoothConfig,
) -> Result<(Grid, SmoothStats), ArcsError> {
    let mut stats = SmoothStats::default();
    if config.passes == 0 {
        return Ok((grid.clone(), stats));
    }
    let mut current = Grid::new(grid.width(), grid.height())?;
    stats.words_processed += smooth_once_words(grid, &mut current)?;
    if config.passes > 1 {
        // Ping-pong between two buffers: no per-pass allocation.
        let mut next = Grid::new(grid.width(), grid.height())?;
        for _ in 1..config.passes {
            stats.words_processed += smooth_once_words(&current, &mut next)?;
            std::mem::swap(&mut current, &mut next);
        }
    }
    Ok((current, stats))
}

/// The scalar per-cell oracle: the naive implementation the word-parallel
/// [`smooth`] is property-tested against (bit-identical output).
pub fn smooth_reference(grid: &Grid, config: &SmoothConfig) -> Result<Grid, ArcsError> {
    let mut current = grid.clone();
    for _ in 0..config.passes {
        crate::faults::check("smooth.pass")?;
        let mut out = Grid::new(grid.width(), grid.height())?;
        for y in 0..grid.height() {
            for x in 0..grid.width() {
                if neighbourhood_count(&current, x, y) >= SMOOTH_CUT {
                    out.set(x, y);
                }
            }
        }
        current = out;
    }
    Ok(current)
}

/// Set cells in the in-bounds part of the 3×3 window centred on `(x, y)`.
fn neighbourhood_count(grid: &Grid, x: usize, y: usize) -> u32 {
    let mut count = 0;
    for ny in y.saturating_sub(1)..=(y + 1).min(grid.height() - 1) {
        for nx in x.saturating_sub(1)..=(x + 1).min(grid.width() - 1) {
            count += u32::from(grid.get(nx, ny));
        }
    }
    count
}

/// One word-parallel filter pass from `grid` into `out` (same
/// dimensions, fully overwritten). Returns the number of row words
/// processed.
///
/// Per output word, the 3×3 neighbourhood count of all 64 cells is built
/// as bit-sliced binary planes with carry-save adders, and the
/// binarisation becomes the lane-wise comparison `count >= SMOOTH_CUT`
/// over those planes — so the output is bit-identical to
/// [`smooth_reference`].
fn smooth_once_words(grid: &Grid, out: &mut Grid) -> Result<u64, ArcsError> {
    crate::faults::check("smooth.pass")?;
    debug_assert!(out.width() == grid.width() && out.height() == grid.height());
    let height = grid.height();
    let words_per_row = grid.words_per_row();
    let tail_mask = grid.tail_mask();
    let mut words = 0u64;
    for y in 0..height {
        let above = (y > 0).then(|| grid.row(y - 1));
        let cur = grid.row(y);
        let below = (y + 1 < height).then(|| grid.row(y + 1));
        for (wi, slot) in out.row_mut(y).iter_mut().enumerate() {
            let mut word = ge_const(&box3_planes(above, cur, below, wi), SMOOTH_CUT);
            if wi == words_per_row - 1 {
                word &= tail_mask;
            }
            *slot = word;
            words += 1;
        }
    }
    Ok(words)
}

/// Majority (carry) of three bit vectors.
#[inline]
fn maj(a: u64, b: u64, c: u64) -> u64 {
    (a & b) | (a & c) | (b & c)
}

/// The word at `wi` shifted toward its left and right neighbours, with
/// cross-word carry: returns `(left, centre, right)` where `left[i]`
/// holds bit `i - 1` of the row and `right[i]` holds bit `i + 1`.
#[inline]
fn hshift(row: &[u64], wi: usize) -> (u64, u64, u64) {
    let centre = row[wi];
    let left = (centre << 1) | if wi > 0 { row[wi - 1] >> 63 } else { 0 };
    let right = (centre >> 1) | row.get(wi + 1).map_or(0, |&next| next << 63);
    (left, centre, right)
}

/// Box3 bit planes for word `wi`: per-row horizontal triple sums (0..=3,
/// two planes via one full adder) are then summed across the three rows
/// with carry-save adders into four planes (0..=9).
fn box3_planes(above: Option<&[u64]>, cur: &[u64], below: Option<&[u64]>, wi: usize) -> [u64; 4] {
    #[inline]
    fn hsum(row: Option<&[u64]>, wi: usize) -> (u64, u64) {
        row.map_or((0, 0), |r| {
            let (l, c, rt) = hshift(r, wi);
            (l ^ c ^ rt, maj(l, c, rt))
        })
    }
    let (a0, a1) = hsum(above, wi);
    let (c0, c1) = hsum(Some(cur), wi);
    let (b0, b1) = hsum(below, wi);
    // Sum three 2-bit numbers (a1a0 + c1c0 + b1b0) with carry-save adders.
    let s0 = a0 ^ c0 ^ b0;
    let carry0 = maj(a0, c0, b0);
    let t = a1 ^ c1 ^ b1;
    let carry1 = maj(a1, c1, b1);
    let s1 = t ^ carry0;
    let carry2 = t & carry0;
    [s0, s1, carry1 ^ carry2, carry1 & carry2]
}

/// Lane-wise `acc >= k` over bit-sliced planes (plane `i` holds bit `i`
/// of each lane's accumulator): the classic MSB-to-LSB greater/equal
/// masks. `k` must fit in four bits.
fn ge_const(planes: &[u64; 4], k: u32) -> u64 {
    debug_assert!(k < 16);
    let mut gt = 0u64;
    let mut eq = !0u64;
    for i in (0..4).rev() {
        let plane = planes[i];
        if (k >> i) & 1 == 1 {
            eq &= plane;
        } else {
            gt |= eq & plane;
            eq &= !plane;
        }
    }
    gt | eq
}

/// Support-weighted smoothing (paper §5): convolves the per-cell *support
/// values* instead of binary occupancy with the same 3×3 box filter, then
/// binarises against `binarize_threshold` expressed as a fraction of the
/// maximum smoothed support. `values` is row-major `width × height` (as
/// produced by [`support_grid`](crate::engine::support_grid)). Like
/// [`smooth`], a config with zero passes applies no filter — the raw
/// support values go straight to binarisation.
pub fn smooth_support(
    values: &[f64],
    width: usize,
    height: usize,
    config: &SmoothConfig,
    binarize_threshold: f64,
) -> Result<Grid, ArcsError> {
    if values.len() != width * height {
        return Err(ArcsError::InvalidConfig(format!(
            "support grid length {} does not match {width} x {height}",
            values.len()
        )));
    }
    if !(0.0..=1.0).contains(&binarize_threshold) {
        return Err(ArcsError::InvalidConfig(format!(
            "binarize_threshold {binarize_threshold} outside [0, 1]"
        )));
    }
    let mut current = values.to_vec();
    let mut next = vec![0.0; values.len()];
    for _ in 0..config.passes {
        for y in 0..height {
            for x in 0..width {
                let mut acc = 0.0;
                for ny in y.saturating_sub(1)..=(y + 1).min(height - 1) {
                    for nx in x.saturating_sub(1)..=(x + 1).min(width - 1) {
                        acc += current[ny * width + nx];
                    }
                }
                next[y * width + x] = acc / 9.0;
            }
        }
        std::mem::swap(&mut current, &mut next);
    }
    let max = current.iter().cloned().fold(0.0f64, f64::max);
    let mut out = Grid::new(width, height)?;
    if max > 0.0 {
        let cut = binarize_threshold * max;
        for y in 0..height {
            for x in 0..width {
                if current[y * width + x] >= cut && current[y * width + x] > 0.0 {
                    out.set(x, y);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fills_interior_hole() {
        let grid = Grid::parse(
            "
            #####
            ##.##
            #####
            ",
        )
        .unwrap();
        let smoothed = smooth(&grid, &SmoothConfig::default()).unwrap();
        assert!(smoothed.get(2, 1), "interior hole should be filled");
    }

    #[test]
    fn removes_isolated_speck() {
        let grid = Grid::parse(
            "
            .....
            ..#..
            .....
            ",
        )
        .unwrap();
        let smoothed = smooth(&grid, &SmoothConfig::default()).unwrap();
        assert!(smoothed.is_empty(), "isolated speck should be removed");
    }

    #[test]
    fn preserves_solid_block_interior() {
        let grid = Grid::parse(
            "
            ......
            .####.
            .####.
            .####.
            ......
            ",
        )
        .unwrap();
        let smoothed = smooth(&grid, &SmoothConfig::default()).unwrap();
        // The interior 2x1 core must survive; Box3 at 0.45 keeps the full
        // block except possibly corners.
        assert!(smoothed.get(2, 2) && smoothed.get(3, 2));
        assert!(smoothed.count_ones() >= 8);
    }

    #[test]
    fn smooths_jagged_edge() {
        // A block with a one-cell notch on its edge gets squared off.
        let grid = Grid::parse(
            "
            ####
            ###.
            ####
            ####
            ",
        )
        .unwrap();
        let smoothed = smooth(&grid, &SmoothConfig::default()).unwrap();
        assert!(smoothed.get(3, 1), "edge notch should be filled");
    }

    #[test]
    fn disabled_config_is_identity() {
        let grid = Grid::parse(
            "
            #.#
            .#.
            ",
        )
        .unwrap();
        let smoothed = smooth(&grid, &SmoothConfig::disabled()).unwrap();
        assert_eq!(smoothed, grid);
    }

    #[test]
    fn multiple_passes_converge() {
        let grid = Grid::parse(
            "
            #####
            ##.##
            #####
            ",
        )
        .unwrap();
        let once = smooth(&grid, &SmoothConfig { passes: 1 }).unwrap();
        let thrice = smooth(&grid, &SmoothConfig { passes: 3 }).unwrap();
        // The hole stays filled under repeated passes, and extra passes can
        // only erode from the borders inward (never re-create specks).
        assert!(once.get(2, 1));
        assert!(thrice.get(2, 1));
        assert!(thrice.count_ones() <= once.count_ones());
    }

    /// The cut is the smallest neighbourhood count that reaches the
    /// paper's 0.40 of the nine-cell window under an exact `f64` test.
    #[test]
    fn cut_is_the_smallest_count_reaching_forty_percent() {
        assert_eq!((0..=9u32).find(|&k| f64::from(k) / 9.0 >= 0.40), Some(SMOOTH_CUT));
    }

    /// The word-parallel kernel against the scalar oracle on handcrafted
    /// shapes spanning word boundaries (the proptest suite fuzzes this
    /// further).
    #[test]
    fn word_kernel_matches_reference_across_word_boundaries() {
        let mut grid = Grid::new(130, 7).unwrap();
        // A block straddling the 64-bit boundary, a lone speck, a bar at
        // the right edge, and a corner cell.
        for y in 1..5 {
            for x in 60..70 {
                grid.set(x, y);
            }
        }
        grid.set(20, 3);
        for x in 125..130 {
            grid.set(x, 2);
        }
        grid.set(0, 0);
        for passes in [1, 2, 3] {
            let config = SmoothConfig { passes };
            assert_eq!(
                smooth(&grid, &config).unwrap(),
                smooth_reference(&grid, &config).unwrap(),
                "{config:?}"
            );
        }
    }

    #[test]
    fn word_kernel_handles_degenerate_shapes() {
        for (w, h) in [(1, 9), (9, 1), (1, 1), (64, 2), (65, 3)] {
            let mut grid = Grid::new(w, h).unwrap();
            for i in 0..(w * h) {
                if i % 3 != 1 {
                    grid.set(i % w, i / w);
                }
            }
            let config = SmoothConfig::default();
            assert_eq!(
                smooth(&grid, &config).unwrap(),
                smooth_reference(&grid, &config).unwrap(),
                "{w}x{h}"
            );
        }
    }

    /// Out-of-bounds neighbours count as unset: a corner cell sees only
    /// four in-bounds cells of its nine-cell window, so three set
    /// neighbours (3/9) erode it and only all four (4/9) keep it.
    #[test]
    fn border_cells_count_missing_neighbours_as_unset() {
        let three = Grid::parse(
            "
            ##......
            #.......
            ........
            ",
        )
        .unwrap();
        assert!(!smooth(&three, &SmoothConfig::default()).unwrap().get(0, 0));
        let four = Grid::parse(
            "
            ##......
            ##......
            ........
            ",
        )
        .unwrap();
        assert!(smooth(&four, &SmoothConfig::default()).unwrap().get(0, 0));
    }

    /// Satellite bugfix regression: `passes = 0` must be honoured by BOTH
    /// variants — the binary filter already no-ops, and the
    /// support-weighted variant must not sneak in a pass.
    #[test]
    fn zero_passes_disable_both_variants() {
        // Binary: identity (covered above too, kept here for the pair).
        let grid = Grid::parse("#.#\n.#.").unwrap();
        assert_eq!(smooth(&grid, &SmoothConfig::disabled()).unwrap(), grid);

        // Support-weighted: a zero-support hole surrounded by support
        // fills after one pass, but must stay empty with passes = 0 (the
        // raw values go straight to binarisation).
        let width = 5;
        let height = 5;
        let mut values = vec![0.0; width * height];
        for y in 1..4 {
            for x in 1..4 {
                values[y * width + x] = 0.1;
            }
        }
        values[2 * width + 2] = 0.0;
        let smoothed =
            smooth_support(&values, width, height, &SmoothConfig::default(), 0.5).unwrap();
        assert!(smoothed.get(2, 2), "one pass fills the hole");
        let raw = smooth_support(&values, width, height, &SmoothConfig::disabled(), 0.5).unwrap();
        assert!(!raw.get(2, 2), "zero passes must not smooth the support grid");
        assert!(raw.get(1, 1), "raw support cells still binarise");
    }

    #[test]
    fn support_smoothing_fills_low_support_hole() {
        // 3x3 of strong support with a zero centre: the hole fills because
        // its neighbours' support bleeds in.
        let width = 5;
        let height = 5;
        let mut values = vec![0.0; width * height];
        for y in 1..4 {
            for x in 1..4 {
                values[y * width + x] = 0.1;
            }
        }
        values[2 * width + 2] = 0.0;
        let grid = smooth_support(&values, width, height, &SmoothConfig::default(), 0.5).unwrap();
        assert!(grid.get(2, 2), "zero-support hole should be filled");
        assert!(!grid.get(0, 0), "far corner stays clear");
    }

    #[test]
    fn support_smoothing_suppresses_weak_speck() {
        let width = 5;
        let height = 5;
        let mut values = vec![0.0; width * height];
        // Strong block left, weak speck right.
        for y in 0..3 {
            values[y * width] = 0.2;
            values[y * width + 1] = 0.2;
        }
        values[2 * width + 4] = 0.01;
        let grid = smooth_support(&values, width, height, &SmoothConfig::default(), 0.5).unwrap();
        assert!(!grid.get(4, 2), "weak speck should fall below the support cut");
        assert!(grid.get(0, 1) || grid.get(1, 1), "strong block survives");
    }

    #[test]
    fn support_smoothing_validates_inputs() {
        assert!(smooth_support(&[0.0; 5], 2, 2, &SmoothConfig::default(), 0.5).is_err());
        assert!(smooth_support(&[0.0; 4], 2, 2, &SmoothConfig::default(), 1.5).is_err());
    }

    #[test]
    fn support_smoothing_all_zero_is_empty() {
        let grid = smooth_support(&[0.0; 9], 3, 3, &SmoothConfig::default(), 0.5).unwrap();
        assert!(grid.is_empty());
    }

    #[test]
    fn stats_count_words_per_pass() {
        let grid = Grid::new(130, 4).unwrap(); // 3 words per row
        let config = SmoothConfig { passes: 2 };
        let (_, stats) = smooth_with_stats(&grid, &config).unwrap();
        assert_eq!(stats.words_processed, 2 * 4 * 3);
        let (_, none) = smooth_with_stats(&grid, &SmoothConfig::disabled()).unwrap();
        assert_eq!(none.words_processed, 0);
    }
}
