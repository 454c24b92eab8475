//! The bitmap grid (paper §3.2–3.3): one bit per `(x, y)` cell.
//!
//! Rows are packed into `u64` words so BitOp's row combination is literally
//! the paper's "arithmetic registers, bitwise AND and bit-shift machine
//! instructions". A 1000×1000 grid is ~122 KB and trivially memory-resident
//! as the paper assumes.

// Public-API paths must fail with typed errors, never panic.
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use crate::cluster::Rect;
use crate::error::ArcsError;

/// A fixed-size 2-D bitmap with word-packed rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    width: usize,
    height: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Grid {
    /// Creates an empty `width × height` grid.
    pub fn new(width: usize, height: usize) -> Result<Self, ArcsError> {
        if width == 0 || height == 0 {
            return Err(ArcsError::InvalidConfig(format!(
                "grid dimensions must be positive, got {width} x {height}"
            )));
        }
        let words_per_row = width.div_ceil(64);
        let words = words_per_row.checked_mul(height).ok_or(ArcsError::GridTooLarge {
            nx: width,
            ny: height,
            nseg: 0,
        })?;
        let mut bits = Vec::new();
        bits.try_reserve_exact(words)
            .map_err(|_| ArcsError::AllocationFailed { what: format!("{words} grid words") })?;
        bits.resize(words, 0);
        Ok(Grid { width, height, words_per_row, bits })
    }

    /// Test-only: a zero-height grid, impossible through the validated
    /// constructors. Exists so the parallel-enumeration degenerate-grid
    /// guard can be exercised (a zero height used to clamp the stripe
    /// worker count to zero and divide by zero).
    #[cfg(test)]
    pub(crate) fn degenerate_zero_height(width: usize) -> Self {
        Grid { width, height: 0, words_per_row: width.div_ceil(64), bits: Vec::new() }
    }

    /// Builds a grid from an iterator of set cells.
    pub fn from_cells<I>(width: usize, height: usize, cells: I) -> Result<Self, ArcsError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut grid = Grid::new(width, height)?;
        for (x, y) in cells {
            grid.try_set(x, y)?;
        }
        Ok(grid)
    }

    /// Parses a grid from rows of `#` (set) and `.` (unset) characters —
    /// handy for tests and docs. Row 0 of the grid is the *first* line.
    pub fn parse(art: &str) -> Result<Self, ArcsError> {
        let lines: Vec<&str> = art.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
        let height = lines.len();
        let width = lines.first().map_or(0, |l| l.chars().count());
        let mut grid = Grid::new(width, height)?;
        for (y, line) in lines.iter().enumerate() {
            if line.chars().count() != width {
                return Err(ArcsError::InvalidConfig(format!(
                    "ragged grid art: row {y} has {} cells, expected {width}",
                    line.chars().count()
                )));
            }
            for (x, ch) in line.chars().enumerate() {
                match ch {
                    '#' => grid.set(x, y),
                    '.' => {}
                    other => {
                        return Err(ArcsError::InvalidConfig(format!(
                            "unexpected grid art character `{other}`"
                        )))
                    }
                }
            }
        }
        Ok(grid)
    }

    /// Grid width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of `u64` words per row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    #[inline]
    fn index(&self, x: usize, y: usize) -> (usize, u64) {
        let word = y * self.words_per_row + x / 64;
        let mask = 1u64 << (x % 64);
        (word, mask)
    }

    /// Sets the bit at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize) {
        debug_assert!(x < self.width && y < self.height);
        let (word, mask) = self.index(x, y);
        self.bits[word] |= mask;
    }

    /// Clears the bit at `(x, y)`.
    #[inline]
    pub fn clear(&mut self, x: usize, y: usize) {
        debug_assert!(x < self.width && y < self.height);
        let (word, mask) = self.index(x, y);
        self.bits[word] &= !mask;
    }

    /// Clears every bit, keeping the allocation — lets hot loops reuse one
    /// grid buffer instead of reallocating per call.
    pub fn reset(&mut self) {
        self.bits.fill(0);
    }

    /// Checked set.
    pub fn try_set(&mut self, x: usize, y: usize) -> Result<(), ArcsError> {
        if x >= self.width || y >= self.height {
            return Err(ArcsError::OutOfBounds {
                what: format!("cell ({x}, {y}) in {}x{} grid", self.width, self.height),
            });
        }
        self.set(x, y);
        Ok(())
    }

    /// Whether the bit at `(x, y)` is set.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> bool {
        debug_assert!(x < self.width && y < self.height);
        let (word, mask) = self.index(x, y);
        self.bits[word] & mask != 0
    }

    /// The packed words of row `y`.
    #[inline]
    pub fn row(&self, y: usize) -> &[u64] {
        debug_assert!(y < self.height);
        let start = y * self.words_per_row;
        &self.bits[start..start + self.words_per_row]
    }

    /// Mutable packed words of row `y` — for word-level writers (the
    /// smoothing kernel). Writers must keep the grid invariant that bits
    /// at or beyond `width` in the last word stay zero (see
    /// [`tail_mask`](Grid::tail_mask)).
    #[inline]
    pub(crate) fn row_mut(&mut self, y: usize) -> &mut [u64] {
        debug_assert!(y < self.height);
        let start = y * self.words_per_row;
        &mut self.bits[start..start + self.words_per_row]
    }

    /// Mask of the valid bits in the *last* word of each row (all ones
    /// when the width is a multiple of 64).
    #[inline]
    pub(crate) fn tail_mask(&self) -> u64 {
        let r = self.width % 64;
        if r == 0 {
            !0
        } else {
            (1u64 << r) - 1
        }
    }

    /// Number of set bits in the whole grid.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Sets every cell in `rect` (inclusive bounds).
    pub fn set_rect(&mut self, rect: Rect) {
        debug_assert!(rect.x1 < self.width && rect.y1 < self.height);
        for y in rect.y0..=rect.y1 {
            for x in rect.x0..=rect.x1 {
                self.set(x, y);
            }
        }
    }

    /// Clears every cell in `rect` (inclusive bounds). Used by the greedy
    /// BitOp loop after a cluster is selected.
    pub fn clear_rect(&mut self, rect: Rect) {
        debug_assert!(rect.x1 < self.width && rect.y1 < self.height);
        for y in rect.y0..=rect.y1 {
            for x in rect.x0..=rect.x1 {
                self.clear(x, y);
            }
        }
    }

    /// Whether every cell of `rect` is set.
    pub fn rect_is_full(&self, rect: Rect) -> bool {
        (rect.y0..=rect.y1).all(|y| (rect.x0..=rect.x1).all(|x| self.get(x, y)))
    }

    /// Iterates over all set cells as `(x, y)`, row-major.
    pub fn iter_set(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.height).flat_map(move |y| {
            self.row(y)
                .iter()
                .enumerate()
                .flat_map(move |(wi, &word)| BitIter::new(word).map(move |b| (wi * 64 + b, y)))
        })
    }
}

/// Iterator over the set-bit positions of a single `u64`.
struct BitIter {
    word: u64,
}

impl BitIter {
    fn new(word: u64) -> Self {
        BitIter { word }
    }
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(b)
    }
}

/// Extracts the maximal runs of consecutive set bits from a packed word
/// mask of `width` bits, calling `f(start_x, end_x)` (inclusive) per run.
/// This is BitOp's `process_row` primitive.
///
/// Both run *lengths* and the zero gaps between runs are skipped with one
/// `trailing_zeros` each, so the cost is proportional to the number of
/// runs, not the number of bits — the bit-sliced treatment the smoothing
/// kernel got in its word-parallel rewrite. The bit-at-a-time
/// formulation is kept as [`for_each_run_reference`] and pinned
/// equivalent by unit tests and a proptest.
pub fn for_each_run(words: &[u64], width: usize, mut f: impl FnMut(usize, usize)) {
    let mut run_start: Option<usize> = None;
    for (wi, &word) in words.iter().enumerate() {
        let base = wi * 64;
        if base >= width {
            break;
        }
        let bits_in_word = (width - base).min(64);
        let mut w = word;
        if bits_in_word < 64 {
            w &= (1u64 << bits_in_word) - 1;
        }
        // A run carried in from the previous word ends here if bit 0 is
        // clear; if set, the first run below resumes it.
        if w & 1 == 0 {
            if let Some(carried) = run_start.take() {
                f(carried, base - 1);
            }
        }
        let mut offset = 0usize;
        while offset < bits_in_word {
            let rest = w >> offset;
            if rest == 0 {
                break; // no set bits left in this word
            }
            // One tz to skip the zero gap, one to measure the run.
            let start_bit = offset + rest.trailing_zeros() as usize;
            let ones = (!w >> start_bit).trailing_zeros() as usize;
            let run_end = start_bit + ones; // exclusive
            let start = match run_start.take() {
                Some(carried) if start_bit == 0 => carried,
                _ => base + start_bit,
            };
            if run_end >= bits_in_word {
                // The run reaches the word's edge — it may continue into
                // the next word; decided there (or flushed after the loop).
                run_start = Some(start);
                break;
            }
            f(start, base + run_end - 1);
            offset = run_end;
        }
    }
    if let Some(start) = run_start {
        f(start, width.min(words.len() * 64) - 1);
    }
}

/// The scalar oracle for [`for_each_run`]: the original bit-at-a-time
/// formulation, kept verbatim for differential testing.
pub fn for_each_run_reference(words: &[u64], width: usize, mut f: impl FnMut(usize, usize)) {
    let mut run_start: Option<usize> = None;
    let mut x = 0usize;
    for (wi, &word) in words.iter().enumerate() {
        let bits_in_word = (width - wi * 64).min(64);
        let mut w = word;
        if bits_in_word < 64 {
            w &= (1u64 << bits_in_word) - 1;
        }
        let mut offset = 0usize;
        while offset < bits_in_word {
            if w & (1 << offset) != 0 {
                if run_start.is_none() {
                    run_start = Some(x + offset);
                }
                // Skip to the end of this run within the word.
                let rest = w >> offset;
                let run_len = (!rest).trailing_zeros() as usize;
                let run_end_in_word = offset + run_len;
                if run_end_in_word < bits_in_word {
                    // Run ends inside the word; `run_start` was set when
                    // it began, a few lines up.
                    if let Some(start) = run_start.take() {
                        f(start, x + run_end_in_word - 1);
                    }
                    offset = run_end_in_word;
                } else {
                    // Run continues into the next word (or ends at width).
                    offset = bits_in_word;
                }
            } else {
                offset += 1;
            }
        }
        // If we leave the word mid-run and the run doesn't continue, close it.
        if let Some(start) = run_start {
            let next_continues =
                words.get(wi + 1).is_some_and(|&nw| width > (wi + 1) * 64 && nw & 1 != 0);
            if !next_continues {
                f(start, x + bits_in_word - 1);
                run_start = None;
            }
        }
        x += 64;
    }
    debug_assert!(run_start.is_none(), "unterminated run");
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut g = Grid::new(130, 5).unwrap(); // 3 words per row
        assert_eq!(g.words_per_row(), 3);
        assert!(!g.get(0, 0));
        g.set(0, 0);
        g.set(64, 2); // second word
        g.set(129, 4); // last cell
        assert!(g.get(0, 0));
        assert!(g.get(64, 2));
        assert!(g.get(129, 4));
        assert_eq!(g.count_ones(), 3);
        g.clear(64, 2);
        assert!(!g.get(64, 2));
        assert_eq!(g.count_ones(), 2);
    }

    #[test]
    fn construction_validates() {
        assert!(Grid::new(0, 5).is_err());
        assert!(Grid::new(5, 0).is_err());
        let mut g = Grid::new(4, 4).unwrap();
        assert!(g.try_set(4, 0).is_err());
        assert!(g.try_set(0, 4).is_err());
        assert!(g.try_set(3, 3).is_ok());
    }

    #[test]
    fn from_cells_and_iter_set_roundtrip() {
        let cells = vec![(0, 0), (3, 1), (65, 1), (99, 2)];
        let g = Grid::from_cells(100, 3, cells.clone()).unwrap();
        let got: Vec<_> = g.iter_set().collect();
        assert_eq!(got, cells);
        assert!(Grid::from_cells(10, 3, vec![(10, 0)]).is_err());
    }

    #[test]
    fn parse_art() {
        let g = Grid::parse(
            "
            .##.
            ####
            .#..
            ",
        )
        .unwrap();
        assert_eq!(g.width(), 4);
        assert_eq!(g.height(), 3);
        assert!(g.get(1, 0) && g.get(2, 0) && !g.get(0, 0));
        assert!(g.get(0, 1) && g.get(3, 1));
        assert!(g.get(1, 2) && !g.get(2, 2));
        assert_eq!(g.count_ones(), 7);
        assert!(Grid::parse(".#\n.").is_err()); // ragged
        assert!(Grid::parse(".x").is_err()); // bad char
        assert!(Grid::parse("").is_err()); // empty
    }

    #[test]
    fn rect_operations() {
        let mut g = Grid::new(8, 8).unwrap();
        let r = Rect { x0: 2, y0: 1, x1: 5, y1: 3 };
        g.set_rect(r);
        assert_eq!(g.count_ones(), 12);
        assert!(g.rect_is_full(r));
        assert!(!g.rect_is_full(Rect { x0: 2, y0: 1, x1: 6, y1: 3 }));
        g.clear(3, 2);
        assert!(!g.rect_is_full(r));
        g.clear_rect(r);
        assert!(g.is_empty());
    }

    #[test]
    fn run_extraction_single_word() {
        let mut runs = Vec::new();
        // bits: 0b0110_1101 -> runs [0..0], [2..3], [5..6]
        for_each_run(&[0b0110_1101u64], 8, |a, b| runs.push((a, b)));
        assert_eq!(runs, vec![(0, 0), (2, 3), (5, 6)]);
    }

    #[test]
    fn run_extraction_empty_and_full() {
        let mut runs = Vec::new();
        for_each_run(&[0u64], 8, |a, b| runs.push((a, b)));
        assert!(runs.is_empty());

        runs.clear();
        for_each_run(&[0xFFu64], 8, |a, b| runs.push((a, b)));
        assert_eq!(runs, vec![(0, 7)]);

        // Full width-64 word.
        runs.clear();
        for_each_run(&[u64::MAX], 64, |a, b| runs.push((a, b)));
        assert_eq!(runs, vec![(0, 63)]);
    }

    #[test]
    fn run_extraction_across_word_boundary() {
        // Bits 62..=66 set: crosses the word boundary.
        let w0 = (1u64 << 62) | (1u64 << 63);
        let w1 = 0b111u64;
        let mut runs = Vec::new();
        for_each_run(&[w0, w1], 128, |a, b| runs.push((a, b)));
        assert_eq!(runs, vec![(62, 66)]);
    }

    #[test]
    fn run_extraction_run_ends_exactly_at_boundary() {
        let w0 = (1u64 << 62) | (1u64 << 63);
        let w1 = 0b110u64; // bit 64 unset: run must close at 63
        let mut runs = Vec::new();
        for_each_run(&[w0, w1], 128, |a, b| runs.push((a, b)));
        assert_eq!(runs, vec![(62, 63), (65, 66)]);
    }

    #[test]
    fn run_extraction_ignores_bits_beyond_width() {
        // Word has bits up to 63 set but width is 10.
        let mut runs = Vec::new();
        for_each_run(&[u64::MAX], 10, |a, b| runs.push((a, b)));
        assert_eq!(runs, vec![(0, 9)]);
    }

    #[test]
    fn run_extraction_three_words() {
        // One long run spanning words 0..3 entirely.
        let mut runs = Vec::new();
        for_each_run(&[u64::MAX, u64::MAX, 0b1u64], 130, |a, b| runs.push((a, b)));
        assert_eq!(runs, vec![(0, 128)]);
    }
}
