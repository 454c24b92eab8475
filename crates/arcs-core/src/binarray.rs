//! The `BinArray` (paper §3.1): per-cell, per-group tuple counts.
//!
//! For each `(bin_x, bin_y)` pair the array maintains the number of tuples
//! having each possible RHS (criterion) attribute value, plus the total
//! count — size `nx * ny * (nseg + 1)`. It is the only state the mining
//! engine needs, so support/confidence thresholds can be changed and rules
//! re-mined *without re-reading the data* ("re-mining is nearly
//! instantaneous", §3.2).
//!
//! Layout: a flat `Vec<u32>` indexed `((y * nx) + x) * (nseg + 1) + slot`
//! where slots `0..nseg` are group counts and slot `nseg` is the cell
//! total. One cell's counts are contiguous, so the engine touches one cache
//! line per cell.

use std::io::{Read, Write};

use crate::error::ArcsError;

/// Magic prefix of the snapshot format; the trailing byte is the format
/// version, bumped on any incompatible layout change.
const SNAPSHOT_MAGIC: [u8; 8] = *b"ARCSBA\x00\x01";

/// 64-bit FNV-1a, the checksum guarding snapshots against truncation and
/// bit rot. Not cryptographic — it detects corruption, not tampering.
pub(crate) fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &byte in *chunk {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn read_exact_or<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), ArcsError> {
    r.read_exact(buf).map_err(|e| ArcsError::Checkpoint {
        message: format!("truncated while reading {what}: {e}"),
    })
}

fn read_u64<R: Read>(r: &mut R, what: &str) -> Result<u64, ArcsError> {
    let mut buf = [0u8; 8];
    read_exact_or(r, &mut buf, what)?;
    Ok(u64::from_le_bytes(buf))
}

/// Per-cell, per-group tuple counts over a 2-D binned grid.
#[derive(Debug, Clone, PartialEq)]
pub struct BinArray {
    nx: usize,
    ny: usize,
    nseg: usize,
    counts: Vec<u32>,
    n_tuples: u64,
}

impl BinArray {
    /// Creates an empty `nx × ny` array for a criterion attribute with
    /// `nseg` groups.
    pub fn new(nx: usize, ny: usize, nseg: usize) -> Result<Self, ArcsError> {
        if nx == 0 || ny == 0 {
            return Err(ArcsError::InvalidConfig(format!(
                "bin array dimensions must be positive, got {nx} x {ny}"
            )));
        }
        if nseg == 0 {
            return Err(ArcsError::InvalidConfig(
                "criterion attribute must have at least one group".into(),
            ));
        }
        let cells = nseg
            .checked_add(1)
            .and_then(|slots| nx.checked_mul(ny)?.checked_mul(slots))
            .filter(|&c| c <= isize::MAX as usize / std::mem::size_of::<u32>())
            .ok_or(ArcsError::GridTooLarge { nx, ny, nseg })?;
        // Reserve through the fallible path so an allocator refusal comes
        // back as a typed error instead of an abort.
        let mut counts = Vec::new();
        counts.try_reserve_exact(cells).map_err(|_| ArcsError::AllocationFailed {
            what: format!("{cells} bin array counters"),
        })?;
        counts.resize(cells, 0);
        Ok(BinArray {
            nx,
            ny,
            nseg,
            counts,
            n_tuples: 0,
        })
    }

    /// Number of x bins.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of y bins.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of criterion groups tracked.
    pub fn nseg(&self) -> usize {
        self.nseg
    }

    /// Total number of tuples added.
    pub fn n_tuples(&self) -> u64 {
        self.n_tuples
    }

    #[inline]
    fn base(&self, x: usize, y: usize) -> usize {
        (y * self.nx + x) * (self.nseg + 1)
    }

    /// Records one tuple falling in cell `(x, y)` with criterion group `g`.
    #[inline]
    pub fn add(&mut self, x: usize, y: usize, g: u32) {
        debug_assert!(x < self.nx && y < self.ny, "cell ({x}, {y}) out of bounds");
        debug_assert!((g as usize) < self.nseg, "group {g} out of range");
        let base = self.base(x, y);
        self.counts[base + g as usize] += 1;
        self.counts[base + self.nseg] += 1;
        self.n_tuples += 1;
    }

    /// Records one tuple that belongs to *no tracked group* — it counts
    /// toward the cell total (the confidence denominator) only, the
    /// layout of the paper's §3.1 memory-premium remark ("we can set
    /// nseg = 1 and maintain tuple counts for only the one value of the
    /// segmentation criteria we are interested in"). No binner pass
    /// uses it.
    #[inline]
    pub fn add_background(&mut self, x: usize, y: usize) {
        debug_assert!(x < self.nx && y < self.ny, "cell ({x}, {y}) out of bounds");
        let base = self.base(x, y);
        self.counts[base + self.nseg] += 1;
        self.n_tuples += 1;
    }

    /// Checked variant of [`add`](Self::add) for untrusted coordinates.
    pub fn try_add(&mut self, x: usize, y: usize, g: u32) -> Result<(), ArcsError> {
        if x >= self.nx || y >= self.ny {
            return Err(ArcsError::OutOfBounds {
                what: format!("cell ({x}, {y}) in {}x{} bin array", self.nx, self.ny),
            });
        }
        if g as usize >= self.nseg {
            return Err(ArcsError::OutOfBounds {
                what: format!("group {g} with nseg {}", self.nseg),
            });
        }
        self.add(x, y, g);
        Ok(())
    }

    /// Count of tuples in cell `(x, y)` belonging to group `g`.
    #[inline]
    pub fn group_count(&self, x: usize, y: usize, g: u32) -> u32 {
        self.counts[self.base(x, y) + g as usize]
    }

    /// Total count of tuples in cell `(x, y)`.
    #[inline]
    pub fn cell_total(&self, x: usize, y: usize) -> u32 {
        self.counts[self.base(x, y) + self.nseg]
    }

    /// Support of the rule `X = x ∧ Y = y ⇒ G = g`: the fraction of all
    /// tuples falling in the cell with that group (paper §3.2:
    /// `|(i,j,Gk)| / N`).
    #[inline]
    pub fn support(&self, x: usize, y: usize, g: u32) -> f64 {
        if self.n_tuples == 0 {
            return 0.0;
        }
        self.group_count(x, y, g) as f64 / self.n_tuples as f64
    }

    /// Confidence of the rule `X = x ∧ Y = y ⇒ G = g`: the fraction of the
    /// cell's tuples with that group (paper §3.2: `|(i,j,Gk)| / |(i,j)|`).
    #[inline]
    pub fn confidence(&self, x: usize, y: usize, g: u32) -> f64 {
        let total = self.cell_total(x, y);
        if total == 0 {
            return 0.0;
        }
        self.group_count(x, y, g) as f64 / total as f64
    }

    /// Total tuples of group `g` across the whole array (the marginal
    /// `P(G = g) · N` used by interest measures).
    pub fn group_total(&self, g: u32) -> u64 {
        debug_assert!((g as usize) < self.nseg);
        let mut total = 0u64;
        for y in 0..self.ny {
            for x in 0..self.nx {
                total += self.group_count(x, y, g) as u64;
            }
        }
        total
    }

    /// Iterates over occupied cells (total > 0) as `(x, y)`.
    pub fn occupied_cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.ny).flat_map(move |y| {
            (0..self.nx).filter_map(move |x| (self.cell_total(x, y) > 0).then_some((x, y)))
        })
    }

    /// Adds every count of `other` into `self`. Dimensions must match.
    ///
    /// Counts are element-wise `u32` sums, so merging the per-shard
    /// arrays of a parallel binning run is commutative and associative:
    /// any merge order yields an array bit-identical to a sequential
    /// single-threaded pass over the same tuples. Overflowing a cell
    /// counter is reported rather than wrapped.
    pub fn merge(&mut self, other: &BinArray) -> Result<(), ArcsError> {
        if self.nx != other.nx || self.ny != other.ny || self.nseg != other.nseg {
            return Err(ArcsError::InvalidConfig(format!(
                "cannot merge {}x{}x{} bin array into {}x{}x{}",
                other.nx, other.ny, other.nseg, self.nx, self.ny, self.nseg
            )));
        }
        for (slot, &add) in self.counts.iter_mut().zip(&other.counts) {
            *slot = slot.checked_add(add).ok_or_else(|| {
                ArcsError::InvalidConfig("cell counter overflow while merging bin arrays".into())
            })?;
        }
        self.n_tuples += other.n_tuples;
        Ok(())
    }

    /// Returns a copy of the array downsampled to `new_nx × new_ny` bins:
    /// each source cell's counts are added into the target cell
    /// `(x · new_nx / nx, y · new_ny / ny)`, so column/row sums and the
    /// total tuple count are preserved exactly. This is the resource
    /// governor's per-request coarsening ladder applied *after* binning —
    /// a query under a memory budget trades grid resolution for footprint
    /// without re-reading any data.
    pub fn coarsened(&self, new_nx: usize, new_ny: usize) -> Result<BinArray, ArcsError> {
        if new_nx == 0 || new_ny == 0 || new_nx > self.nx || new_ny > self.ny {
            return Err(ArcsError::InvalidConfig(format!(
                "cannot coarsen a {}x{} bin array to {new_nx}x{new_ny}",
                self.nx, self.ny
            )));
        }
        let mut out = BinArray::new(new_nx, new_ny, self.nseg)?;
        let slots = self.nseg + 1;
        for y in 0..self.ny {
            let ty = y * new_ny / self.ny;
            for x in 0..self.nx {
                let tx = x * new_nx / self.nx;
                let src = self.base(x, y);
                let dst = out.base(tx, ty);
                for slot in 0..slots {
                    let sum = out.counts[dst + slot]
                        .checked_add(self.counts[src + slot])
                        .ok_or_else(|| {
                            ArcsError::InvalidConfig(
                                "cell counter overflow while coarsening a bin array".into(),
                            )
                        })?;
                    out.counts[dst + slot] = sum;
                }
            }
        }
        out.n_tuples = self.n_tuples;
        Ok(out)
    }

    /// FNV-1a checksum over the array's canonical serialised form
    /// (dimensions, tuple count, and every cell counter). Two arrays have
    /// equal checksums iff their snapshots are byte-identical — the
    /// determinism suite uses this to assert parallel ≡ sequential.
    pub fn checksum(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.memory_bytes() + 48);
        self.write_to(&mut bytes).expect("Vec write cannot fail");
        fnv1a64(&[&bytes])
    }

    /// Heap memory used by the count array, in bytes. The paper's
    /// constant-memory claim (§4.3) rests on this being independent of the
    /// number of tuples.
    pub fn memory_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u32>()
    }

    /// Serialises the array into `writer` in the versioned snapshot
    /// format: an 8-byte magic+version header, the dimensions and tuple
    /// count as little-endian `u64`s, the raw counts as little-endian
    /// `u32`s, and a trailing FNV-1a checksum over everything before it.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), ArcsError> {
        let mut header = Vec::with_capacity(8 + 4 * 8);
        header.extend_from_slice(&SNAPSHOT_MAGIC);
        header.extend_from_slice(&(self.nx as u64).to_le_bytes());
        header.extend_from_slice(&(self.ny as u64).to_le_bytes());
        header.extend_from_slice(&(self.nseg as u64).to_le_bytes());
        header.extend_from_slice(&self.n_tuples.to_le_bytes());
        let mut payload = Vec::with_capacity(self.counts.len() * 4);
        for &count in &self.counts {
            payload.extend_from_slice(&count.to_le_bytes());
        }
        let checksum = fnv1a64(&[&header, &payload]);
        writer.write_all(&header)?;
        writer.write_all(&payload)?;
        writer.write_all(&checksum.to_le_bytes())?;
        Ok(())
    }

    /// Deserialises an array written by [`BinArray::write_to`],
    /// verifying the magic, format version, dimensions, and checksum.
    /// Corruption or version mismatch reports [`ArcsError::Checkpoint`].
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Self, ArcsError> {
        let mut magic = [0u8; 8];
        read_exact_or(reader, &mut magic, "snapshot header")?;
        if magic[..7] != SNAPSHOT_MAGIC[..7] {
            return Err(ArcsError::Checkpoint {
                message: "not a BinArray snapshot (bad magic)".into(),
            });
        }
        if magic[7] != SNAPSHOT_MAGIC[7] {
            return Err(ArcsError::Checkpoint {
                message: format!(
                    "unsupported snapshot version {} (this build reads version {})",
                    magic[7], SNAPSHOT_MAGIC[7]
                ),
            });
        }
        let nx = read_u64(reader, "nx")? as usize;
        let ny = read_u64(reader, "ny")? as usize;
        let nseg = read_u64(reader, "nseg")? as usize;
        let n_tuples = read_u64(reader, "n_tuples")?;
        // Cap the allocation a header can request *before* trusting it —
        // the checksum is only verifiable after the payload is read, so a
        // corrupt header must not be able to demand terabytes first.
        const MAX_CELLS: u64 = 1 << 28;
        let cells = (nx as u64)
            .saturating_mul(ny as u64)
            .saturating_mul(nseg as u64 + 1);
        if cells > MAX_CELLS {
            return Err(ArcsError::Checkpoint {
                message: format!(
                    "snapshot header requests {cells} counters (cap {MAX_CELLS}); refusing"
                ),
            });
        }
        // Re-validate dimensions through the constructor so a corrupt
        // header cannot request an absurd allocation unchecked.
        let mut array = BinArray::new(nx, ny, nseg).map_err(|e| ArcsError::Checkpoint {
            message: format!("snapshot header holds invalid dimensions: {e}"),
        })?;
        array.n_tuples = n_tuples;
        let mut payload = vec![0u8; array.counts.len() * 4];
        read_exact_or(reader, &mut payload, "count payload")?;
        for (slot, chunk) in array.counts.iter_mut().zip(payload.chunks_exact(4)) {
            *slot = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let stored = read_u64(reader, "checksum")?;
        let mut header = Vec::with_capacity(8 + 4 * 8);
        header.extend_from_slice(&magic);
        header.extend_from_slice(&(nx as u64).to_le_bytes());
        header.extend_from_slice(&(ny as u64).to_le_bytes());
        header.extend_from_slice(&(nseg as u64).to_le_bytes());
        header.extend_from_slice(&n_tuples.to_le_bytes());
        let computed = fnv1a64(&[&header, &payload]);
        if stored != computed {
            return Err(ArcsError::Checkpoint {
                message: format!(
                    "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                ),
            });
        }
        Ok(array)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(BinArray::new(0, 5, 2).is_err());
        assert!(BinArray::new(5, 0, 2).is_err());
        assert!(BinArray::new(5, 5, 0).is_err());
        // Checked sizing: overflow and unaddressable grids are typed
        // errors, not panics or wrapped allocations.
        for (nx, ny, nseg) in [
            (usize::MAX, 2, 2),
            (2, usize::MAX, 2),
            (2, 2, usize::MAX),
            (usize::MAX, usize::MAX, usize::MAX),
            (1 << 40, 1 << 30, 1),
        ] {
            let err = BinArray::new(nx, ny, nseg).unwrap_err();
            assert!(matches!(err, ArcsError::GridTooLarge { .. }), "{nx}x{ny}x{nseg}: {err:?}");
        }
        let ba = BinArray::new(3, 4, 2).unwrap();
        assert_eq!(ba.nx(), 3);
        assert_eq!(ba.ny(), 4);
        assert_eq!(ba.nseg(), 2);
        assert_eq!(ba.n_tuples(), 0);
        assert_eq!(ba.memory_bytes(), 3 * 4 * 3 * 4);
    }

    #[test]
    fn add_accumulates_counts() {
        let mut ba = BinArray::new(4, 4, 3).unwrap();
        ba.add(1, 2, 0);
        ba.add(1, 2, 0);
        ba.add(1, 2, 1);
        ba.add(3, 0, 2);
        assert_eq!(ba.group_count(1, 2, 0), 2);
        assert_eq!(ba.group_count(1, 2, 1), 1);
        assert_eq!(ba.group_count(1, 2, 2), 0);
        assert_eq!(ba.cell_total(1, 2), 3);
        assert_eq!(ba.cell_total(3, 0), 1);
        assert_eq!(ba.cell_total(0, 0), 0);
        assert_eq!(ba.n_tuples(), 4);
    }

    #[test]
    fn try_add_bounds_checks() {
        let mut ba = BinArray::new(2, 2, 2).unwrap();
        assert!(ba.try_add(0, 0, 0).is_ok());
        assert!(ba.try_add(2, 0, 0).is_err());
        assert!(ba.try_add(0, 2, 0).is_err());
        assert!(ba.try_add(0, 0, 2).is_err());
        assert_eq!(ba.n_tuples(), 1);
    }

    #[test]
    fn support_and_confidence() {
        let mut ba = BinArray::new(2, 2, 2).unwrap();
        // Cell (0,0): 3 tuples of group 0, 1 of group 1. Elsewhere: 6 more.
        for _ in 0..3 {
            ba.add(0, 0, 0);
        }
        ba.add(0, 0, 1);
        for _ in 0..6 {
            ba.add(1, 1, 1);
        }
        assert!((ba.support(0, 0, 0) - 0.3).abs() < 1e-12);
        assert!((ba.confidence(0, 0, 0) - 0.75).abs() < 1e-12);
        assert!((ba.confidence(0, 0, 1) - 0.25).abs() < 1e-12);
        assert_eq!(ba.support(1, 0, 0), 0.0);
        assert_eq!(ba.confidence(1, 0, 0), 0.0);
    }

    #[test]
    fn empty_array_ratios_are_zero() {
        let ba = BinArray::new(2, 2, 2).unwrap();
        assert_eq!(ba.support(0, 0, 0), 0.0);
        assert_eq!(ba.confidence(0, 0, 0), 0.0);
    }

    #[test]
    fn occupied_cells_iterates_only_nonzero() {
        let mut ba = BinArray::new(3, 3, 1).unwrap();
        ba.add(0, 0, 0);
        ba.add(2, 1, 0);
        ba.add(2, 1, 0);
        let cells: Vec<_> = ba.occupied_cells().collect();
        assert_eq!(cells, vec![(0, 0), (2, 1)]);
    }

    fn populated_array() -> BinArray {
        let mut ba = BinArray::new(7, 5, 3).unwrap();
        for i in 0..1_000u32 {
            ba.add((i % 7) as usize, (i % 5) as usize, i % 3);
        }
        for i in 0..37 {
            ba.add_background((i % 7) as usize, (i % 5) as usize);
        }
        ba
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let ba = populated_array();
        let mut bytes = Vec::new();
        ba.write_to(&mut bytes).unwrap();
        let back = BinArray::read_from(&mut &bytes[..]).unwrap();
        assert_eq!(ba, back);
        // Re-serialising the loaded array reproduces the same bytes.
        let mut bytes2 = Vec::new();
        back.write_to(&mut bytes2).unwrap();
        assert_eq!(bytes, bytes2);
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let ba = populated_array();
        let mut bytes = Vec::new();
        ba.write_to(&mut bytes).unwrap();

        // Flip one payload byte: checksum must catch it.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        let err = BinArray::read_from(&mut &corrupt[..]).unwrap_err();
        assert!(matches!(err, ArcsError::Checkpoint { .. }), "{err:?}");

        // Truncation.
        let err = BinArray::read_from(&mut &bytes[..bytes.len() - 9]).unwrap_err();
        assert!(matches!(err, ArcsError::Checkpoint { .. }));

        // Wrong magic.
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        let err = BinArray::read_from(&mut &bad_magic[..]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // Future format version.
        let mut future = bytes.clone();
        future[7] = 2;
        let err = BinArray::read_from(&mut &future[..]).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // Absurd header dimensions are refused before allocation.
        let mut huge = bytes;
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = BinArray::read_from(&mut &huge[..]).unwrap_err();
        assert!(matches!(err, ArcsError::Checkpoint { .. }));
    }

    #[test]
    fn merge_is_equivalent_to_sequential_adds() {
        let mut whole = BinArray::new(4, 3, 2).unwrap();
        let mut left = BinArray::new(4, 3, 2).unwrap();
        let mut right = BinArray::new(4, 3, 2).unwrap();
        for i in 0..200u32 {
            let (x, y, g) = ((i % 4) as usize, (i % 3) as usize, i % 2);
            whole.add(x, y, g);
            if i < 80 {
                left.add(x, y, g);
            } else {
                right.add(x, y, g);
            }
        }
        whole.add_background(0, 0);
        left.add_background(0, 0);
        left.merge(&right).unwrap();
        assert_eq!(left, whole);
        assert_eq!(left.checksum(), whole.checksum());
    }

    #[test]
    fn merge_rejects_dimension_mismatch() {
        let mut a = BinArray::new(4, 3, 2).unwrap();
        let b = BinArray::new(4, 3, 3).unwrap();
        assert!(matches!(a.merge(&b), Err(ArcsError::InvalidConfig(_))));
        let c = BinArray::new(3, 4, 2).unwrap();
        assert!(matches!(a.merge(&c), Err(ArcsError::InvalidConfig(_))));
    }

    #[test]
    fn merge_reports_counter_overflow() {
        let mut a = BinArray::new(1, 1, 1).unwrap();
        let mut b = BinArray::new(1, 1, 1).unwrap();
        for _ in 0..3 {
            a.add(0, 0, 0);
            b.add(0, 0, 0);
        }
        // Force the cell total to the brink of overflow.
        a.counts[1] = u32::MAX - 1;
        assert!(matches!(a.merge(&b), Err(ArcsError::InvalidConfig(_))));
    }

    #[test]
    fn coarsened_preserves_totals_and_validates() {
        let ba = populated_array(); // 7 x 5, 3 groups, N = 1037
        let coarse = ba.coarsened(3, 2).unwrap();
        assert_eq!(coarse.nx(), 3);
        assert_eq!(coarse.ny(), 2);
        assert_eq!(coarse.nseg(), ba.nseg());
        assert_eq!(coarse.n_tuples(), ba.n_tuples());
        for g in 0..ba.nseg() as u32 {
            assert_eq!(coarse.group_total(g), ba.group_total(g), "group {g}");
        }
        let cell_sum = |a: &BinArray| -> u64 {
            (0..a.ny())
                .flat_map(|y| (0..a.nx()).map(move |x| (x, y)))
                .map(|(x, y)| a.cell_total(x, y) as u64)
                .sum()
        };
        assert_eq!(cell_sum(&coarse), cell_sum(&ba));

        // Identity coarsening is a plain copy.
        let same = ba.coarsened(7, 5).unwrap();
        assert_eq!(same, ba);

        // Upsampling and empty targets are refused.
        assert!(ba.coarsened(8, 5).is_err());
        assert!(ba.coarsened(7, 6).is_err());
        assert!(ba.coarsened(0, 5).is_err());
        assert!(ba.coarsened(7, 0).is_err());
    }

    #[test]
    fn checksum_distinguishes_different_contents() {
        let mut a = populated_array();
        let b = populated_array();
        assert_eq!(a.checksum(), b.checksum());
        a.add(0, 0, 0);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn memory_independent_of_tuples() {
        let mut ba = BinArray::new(50, 50, 2).unwrap();
        let before = ba.memory_bytes();
        for i in 0..100_000u32 {
            ba.add((i % 50) as usize, (i as usize / 50) % 50, i % 2);
        }
        assert_eq!(ba.memory_bytes(), before);
        assert_eq!(ba.n_tuples(), 100_000);
    }
}
