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
//!
//! # Byte form (version 2)
//!
//! [`BinArray::write_to`] and [`BinArray::read_from`] are the array's one
//! byte form: a checkpoint holds it, a WAL record holds an append's delta
//! in it, a standby receives both, and [`BinArray::checksum`] hashes it.
//! It is sparse: only the nonzero group counts are written, each as
//! unsigned LEB128 varints.
//!
//! ```text
//! size  field
//! 8     magic  b"ARCSBA\0" + version byte (2)
//! var   nx, ny, nseg
//! var   entries: the number of nonzero group counts that follow
//!       per entry, in increasing slot order, where a group slot is
//!       (y * nx + x) * nseg + g:
//! var     gap: the slot minus the slot after the previous entry's
//!         (the first entry: the slot itself)
//! var     count, 1 ..= u32::MAX
//! 8     FNV-1a 64 checksum over every byte before it, u64 LE
//! ```
//!
//! Cell totals and the tuple count are sums of group counts, so they are
//! not written. The form is canonical: every varint is minimal, counts
//! are nonzero and slots increase, so one array has exactly one form and
//! re-encoding a decoded form gives its bytes back.

use std::io::Write;

use crate::error::ArcsError;

/// Magic prefix of the byte form; the trailing byte is the format
/// version, bumped on any incompatible layout change.
const FORM_MAGIC: [u8; 8] = *b"ARCSBA\x00\x02";

/// Most counters (`nx * ny * (nseg + 1)`) a form may ask for. The checksum
/// is verified only after the entries are read, so a damaged header must
/// not be able to demand terabytes first.
const MAX_CELLS: u64 = 1 << 28;

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

fn form_err(message: impl Into<String>) -> ArcsError {
    ArcsError::Checkpoint { message: message.into() }
}

/// Appends `value` as an unsigned LEB128 varint: seven bits a byte, low
/// bits first, the high bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// A read position in a byte form.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], ArcsError> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.bytes.len());
        let end =
            end.ok_or_else(|| form_err(format!("bin array form truncated while reading {what}")))?;
        let taken = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(taken)
    }

    /// Reads one varint, refusing a truncated one, an overlong one (a
    /// zero final byte after the first: not minimal, so not canonical)
    /// and one past `u64::MAX`.
    fn varint(&mut self, what: &str) -> Result<u64, ArcsError> {
        let mut value = 0u64;
        for i in 0..10 {
            let byte = self.take(1, what)?[0];
            if i == 9 && byte > 1 {
                return Err(form_err(format!("bin array {what} varint overflows 64 bits")));
            }
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    return Err(form_err(format!("bin array {what} varint is overlong")));
                }
                return Ok(value);
            }
        }
        unreachable!("the tenth byte either ends the varint or overflows")
    }
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
        Ok(BinArray { nx, ny, nseg, counts, n_tuples: 0 })
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

    /// FNV-1a checksum over the array's byte form
    /// ([`write_to`](BinArray::write_to)). Two arrays have equal checksums
    /// iff their forms are byte-identical — the determinism suite uses
    /// this to assert parallel ≡ sequential.
    pub fn checksum(&self) -> u64 {
        let mut bytes = Vec::new();
        self.write_to(&mut bytes).expect("Vec write cannot fail");
        fnv1a64(&[&bytes])
    }

    /// Heap memory used by the count array, in bytes. The paper's
    /// constant-memory claim (§4.3) rests on this being independent of the
    /// number of tuples.
    pub fn memory_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u32>()
    }

    /// The nonzero group counts as `(group slot, count)`, in slot order,
    /// where a cell's group slots are `(y * nx + x) * nseg + g`.
    fn nonzero_groups(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.counts
            .chunks_exact(self.nseg + 1)
            .flat_map(|cell| &cell[..self.nseg])
            .enumerate()
            .filter(|&(_, &count)| count != 0)
            .map(|(slot, &count)| (slot as u64, count))
    }

    /// Writes the array's byte form (module docs): the dimensions and
    /// every nonzero group count, varint-coded, under an FNV-1a checksum.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), ArcsError> {
        let entries = self.nonzero_groups().count();
        let mut bytes = Vec::with_capacity(FORM_MAGIC.len() + 24 + 4 * entries);
        bytes.extend_from_slice(&FORM_MAGIC);
        for value in [self.nx, self.ny, self.nseg, entries] {
            put_varint(&mut bytes, value as u64);
        }
        let mut next = 0;
        for (slot, count) in self.nonzero_groups() {
            put_varint(&mut bytes, slot - next);
            put_varint(&mut bytes, u64::from(count));
            next = slot + 1;
        }
        let checksum = fnv1a64(&[&bytes]);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        writer.write_all(&bytes)?;
        Ok(())
    }

    /// Reads exactly one byte form written by
    /// [`write_to`](BinArray::write_to). A bad magic, another format
    /// version (named in the error), a grid past 2^28 counters,
    /// a truncated, overlong or overflowing varint, a slot past the grid,
    /// a zero count, a cell total past `u32::MAX`, a checksum mismatch and
    /// trailing bytes are each an [`ArcsError::Checkpoint`].
    pub fn read_from(bytes: &[u8]) -> Result<Self, ArcsError> {
        let mut cursor = Cursor { bytes, pos: 0 };
        let magic = cursor.take(FORM_MAGIC.len(), "the header")?;
        if magic[..7] != FORM_MAGIC[..7] {
            return Err(form_err("not a bin array form (bad magic)"));
        }
        if magic[7] != FORM_MAGIC[7] {
            return Err(form_err(format!(
                "unsupported bin array version {} (this build reads version {})",
                magic[7], FORM_MAGIC[7]
            )));
        }
        let nx = cursor.varint("nx")?;
        let ny = cursor.varint("ny")?;
        let nseg = cursor.varint("nseg")?;
        let cells = nx.saturating_mul(ny).saturating_mul(nseg.saturating_add(1));
        if cells > MAX_CELLS {
            return Err(form_err(format!(
                "bin array form requests {cells} counters (cap {MAX_CELLS}); refusing"
            )));
        }
        // Below the cap every dimension fits a usize; the constructor
        // still refuses a zero one.
        let (nx, ny, nseg) = (nx as usize, ny as usize, nseg as usize);
        let mut array = BinArray::new(nx, ny, nseg)
            .map_err(|e| form_err(format!("bin array form holds invalid dimensions: {e}")))?;
        let slots = (nx * ny * nseg) as u64;
        let entries = cursor.varint("the entry count")?;
        if entries > slots {
            return Err(form_err(format!(
                "bin array form lists {entries} counts for {slots} group slots"
            )));
        }
        let mut next = 0u64;
        for _ in 0..entries {
            let gap = cursor.varint("a slot gap")?;
            let slot = next.checked_add(gap).filter(|&slot| slot < slots).ok_or_else(|| {
                form_err(format!("bin array slot past the grid's {slots} group slots"))
            })?;
            let count = cursor.varint("a count")?;
            if count == 0 {
                return Err(form_err(format!("bin array slot {slot} holds a zero count")));
            }
            let count = u32::try_from(count)
                .map_err(|_| form_err(format!("bin array count {count} overflows u32")))?;
            let (cell, g) = ((slot / nseg as u64) as usize, (slot % nseg as u64) as usize);
            let base = cell * (nseg + 1);
            array.counts[base + g] = count;
            array.counts[base + nseg] = array.counts[base + nseg]
                .checked_add(count)
                .ok_or_else(|| form_err(format!("bin array cell {cell}'s total overflows u32")))?;
            array.n_tuples += u64::from(count);
            next = slot + 1;
        }
        let body_len = cursor.pos;
        let stored = u64::from_le_bytes(
            cursor.take(8, "the checksum")?.try_into().expect("an 8-byte slice"),
        );
        let computed = fnv1a64(&[&bytes[..body_len]]);
        if stored != computed {
            return Err(form_err(format!(
                "bin array checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        if cursor.pos != bytes.len() {
            return Err(form_err(format!(
                "{} trailing bytes after the bin array form",
                bytes.len() - cursor.pos
            )));
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
        ba
    }

    /// Arrays built by `add` and `merge`, and an empty one (the delta of
    /// an append that binned no rows).
    fn built_arrays() -> Vec<BinArray> {
        let added = populated_array();
        let mut merged = populated_array();
        merged.merge(&added).unwrap();
        let mut wide = BinArray::new(300, 2, 2).unwrap();
        wide.add(299, 1, 1); // a slot gap past one varint byte
        wide.add(0, 0, 0);
        wide.merge(&wide.clone()).unwrap();
        let mut dense = BinArray::new(3, 2, 3).unwrap();
        for i in 0..3_000u32 {
            dense.add((i % 3) as usize, (i % 2) as usize, i % 3); // counts past one varint byte
        }
        vec![dense, added, merged, wide, BinArray::new(4, 3, 2).unwrap()]
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        for ba in built_arrays() {
            let mut bytes = Vec::new();
            ba.write_to(&mut bytes).unwrap();
            let back = BinArray::read_from(&bytes).unwrap();
            assert_eq!(ba, back);
            // Re-serialising the loaded array reproduces the same bytes.
            let mut bytes2 = Vec::new();
            back.write_to(&mut bytes2).unwrap();
            assert_eq!(bytes, bytes2);
        }
        // The form is sparse: an empty 50 x 50 array is its header alone.
        let mut empty = Vec::new();
        BinArray::new(50, 50, 2).unwrap().write_to(&mut empty).unwrap();
        assert_eq!(empty.len(), 8 + 3 + 1 + 8);
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
        let err = BinArray::read_from(&corrupt).unwrap_err();
        assert!(matches!(err, ArcsError::Checkpoint { .. }), "{err:?}");

        // Truncation.
        let err = BinArray::read_from(&bytes[..bytes.len() - 9]).unwrap_err();
        assert!(matches!(err, ArcsError::Checkpoint { .. }));

        // Wrong magic.
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        let err = BinArray::read_from(&bad_magic).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // Another format version, named in the error.
        for version in [1, 3] {
            let mut other = bytes.clone();
            other[7] = version;
            let err = BinArray::read_from(&other).unwrap_err();
            assert!(err.to_string().contains(&format!("version {version}")), "{err}");
        }

        // Absurd header dimensions are refused before allocation.
        let huge = form(&[u64::MAX, 2, 2], &[]);
        let err = BinArray::read_from(&huge).unwrap_err();
        assert!(matches!(err, ArcsError::Checkpoint { .. }));
        assert!(err.to_string().contains("refusing"), "{err}");
    }

    /// A form from raw varint fields: the dimensions, the entry count,
    /// `(gap, count)` pairs, and a valid checksum, so each case below is
    /// refused by the rule it breaks and not by the checksum.
    fn form(dims: &[u64], entries: &[(u64, u64)]) -> Vec<u8> {
        let mut fields: Vec<u8> = Vec::new();
        for &dim in dims {
            put_varint(&mut fields, dim);
        }
        put_varint(&mut fields, entries.len() as u64);
        for &(gap, count) in entries {
            put_varint(&mut fields, gap);
            put_varint(&mut fields, count);
        }
        raw_form(&fields)
    }

    /// The magic, `fields` as they are, and a checksum over both.
    fn raw_form(fields: &[u8]) -> Vec<u8> {
        let mut bytes = FORM_MAGIC.to_vec();
        bytes.extend_from_slice(fields);
        let checksum = fnv1a64(&[&bytes]);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn malformed_forms_are_typed_errors() {
        // A 2 x 2 grid of 2 groups has 8 group slots.
        let valid = form(&[2, 2, 2], &[(0, 3), (6, 1)]);
        let array = BinArray::read_from(&valid).unwrap();
        assert_eq!((array.group_count(0, 0, 0), array.group_count(1, 1, 1)), (3, 1));
        assert_eq!((array.cell_total(1, 1), array.n_tuples()), (1, 4));

        let refused = |bytes: &[u8], what: &str| {
            let err = BinArray::read_from(bytes).unwrap_err();
            assert!(matches!(err, ArcsError::Checkpoint { .. }), "{what}: {err:?}");
            assert!(err.to_string().contains(what), "{what}: {err}");
        };
        refused(&form(&[2, 2, 2], &[(8, 1)]), "past the grid");
        refused(&form(&[2, 2, 2], &[(3, 1), (4, 1)]), "past the grid");
        refused(&form(&[2, 2, 2], &[(u64::MAX, 1), (u64::MAX, 1)]), "past the grid");
        refused(&form(&[2, 2, 2], &[(1, 0)]), "zero count");
        refused(&form(&[2, 2, 2], &[(1, 1 << 32)]), "overflows u32");
        refused(&form(&[1, 1, 2], &[(0, u64::from(u32::MAX)), (0, 1)]), "total overflows");
        refused(&form(&[2, 2, 2], &[(0, 1); 9]), "9 counts for 8 group slots");
        refused(&form(&[0, 2, 2], &[]), "invalid dimensions");
        // Overlong: 3 as [0x83, 0x00] instead of [0x03].
        refused(&raw_form(&[2, 2, 2, 1, 0x83, 0x00, 1]), "overlong");
        // Overflowing: ten bytes whose last carries bits past 64, and an
        // eleventh continuation.
        let mut past = vec![0xff; 9];
        past.push(0x02);
        refused(&raw_form(&[&[2, 2, 2, 1][..], &past].concat()), "overflows 64 bits");
        refused(&raw_form(&[&[2, 2, 2, 1][..], &[0xff; 11]].concat()), "overflows 64 bits");
        for cut in 0..valid.len() {
            refused(&valid[..cut], "truncated");
        }
        let mut trailing = valid.clone();
        trailing.push(0);
        refused(&trailing, "1 trailing bytes");
        // Any flipped byte of a valid form is refused, by the rule it
        // breaks or by the checksum, and never panics.
        for i in 0..valid.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = valid.clone();
                flipped[i] ^= mask;
                assert!(BinArray::read_from(&flipped).is_err(), "flip {mask:#x} at {i}");
            }
        }
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
