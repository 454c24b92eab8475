//! The association rule engine (paper §3.2, Figure 3).
//!
//! A specialised miner for two-dimensional rules over the [`BinArray`]: a
//! single scan of the occupied cells emits every rule
//! `X = i ∧ Y = j ⇒ Gk` whose support and confidence clear the thresholds.
//! Because only the bin array is consulted, thresholds can be changed and
//! rules re-mined without another pass over the source data — the property
//! the heuristic optimizer (§3.7) relies on.

// Public-API paths must fail with typed errors, never panic.
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use crate::binarray::BinArray;
use crate::error::ArcsError;
use crate::grid::Grid;
use crate::index::{GroupCell, OccupancyIndex};

/// Minimum support and confidence thresholds (fractions in `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Minimum support: `count(i, j, Gk) / N`.
    pub min_support: f64,
    /// Minimum confidence: `count(i, j, Gk) / count(i, j)`.
    pub min_confidence: f64,
}

impl Thresholds {
    /// Creates thresholds, validating both lie in `[0, 1]`.
    pub fn new(min_support: f64, min_confidence: f64) -> Result<Self, ArcsError> {
        if !(0.0..=1.0).contains(&min_support) {
            return Err(ArcsError::InvalidConfig(format!(
                "min_support {min_support} outside [0, 1]"
            )));
        }
        if !(0.0..=1.0).contains(&min_confidence) {
            return Err(ArcsError::InvalidConfig(format!(
                "min_confidence {min_confidence} outside [0, 1]"
            )));
        }
        Ok(Thresholds { min_support, min_confidence })
    }
}

/// One mined two-dimensional association rule over binned data:
/// `X = x ∧ Y = y ⇒ G = group`.
///
/// Every measure is a ratio of the rule's cell counts and the array's
/// totals, and every rule is built by [`BinnedRule::from_counts`], so two
/// rules with the same counts are `==` bit for bit wherever they were
/// built: in either miner, or decoded from a served reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinnedRule {
    /// x bin index.
    pub x: usize,
    /// y bin index.
    pub y: usize,
    /// Criterion group code.
    pub group: u32,
    /// Rule support.
    pub support: f64,
    /// Rule confidence.
    pub confidence: f64,
    /// Raw tuple count backing the rule: the group's tuples in the cell.
    pub count: u32,
    /// Tuples of every group in the cell.
    pub total: u32,
    /// Lift: confidence divided by the group's base rate `P(G = g)` —
    /// `> 1` means the cell is *denser* in the group than chance, the
    /// "greater-than-expected" interest notion the paper's §1.1 discusses
    /// (from its references \[22, 15\]).
    pub lift: f64,
    /// Piatetsky-Shapiro leverage:
    /// `P(cell ∧ group) − P(cell) · P(group)` — the additive form of the
    /// same interest measure.
    pub leverage: f64,
}

impl BinnedRule {
    /// The rule of cell `(x, y)` for `group`, from the cell's group
    /// `count` and `total` and the array's `n_tuples` and `group_total`:
    ///
    /// - support `count / N`,
    /// - confidence `count / total`,
    /// - lift `confidence / (group_total / N)` (0 when the group is empty),
    /// - leverage `support − (total / N) · (group_total / N)`.
    ///
    /// The one constructor of a rule: both miners and both reply decoders
    /// call it.
    #[inline]
    pub fn from_counts(
        x: usize,
        y: usize,
        group: u32,
        count: u32,
        total: u32,
        n_tuples: u64,
        group_total: u64,
    ) -> Self {
        let n = n_tuples as f64;
        let group_rate = if n_tuples == 0 { 0.0 } else { group_total as f64 / n };
        let support = count as f64 / n;
        let confidence = count as f64 / total as f64;
        BinnedRule {
            x,
            y,
            group,
            support,
            confidence,
            count,
            total,
            lift: if group_rate > 0.0 { confidence / group_rate } else { 0.0 },
            leverage: support - (total as f64 / n) * group_rate,
        }
    }
}

/// Mines all rules for criterion group `gk` meeting `thresholds`
/// (the paper's `GenAssociationRules`, Figure 3). One full-scan pass over
/// the bin array, visiting every `nx · ny` cell; the data itself is never
/// touched. This is the oracle the output-sensitive paths
/// ([`mine_rules_indexed`], [`DeltaMiner`](crate::index::DeltaMiner)) are
/// tested against. For repeated re-mining at varying thresholds, build an
/// [`OccupancyIndex`] once and use [`mine_rules_indexed`] — its cost is
/// proportional to the occupied cells, not the grid.
pub fn mine_rules(array: &BinArray, gk: u32, thresholds: Thresholds) -> Vec<BinnedRule> {
    let min_support_count = min_support_count_for(array.n_tuples(), thresholds.min_support);
    let group_total = array.group_total(gk);
    let mut rules = Vec::new();
    for y in 0..array.ny() {
        for x in 0..array.nx() {
            let count = array.group_count(x, y, gk);
            if (count as u64) < min_support_count {
                continue;
            }
            let total = array.cell_total(x, y);
            debug_assert!(total >= count);
            if (count as f64 / total as f64) < thresholds.min_confidence {
                continue;
            }
            rules.push(BinnedRule::from_counts(
                x,
                y,
                gk,
                count,
                total,
                array.n_tuples(),
                group_total,
            ));
        }
    }
    rules
}

/// [`mine_rules`] against a prebuilt [`OccupancyIndex`]: iterates only
/// the group's occupied cells (in the same row-major order as the
/// reference scan, so the emitted rules are bit-identical). Returns the
/// rules plus the number of cells visited, for the `cells_visited`
/// observability counter.
///
/// The qualifying cells are counted before the rules are built, so the
/// returned vector holds exactly its rules: a served result keeps it for
/// as long as the result cache holds the entry.
pub fn mine_rules_indexed(
    index: &OccupancyIndex,
    gk: u32,
    thresholds: Thresholds,
) -> (Vec<BinnedRule>, u64) {
    let min_support_count = min_support_count_for(index.n_tuples(), thresholds.min_support);
    let cells = index.group_cells(gk);
    let qualifies = |cell: &&GroupCell| {
        let fails =
            (cell.count as u64) < min_support_count || cell.confidence < thresholds.min_confidence;
        !fails
    };
    let (n_tuples, group_total) = (index.n_tuples(), index.group_total(gk));
    let mut rules = Vec::with_capacity(cells.iter().filter(qualifies).count());
    rules.extend(cells.iter().filter(qualifies).map(|cell| {
        BinnedRule::from_counts(cell.x, cell.y, gk, cell.count, cell.total, n_tuples, group_total)
    }));
    (rules, cells.len() as u64)
}

/// Builds the bitmap grid of qualifying cells directly (the input to
/// BitOp, §3.2: "the (i, j) pairs are then used to create a bitmap grid").
pub fn rule_grid(array: &BinArray, gk: u32, thresholds: Thresholds) -> Result<Grid, ArcsError> {
    let mut grid = Grid::new(array.nx(), array.ny())?;
    rule_grid_into(array, gk, thresholds, &mut grid)?;
    Ok(grid)
}

/// [`rule_grid`] into a caller-owned buffer. The grid is resized only on
/// dimension mismatch; otherwise its allocation is reused, which matters
/// in the threshold search and in `Session::segment_all`, where the same
/// array is re-mined once per lattice cell / criterion group.
pub fn rule_grid_into(
    array: &BinArray,
    gk: u32,
    thresholds: Thresholds,
    grid: &mut Grid,
) -> Result<(), ArcsError> {
    crate::faults::check("engine.mine")?;
    if grid.width() != array.nx() || grid.height() != array.ny() {
        *grid = Grid::new(array.nx(), array.ny())?;
    } else {
        grid.reset();
    }
    let min_support_count = min_support_count_for(array.n_tuples(), thresholds.min_support);
    for y in 0..array.ny() {
        for x in 0..array.nx() {
            let count = array.group_count(x, y, gk);
            if (count as u64) < min_support_count {
                continue;
            }
            let total = array.cell_total(x, y);
            if (count as f64 / total as f64) >= thresholds.min_confidence {
                grid.set(x, y);
            }
        }
    }
    Ok(())
}

/// Builds a grid of per-cell support values for group `gk` (used by
/// support-weighted smoothing, paper §5).
pub fn support_grid(array: &BinArray, gk: u32) -> Vec<f64> {
    let mut values = vec![0.0; array.nx() * array.ny()];
    if array.n_tuples() == 0 {
        return values;
    }
    let n = array.n_tuples() as f64;
    for y in 0..array.ny() {
        for x in 0..array.nx() {
            values[y * array.nx() + x] = array.group_count(x, y, gk) as f64 / n;
        }
    }
    values
}

/// Converts a fractional minimum support into an absolute tuple count
/// (paper Figure 3: `minsupport_count = N * min_support`): the smallest
/// `m` with `m / N >= min_support` **as evaluated in `f64`**, i.e. the
/// exact integer form of the miner's `count / N >= min_support` test. A
/// plain `ceil(N * min_support)` can land one off when the product
/// rounds across an integer, silently admitting (or dropping) rules at
/// exact-boundary counts; the adjustment loops below correct for that
/// without any float round-trip. A zero threshold still requires one
/// tuple — empty cells never form rules.
pub(crate) fn min_support_count_for(n_tuples: u64, min_support: f64) -> u64 {
    if n_tuples == 0 {
        return 1;
    }
    let n = n_tuples as f64;
    let mut m = ((n * min_support).ceil() as u64).min(n_tuples);
    // `k / N` is monotone in `k` even under f64 rounding, so nudging the
    // first guess until the predicate flips lands on the exact boundary;
    // both loops run at most a couple of iterations in practice.
    while m > 1 && ((m - 1) as f64) / n >= min_support {
        m -= 1;
    }
    while m < n_tuples && (m as f64) / n < min_support {
        m += 1;
    }
    m.max(1)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// 4x4 array, 2 groups. Cell pattern for group 0:
    /// (0,0): 40 of 50; (1,0): 45 of 50; (2,2): 5 of 100; (3,3): 10 of 10.
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
    fn thresholds_validate() {
        assert!(Thresholds::new(0.0, 0.0).is_ok());
        assert!(Thresholds::new(1.0, 1.0).is_ok());
        assert!(Thresholds::new(-0.1, 0.5).is_err());
        assert!(Thresholds::new(0.5, 1.1).is_err());
    }

    #[test]
    fn mines_cells_meeting_both_thresholds() {
        let ba = demo_array();
        // min support 0.1 -> >= 21 tuples; min confidence 0.5.
        let t = Thresholds::new(0.1, 0.5).unwrap();
        let rules = mine_rules(&ba, 0, t);
        let cells: Vec<_> = rules.iter().map(|r| (r.x, r.y)).collect();
        assert_eq!(cells, vec![(0, 0), (1, 0)]);
        let r = &rules[0];
        assert_eq!(r.count, 40);
        assert!((r.support - 40.0 / 210.0).abs() < 1e-12);
        assert!((r.confidence - 0.8).abs() < 1e-12);
        assert_eq!(r.group, 0);
    }

    #[test]
    fn interest_measures() {
        let ba = demo_array(); // N = 210, group-0 total = 100
        let t = Thresholds::new(0.1, 0.5).unwrap();
        let rules = mine_rules(&ba, 0, t);
        let r = &rules[0]; // cell (0,0): 40 of 50, conf 0.8
                           // Base rate P(G=0) = 100/210; lift = 0.8 / (100/210) = 1.68.
        let base = 100.0 / 210.0;
        assert!((r.lift - 0.8 / base).abs() < 1e-12);
        assert!(r.lift > 1.0, "dense cell must have lift > 1");
        // Leverage = 40/210 - (50/210)(100/210) > 0.
        let expected = 40.0 / 210.0 - (50.0 / 210.0) * base;
        assert!((r.leverage - expected).abs() < 1e-12);
        assert!(r.leverage > 0.0);

        // A cell at exactly the base rate has lift 1 / leverage 0:
        // group_total(gk) consistency check.
        assert_eq!(ba.group_total(0), 100);
        assert_eq!(ba.group_total(1), 110);
    }

    #[test]
    fn support_threshold_filters() {
        let ba = demo_array();
        // Support 0.04 -> >= 9 tuples: (3,3) with 10 qualifies, (2,2) with
        // 5 does not.
        let t = Thresholds::new(0.04, 0.0).unwrap();
        let cells: Vec<_> = mine_rules(&ba, 0, t).iter().map(|r| (r.x, r.y)).collect();
        assert_eq!(cells, vec![(0, 0), (1, 0), (3, 3)]);
    }

    #[test]
    fn confidence_threshold_filters() {
        let ba = demo_array();
        // Low support floor; confidence 0.9 keeps (1,0) at 0.9 and (3,3)
        // at 1.0, drops (0,0) at 0.8 and (2,2) at 0.05.
        let t = Thresholds::new(0.0, 0.9).unwrap();
        let cells: Vec<_> = mine_rules(&ba, 0, t).iter().map(|r| (r.x, r.y)).collect();
        assert_eq!(cells, vec![(1, 0), (3, 3)]);
    }

    #[test]
    fn zero_thresholds_still_require_a_tuple() {
        let ba = demo_array();
        let t = Thresholds::new(0.0, 0.0).unwrap();
        let rules = mine_rules(&ba, 0, t);
        // Only the 4 occupied-for-group-0 cells, not all 16.
        assert_eq!(rules.len(), 4);
    }

    #[test]
    fn other_group_mines_independently() {
        let ba = demo_array();
        let t = Thresholds::new(0.1, 0.5).unwrap();
        let cells: Vec<_> = mine_rules(&ba, 1, t).iter().map(|r| (r.x, r.y)).collect();
        assert_eq!(cells, vec![(2, 2)]); // 95 of 100, conf 0.95
    }

    #[test]
    fn rule_grid_matches_mine_rules() {
        let ba = demo_array();
        for (s, c) in [(0.0, 0.0), (0.1, 0.5), (0.04, 0.0), (0.0, 0.9)] {
            let t = Thresholds::new(s, c).unwrap();
            let grid = rule_grid(&ba, 0, t).unwrap();
            let from_rules: std::collections::HashSet<_> =
                mine_rules(&ba, 0, t).iter().map(|r| (r.x, r.y)).collect();
            let from_grid: std::collections::HashSet<_> = grid.iter_set().collect();
            assert_eq!(from_rules, from_grid, "thresholds ({s}, {c})");
        }
    }

    #[test]
    fn rule_grid_into_reuses_a_dirty_buffer() {
        let ba = demo_array();
        let loose = Thresholds::new(0.0, 0.0).unwrap();
        let tight = Thresholds::new(0.1, 0.5).unwrap();
        // Fill the buffer at loose thresholds, then re-mine tight into the
        // same (now dirty) buffer: stale bits must not survive.
        let mut buffer = rule_grid(&ba, 0, loose).unwrap();
        rule_grid_into(&ba, 0, tight, &mut buffer).unwrap();
        assert_eq!(buffer, rule_grid(&ba, 0, tight).unwrap());
        // A wrong-shaped buffer is replaced, not misused.
        let mut wrong = Grid::new(2, 2).unwrap();
        rule_grid_into(&ba, 0, tight, &mut wrong).unwrap();
        assert_eq!(wrong, rule_grid(&ba, 0, tight).unwrap());
    }

    #[test]
    fn support_grid_values() {
        let ba = demo_array();
        let sg = support_grid(&ba, 0);
        assert_eq!(sg.len(), 16);
        assert!((sg[0] - 40.0 / 210.0).abs() < 1e-12);
        assert!((sg[2 * 4 + 2] - 5.0 / 210.0).abs() < 1e-12);
        assert_eq!(sg[5], 0.0);
    }

    #[test]
    fn empty_array_yields_nothing() {
        let ba = BinArray::new(3, 3, 2).unwrap();
        let t = Thresholds::new(0.0, 0.0).unwrap();
        assert!(mine_rules(&ba, 0, t).is_empty());
        assert!(rule_grid(&ba, 0, t).unwrap().is_empty());
        assert!(support_grid(&ba, 0).iter().all(|&v| v == 0.0));
    }

    /// The satellite bugfix regression: `min_support_count_for` must be
    /// the *exact* integer form of the miner's `count / N >= min_support`
    /// test. The invariant, for every (N, s): `m/N >= s` and, when
    /// `m > 1`, `(m-1)/N < s` — all in the same `f64` arithmetic.
    #[test]
    fn min_support_count_is_the_exact_boundary() {
        for n in [1u64, 2, 3, 7, 10, 97, 210, 1_000, 12_345, 1_000_003] {
            for s in [
                0.0,
                1e-9,
                0.001,
                0.01,
                0.04,
                0.1,
                1.0 / 3.0,
                0.3,
                0.5,
                2.0 / 3.0,
                0.9,
                0.999,
                1.0 - 1e-12,
                1.0,
            ] {
                let m = min_support_count_for(n, s);
                assert!(m >= 1 && m <= n, "m = {m} for N = {n}, s = {s}");
                assert!(
                    (m as f64) / (n as f64) >= s || (m == 1 && s > 0.0 && n == 1),
                    "count {m} fails its own threshold: N = {n}, s = {s}"
                );
                if m > 1 {
                    assert!(
                        ((m - 1) as f64) / (n as f64) < s,
                        "count {} would also qualify: N = {n}, s = {s}",
                        m - 1
                    );
                }
            }
        }
        assert_eq!(min_support_count_for(0, 0.5), 1, "empty array admits nothing");
    }

    /// The historical failure mode: `ceil(N * s)` rounds the product up
    /// when it lands just above an integer (0.1 is not exact in binary),
    /// silently *raising* the threshold by one tuple.
    #[test]
    fn min_support_count_survives_inexact_products() {
        // 210 * 0.1 = 21.000000000000004 in f64; ceil would say 22, but
        // 21/210 >= 0.1 holds, so 21 is the exact boundary.
        assert_eq!(min_support_count_for(210, 0.1), 21);
        // 3 * (1/3) = 0.9999999999999999...; a truncating cast would say 0.
        assert_eq!(min_support_count_for(3, 1.0 / 3.0), 1);
    }

    /// Exact-boundary counts must qualify — and one-below must not — in
    /// BOTH the naive and the indexed miner (the shared boundary-semantics
    /// regression the issue asks for).
    #[test]
    fn boundary_counts_behave_identically_in_both_miners() {
        let ba = demo_array(); // N = 210; group-0 counts 40, 45, 5, 10
        let index = OccupancyIndex::build(&ba);
        for (s, expect_cells) in [
            // Exactly at cell (3,3)'s support of 10/210: it qualifies.
            (10.0 / 210.0, vec![(0, 0), (1, 0), (3, 3)]),
            // Infinitesimally above: it must drop out.
            (11.0 / 210.0, vec![(0, 0), (1, 0)]),
            // Exactly at the largest cell's support: only it remains.
            (45.0 / 210.0, vec![(1, 0)]),
            // Above everything: nothing.
            (46.0 / 210.0, vec![]),
        ] {
            let t = Thresholds::new(s, 0.0).unwrap();
            let naive: Vec<_> = mine_rules(&ba, 0, t).iter().map(|r| (r.x, r.y)).collect();
            let (indexed_rules, visited) = mine_rules_indexed(&index, 0, t);
            let indexed: Vec<_> = indexed_rules.iter().map(|r| (r.x, r.y)).collect();
            assert_eq!(naive, expect_cells, "naive miner at s = {s}");
            assert_eq!(indexed, expect_cells, "indexed miner at s = {s}");
            assert_eq!(
                mine_rules(&ba, 0, t),
                indexed_rules,
                "full rule payloads diverge at s = {s}"
            );
            assert!(visited <= 4, "indexed miner visited {visited} > occupied cells");
        }
    }

    #[test]
    fn remining_with_different_thresholds_is_consistent() {
        // Monotonicity: raising either threshold can only shrink the rule set.
        let ba = demo_array();
        let base = mine_rules(&ba, 0, Thresholds::new(0.01, 0.1).unwrap()).len();
        let tighter_s = mine_rules(&ba, 0, Thresholds::new(0.2, 0.1).unwrap()).len();
        let tighter_c = mine_rules(&ba, 0, Thresholds::new(0.01, 0.95).unwrap()).len();
        assert!(tighter_s <= base);
        assert!(tighter_c <= base);
    }
}
