//! Attribute binning (paper §2.1 and §3.1).
//!
//! Quantitative attributes are partitioned into intervals ("bins") and
//! values replaced by consecutive bin integers before mining. The paper
//! evaluates *equi-width* bins and names equi-depth and homogeneity-based
//! binning as drop-in alternatives — all three are implemented here behind
//! one [`BinMap`] representation, so the rest of the system is agnostic to
//! the strategy (the binning process is "transparent to the association
//! rule engine"). The two LHS attributes a map bins are quantitative; a
//! categorical criterion's codes are its groups and need no map.

use crate::error::ArcsError;

/// A realised binning of one attribute: value → bin index and
/// bin index → value range.
#[derive(Debug, Clone, PartialEq)]
pub enum BinMap {
    /// Uniform intervals over `[lo, hi]` (the paper's default).
    EquiWidth {
        /// Lower bound of the attribute domain.
        lo: f64,
        /// Upper bound of the attribute domain.
        hi: f64,
        /// Number of bins.
        n_bins: usize,
    },
    /// Arbitrary ascending boundaries: bin `i` covers
    /// `[edges[i], edges[i+1])`, the last bin is closed above.
    /// Produced by equi-depth and homogeneity binning.
    Boundaries {
        /// `n_bins + 1` ascending edge values.
        edges: Vec<f64>,
    },
}

impl BinMap {
    /// Builds an equi-width map over `[lo, hi]` with `n_bins` bins.
    pub fn equi_width(lo: f64, hi: f64, n_bins: usize) -> Result<Self, ArcsError> {
        if n_bins == 0 {
            return Err(ArcsError::InvalidConfig("n_bins must be > 0".into()));
        }
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(ArcsError::InvalidConfig(format!(
                "invalid equi-width domain [{lo}, {hi}]"
            )));
        }
        Ok(BinMap::EquiWidth { lo, hi, n_bins })
    }

    /// Builds an equi-depth map: boundaries are chosen so each bin holds
    /// roughly the same number of the supplied `values`. Requires at least
    /// one value; duplicate boundaries are collapsed, so fewer than
    /// `n_bins` bins may result on highly skewed data.
    pub fn equi_depth(values: &[f64], n_bins: usize) -> Result<Self, ArcsError> {
        if n_bins == 0 {
            return Err(ArcsError::InvalidConfig("n_bins must be > 0".into()));
        }
        if values.is_empty() {
            return Err(ArcsError::InvalidConfig(
                "equi-depth binning needs at least one value".into(),
            ));
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut edges = Vec::with_capacity(n_bins + 1);
        edges.push(sorted[0]);
        for b in 1..n_bins {
            let idx = (b * n / n_bins).min(n - 1);
            let edge = sorted[idx];
            if edge > *edges.last().expect("non-empty") {
                edges.push(edge);
            }
        }
        let last = sorted[n - 1];
        if last > *edges.last().expect("non-empty") {
            edges.push(last);
        } else {
            // All values identical (or collapsed): widen artificially so the
            // single bin has a non-degenerate range.
            let e = *edges.last().expect("non-empty");
            edges.push(e + 1.0);
        }
        Ok(BinMap::Boundaries { edges })
    }

    /// Builds a homogeneity-based map (per the paper's reference to
    /// \[14, 23\]): start from fine equi-depth bins and greedily merge
    /// adjacent bins whose densities (tuples per unit width) differ by at
    /// most `tolerance` (relative), until at most `max_bins` remain. Bins
    /// are therefore sized so that tuples within each are near-uniformly
    /// distributed.
    pub fn homogeneity(values: &[f64], max_bins: usize, tolerance: f64) -> Result<Self, ArcsError> {
        if max_bins == 0 {
            return Err(ArcsError::InvalidConfig("max_bins must be > 0".into()));
        }
        if tolerance < 0.0 {
            return Err(ArcsError::InvalidConfig("tolerance must be >= 0".into()));
        }
        // Start from 4x-finer equi-depth bins, then merge.
        let fine = (max_bins * 4).min(values.len().max(1));
        let base = Self::equi_depth(values, fine)?;
        let edges = match base {
            BinMap::Boundaries { edges } => edges,
            _ => unreachable!("equi_depth returns Boundaries"),
        };
        // Per-bin counts for density computation.
        let mut counts = vec![0usize; edges.len() - 1];
        let probe = BinMap::Boundaries { edges: edges.clone() };
        for &v in values {
            counts[probe.bin_of_value(v)] += 1;
        }

        let density = |count: usize, lo: f64, hi: f64| -> f64 {
            let w = (hi - lo).max(f64::MIN_POSITIVE);
            count as f64 / w
        };

        // Greedy pairwise merge: repeatedly merge the adjacent pair with the
        // smallest relative density difference while either (a) over the bin
        // budget or (b) a pair is within tolerance.
        let mut segs: Vec<(f64, f64, usize)> =
            edges.windows(2).zip(&counts).map(|(w, &c)| (w[0], w[1], c)).collect();
        loop {
            if segs.len() <= 1 {
                break;
            }
            let mut best: Option<(usize, f64)> = None;
            for i in 0..segs.len() - 1 {
                let (alo, ahi, ac) = segs[i];
                let (blo, bhi, bc) = segs[i + 1];
                let da = density(ac, alo, ahi);
                let db = density(bc, blo, bhi);
                let rel = (da - db).abs() / da.max(db).max(f64::MIN_POSITIVE);
                if best.is_none_or(|(_, b)| rel < b) {
                    best = Some((i, rel));
                }
            }
            let (i, rel) = best.expect("segs.len() > 1");
            let over_budget = segs.len() > max_bins;
            if !over_budget && rel > tolerance {
                break;
            }
            let (alo, _, ac) = segs[i];
            let (_, bhi, bc) = segs[i + 1];
            segs[i] = (alo, bhi, ac + bc);
            segs.remove(i + 1);
        }
        let mut merged = Vec::with_capacity(segs.len() + 1);
        merged.push(segs[0].0);
        for &(_, hi, _) in &segs {
            merged.push(hi);
        }
        Ok(BinMap::Boundaries { edges: merged })
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        match self {
            BinMap::EquiWidth { n_bins, .. } => *n_bins,
            BinMap::Boundaries { edges } => edges.len() - 1,
        }
    }

    /// Maps a quantitative value to its bin. Values outside the domain are
    /// clamped to the first/last bin (streamed data may exceed the declared
    /// domain slightly, e.g. after perturbation).
    pub fn bin_of_value(&self, v: f64) -> usize {
        match self.resolve() {
            Resolved::Width(width) => width.bin()(v),
            Resolved::Edges(edges) => edges.bin()(v),
        }
    }

    /// The map in the form a pass over many values uses: an equi-width
    /// map's bin width computed once, a boundary map's edges borrowed.
    /// [`bin_of_value`](BinMap::bin_of_value) bins through it too, so a
    /// value lands in the same bin either way.
    pub(crate) fn resolve(&self) -> Resolved<'_> {
        match self {
            BinMap::EquiWidth { lo, hi, n_bins } => Resolved::Width(Width {
                lo: *lo,
                width: (hi - lo) / *n_bins as f64,
                last: n_bins - 1,
            }),
            BinMap::Boundaries { edges } => Resolved::Edges(Edges(edges)),
        }
    }

    /// The half-open value range `[lo, hi)` covered by `bin`
    /// (`None` for out-of-range bins).
    pub fn range(&self, bin: usize) -> Option<(f64, f64)> {
        if bin >= self.n_bins() {
            return None;
        }
        match self {
            BinMap::EquiWidth { lo, hi, n_bins } => {
                let width = (hi - lo) / *n_bins as f64;
                Some((lo + width * bin as f64, lo + width * (bin + 1) as f64))
            }
            BinMap::Boundaries { edges } => Some((edges[bin], edges[bin + 1])),
        }
    }
}

/// A [`BinMap`] resolved for a pass over many values.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Resolved<'a> {
    /// An equi-width map.
    Width(Width),
    /// A boundary map.
    Edges(Edges<'a>),
}

/// An equi-width map with its bin width computed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Width {
    lo: f64,
    width: f64,
    /// The last bin.
    last: usize,
}

impl Width {
    /// A value's bin, branchless: Rust's f64→usize cast saturates
    /// (negatives and NaN to 0, overflow to usize::MAX), so the two
    /// boundary branches collapse into the arithmetic — `v ≤ lo` lands
    /// at 0 via the cast, `v ≥ hi` at the last bin via the min.
    /// `equi_width_bin_reference` keeps the branchy form; a test sweeps
    /// both for bit-identity.
    pub(crate) fn bin(self) -> impl Fn(f64) -> usize {
        move |v| (((v - self.lo) / self.width) as usize).min(self.last)
    }
}

/// A boundary map's `n_bins + 1` ascending edges.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edges<'a>(&'a [f64]);

impl<'a> Edges<'a> {
    /// A value's bin: bin `i` covers `[edges[i], edges[i+1])`, the last
    /// bin is closed above, and values outside are clamped.
    pub(crate) fn bin(self) -> impl Fn(f64) -> usize + 'a {
        let edges = self.0;
        let n = edges.len() - 1;
        move |v| {
            if v <= edges[0] {
                return 0;
            }
            if v >= edges[n] {
                return n - 1;
            }
            // partition_point: first edge > v, minus one, gives the bin.
            edges.partition_point(|e| *e <= v).saturating_sub(1).min(n - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_width_bins_values() {
        let m = BinMap::equi_width(0.0, 100.0, 10).unwrap();
        assert_eq!(m.n_bins(), 10);
        assert_eq!(m.bin_of_value(0.0), 0);
        assert_eq!(m.bin_of_value(5.0), 0);
        assert_eq!(m.bin_of_value(10.0), 1);
        assert_eq!(m.bin_of_value(99.9), 9);
        assert_eq!(m.bin_of_value(100.0), 9);
        // Clamping outside the domain.
        assert_eq!(m.bin_of_value(-5.0), 0);
        assert_eq!(m.bin_of_value(150.0), 9);
    }

    #[test]
    fn equi_width_ranges_tile_domain() {
        let m = BinMap::equi_width(20.0, 80.0, 6).unwrap();
        let mut expected_lo = 20.0;
        for b in 0..6 {
            let (lo, hi) = m.range(b).unwrap();
            assert!((lo - expected_lo).abs() < 1e-9);
            assert!((hi - lo - 10.0).abs() < 1e-9);
            expected_lo = hi;
        }
        assert_eq!(m.range(6), None);
    }

    #[test]
    fn equi_width_rejects_bad_config() {
        assert!(BinMap::equi_width(0.0, 1.0, 0).is_err());
        assert!(BinMap::equi_width(1.0, 1.0, 5).is_err());
        assert!(BinMap::equi_width(2.0, 1.0, 5).is_err());
        assert!(BinMap::equi_width(f64::NAN, 1.0, 5).is_err());
    }

    #[test]
    fn equi_width_bin_and_range_agree() {
        let m = BinMap::equi_width(20_000.0, 150_000.0, 50).unwrap();
        for i in 0..1_000 {
            let v = 20_000.0 + (i as f64 / 999.0) * 130_000.0;
            let b = m.bin_of_value(v);
            let (lo, hi) = m.range(b).unwrap();
            assert!(
                (lo <= v && v < hi) || (b == 49 && v >= hi),
                "value {v} not in bin {b} = [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn equi_depth_splits_evenly() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let m = BinMap::equi_depth(&values, 4).unwrap();
        assert_eq!(m.n_bins(), 4);
        let mut counts = [0usize; 4];
        for &v in &values {
            counts[m.bin_of_value(v)] += 1;
        }
        for &c in &counts {
            assert!((20..=30).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn equi_depth_handles_skew() {
        // 90 identical values then 10 spread out: duplicate edges collapse.
        let mut values = vec![5.0; 90];
        values.extend((0..10).map(|i| 10.0 + i as f64));
        let m = BinMap::equi_depth(&values, 10).unwrap();
        assert!(m.n_bins() >= 1);
        assert!(m.n_bins() <= 10);
        // All values still map into range.
        for &v in &values {
            assert!(m.bin_of_value(v) < m.n_bins());
        }
    }

    #[test]
    fn equi_depth_all_identical() {
        let values = vec![3.0; 50];
        let m = BinMap::equi_depth(&values, 5).unwrap();
        assert_eq!(m.n_bins(), 1);
        assert_eq!(m.bin_of_value(3.0), 0);
    }

    #[test]
    fn equi_depth_rejects_bad_config() {
        assert!(BinMap::equi_depth(&[], 4).is_err());
        assert!(BinMap::equi_depth(&[1.0], 0).is_err());
    }

    #[test]
    fn homogeneity_merges_uniform_region() {
        // Uniform data should merge into few bins; bimodal should keep the
        // modes separate.
        let uniform: Vec<f64> = (0..1_000).map(|i| i as f64 / 10.0).collect();
        let m = BinMap::homogeneity(&uniform, 10, 0.2).unwrap();
        assert!(m.n_bins() <= 10);
        assert!(m.n_bins() < 40, "uniform data should merge well below the fine grid");
    }

    #[test]
    fn homogeneity_respects_max_bins() {
        let mut values: Vec<f64> = (0..500).map(|i| i as f64).collect();
        values.extend((0..500).map(|i| 10_000.0 + i as f64 * 100.0));
        let m = BinMap::homogeneity(&values, 8, 0.05).unwrap();
        assert!(m.n_bins() <= 8);
        for &v in &values {
            assert!(m.bin_of_value(v) < m.n_bins());
        }
    }

    #[test]
    fn homogeneity_rejects_bad_config() {
        assert!(BinMap::homogeneity(&[1.0], 0, 0.1).is_err());
        assert!(BinMap::homogeneity(&[1.0], 5, -1.0).is_err());
    }

    #[test]
    fn bin_of_value_matches_boundaries() {
        let m = BinMap::Boundaries { edges: vec![0.0, 10.0, 20.0, 50.0] };
        assert_eq!(m.n_bins(), 3);
        assert_eq!(m.bin_of_value(-1.0), 0);
        assert_eq!(m.bin_of_value(0.0), 0);
        assert_eq!(m.bin_of_value(9.99), 0);
        assert_eq!(m.bin_of_value(10.0), 1);
        assert_eq!(m.bin_of_value(20.0), 2);
        assert_eq!(m.bin_of_value(49.0), 2);
        assert_eq!(m.bin_of_value(50.0), 2);
        assert_eq!(m.bin_of_value(1_000.0), 2);
        assert_eq!(m.range(1), Some((10.0, 20.0)));
    }

    /// The branchy equi-width bin-id that `bin_of_value` shipped with
    /// before the branchless rewrite — kept as the oracle for
    /// `branchless_equi_width_matches_branchy_reference`.
    fn equi_width_bin_reference(lo: f64, hi: f64, n_bins: usize, v: f64) -> usize {
        if v <= lo {
            return 0;
        }
        if v >= hi {
            return n_bins - 1;
        }
        let width = (hi - lo) / n_bins as f64;
        (((v - lo) / width) as usize).min(n_bins - 1)
    }

    #[test]
    fn branchless_equi_width_matches_branchy_reference() {
        let domains = [
            (0.0, 10.0, 5usize),
            (-3.5, 7.25, 8),
            (0.0, 1e-9, 3),
            (-1e12, 1e12, 64),
            (1.0, 1.0 + f64::EPSILON, 2),
        ];
        for &(lo, hi, n_bins) in &domains {
            let m = BinMap::EquiWidth { lo, hi, n_bins };
            let width = (hi - lo) / n_bins as f64;
            let mut probes = vec![
                f64::NAN,
                f64::NEG_INFINITY,
                f64::INFINITY,
                lo - 1.0,
                lo - f64::EPSILON,
                lo,
                lo + f64::EPSILON,
                hi - f64::EPSILON,
                hi,
                hi + f64::EPSILON,
                hi + 1.0,
                (lo + hi) / 2.0,
            ];
            for k in 0..=n_bins {
                let edge = lo + width * k as f64;
                probes.extend([edge.next_down(), edge, edge.next_up()]);
            }
            for v in probes {
                assert_eq!(
                    m.bin_of_value(v),
                    equi_width_bin_reference(lo, hi, n_bins, v),
                    "divergence at v={v:?} over [{lo}, {hi}) with {n_bins} bins"
                );
            }
        }
        // Degenerate lo == hi (unreachable via the validating
        // constructor, but the cast semantics must still agree).
        let m = BinMap::EquiWidth { lo: 2.0, hi: 2.0, n_bins: 4 };
        for v in [1.0, 2.0, 3.0, f64::NAN] {
            assert_eq!(m.bin_of_value(v), equi_width_bin_reference(2.0, 2.0, 4, v));
        }
    }
}
