//! The verifier (paper §3.6, Figure 9): measures segmentation accuracy.
//!
//! A tuple is a **false positive** when some cluster covers it but it does
//! not belong to the criterion group; a **false negative** when it belongs
//! to the group but no cluster covers it. On real data the error is
//! estimated from samples (repeated k-out-of-n); when the generating
//! function is known (synthetic experiments) the exact region error of
//! Figure 9 can be integrated directly.
//!
//! A cluster covers whole cells, so the tuples it covers are those its
//! cells count: [`verify_counts`] reads the error off a [`BinArray`] of
//! the verified tuples without visiting a tuple, and equals
//! [`verify_tuples`] on the tuples that array was binned from. A
//! session's search reads it off the session's own array, so its errors
//! are exact over every tuple it binned, where the paper's §3.6 estimates
//! them on a sample.

// Public-API paths must fail with typed errors, never panic.
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use arcs_data::agrawal::Region2D;
use arcs_data::sample::RepeatedSampling;
use arcs_data::{Dataset, Tuple};

use crate::binarray::BinArray;
use crate::binner::Binner;
use crate::cluster::Rect;
use crate::error::ArcsError;

/// Error tallies from verifying a segmentation against tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorCounts {
    /// Tuples covered by a cluster but not in the criterion group.
    pub false_positives: usize,
    /// Tuples in the criterion group not covered by any cluster.
    pub false_negatives: usize,
    /// Number of tuples examined.
    pub n_examined: usize,
    /// Tuples examined that belong to the criterion group.
    pub group_total: usize,
}

impl ErrorCounts {
    /// Total errors (the paper's `errors` term in the MDL cost).
    pub fn total(&self) -> usize {
        self.false_positives + self.false_negatives
    }

    /// Error rate in `[0, 1]`; zero when nothing was examined.
    pub fn rate(&self) -> f64 {
        if self.n_examined == 0 {
            return 0.0;
        }
        self.total() as f64 / self.n_examined as f64
    }

    /// Fraction of group tuples the clusters identify (1 − FN rate within
    /// the group). Vacuously 1 when the sample holds no group tuples.
    pub fn recall(&self) -> f64 {
        if self.group_total == 0 {
            return 1.0;
        }
        (self.group_total - self.false_negatives) as f64 / self.group_total as f64
    }
}

/// Verifies cluster rectangles against explicit tuples: each tuple is
/// binned with `binner` and tested for cluster membership and group
/// membership.
pub fn verify_tuples<'a, I>(clusters: &[Rect], binner: &Binner, tuples: I, gk: u32) -> ErrorCounts
where
    I: IntoIterator<Item = &'a Tuple>,
{
    let mut counts = ErrorCounts::default();
    for tuple in tuples {
        let (x, y, g) = binner.bin_tuple(tuple);
        let covered = clusters.iter().any(|r| r.contains(x, y));
        let in_group = g == gk;
        if in_group {
            counts.group_total += 1;
        }
        match (covered, in_group) {
            (true, false) => counts.false_positives += 1,
            (false, true) => counts.false_negatives += 1,
            _ => {}
        }
        counts.n_examined += 1;
    }
    counts
}

/// Verifies cluster rectangles against the counts of `array`: the error
/// [`verify_tuples`] reports for the tuples `array` was binned from, read
/// off the covered cells — FP = Σ (cell total − group count) and
/// FN = group total − Σ group count. Each covered cell counts once, so
/// the sums stay exact for overlapping rectangles (BitOp never returns
/// any) and ignore cells outside the grid, which hold no tuples.
pub fn verify_counts(clusters: &[Rect], array: &BinArray, gk: u32) -> ErrorCounts {
    let (mut covered, mut covered_group) = (0u64, 0u64);
    for (i, rect) in clusters.iter().enumerate() {
        let earlier = &clusters[..i];
        let shared = earlier.iter().any(|r| r.overlaps(rect));
        for y in rect.y0..=rect.y1.min(array.ny() - 1) {
            for x in rect.x0..=rect.x1.min(array.nx() - 1) {
                if shared && earlier.iter().any(|r| r.contains(x, y)) {
                    continue;
                }
                covered += array.cell_total(x, y) as u64;
                covered_group += array.group_count(x, y, gk) as u64;
            }
        }
    }
    let group_total = array.group_total(gk);
    ErrorCounts {
        false_positives: (covered - covered_group) as usize,
        false_negatives: (group_total - covered_group) as usize,
        n_examined: array.n_tuples() as usize,
        group_total: group_total as usize,
    }
}

/// Estimates the error rate with repeated k-out-of-n sampling
/// (paper §3.6: "a stronger statistical technique"). Returns
/// `(mean_rate, std_dev)` across repetitions.
///
/// Edge cases are well-defined rather than errors: a requested sample
/// size larger than the dataset is clamped to the dataset (every
/// repetition then examines all of it), an empty dataset yields
/// `(0.0, 0.0)` (nothing examined, no error evidence), and an empty
/// cluster set or group-free sample simply produces the corresponding
/// [`ErrorCounts::rate`] — no panics anywhere on the path.
pub fn verify_sampled(
    clusters: &[Rect],
    binner: &Binner,
    dataset: &Dataset,
    gk: u32,
    sampling: RepeatedSampling,
) -> Result<(f64, f64), ArcsError> {
    crate::faults::check("verify.sample")?;
    if dataset.is_empty() {
        return Ok((0.0, 0.0));
    }
    let sampling = RepeatedSampling { k: sampling.k.min(dataset.len()), ..sampling };
    let (mean, sd) = sampling
        .estimate(dataset, |rows| verify_tuples(clusters, binner, rows.iter().copied(), gk).rate())
        .map_err(ArcsError::Data)?;
    Ok((mean, sd))
}

/// Exact area-based error against known true regions (paper Figure 9),
/// integrated on a `resolution × resolution` lattice over the binner's
/// attribute domains. Returns the fraction of lattice points that are
/// false positives and false negatives.
///
/// Only meaningful for synthetic data where the generating regions are
/// known (e.g. [`f2_regions`](arcs_data::agrawal::f2_regions)).
pub fn region_error(
    clusters: &[Rect],
    binner: &Binner,
    true_regions: &[Region2D],
    x_domain: (f64, f64),
    y_domain: (f64, f64),
    resolution: usize,
) -> Result<ErrorCounts, ArcsError> {
    if resolution < 2 {
        return Err(ArcsError::InvalidConfig("region_error resolution must be at least 2".into()));
    }
    let mut counts = ErrorCounts::default();
    for iy in 0..resolution {
        let y = y_domain.0 + (y_domain.1 - y_domain.0) * (iy as f64 + 0.5) / resolution as f64;
        for ix in 0..resolution {
            let x = x_domain.0 + (x_domain.1 - x_domain.0) * (ix as f64 + 0.5) / resolution as f64;
            let in_true = true_regions.iter().any(|r| r.contains(x, y));
            if in_true {
                counts.group_total += 1;
            }
            let (bx, by) = binner.bin_point(x, y);
            let in_computed = clusters.iter().any(|r| r.contains(bx, by));
            match (in_computed, in_true) {
                (true, false) => counts.false_positives += 1,
                (false, true) => counts.false_negatives += 1,
                _ => {}
            }
            counts.n_examined += 1;
        }
    }
    Ok(counts)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use arcs_data::schema::{Attribute, Schema};
    use arcs_data::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("g", ["A", "other"]),
        ])
        .unwrap()
    }

    fn binner() -> Binner {
        Binner::equi_width(&schema(), "x", "y", "g", 10, 10).unwrap()
    }

    fn tuple(x: f64, y: f64, g: u32) -> Tuple {
        Tuple::new(vec![Value::Quant(x), Value::Quant(y), Value::Cat(g)])
    }

    #[test]
    fn counts_classify_each_quadrant() {
        let clusters = vec![Rect::new(0, 0, 4, 4).unwrap()];
        let b = binner();
        let tuples = [
            tuple(2.0, 2.0, 0), // covered + in group: correct
            tuple(2.0, 2.0, 1), // covered + not in group: FP
            tuple(8.0, 8.0, 0), // uncovered + in group: FN
            tuple(8.0, 8.0, 1), // uncovered + not in group: correct
        ];
        let counts = verify_tuples(&clusters, &b, tuples.iter(), 0);
        assert_eq!(counts.false_positives, 1);
        assert_eq!(counts.false_negatives, 1);
        assert_eq!(counts.n_examined, 4);
        assert_eq!(counts.total(), 2);
        assert!((counts.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts_match_tuples_for_overlapping_and_off_grid_rects() {
        let b = binner();
        let tuples = [
            tuple(2.0, 2.0, 0),
            tuple(2.0, 2.0, 1),
            tuple(3.5, 6.5, 0),
            tuple(6.5, 6.5, 1),
            tuple(8.0, 8.0, 0),
            tuple(9.9, 0.1, 1),
        ];
        let array = b.bin_rows(tuples.iter()).unwrap();
        let rect = |x0, y0, x1, y1| Rect::new(x0, y0, x1, y1).unwrap();
        for clusters in [
            vec![],
            vec![rect(0, 0, 4, 4)],
            vec![rect(0, 0, 4, 4), rect(6, 6, 9, 9)],
            vec![rect(0, 0, 4, 7), rect(2, 2, 8, 8), rect(3, 0, 3, 9)],
            vec![rect(7, 7, 30, 30)],
        ] {
            for gk in [0, 1] {
                assert_eq!(
                    verify_counts(&clusters, &array, gk),
                    verify_tuples(&clusters, &b, tuples.iter(), gk),
                    "{clusters:?}, group {gk}"
                );
            }
        }
    }

    #[test]
    fn empty_cluster_set_counts_all_group_tuples_as_fn() {
        let b = binner();
        let tuples = [tuple(1.0, 1.0, 0), tuple(2.0, 2.0, 0), tuple(3.0, 3.0, 1)];
        let counts = verify_tuples(&[], &b, tuples.iter(), 0);
        assert_eq!(counts.false_negatives, 2);
        assert_eq!(counts.false_positives, 0);
    }

    #[test]
    fn empty_examination_has_zero_rate() {
        let counts = verify_tuples(&[], &binner(), std::iter::empty(), 0);
        assert_eq!(counts.rate(), 0.0);
        assert_eq!(counts.n_examined, 0);
    }

    #[test]
    fn sampled_verification_approximates_full() {
        let b = binner();
        let clusters = vec![Rect::new(0, 0, 4, 4).unwrap()];
        let mut ds = Dataset::new(schema());
        // 500 perfect tuples, 100 FPs, 100 FNs -> true rate = 200/700.
        for i in 0..500 {
            let v = (i % 5) as f64;
            ds.push(&[Value::Quant(v), Value::Quant(v), Value::Cat(0)]).unwrap();
        }
        for _ in 0..100 {
            ds.push(&[Value::Quant(1.0), Value::Quant(1.0), Value::Cat(1)]).unwrap();
        }
        for _ in 0..100 {
            ds.push(&[Value::Quant(9.0), Value::Quant(9.0), Value::Cat(0)]).unwrap();
        }
        let full = verify_counts(&clusters, &b.bin_rows_parallel(ds.rows(), 1).unwrap(), 0);
        assert!((full.rate() - 200.0 / 700.0).abs() < 1e-12);

        let sampling = RepeatedSampling { k: 200, repetitions: 10, seed: 3 };
        let (mean, sd) = verify_sampled(&clusters, &b, &ds, 0, sampling).unwrap();
        assert!((mean - full.rate()).abs() < 0.08, "mean {mean} vs {}", full.rate());
        assert!(sd < 0.1);
    }

    #[test]
    fn sampled_verification_clamps_oversized_k() {
        // k far beyond the dataset: every repetition examines the whole
        // dataset, so the estimate is exact with zero variance.
        let b = binner();
        let clusters = vec![Rect::new(0, 0, 4, 4).unwrap()];
        let mut ds = Dataset::new(schema());
        for i in 0..20 {
            let v = (i % 5) as f64;
            ds.push(&[Value::Quant(v), Value::Quant(v), Value::Cat(0)]).unwrap();
        }
        ds.push(&[Value::Quant(9.0), Value::Quant(9.0), Value::Cat(0)]).unwrap();
        let full = verify_counts(&clusters, &b.bin_rows_parallel(ds.rows(), 1).unwrap(), 0);
        let sampling = RepeatedSampling { k: 10_000, repetitions: 5, seed: 1 };
        let (mean, sd) = verify_sampled(&clusters, &b, &ds, 0, sampling).unwrap();
        assert!((mean - full.rate()).abs() < 1e-12, "mean {mean} vs {}", full.rate());
        assert_eq!(sd, 0.0);
    }

    #[test]
    fn sampled_verification_handles_empty_dataset_and_group() {
        let b = binner();
        let ds = Dataset::new(schema());
        let sampling = RepeatedSampling { k: 100, repetitions: 3, seed: 1 };
        let clusters = vec![Rect::new(0, 0, 4, 4).unwrap()];
        // Empty dataset: nothing examined, zero rate, no error.
        let (mean, sd) = verify_sampled(&clusters, &b, &ds, 0, sampling).unwrap();
        assert_eq!((mean, sd), (0.0, 0.0));

        // Sample with no group members: FP-only rate, recall vacuously 1.
        let mut ds = Dataset::new(schema());
        for _ in 0..10 {
            ds.push(&[Value::Quant(1.0), Value::Quant(1.0), Value::Cat(1)]).unwrap();
        }
        let counts = verify_counts(&clusters, &b.bin_rows_parallel(ds.rows(), 1).unwrap(), 0);
        assert_eq!(counts.group_total, 0);
        assert_eq!(counts.recall(), 1.0);
        let sampling = RepeatedSampling { k: 100, repetitions: 3, seed: 1 };
        let (mean, _) = verify_sampled(&clusters, &b, &ds, 0, sampling).unwrap();
        assert!((mean - 1.0).abs() < 1e-12, "all covered non-group tuples are FPs");

        // Zero-cluster grid: every group tuple is a false negative, and
        // the sampled path agrees without panicking.
        let (mean, _) = verify_sampled(&[], &b, &ds, 1, sampling).unwrap();
        assert!((mean - 1.0).abs() < 1e-12);
        let (mean, _) = verify_sampled(&[], &b, &ds, 0, sampling).unwrap();
        assert_eq!(mean, 0.0, "no group tuples and no clusters: error-free");
    }

    #[test]
    fn region_error_perfect_overlap_is_zero() {
        // Cluster rect covering bins 0..=4 on both axes == true region
        // [0, 5) x [0, 5).
        let b = binner();
        let clusters = vec![Rect::new(0, 0, 4, 4).unwrap()];
        let regions = [Region2D { x_lo: 0.0, x_hi: 5.0, y_lo: 0.0, y_hi: 5.0 }];
        let counts = region_error(&clusters, &b, &regions, (0.0, 10.0), (0.0, 10.0), 100).unwrap();
        assert_eq!(counts.false_positives, 0);
        assert_eq!(counts.false_negatives, 0);
        assert_eq!(counts.n_examined, 10_000);
    }

    #[test]
    fn region_error_measures_mismatch_area() {
        // Computed cluster covers x bins 0..=4 but the true region only
        // extends to x < 2.5: half the cluster's x-extent is FP area.
        let b = binner();
        let clusters = vec![Rect::new(0, 0, 4, 4).unwrap()];
        let regions = [Region2D { x_lo: 0.0, x_hi: 2.5, y_lo: 0.0, y_hi: 5.0 }];
        let counts = region_error(&clusters, &b, &regions, (0.0, 10.0), (0.0, 10.0), 200).unwrap();
        let fp_frac = counts.false_positives as f64 / counts.n_examined as f64;
        // FP area = (5.0 - 2.5) * 5.0 = 12.5 of 100 total.
        assert!((fp_frac - 0.125).abs() < 0.01, "fp_frac = {fp_frac}");
        assert_eq!(counts.false_negatives, 0);
    }

    #[test]
    fn region_error_counts_false_negatives() {
        // No clusters at all: the whole true region is FN area.
        let b = binner();
        let regions = [Region2D { x_lo: 0.0, x_hi: 5.0, y_lo: 0.0, y_hi: 5.0 }];
        let counts = region_error(&[], &b, &regions, (0.0, 10.0), (0.0, 10.0), 100).unwrap();
        let fn_frac = counts.false_negatives as f64 / counts.n_examined as f64;
        assert!((fn_frac - 0.25).abs() < 0.01);
        assert_eq!(counts.false_positives, 0);
    }

    #[test]
    fn region_error_validates_resolution() {
        let b = binner();
        assert!(region_error(&[], &b, &[], (0.0, 1.0), (0.0, 1.0), 1).is_err());
    }
}
