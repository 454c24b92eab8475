//! The MDL cluster-quality measure (paper §3.6).
//!
//! The Minimum Description Length principle: the best model minimises the
//! cost of describing the model plus the cost of describing the data given
//! the model. For a segmentation the model is the cluster set and the data
//! cost is the residual error (false positives + false negatives on the
//! verified tuples — every tuple in a session's search, a sample in the
//! paper's §3.6):
//!
//! ```text
//! cost = wc · log2(|C|) + we · log2(errors)
//! ```
//!
//! The weights `wc`, `we` let the user bias toward fewer clusters or lower
//! error (both default to 1, "the default case" in the paper).

use crate::error::ArcsError;

/// User bias weights for the MDL cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdlWeights {
    /// Weight on the cluster-count (model) term.
    pub wc: f64,
    /// Weight on the error (data) term.
    pub we: f64,
}

impl Default for MdlWeights {
    fn default() -> Self {
        MdlWeights { wc: 1.0, we: 1.0 }
    }
}

impl MdlWeights {
    /// Creates weights, validating both are non-negative and not both zero.
    pub fn new(wc: f64, we: f64) -> Result<Self, ArcsError> {
        if wc < 0.0 || we < 0.0 || !wc.is_finite() || !we.is_finite() {
            return Err(ArcsError::InvalidConfig(format!(
                "MDL weights must be finite and non-negative, got wc={wc}, we={we}"
            )));
        }
        if wc == 0.0 && we == 0.0 {
            return Err(ArcsError::InvalidConfig("MDL weights must not both be zero".into()));
        }
        Ok(MdlWeights { wc, we })
    }
}

/// The MDL cost of a segmentation with `n_clusters` clusters and `errors`
/// total verification errors (false positives + false negatives).
///
/// `log2` is taken of `max(x, 1)` so that an empty cluster set or a
/// zero-error segmentation contributes zero cost for that term rather than
/// `-inf` (the paper's uniform-encoding simplification).
pub fn mdl_cost(n_clusters: usize, errors: usize, weights: MdlWeights) -> f64 {
    let model = (n_clusters.max(1) as f64).log2();
    let data = (errors.max(1) as f64).log2();
    weights.wc * model + weights.we * data
}

/// A segmentation's quality summary: the inputs and output of the MDL
/// measure, kept together for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdlScore {
    /// Number of clusters in the segmentation.
    pub n_clusters: usize,
    /// Total errors (false positives + false negatives) on the verified
    /// tuples.
    pub errors: usize,
    /// The combined MDL cost.
    pub cost: f64,
}

impl MdlScore {
    /// Computes the score for a segmentation.
    pub fn compute(n_clusters: usize, errors: usize, weights: MdlWeights) -> Self {
        MdlScore { n_clusters, errors, cost: mdl_cost(n_clusters, errors, weights) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_are_unbiased() {
        let w = MdlWeights::default();
        assert_eq!(w.wc, 1.0);
        assert_eq!(w.we, 1.0);
    }

    #[test]
    fn weights_validate() {
        assert!(MdlWeights::new(1.0, 2.0).is_ok());
        assert!(MdlWeights::new(0.0, 1.0).is_ok());
        assert!(MdlWeights::new(-1.0, 1.0).is_err());
        assert!(MdlWeights::new(1.0, f64::NAN).is_err());
        assert!(MdlWeights::new(0.0, 0.0).is_err());
    }

    #[test]
    fn cost_formula_matches_paper() {
        let w = MdlWeights::default();
        // 4 clusters, 16 errors: log2(4) + log2(16) = 2 + 4.
        assert!((mdl_cost(4, 16, w) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn zero_edge_cases_finite() {
        let w = MdlWeights::default();
        assert_eq!(mdl_cost(0, 0, w), 0.0);
        assert_eq!(mdl_cost(1, 0, w), 0.0);
        assert_eq!(mdl_cost(0, 1, w), 0.0);
        assert!(mdl_cost(2, 0, w) > 0.0);
    }

    #[test]
    fn more_clusters_cost_more() {
        let w = MdlWeights::default();
        assert!(mdl_cost(8, 10, w) > mdl_cost(3, 10, w));
        assert!(mdl_cost(3, 100, w) > mdl_cost(3, 10, w));
    }

    #[test]
    fn weights_bias_the_tradeoff() {
        // Segmentation A: 2 clusters, 64 errors. B: 16 clusters, 8 errors.
        let a = (2usize, 64usize);
        let b = (16usize, 8usize);
        // Cluster-averse user prefers A.
        let cluster_averse = MdlWeights::new(4.0, 1.0).unwrap();
        assert!(mdl_cost(a.0, a.1, cluster_averse) < mdl_cost(b.0, b.1, cluster_averse));
        // Error-averse user prefers B.
        let error_averse = MdlWeights::new(1.0, 4.0).unwrap();
        assert!(mdl_cost(b.0, b.1, error_averse) < mdl_cost(a.0, a.1, error_averse));
    }

    #[test]
    fn score_carries_inputs() {
        let s = MdlScore::compute(3, 5, MdlWeights::default());
        assert_eq!(s.n_clusters, 3);
        assert_eq!(s.errors, 5);
        assert!((s.cost - (3.0f64.log2() + 5.0f64.log2())).abs() < 1e-12);
    }
}
