//! Factorial-design threshold search (paper §5).
//!
//! The paper suggests that *"the technique of factorial design by Fisher
//! \[6, 4\] can greatly reduce the number of experiments necessary when
//! searching for optimal solutions … applied in the heuristic optimizer to
//! reduce the number of runs required to find good values for minimum
//! support and minimum confidence."*
//!
//! Implementation: a 2² full factorial with a centre point (the classic
//! Box–Hunter–Hunter screening design) over the two factors *support
//! quantile* and *confidence quantile* of the Figure 10 lattice. Each
//! round evaluates the four corners and the centre of the current design
//! window, re-centres on the best point, and halves the window — steepest
//! descent guided by the factorial screen. A round costs 5 evaluations, so
//! a full search typically needs 20–30 evaluations versus the hill climb's
//! ~100.

use arcs_core::optimizer::{
    evaluate, Evaluation, OptimizeResult, OptimizerConfig, ThresholdLattice, MIN_GROUP_RECALL,
};
use arcs_core::{ArcsError, BinArray, Binner, PipelineCounters, Thresholds};
use arcs_data::Tuple;

/// Factorial-design search parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorialConfig {
    /// Component evaluation parameters (smoothing, BitOp, MDL weights,
    /// recall guard).
    pub optimizer: OptimizerConfig,
    /// Maximum design rounds (each round is five evaluations).
    pub max_rounds: usize,
    /// Stop when the design window's half-width falls below this quantile
    /// distance.
    pub min_half_width: f64,
}

impl Default for FactorialConfig {
    fn default() -> Self {
        FactorialConfig {
            optimizer: OptimizerConfig::default(),
            max_rounds: 8,
            min_half_width: 0.02,
        }
    }
}

impl FactorialConfig {
    fn validate(&self) -> Result<(), ArcsError> {
        if self.max_rounds == 0 {
            return Err(ArcsError::InvalidConfig("max_rounds must be > 0".into()));
        }
        if !(0.0 < self.min_half_width && self.min_half_width < 0.5) {
            return Err(ArcsError::InvalidConfig("min_half_width must be in (0, 0.5)".into()));
        }
        Ok(())
    }
}

/// Maps `(support quantile, confidence quantile)` in `[0, 1]²` to concrete
/// thresholds over the lattice.
fn thresholds_at(lattice: &ThresholdLattice, sq: f64, cq: f64) -> Result<Thresholds, ArcsError> {
    let supports = lattice.supports();
    let si = ((sq * (supports.len() - 1) as f64).round() as usize).min(supports.len() - 1);
    let confs = lattice.confidences_for(si);
    let ci = ((cq * (confs.len() - 1) as f64).round() as usize).min(confs.len() - 1);
    Thresholds::new((supports[si] - 1e-12).max(0.0), (confs[ci] - 1e-12).max(0.0))
}

/// Runs the factorial-design search. Returns
/// [`ArcsError::NoSegmentation`] when the lattice is empty or no design
/// point produced any cluster.
pub fn factorial_search(
    array: &BinArray,
    gk: u32,
    binner: &Binner,
    sample: &[&Tuple],
    config: &FactorialConfig,
) -> Result<OptimizeResult, ArcsError> {
    config.validate()?;
    let lattice = ThresholdLattice::build(array, gk);
    if lattice.is_empty() {
        return Err(ArcsError::NoSegmentation);
    }
    let cost_of = |e: &Evaluation| -> f64 {
        if e.clusters.is_empty() || e.errors.recall() < MIN_GROUP_RECALL {
            f64::INFINITY
        } else {
            e.score.cost
        }
    };

    let mut centre = (0.5f64, 0.5f64);
    let mut half_width = 0.5f64;
    let mut trace: Vec<Evaluation> = Vec::new();
    let mut best: Option<Evaluation> = None;
    let mut best_any: Option<Evaluation> = None;

    for _ in 0..config.max_rounds {
        // 2^2 corners + centre point.
        let design = [
            (centre.0 - half_width, centre.1 - half_width),
            (centre.0 - half_width, centre.1 + half_width),
            (centre.0 + half_width, centre.1 - half_width),
            (centre.0 + half_width, centre.1 + half_width),
            centre,
        ];
        let mut round_best: Option<((f64, f64), f64)> = None;
        for &(sq, cq) in &design {
            let sq = sq.clamp(0.0, 1.0);
            let cq = cq.clamp(0.0, 1.0);
            let thresholds = thresholds_at(&lattice, sq, cq)?;
            // Skip duplicate evaluations at identical thresholds.
            if trace.iter().any(|e| e.thresholds == thresholds) {
                continue;
            }
            let eval = evaluate(array, gk, binner, sample, thresholds, &config.optimizer)?;
            let cost = cost_of(&eval);
            trace.push(eval.clone());
            if !eval.clusters.is_empty()
                && best_any.as_ref().is_none_or(|b| eval.score.cost < b.score.cost)
            {
                best_any = Some(eval.clone());
            }
            if cost.is_finite() && best.as_ref().is_none_or(|b| cost < b.score.cost) {
                best = Some(eval);
            }
            if round_best.is_none_or(|(_, c)| cost < c) {
                round_best = Some(((sq, cq), cost));
            }
        }
        if let Some(((sq, cq), _)) = round_best {
            centre = (sq, cq);
        }
        half_width /= 2.0;
        if half_width < config.min_half_width {
            break;
        }
    }

    match best.or(best_any) {
        Some(best) => Ok(OptimizeResult {
            best,
            stats: PipelineCounters {
                occupied_cells: lattice.occupied_cells(),
                evaluations: trace.len() as u64,
                ..PipelineCounters::default()
            },
            trace,
        }),
        None => Err(ArcsError::NoSegmentation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_core::optimize;
    use arcs_data::schema::{Attribute, Schema};
    use arcs_data::{Dataset, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("g", ["A", "other"]),
        ])
        .unwrap()
    }

    fn blocky_dataset() -> Dataset {
        let mut ds = Dataset::new(schema());
        for ix in 0..10 {
            for iy in 0..10 {
                let x = ix as f64 + 0.5;
                let y = iy as f64 + 0.5;
                let in_block = (2..5).contains(&ix) && (2..5).contains(&iy);
                let (n_a, n_other) = if in_block { (20, 2) } else { (0, 5) };
                for _ in 0..n_a {
                    ds.push(vec![Value::Quant(x), Value::Quant(y), Value::Cat(0)]).unwrap();
                }
                for _ in 0..n_other {
                    ds.push(vec![Value::Quant(x), Value::Quant(y), Value::Cat(1)]).unwrap();
                }
            }
        }
        ds
    }

    fn setup() -> (Dataset, Binner) {
        let ds = blocky_dataset();
        let b = Binner::equi_width(&schema(), "x", "y", "g", 10, 10).unwrap();
        (ds, b)
    }

    #[test]
    fn factorial_finds_the_block() {
        let (ds, b) = setup();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let sample: Vec<&Tuple> = ds.iter().collect();
        let config = FactorialConfig {
            optimizer: OptimizerConfig {
                bitop: arcs_core::BitOpConfig::no_pruning(),
                ..OptimizerConfig::default()
            },
            ..FactorialConfig::default()
        };
        let result = factorial_search(&ba, 0, &b, &sample, &config).unwrap();
        assert_eq!(result.best.clusters.len(), 1);
        let rect = result.best.clusters[0];
        assert_eq!((rect.x0, rect.y0, rect.x1, rect.y1), (2, 2, 4, 4));
    }

    #[test]
    fn factorial_uses_fewer_evaluations_than_the_hill_climb() {
        let (ds, b) = setup();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let sample: Vec<&Tuple> = ds.iter().collect();
        let opt = OptimizerConfig {
            bitop: arcs_core::BitOpConfig::no_pruning(),
            ..OptimizerConfig::default()
        };
        let hill = optimize(&ba, 0, &b, &sample, &opt).unwrap();
        let factorial = factorial_search(
            &ba,
            0,
            &b,
            &sample,
            &FactorialConfig { optimizer: opt, ..FactorialConfig::default() },
        )
        .unwrap();
        assert!(factorial.trace.len() <= hill.trace.len());
        // Same optimum on this easy dataset.
        assert_eq!(factorial.best.clusters, hill.best.clusters);
    }

    #[test]
    fn factorial_validates_config() {
        let (ds, b) = setup();
        let ba = b.bin_rows(ds.iter()).unwrap();
        for bad in [
            FactorialConfig { max_rounds: 0, ..FactorialConfig::default() },
            FactorialConfig { min_half_width: 0.0, ..FactorialConfig::default() },
            FactorialConfig { min_half_width: 0.7, ..FactorialConfig::default() },
        ] {
            assert!(factorial_search(&ba, 0, &b, &[], &bad).is_err());
        }
    }

    #[test]
    fn factorial_errors_on_empty_array() {
        let (_, b) = setup();
        let ba = b.new_bin_array().unwrap();
        assert_eq!(
            factorial_search(&ba, 0, &b, &[], &FactorialConfig::default()).unwrap_err(),
            ArcsError::NoSegmentation
        );
    }
}
