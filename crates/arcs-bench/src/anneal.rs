//! Simulated-annealing threshold search (paper §5).
//!
//! The paper proposes simulated annealing as an alternative to the
//! hill-climbing heuristic of §3.7. The state space is the same Figure 10
//! lattice of *occurring* thresholds; a move perturbs the support level or
//! the confidence level by one step, and moves that worsen the MDL cost
//! are accepted with probability `exp(-Δ/T)` under a geometric cooling
//! schedule. The best state ever visited is returned, so the result is
//! never worse than the starting point. Each state verifies against the
//! searched array's own counts, as a session's search does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use arcs_core::optimizer::{
    evaluate, Evaluation, OptimizeResult, OptimizerConfig, ThresholdLattice, MIN_GROUP_RECALL,
};
use arcs_core::{ArcsError, BinArray, PipelineCounters, Thresholds};

/// Simulated-annealing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealConfig {
    /// Component evaluation parameters (smoothing, BitOp, MDL weights).
    pub optimizer: OptimizerConfig,
    /// Initial temperature (in MDL-cost units).
    pub initial_temperature: f64,
    /// Geometric cooling factor per step, in `(0, 1)`.
    pub cooling: f64,
    /// Number of annealing steps.
    pub steps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            optimizer: OptimizerConfig::default(),
            initial_temperature: 2.0,
            cooling: 0.97,
            steps: 200,
            seed: 0,
        }
    }
}

impl AnnealConfig {
    fn validate(&self) -> Result<(), ArcsError> {
        if self.initial_temperature <= 0.0 {
            return Err(ArcsError::InvalidConfig("initial_temperature must be > 0".into()));
        }
        if !(0.0 < self.cooling && self.cooling < 1.0) {
            return Err(ArcsError::InvalidConfig("cooling must be in (0, 1)".into()));
        }
        if self.steps == 0 {
            return Err(ArcsError::InvalidConfig("steps must be > 0".into()));
        }
        Ok(())
    }
}

/// State in the lattice: a support index and a confidence index within
/// that support level's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct State {
    si: usize,
    ci: usize,
}

fn thresholds_at(lattice: &ThresholdLattice, state: State) -> Result<Thresholds, ArcsError> {
    let s = lattice.supports()[state.si];
    let confs = lattice.confidences_for(state.si);
    let c = confs[state.ci.min(confs.len() - 1)];
    Thresholds::new((s - 1e-12).max(0.0), (c - 1e-12).max(0.0))
}

/// Runs simulated annealing over the threshold lattice. Cost of a state
/// with no clusters is treated as `+inf` so the search never settles on an
/// empty segmentation. Returns [`ArcsError::NoSegmentation`] when no
/// visited state produced any cluster.
pub fn anneal(
    array: &BinArray,
    gk: u32,
    config: &AnnealConfig,
) -> Result<OptimizeResult, ArcsError> {
    config.validate()?;
    let lattice = ThresholdLattice::build(array, gk);
    if lattice.is_empty() {
        return Err(ArcsError::NoSegmentation);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);

    // States with no clusters, or below the optimizer's recall guard,
    // cost +inf so the walk never settles on a degenerate segmentation.
    let cost_of = |e: &Evaluation| -> f64 {
        if e.clusters.is_empty() || e.errors.recall() < MIN_GROUP_RECALL {
            f64::INFINITY
        } else {
            e.score.cost
        }
    };

    // Start at the lowest support, lowest confidence — the same corner the
    // §3.7 heuristic starts from.
    let mut state = State { si: 0, ci: 0 };
    let mut current = evaluate(array, gk, thresholds_at(&lattice, state)?, &config.optimizer)?;
    let mut trace = vec![current.clone()];
    let mut best: Option<Evaluation> = cost_of(&current).is_finite().then(|| current.clone());
    let mut best_any: Option<Evaluation> = (!current.clusters.is_empty()).then(|| current.clone());

    let mut temperature = config.initial_temperature;
    for _ in 0..config.steps {
        // Propose a single-step move along one axis.
        let next = propose(&lattice, state, &mut rng);
        if next != state {
            let eval = evaluate(array, gk, thresholds_at(&lattice, next)?, &config.optimizer)?;
            trace.push(eval.clone());
            let delta = cost_of(&eval) - cost_of(&current);
            let accept = delta <= 0.0
                || (delta.is_finite() && rng.gen::<f64>() < (-delta / temperature).exp());
            if accept {
                state = next;
                current = eval.clone();
            }
            if !eval.clusters.is_empty()
                && best_any.as_ref().is_none_or(|b| eval.score.cost < b.score.cost)
            {
                best_any = Some(eval.clone());
            }
            let improves = cost_of(&eval).is_finite()
                && best.as_ref().is_none_or(|b| eval.score.cost < b.score.cost);
            if improves {
                best = Some(eval);
            }
        }
        temperature *= config.cooling;
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

fn propose(lattice: &ThresholdLattice, state: State, rng: &mut StdRng) -> State {
    let n_supports = lattice.supports().len();
    let move_support = rng.gen_bool(0.5);
    if move_support && n_supports > 1 {
        let si = if rng.gen_bool(0.5) {
            state.si.saturating_sub(1)
        } else {
            (state.si + 1).min(n_supports - 1)
        };
        // Keep the confidence index valid for the new support level.
        let ci = state.ci.min(lattice.confidences_for(si).len() - 1);
        State { si, ci }
    } else {
        let n_confs = lattice.confidences_for(state.si).len();
        if n_confs <= 1 {
            return state;
        }
        let ci = if rng.gen_bool(0.5) {
            state.ci.saturating_sub(1)
        } else {
            (state.ci + 1).min(n_confs - 1)
        };
        State { si: state.si, ci }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_core::Binner;
    use arcs_data::schema::{Attribute, Schema};
    use arcs_data::{Tuple, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("g", ["A", "other"]),
        ])
        .unwrap()
    }

    fn blocky_dataset() -> Vec<Tuple> {
        let mut ds = Vec::new();
        for ix in 0..10 {
            for iy in 0..10 {
                let x = ix as f64 + 0.5;
                let y = iy as f64 + 0.5;
                let in_block = (2..5).contains(&ix) && (2..5).contains(&iy);
                let (n_a, n_other) = if in_block { (20, 2) } else { (0, 5) };
                for _ in 0..n_a {
                    ds.push(Tuple::new(vec![Value::Quant(x), Value::Quant(y), Value::Cat(0)]));
                }
                for _ in 0..n_other {
                    ds.push(Tuple::new(vec![Value::Quant(x), Value::Quant(y), Value::Cat(1)]));
                }
            }
        }
        ds
    }

    fn setup() -> (Vec<Tuple>, Binner) {
        let ds = blocky_dataset();
        let b = Binner::equi_width(&schema(), "x", "y", "g", 10, 10).unwrap();
        (ds, b)
    }

    #[test]
    fn anneal_finds_the_block() {
        let (ds, b) = setup();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let config = AnnealConfig {
            optimizer: OptimizerConfig {
                bitop: arcs_core::BitOpConfig::no_pruning(),
                ..OptimizerConfig::default()
            },
            steps: 50,
            ..AnnealConfig::default()
        };
        let result = anneal(&ba, 0, &config).unwrap();
        assert_eq!(result.best.clusters.len(), 1);
        let rect = result.best.clusters[0];
        assert_eq!((rect.x0, rect.y0, rect.x1, rect.y1), (2, 2, 4, 4));
    }

    #[test]
    fn anneal_is_deterministic_per_seed() {
        let (ds, b) = setup();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let config = AnnealConfig { steps: 30, ..AnnealConfig::default() };
        let a = anneal(&ba, 0, &config).unwrap();
        let b2 = anneal(&ba, 0, &config).unwrap();
        assert_eq!(a.best, b2.best);
        assert_eq!(a.trace.len(), b2.trace.len());
    }

    #[test]
    fn anneal_validates_config() {
        let (ds, b) = setup();
        let ba = b.bin_rows(ds.iter()).unwrap();
        for bad in [
            AnnealConfig { initial_temperature: 0.0, ..AnnealConfig::default() },
            AnnealConfig { cooling: 1.0, ..AnnealConfig::default() },
            AnnealConfig { cooling: 0.0, ..AnnealConfig::default() },
            AnnealConfig { steps: 0, ..AnnealConfig::default() },
        ] {
            assert!(anneal(&ba, 0, &bad).is_err());
        }
    }

    #[test]
    fn anneal_errors_on_empty_array() {
        let (_, b) = setup();
        let ba = b.new_bin_array().unwrap();
        assert_eq!(
            anneal(&ba, 0, &AnnealConfig::default()).unwrap_err(),
            ArcsError::NoSegmentation
        );
    }

    #[test]
    fn anneal_matches_heuristic_on_easy_data() {
        // On a clean single-block dataset both searches should find the
        // same (unique) optimum. The hill climb's sample is every tuple,
        // so both verify against the same counts.
        let (ds, b) = setup();
        let ba = b.bin_rows(ds.iter()).unwrap();
        let every: Vec<&Tuple> = ds.iter().collect();
        let opt_config = OptimizerConfig {
            bitop: arcs_core::BitOpConfig::no_pruning(),
            ..OptimizerConfig::default()
        };
        let heuristic = arcs_core::optimize(&ba, 0, &b, &every, &opt_config).unwrap();
        let annealed = anneal(
            &ba,
            0,
            &AnnealConfig { optimizer: opt_config, steps: 50, ..AnnealConfig::default() },
        )
        .unwrap();
        assert_eq!(heuristic.best.clusters, annealed.best.clusters);
    }
}
