//! The end-to-end ARCS pipeline (paper Figure 2).
//!
//! Wires together binner → association rule engine → clustering
//! (smooth + BitOp + prune) → verifier → heuristic optimizer, and decodes
//! the winning clusters into user-facing [`ClusteredRule`]s.
//!
//! The entry points are the session constructors — [`Arcs::open`],
//! [`Arcs::open_stream`] and [`Arcs::open_binned`] — which bin once and
//! return a [`Session`](crate::session::Session) for mining, re-mining,
//! and re-clustering.

use arcs_data::{Dataset, Schema};

use crate::binner::{Binner, BinningStrategy};
use crate::binning::BinMap;
use crate::cluster::{ClusteredRule, Rect};
use crate::engine::Thresholds;
use crate::error::ArcsError;
use crate::mdl::MdlScore;
use crate::optimizer::OptimizerConfig;
use crate::verify::ErrorCounts;

/// Configuration of the whole ARCS system.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcsConfig {
    /// Number of x-attribute bins (the paper presets 50, §3.7).
    pub n_x_bins: usize,
    /// Number of y-attribute bins.
    pub n_y_bins: usize,
    /// Binning strategy for the LHS attributes.
    pub strategy: BinningStrategy,
    /// The heuristic optimizer's parameters (smoothing, BitOp, MDL, budget).
    pub optimizer: OptimizerConfig,
    /// Verification sample size (capped at the dataset size).
    pub sample_size: usize,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Worker threads for the binning pass (sharded bin arrays merged
    /// deterministically). Defaults to the machine's available
    /// parallelism; the optimizer's search parallelism is configured
    /// separately via [`OptimizerConfig::threads`].
    pub threads: usize,
    /// When the optimizer finds no segmentation, walk the degradation
    /// ladder (floor thresholds, then disable smoothing, then disable
    /// pruning) instead of failing. The resulting [`Segmentation`] is
    /// marked [`degraded`](Segmentation::degraded). Disable for strict
    /// paper-faithful behaviour.
    pub degrade_on_no_segmentation: bool,
    /// Memory budget in bytes for the bin array. `None` (the default)
    /// only guards against address-space overflow. With a budget set,
    /// the resource governor halves the larger bin axis until the grid
    /// fits (marking the session's segmentations degraded), and refuses
    /// admission with [`ArcsError::BudgetExceeded`] when even the
    /// coarsest useful grid cannot fit.
    pub memory_budget: Option<usize>,
}

impl Default for ArcsConfig {
    fn default() -> Self {
        ArcsConfig {
            n_x_bins: 50,
            n_y_bins: 50,
            strategy: BinningStrategy::EquiWidth,
            optimizer: OptimizerConfig::default(),
            sample_size: 2_000,
            seed: 0,
            threads: crate::metrics::default_threads(),
            degrade_on_no_segmentation: true,
            memory_budget: None,
        }
    }
}

/// The final output of ARCS: a segmentation of the attribute space for one
/// criterion group.
#[derive(Debug, Clone, PartialEq)]
pub struct Segmentation {
    /// The clustered association rules, decoded to attribute value ranges.
    pub rules: Vec<ClusteredRule>,
    /// The cluster rectangles in bin coordinates.
    pub clusters: Vec<Rect>,
    /// The thresholds the optimizer settled on.
    pub thresholds: Thresholds,
    /// MDL score of the winning segmentation.
    pub score: MdlScore,
    /// Verification errors of the winning segmentation on the sample.
    pub errors: ErrorCounts,
    /// Number of tuples binned.
    pub n_tuples: u64,
    /// Number of (support, confidence) evaluations the optimizer ran.
    pub evaluations: usize,
    /// Whether the result came from the degradation ladder rather than
    /// the normal threshold search.
    pub degraded: bool,
    /// The relaxation steps tried, in order, when `degraded` — the last
    /// entry is the one that produced this segmentation. Empty otherwise.
    pub relaxation_steps: Vec<String>,
}

/// Per-group segmentation outcomes from
/// [`Session::segment_all`](crate::session::Session::segment_all): one
/// `(group label, result)` entry per criterion value.
pub type GroupSegmentations = Vec<(String, Result<Segmentation, ArcsError>)>;

/// The configured ARCS system.
#[derive(Debug, Clone, PartialEq)]
pub struct Arcs {
    config: ArcsConfig,
}

impl Arcs {
    /// Creates the system with the given configuration.
    pub fn new(config: ArcsConfig) -> Result<Self, ArcsError> {
        if config.n_x_bins == 0 || config.n_y_bins == 0 {
            return Err(ArcsError::InvalidConfig("bin counts must be positive".into()));
        }
        if config.sample_size == 0 {
            return Err(ArcsError::InvalidConfig("sample_size must be positive".into()));
        }
        if config.threads == 0 {
            return Err(ArcsError::InvalidConfig("threads must be positive".into()));
        }
        Ok(Arcs { config })
    }

    /// Creates the system with the paper's default configuration.
    pub fn with_defaults() -> Self {
        Arcs { config: ArcsConfig::default() }
    }

    /// The active configuration.
    pub fn config(&self) -> &ArcsConfig {
        &self.config
    }

    /// Builds the binner for `(x_attr, y_attr, criterion_attr)`, realising
    /// the configured binning strategy at the bin counts the (possibly
    /// budget-coarsened) `plan` settled on. Equi-depth and homogeneity
    /// need the data columns, hence the optional `dataset`.
    pub(crate) fn build_binner(
        &self,
        schema: &Schema,
        x_attr: &str,
        y_attr: &str,
        criterion_attr: &str,
        dataset: Option<&Dataset>,
        plan: &crate::budget::BinPlan,
    ) -> Result<Binner, ArcsError> {
        let (n_x_bins, n_y_bins) = (plan.nx, plan.ny);
        match self.config.strategy {
            BinningStrategy::EquiWidth => {
                Binner::equi_width(schema, x_attr, y_attr, criterion_attr, n_x_bins, n_y_bins)
            }
            BinningStrategy::EquiDepth => {
                let ds = dataset.ok_or_else(|| {
                    ArcsError::InvalidConfig(
                        "equi-depth binning requires in-memory data (use Arcs::open)".into(),
                    )
                })?;
                let x_col = ds.quant_column(schema.require(x_attr)?)?;
                let y_col = ds.quant_column(schema.require(y_attr)?)?;
                let x_map = BinMap::equi_depth(&x_col, n_x_bins)?;
                let y_map = BinMap::equi_depth(&y_col, n_y_bins)?;
                Binner::with_maps(schema, x_attr, y_attr, criterion_attr, x_map, y_map)
            }
            BinningStrategy::Homogeneity { tolerance } => {
                let ds = dataset.ok_or_else(|| {
                    ArcsError::InvalidConfig(
                        "homogeneity binning requires in-memory data (use Arcs::open)".into(),
                    )
                })?;
                let x_col = ds.quant_column(schema.require(x_attr)?)?;
                let y_col = ds.quant_column(schema.require(y_attr)?)?;
                let x_map = BinMap::homogeneity(&x_col, n_x_bins, tolerance)?;
                let y_map = BinMap::homogeneity(&y_col, n_y_bins, tolerance)?;
                Binner::with_maps(schema, x_attr, y_attr, criterion_attr, x_map, y_map)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SegmentRequest;
    use arcs_data::agrawal::{self, AgrawalFunction};
    use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};
    use arcs_data::schema::Attribute;
    use arcs_data::Value;

    fn small_schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("g", ["A", "other"]),
        ])
        .unwrap()
    }

    fn blocky_dataset() -> Dataset {
        let mut ds = Dataset::new(small_schema());
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

    fn small_config() -> ArcsConfig {
        ArcsConfig {
            n_x_bins: 10,
            n_y_bins: 10,
            optimizer: OptimizerConfig {
                bitop: crate::bitop::BitOpConfig::no_pruning(),
                ..OptimizerConfig::default()
            },
            ..ArcsConfig::default()
        }
    }

    /// One-shot session segment: open, then run the threshold search.
    fn segment_once(
        arcs: &Arcs,
        ds: &Dataset,
        x: &str,
        y: &str,
        criterion: &str,
        group: &str,
    ) -> Result<Segmentation, ArcsError> {
        arcs.open(ds, SegmentRequest::new(x, y, criterion).group(group))?.segment()
    }

    #[test]
    fn segments_the_blocky_dataset() {
        let ds = blocky_dataset();
        let arcs = Arcs::new(small_config()).unwrap();
        let seg = segment_once(&arcs, &ds, "x", "y", "g", "A").unwrap();
        assert_eq!(seg.clusters.len(), 1);
        assert_eq!(seg.rules.len(), 1);
        let rule = &seg.rules[0];
        assert_eq!(rule.x_range, (2.0, 5.0));
        assert_eq!(rule.y_range, (2.0, 5.0));
        assert_eq!(rule.group_label, "A");
        assert!(rule.confidence > 0.85);
        assert!(rule.support > 0.0);
        assert_eq!(seg.n_tuples, ds.len() as u64);
        assert!(seg.evaluations > 0);
    }

    #[test]
    fn unknown_labels_and_attrs_error() {
        let ds = blocky_dataset();
        let arcs = Arcs::new(small_config()).unwrap();
        assert!(matches!(
            segment_once(&arcs, &ds, "x", "y", "g", "Z"),
            Err(ArcsError::UnknownGroup(_))
        ));
        assert!(segment_once(&arcs, &ds, "x", "y", "missing", "A").is_err());
        assert!(segment_once(&arcs, &ds, "missing", "y", "g", "A").is_err());
    }

    #[test]
    fn empty_dataset_errors() {
        let ds = Dataset::new(small_schema());
        let arcs = Arcs::new(small_config()).unwrap();
        assert!(segment_once(&arcs, &ds, "x", "y", "g", "A").is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Arcs::new(ArcsConfig { n_x_bins: 0, ..ArcsConfig::default() }).is_err());
        assert!(Arcs::new(ArcsConfig { sample_size: 0, ..ArcsConfig::default() }).is_err());
    }

    #[test]
    fn stream_and_dataset_agree() {
        let ds = blocky_dataset();
        let arcs = Arcs::new(small_config()).unwrap();
        let from_ds = segment_once(&arcs, &ds, "x", "y", "g", "A").unwrap();
        // Stream the same tuples; use the full dataset as the sample.
        let from_stream = arcs
            .open_stream(
                ds.schema(),
                ds.iter().cloned(),
                SegmentRequest::new("x", "y", "g").group("A"),
                &ds,
            )
            .unwrap()
            .segment()
            .unwrap();
        assert_eq!(from_ds.clusters, from_stream.clusters);
    }

    #[test]
    fn equi_depth_strategy_works_in_memory() {
        let ds = blocky_dataset();
        let config = ArcsConfig { strategy: BinningStrategy::EquiDepth, ..small_config() };
        let arcs = Arcs::new(config).unwrap();
        let seg = segment_once(&arcs, &ds, "x", "y", "g", "A").unwrap();
        assert!(!seg.clusters.is_empty());
    }

    #[test]
    fn homogeneity_strategy_works_in_memory() {
        let ds = blocky_dataset();
        // Homogeneity binning can merge to very few (wide) bins; disable
        // smoothing so a one-bin-wide qualifying column is not eroded by
        // the low-pass filter before clustering.
        let mut config = ArcsConfig {
            strategy: BinningStrategy::Homogeneity { tolerance: 0.05 },
            ..small_config()
        };
        config.optimizer.smoothing = crate::smooth::SmoothConfig::disabled();
        let arcs = Arcs::new(config).unwrap();
        let seg = segment_once(&arcs, &ds, "x", "y", "g", "A").unwrap();
        assert!(!seg.clusters.is_empty());
        // The block must be identified despite data-driven bin edges.
        assert!(seg.errors.recall() > 0.8, "recall {}", seg.errors.recall());
    }

    #[test]
    fn equi_depth_strategy_rejected_for_streams() {
        let ds = blocky_dataset();
        let config = ArcsConfig { strategy: BinningStrategy::EquiDepth, ..small_config() };
        let arcs = Arcs::new(config).unwrap();
        let err = arcs
            .open_stream(
                ds.schema(),
                ds.iter().cloned(),
                SegmentRequest::new("x", "y", "g").group("A"),
                &ds,
            )
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ArcsError::InvalidConfig(_)));
    }

    #[test]
    fn segment_all_groups_shares_one_binning() {
        let ds = blocky_dataset();
        let arcs = Arcs::new(small_config()).unwrap();
        let all =
            arcs.open(&ds, SegmentRequest::new("x", "y", "g")).unwrap().segment_all().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "A");
        assert_eq!(all[1].0, "other");
        let seg_a = all[0].1.as_ref().unwrap();
        assert_eq!(seg_a.clusters.len(), 1);
        // Must agree with the single-group entry point.
        let direct = segment_once(&arcs, &ds, "x", "y", "g", "A").unwrap();
        assert_eq!(seg_a.clusters, direct.clusters);
        // The complement group segments too (it covers the background).
        let seg_other = all[1].1.as_ref().unwrap();
        assert!(!seg_other.clusters.is_empty());
    }

    #[test]
    fn normal_segmentations_are_not_degraded() {
        let ds = blocky_dataset();
        let arcs = Arcs::new(small_config()).unwrap();
        let seg = segment_once(&arcs, &ds, "x", "y", "g", "A").unwrap();
        assert!(!seg.degraded);
        assert!(seg.relaxation_steps.is_empty());
    }

    /// A dataset whose only group-A mass sits in one grid cell while the
    /// pruner demands clusters of at least four cells: every point in the
    /// threshold lattice clusters to nothing, so only the degradation
    /// ladder (which disables pruning as its last step) can produce a
    /// segmentation.
    fn speck_dataset() -> Dataset {
        let mut ds = Dataset::new(small_schema());
        for _ in 0..30 {
            ds.push(vec![Value::Quant(5.5), Value::Quant(5.5), Value::Cat(0)]).unwrap();
        }
        for ix in 0..10 {
            for iy in 0..10 {
                for _ in 0..3 {
                    ds.push(vec![
                        Value::Quant(ix as f64 + 0.5),
                        Value::Quant(iy as f64 + 0.5),
                        Value::Cat(1),
                    ])
                    .unwrap();
                }
            }
        }
        ds
    }

    fn strict_pruning_config() -> ArcsConfig {
        let mut config = small_config();
        // 3.5% of the 10x10 grid: clusters need at least 4 cells.
        config.optimizer.bitop = crate::bitop::BitOpConfig { min_area_fraction: 0.035, threads: 1 };
        config
    }

    #[test]
    fn degradation_ladder_rescues_no_segmentation() {
        let ds = speck_dataset();
        let arcs = Arcs::new(strict_pruning_config()).unwrap();
        let seg = segment_once(&arcs, &ds, "x", "y", "g", "A").unwrap();
        assert!(seg.degraded);
        assert_eq!(
            seg.relaxation_steps,
            vec!["floor-thresholds", "disable-smoothing", "disable-pruning"]
        );
        assert!(!seg.clusters.is_empty());
        assert!(seg.clusters.iter().any(|r| r.contains(5, 5)));
    }

    #[test]
    fn degradation_can_be_disabled() {
        let ds = speck_dataset();
        let mut config = strict_pruning_config();
        config.degrade_on_no_segmentation = false;
        let arcs = Arcs::new(config).unwrap();
        assert!(matches!(
            segment_once(&arcs, &ds, "x", "y", "g", "A"),
            Err(ArcsError::NoSegmentation)
        ));
    }

    #[test]
    fn ladder_cannot_conjure_rules_from_an_absent_group() {
        // No group-A tuple at all: even the fully relaxed ladder must
        // report NoSegmentation rather than invent clusters.
        let mut ds = Dataset::new(small_schema());
        for i in 0..100 {
            ds.push(vec![
                Value::Quant((i % 10) as f64 + 0.5),
                Value::Quant((i / 10) as f64 + 0.5),
                Value::Cat(1),
            ])
            .unwrap();
        }
        let arcs = Arcs::new(small_config()).unwrap();
        assert!(matches!(
            segment_once(&arcs, &ds, "x", "y", "g", "A"),
            Err(ArcsError::NoSegmentation)
        ));
    }

    #[test]
    fn open_binned_matches_open() {
        let ds = blocky_dataset();
        let arcs = Arcs::new(small_config()).unwrap();
        let direct = segment_once(&arcs, &ds, "x", "y", "g", "A").unwrap();

        // The checkpoint/resume path: a prefix binned elsewhere (as a
        // snapshot would hold it), the remaining rows appended.
        let half = ds.len() / 2;
        let binner = Binner::equi_width(ds.schema(), "x", "y", "g", 10, 10).unwrap();
        let prefix = binner.bin_rows(&ds.rows()[..half]).unwrap();
        let mut session = arcs
            .open_binned(&ds, Some(prefix), SegmentRequest::new("x", "y", "g").group("A"))
            .unwrap();
        session.append_rows(&ds.rows()[half..]).unwrap();
        let seg = session.segment().unwrap();
        assert_eq!(seg.clusters, direct.clusters);
        assert_eq!(seg.thresholds, direct.thresholds);
    }

    /// The paper's headline qualitative result (§4.2): on Function 2 data
    /// ARCS recovers three clustered rules closely matching the generating
    /// disjuncts.
    #[test]
    fn recovers_f2_disjuncts() {
        let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(2024)).unwrap();
        let ds = gen.generate(20_000);
        let arcs = Arcs::with_defaults();
        let seg = segment_once(&arcs, &ds, "age", "salary", "group", "A").unwrap();
        assert_eq!(
            seg.rules.len(),
            3,
            "expected the three F2 disjuncts, got: {:#?}",
            seg.rules.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        // Each recovered rule should match one true region with tolerant
        // boundaries (binning granularity: 60/50 = 1.2 years, 2.6k salary).
        let regions = agrawal::f2_regions();
        for region in &regions {
            let matched = seg.rules.iter().any(|r| {
                (r.x_range.0 - region.x_lo).abs() <= 3.0
                    && (r.x_range.1 - region.x_hi).abs() <= 3.0
                    && (r.y_range.0 - region.y_lo).abs() <= 8_000.0
                    && (r.y_range.1 - region.y_hi).abs() <= 8_000.0
            });
            assert!(
                matched,
                "no rule matches region {region:?}; rules: {:#?}",
                seg.rules.iter().map(ToString::to_string).collect::<Vec<_>>()
            );
        }
        let _ = AgrawalFunction::F2;
    }
}
