//! # ARCS — Association Rule Clustering System
//!
//! A Rust reproduction of **Lent, Swami, Widom — "Clustering Association
//! Rules", ICDE 1997**: mine two-dimensional association rules over binned
//! data in a single pass, cluster them into rectangular regions with the
//! BitOp algorithm, and tune support/confidence thresholds against an MDL
//! quality measure to segment a database.
//!
//! This crate is a facade re-exporting the three library crates:
//!
//! * [`data`] ([`arcs_data`]) — schemas, tuples, datasets, the Agrawal
//!   synthetic workload generator, CSV I/O, sampling;
//! * [`core`] ([`arcs_core`]) — binning, the `BinArray`, the rule engine,
//!   BitOp, smoothing, MDL, the optimizer, the session API, and the
//!   end-to-end pipeline;
//! * [`classifier`] ([`arcs_classifier`]) — the C4.5-style baseline used
//!   in the paper's evaluation.
//!
//! ## Quickstart
//!
//! Open a [`Session`](arcs_core::Session): it bins the data once (in
//! parallel) and then mines, re-mines, and re-clusters against the binned
//! counts alone — the paper's §3.2 "instant re-mining".
//!
//! ```
//! use arcs::prelude::*;
//!
//! // The paper's synthetic workload: Agrawal Function 2, 40% "Group A",
//! // 5% perturbation.
//! let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(42)).unwrap();
//! let dataset = gen.generate(10_000);
//!
//! // Bin once; the session owns everything it needs from the data.
//! let arcs = Arcs::with_defaults();
//! let mut session = arcs
//!     .open(&dataset, SegmentRequest::new("age", "salary", "group").group("A"))
//!     .unwrap();
//!
//! // Segment the (age, salary) space for Group A: ARCS recovers the
//! // three generating disjuncts (paper §4.2).
//! let segmentation = session.segment().unwrap();
//! assert_eq!(segmentation.rules.len(), 3);
//! for rule in &segmentation.rules {
//!     println!("{rule}");
//! }
//!
//! // Re-mine at explicit thresholds without touching the dataset again,
//! // and inspect where the time went.
//! let rules = session.remine(Thresholds::new(0.0, 0.5).unwrap()).unwrap();
//! assert!(!rules.is_empty());
//! println!("{}", session.report().to_json());
//! ```

pub use arcs_classifier as classifier;
pub use arcs_core as core;
pub use arcs_data as data;

/// The most commonly used types, re-exported flat and grouped by layer.
pub mod prelude {
    // --- data: schemas, datasets, ingest, and the synthetic workload ---
    pub use arcs_data::agrawal::AgrawalFunction;
    pub use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};
    pub use arcs_data::{
        AttrKind, Attribute, DataError, Dataset, IngestIssue, IngestPolicy, IngestReport,
        IssueKind, Schema, Tuple, Value,
    };

    // --- core: the session API and the pipeline it drives ---
    pub use arcs_core::{Arcs, ArcsConfig, ArcsError, SegmentRequest, Segmentation, Session};

    // --- core: pipeline stages, for driving the pieces directly ---
    pub use arcs_core::{
        BinArray, BinMap, BinnedRule, Binner, BinningStrategy, BitOpConfig, ClusteredRule,
        ErrorCounts, Grid, MdlScore, MdlWeights, OptimizerConfig, Rect, SmoothConfig,
        Thresholds,
    };

    // --- core: observability — stage timings, counters, reports ---
    pub use arcs_core::{Observer, PipelineCounters, PipelineReport, Stage, StageTimings};

    // --- core: the fault-tolerant concurrent serving layer ---
    pub use arcs_core::{
        AdmissionGate, ClusterSpec, QueryRequest, QueryResponse, QueryResult, ServeConfig,
        Server, ServerStats, Snapshot, SnapshotStore,
    };

    // --- classifier: the paper's C4.5-style evaluation baseline ---
    pub use arcs_classifier::{
        DecisionTree, RuleSet, RulesConfig, SliqConfig, SliqTree, TreeConfig,
    };
}
