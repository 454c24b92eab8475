//! # arcs-core
//!
//! Core of the ARCS reproduction (Lent, Swami, Widom — *Clustering
//! Association Rules*, ICDE 1997): binning, the `BinArray`, the one-pass
//! two-dimensional association rule engine, the BitOp geometric clustering
//! algorithm, grid smoothing, cluster pruning, the MDL quality measure,
//! the verifier, and the heuristic threshold optimizer — assembled into
//! the end-to-end pipeline of the paper's Figure 2.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binarray;
pub mod binner;
pub mod binning;
pub mod bitop;
pub mod budget;
pub mod categorical;
pub mod cluster;
pub mod engine;
pub mod error;
pub mod exec;
pub mod faults;
pub mod grid;
pub mod index;
pub mod jsonio;
pub mod mdl;
pub mod metrics;
pub mod optimizer;
pub mod pipeline;
pub mod render;
pub mod repl;
pub mod request;
pub mod select;
pub mod serve;
pub mod session;
pub mod smooth;
pub mod sql;
pub mod verify;
pub mod wal;

pub use binarray::BinArray;
pub use binner::{Binner, BinningStrategy};
pub use binning::BinMap;
pub use bitop::BitOpConfig;
pub use cluster::{ClusteredRule, Rect};
pub use engine::{mine_rules, mine_rules_indexed, BinnedRule, Thresholds};
pub use error::ArcsError;
pub use exec::{ExecPool, PoolStats, MAX_SHARD_RETRIES};
pub use grid::Grid;
pub use index::{DeltaMiner, GroupCell, OccupancyIndex};
pub use mdl::{mdl_cost, MdlScore, MdlWeights};
pub use metrics::{PipelineCounters, PipelineReport, RecoveryStats, Stage, StageTimings};
pub use optimizer::{optimize, OptimizerConfig, ThresholdLattice};
pub use pipeline::{Arcs, ArcsConfig, Segmentation};
pub use repl::{ReplMetrics, ShippedRecord};
pub use request::Request;
pub use serve::{
    AdmissionGate, ClusterSpec, QueryRequest, QueryResponse, QueryResult, ServeConfig, Server,
    ServerStats, Snapshot, SnapshotStore,
};
pub use session::{SegmentRequest, Session};
pub use smooth::{smooth_reference, SmoothConfig, SmoothStats};
pub use verify::ErrorCounts;
pub use wal::{CheckpointMeta, WalRecord, WalReplay, WalTail, WalWriter};
