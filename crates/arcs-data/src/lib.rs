//! # arcs-data
//!
//! Data substrate for the ARCS reproduction (Lent, Swami, Widom —
//! *Clustering Association Rules*, ICDE 1997): schemas, tuples, in-memory
//! datasets, the Agrawal et al. synthetic workload generator the paper
//! evaluates on, CSV I/O, sampling, and descriptive statistics.
//!
//! ## Quick tour
//!
//! ```
//! use arcs_data::agrawal::{attr, AgrawalFunction};
//! use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};
//!
//! // The paper's workload: Function 2, 40% Group A, 5% perturbation.
//! let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(42)).unwrap();
//! let dataset = gen.generate(1_000);
//! assert_eq!(dataset.len(), 1_000);
//! let ages = dataset.quant(attr::AGE).unwrap();
//! assert!(ages.iter().all(|a| (20.0..=80.0).contains(a)));
//! # let _ = AgrawalFunction::F2;
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agrawal;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod generator;
pub mod ingest;
pub mod sample;
pub mod schema;
pub mod stats;
pub mod transform;
pub mod tuple;

pub use dataset::{Dataset, Rows};
pub use error::DataError;
pub use ingest::{IngestIssue, IngestPolicy, IngestReport, IssueKind};
pub use schema::{AttrKind, Attribute, Schema};
pub use tuple::{Tuple, Value};
