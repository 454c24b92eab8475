//! # arcs-classifier
//!
//! The classification baseline for the ARCS reproduction (Lent, Swami,
//! Widom — *Clustering Association Rules*, ICDE 1997): a from-scratch
//! C4.5-style decision tree (gain-ratio splits, threshold splits on
//! continuous attributes, pessimistic-error pruning) and a
//! C4.5RULES-style rule extractor, used by the evaluation harness to
//! reproduce the paper's Figures 11–14 and Table 2 comparisons.
//!
//! ```
//! use arcs_classifier::{DecisionTree, RuleSet, RulesConfig, TreeConfig};
//! use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};
//!
//! let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(7)).unwrap();
//! let train = gen.generate(2_000);
//! let tree = DecisionTree::train(&train, "group", TreeConfig::default()).unwrap();
//! let rules = RuleSet::from_tree(&tree, &train, RulesConfig::default()).unwrap();
//! assert!(tree.error_rate(&train) < 0.2);
//! assert!(!rules.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod row;
pub mod rules;
pub mod tree;

pub use error::ClassifierError;
pub use row::Row;
pub use rules::{Condition, Rule, RuleSet, RulesConfig};
pub use tree::{DecisionTree, Node, SplitTest, TreeConfig};
