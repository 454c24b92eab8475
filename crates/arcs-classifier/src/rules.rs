//! C4.5RULES-style rule extraction.
//!
//! The paper compares the *number of rules* and accuracy of ARCS clustered
//! rules against the generalized rules C4.5RULES derives from a C4.5 tree
//! (its §4.2, Figures 13/14). This module implements the published
//! procedure in simplified form:
//!
//! 1. every root-to-leaf path becomes a conjunctive rule;
//! 2. each rule is *generalized* by greedily dropping conditions whose
//!    removal does not worsen the rule's pessimistic error rate on the
//!    training data;
//! 3. duplicate rules are merged, rules are ordered by pessimistic
//!    accuracy, and a default class (the majority among training tuples
//!    not covered by any rule) completes the set.

use arcs_data::Dataset;

use crate::error::ClassifierError;
use crate::row::{Columns, Row};
use crate::tree::{error_rate, pessimistic_errors, DecisionTree, Node, SplitTest};

/// One atomic condition on an attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `value <= threshold` on a quantitative attribute.
    LessEq {
        /// Attribute position.
        attr: usize,
        /// Threshold.
        threshold: f64,
    },
    /// `value > threshold` on a quantitative attribute.
    Greater {
        /// Attribute position.
        attr: usize,
        /// Threshold.
        threshold: f64,
    },
    /// `value = code` on a categorical attribute.
    Equals {
        /// Attribute position.
        attr: usize,
        /// Category code.
        code: u32,
    },
}

impl Condition {
    /// Whether `row` satisfies the condition.
    pub fn matches(&self, row: &impl Row) -> bool {
        match self {
            Condition::LessEq { attr, threshold } => row.quant(*attr) <= *threshold,
            Condition::Greater { attr, threshold } => row.quant(*attr) > *threshold,
            Condition::Equals { attr, code } => row.cat(*attr) == *code,
        }
    }
}

/// A conjunctive classification rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Conjoined conditions (empty = always matches).
    pub conditions: Vec<Condition>,
    /// Predicted class code.
    pub class: u32,
    /// Pessimistic error rate on the training data (used for ordering).
    pub pessimistic_error_rate: f64,
}

impl Rule {
    /// Whether the rule's LHS covers `row`.
    pub fn covers(&self, row: &impl Row) -> bool {
        self.conditions.iter().all(|c| c.matches(row))
    }
}

/// An ordered rule list with a default class.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet {
    /// Rules in decreasing reliability order.
    pub rules: Vec<Rule>,
    /// Class predicted when no rule covers a tuple.
    pub default_class: u32,
    target: usize,
}

/// Extraction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RulesConfig {
    /// Confidence factor for the pessimistic estimates (C4.5's default 0.25).
    pub confidence: f64,
    /// Cap on the training tuples used to evaluate condition drops during
    /// generalization (a strided subsample keeps extraction near-linear on
    /// large training sets; Quinlan's implementation uses incremental
    /// bookkeeping to the same end).
    pub max_eval_tuples: usize,
}

impl Default for RulesConfig {
    fn default() -> Self {
        RulesConfig { confidence: 0.25, max_eval_tuples: 4_000 }
    }
}

impl RuleSet {
    /// Extracts and generalizes rules from a trained tree against its
    /// training data.
    pub fn from_tree(
        tree: &DecisionTree,
        training: &Dataset,
        config: RulesConfig,
    ) -> Result<Self, ClassifierError> {
        if !(0.0 < config.confidence && config.confidence <= 1.0) {
            return Err(ClassifierError::InvalidConfig(format!(
                "confidence {} outside (0, 1]",
                config.confidence
            )));
        }
        if training.is_empty() {
            return Err(ClassifierError::EmptyTrainingSet);
        }
        if config.max_eval_tuples == 0 {
            return Err(ClassifierError::InvalidConfig("max_eval_tuples must be > 0".into()));
        }
        let target = tree.target();
        let mut paths = Vec::new();
        collect_paths(tree.root(), &mut Vec::new(), &mut paths);

        // Strided evaluation subsample for the generalization step.
        let columns = Columns::new(training);
        let stride = training.len().div_ceil(config.max_eval_tuples).max(1);
        let eval_rows: Vec<_> =
            (0..training.len()).step_by(stride).map(|r| columns.row(r)).collect();

        let mut rules: Vec<Rule> = Vec::new();
        for (conditions, class) in paths {
            let generalized = generalize(conditions, class, &eval_rows, target, config.confidence);
            if !rules
                .iter()
                .any(|r| r.conditions == generalized.conditions && r.class == generalized.class)
            {
                rules.push(generalized);
            }
        }
        // Order by reliability: lowest pessimistic error rate first; break
        // ties toward more specific rules (they fire first).
        rules.sort_by(|a, b| {
            a.pessimistic_error_rate
                .partial_cmp(&b.pessimistic_error_rate)
                .expect("finite")
                .then(b.conditions.len().cmp(&a.conditions.len()))
        });

        // Rule-subset selection (C4.5RULES's polishing step, greedy rather
        // than global-MDL): walk rules in reliability order, keeping one
        // only when its pessimistic error on the tuples it *newly* covers
        // beats handing those tuples to the global default class.
        let n_classes = tree.n_classes();
        let mut class_counts = vec![0usize; n_classes];
        for t in &eval_rows {
            class_counts[t.cat(target) as usize] += 1;
        }
        let global_majority = class_counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(i, _)| i as u32)
            .unwrap_or(0);
        let mut covered_by_kept = vec![false; eval_rows.len()];
        rules.retain(|rule| {
            let mut s_total = 0usize;
            let mut s_wrong = 0usize;
            let mut s_default_wrong = 0usize;
            let mut newly: Vec<usize> = Vec::new();
            for (i, t) in eval_rows.iter().enumerate() {
                if covered_by_kept[i] || !rule.covers(t) {
                    continue;
                }
                newly.push(i);
                s_total += 1;
                let class = t.cat(target);
                if class != rule.class {
                    s_wrong += 1;
                }
                if class != global_majority {
                    s_default_wrong += 1;
                }
            }
            if s_total == 0 {
                return false; // fully shadowed by earlier rules
            }
            let rule_pess = pessimistic_errors(s_wrong, s_total, config.confidence);
            if rule_pess < s_default_wrong as f64 {
                for i in newly {
                    covered_by_kept[i] = true;
                }
                true
            } else {
                false
            }
        });

        // Default class: majority among uncovered training tuples, falling
        // back to the global majority.

        let mut uncovered = vec![0usize; n_classes];
        let mut overall = vec![0usize; n_classes];
        for t in (0..training.len()).map(|r| columns.row(r)) {
            let class = t.cat(target) as usize;
            overall[class] += 1;
            if !rules.iter().any(|r| r.covers(&t)) {
                uncovered[class] += 1;
            }
        }
        let pick_max = |counts: &[usize]| -> u32 {
            counts.iter().enumerate().max_by_key(|&(_, c)| *c).map(|(i, _)| i as u32).unwrap_or(0)
        };
        let default_class = if uncovered.iter().any(|&c| c > 0) {
            pick_max(&uncovered)
        } else {
            pick_max(&overall)
        };

        Ok(RuleSet { rules, default_class, target })
    }

    /// Predicts the class of one row (a [`Tuple`](arcs_data::Tuple), say):
    /// the first covering rule wins, the default class otherwise.
    pub fn predict(&self, row: &impl Row) -> u32 {
        self.rules.iter().find(|r| r.covers(row)).map_or(self.default_class, |r| r.class)
    }

    /// Fraction of `dataset` rows the rule set misclassifies.
    pub fn error_rate(&self, dataset: &Dataset) -> f64 {
        error_rate(dataset, self.target, |row| self.predict(row))
    }

    /// Number of rules (excluding the default).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set has no explicit rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

fn collect_paths(node: &Node, prefix: &mut Vec<Condition>, out: &mut Vec<(Vec<Condition>, u32)>) {
    match node {
        Node::Leaf { class, n, .. } => {
            // Empty branches (n = 0) contribute nothing.
            if *n > 0 || prefix.is_empty() {
                out.push((prefix.clone(), *class));
            }
        }
        Node::Split { test, children, .. } => {
            for (branch, child) in children.iter().enumerate() {
                let condition = match test {
                    SplitTest::Threshold { attr, threshold } => {
                        if branch == 0 {
                            Condition::LessEq { attr: *attr, threshold: *threshold }
                        } else {
                            Condition::Greater { attr: *attr, threshold: *threshold }
                        }
                    }
                    SplitTest::Category { attr } => {
                        Condition::Equals { attr: *attr, code: branch as u32 }
                    }
                };
                prefix.push(condition);
                collect_paths(child, prefix, out);
                prefix.pop();
            }
        }
    }
}

fn pessimism_rate(errors: usize, covered: usize, cf: f64) -> f64 {
    if covered == 0 {
        return 1.0; // a rule covering nothing is maximally unreliable
    }
    pessimistic_errors(errors, covered, cf) / covered as f64
}

/// Greedy condition dropping (C4.5RULES's generalization step): while some
/// single condition can be removed without raising the pessimistic error
/// rate, remove the one whose removal lowers it most.
///
/// Incremental evaluation: one pass per round counts, for every tuple, how
/// many conditions fail and (when exactly one fails) which — dropping
/// condition `i` then adds exactly the tuples whose sole failing condition
/// is `i`. Each round is `O(tuples × conditions)` instead of re-scanning
/// per trial drop.
fn generalize(
    mut conditions: Vec<Condition>,
    class: u32,
    eval_rows: &[impl Row],
    target: usize,
    cf: f64,
) -> Rule {
    loop {
        let k = conditions.len();
        let mut covered = 0usize;
        let mut errors = 0usize;
        // Per condition: coverage and error gained by dropping just it.
        let mut gain_cover = vec![0usize; k];
        let mut gain_error = vec![0usize; k];
        for t in eval_rows {
            let mut failed = 0usize;
            let mut failed_idx = 0usize;
            for (i, c) in conditions.iter().enumerate() {
                if !c.matches(t) {
                    failed += 1;
                    if failed > 1 {
                        break;
                    }
                    failed_idx = i;
                }
            }
            let wrong = t.cat(target) != class;
            match failed {
                0 => {
                    covered += 1;
                    if wrong {
                        errors += 1;
                    }
                }
                1 => {
                    gain_cover[failed_idx] += 1;
                    if wrong {
                        gain_error[failed_idx] += 1;
                    }
                }
                _ => {}
            }
        }
        let current = pessimism_rate(errors, covered, cf);
        let mut best: Option<(usize, f64)> = None;
        for i in 0..k {
            let e = pessimism_rate(errors + gain_error[i], covered + gain_cover[i], cf);
            if e <= current && best.is_none_or(|(_, b)| e < b) {
                best = Some((i, e));
            }
        }
        match best {
            Some((i, _)) => {
                conditions.remove(i);
            }
            None => {
                return Rule { conditions, class, pessimistic_error_rate: current };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeConfig;
    use arcs_data::schema::{Attribute, Schema};
    use arcs_data::{Dataset, Tuple, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("class", ["a", "b"]),
        ])
        .unwrap()
    }

    /// class = a iff x <= 5; y is noise the tree may incidentally split on.
    fn threshold_dataset() -> Dataset {
        let mut ds = Dataset::new(schema());
        for i in 0..200 {
            let x = (i % 20) as f64 / 2.0;
            let y = ((i * 13 + 3) % 20) as f64 / 2.0;
            let class = u32::from(x > 5.0);
            ds.push(&[Value::Quant(x), Value::Quant(y), Value::Cat(class)]).unwrap();
        }
        ds
    }

    #[test]
    fn extracts_accurate_rules() {
        let ds = threshold_dataset();
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        let rules = RuleSet::from_tree(&tree, &ds, RulesConfig::default()).unwrap();
        assert!(!rules.is_empty());
        assert_eq!(rules.error_rate(&ds), 0.0);
    }

    #[test]
    fn generalization_drops_redundant_conditions() {
        // Hand-build an over-specific condition list: the y condition is
        // redundant for predicting class from x.
        let ds = threshold_dataset();
        let columns = Columns::new(&ds);
        let rows: Vec<_> = (0..ds.len()).map(|r| columns.row(r)).collect();
        let conditions = vec![
            Condition::LessEq { attr: 0, threshold: 5.0 },
            Condition::LessEq { attr: 1, threshold: 9.0 },
        ];
        let rule = generalize(conditions, 0, &rows, 2, 0.25);
        assert_eq!(
            rule.conditions,
            vec![Condition::LessEq { attr: 0, threshold: 5.0 }],
            "the noise condition should be dropped"
        );
    }

    #[test]
    fn rule_covers_and_predicts() {
        let rule = Rule {
            conditions: vec![
                Condition::Greater { attr: 0, threshold: 2.0 },
                Condition::Equals { attr: 2, code: 1 },
            ],
            class: 1,
            pessimistic_error_rate: 0.1,
        };
        let t = Tuple::new(vec![Value::Quant(3.0), Value::Quant(0.0), Value::Cat(1)]);
        assert!(rule.covers(&t));
        let t = Tuple::new(vec![Value::Quant(1.0), Value::Quant(0.0), Value::Cat(1)]);
        assert!(!rule.covers(&t));
        let t = Tuple::new(vec![Value::Quant(3.0), Value::Quant(0.0), Value::Cat(0)]);
        assert!(!rule.covers(&t));
    }

    #[test]
    fn default_class_handles_uncovered_tuples() {
        let ds = threshold_dataset();
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        let rules = RuleSet::from_tree(&tree, &ds, RulesConfig::default()).unwrap();
        // Every tuple gets *some* prediction, even with all conditions failing.
        let weird = Tuple::new(vec![Value::Quant(-100.0), Value::Quant(100.0), Value::Cat(0)]);
        let _ = rules.predict(&weird); // must not panic
    }

    #[test]
    fn fewer_or_equal_rules_than_leaves() {
        let ds = threshold_dataset();
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        let rules = RuleSet::from_tree(&tree, &ds, RulesConfig::default()).unwrap();
        assert!(rules.len() <= tree.n_leaves());
    }

    #[test]
    fn validates_inputs() {
        let ds = threshold_dataset();
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        assert!(RuleSet::from_tree(
            &tree,
            &ds,
            RulesConfig { confidence: 0.0, ..RulesConfig::default() }
        )
        .is_err());
        let empty = Dataset::new(schema());
        assert!(RuleSet::from_tree(&tree, &empty, RulesConfig::default()).is_err());
    }

    #[test]
    fn single_leaf_tree_yields_usable_rule_set() {
        // All tuples share one class: the tree is a single leaf, the rule
        // set degenerates to the unconditional rule / default class.
        let mut ds = Dataset::new(schema());
        for i in 0..50 {
            ds.push(&[Value::Quant(i as f64 / 5.0), Value::Quant(0.0), Value::Cat(1)]).unwrap();
        }
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        let rules = RuleSet::from_tree(&tree, &ds, RulesConfig::default()).unwrap();
        let probe = Tuple::new(vec![Value::Quant(1.0), Value::Quant(1.0), Value::Cat(0)]);
        assert_eq!(rules.predict(&probe), 1);
        assert_eq!(rules.error_rate(&ds), 0.0);
    }

    #[test]
    fn error_rate_of_empty_dataset_is_zero() {
        let ds = threshold_dataset();
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        let rules = RuleSet::from_tree(&tree, &ds, RulesConfig::default()).unwrap();
        let empty = Dataset::new(schema());
        assert_eq!(rules.error_rate(&empty), 0.0);
        assert_eq!(tree.error_rate(&empty), 0.0);
    }

    #[test]
    fn max_eval_tuples_zero_rejected() {
        let ds = threshold_dataset();
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        let bad = RulesConfig { max_eval_tuples: 0, ..RulesConfig::default() };
        assert!(RuleSet::from_tree(&tree, &ds, bad).is_err());
    }

    #[test]
    fn rules_ordered_by_reliability() {
        let ds = threshold_dataset();
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        let rules = RuleSet::from_tree(&tree, &ds, RulesConfig::default()).unwrap();
        for w in rules.rules.windows(2) {
            assert!(w[0].pessimistic_error_rate <= w[1].pessimistic_error_rate + 1e-12);
        }
    }
}
