//! A C4.5-style decision-tree learner.
//!
//! The paper compares ARCS against Quinlan's C4.5 (its reference \[17\]).
//! Quinlan's C sources are not redistributable, so this is a from-scratch
//! implementation of the published algorithm:
//!
//! * **gain-ratio** split selection (information gain / split info),
//!   considering only splits whose gain is at least the average gain of
//!   the candidate set (C4.5's guard against high-ratio/low-gain splits);
//! * **binary threshold splits** on continuous attributes, with candidate
//!   thresholds at midpoints between adjacent distinct values;
//! * **multiway splits** on categorical attributes (one branch per value);
//! * **pessimistic error pruning** with the upper confidence bound of the
//!   binomial error estimate (default CF = 0.25, like C4.5).
//!
//! Like C4.5, the learner requires the entire training set in memory — the
//! property responsible for the paper's Figure 15 / Table 2 contrast with
//! ARCS' constant-memory streaming.

use arcs_data::schema::AttrKind;
use arcs_data::stats::entropy;
use arcs_data::Dataset;

use crate::error::ClassifierError;
use crate::row::{ColumnRow, Columns, Row};

/// Training parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Minimum number of tuples to attempt a split (C4.5's `-m`, default 2).
    pub min_split: usize,
    /// Maximum tree depth (safety bound; effectively unlimited by default).
    pub max_depth: usize,
    /// Pruning confidence factor in `(0, 1]`; smaller prunes harder
    /// (C4.5's `-c`, default 0.25). `None` disables pruning.
    pub confidence: Option<f64>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { min_split: 2, max_depth: 64, confidence: Some(0.25) }
    }
}

impl TreeConfig {
    fn validate(&self) -> Result<(), ClassifierError> {
        if self.min_split < 2 {
            return Err(ClassifierError::InvalidConfig("min_split must be >= 2".into()));
        }
        if self.max_depth == 0 {
            return Err(ClassifierError::InvalidConfig("max_depth must be > 0".into()));
        }
        if let Some(cf) = self.confidence {
            if !(0.0 < cf && cf <= 1.0) {
                return Err(ClassifierError::InvalidConfig(format!(
                    "confidence {cf} outside (0, 1]"
                )));
            }
        }
        Ok(())
    }
}

/// How an internal node routes tuples.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitTest {
    /// Continuous: left branch if `value <= threshold`, else right.
    Threshold {
        /// Attribute position in the schema.
        attr: usize,
        /// Split threshold.
        threshold: f64,
    },
    /// Categorical: branch `i` for category code `i`.
    Category {
        /// Attribute position in the schema.
        attr: usize,
    },
}

/// A tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A leaf predicting `class`; `n` training tuples reached it, `errors`
    /// of which had a different class.
    Leaf {
        /// Predicted class code.
        class: u32,
        /// Training tuples at this leaf.
        n: usize,
        /// Training tuples misclassified by this leaf.
        errors: usize,
    },
    /// An internal split node.
    Split {
        /// The routing test.
        test: SplitTest,
        /// Child nodes (2 for thresholds, one per category otherwise).
        children: Vec<Node>,
        /// Majority class at this node (used for empty branches).
        majority: u32,
    },
}

impl Node {
    /// Number of leaves under (and including) this node.
    pub fn n_leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { children, .. } => children.iter().map(Node::n_leaves).sum(),
        }
    }

    /// Depth of the subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { children, .. } => 1 + children.iter().map(Node::depth).max().unwrap_or(0),
        }
    }
}

/// A trained C4.5-style decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    target: usize,
    n_classes: usize,
}

/// The upper confidence bound on the expected number of errors given
/// `errors` observed errors out of `n`, at confidence factor `cf` — C4.5's
/// pessimistic estimate. Like C4.5 we invert the exact binomial: the bound
/// `U` satisfies `P(X <= errors | n, U) = cf`. (For `errors = 0` that is
/// the closed form `1 - cf^(1/n)`; for large `n` we fall back to the
/// normal approximation, which converges to the same value.)
pub fn pessimistic_errors(errors: usize, n: usize, cf: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if errors >= n {
        return n as f64;
    }
    let nf = n as f64;
    if errors == 0 {
        return nf * (1.0 - cf.powf(1.0 / nf));
    }
    if n <= 1_000 {
        return nf * binomial_upper_bound(errors, n, cf);
    }
    // Normal approximation (Wilson upper bound) for very large leaves.
    let z = normal_quantile(1.0 - cf);
    let f = errors as f64 / nf;
    let z2 = z * z;
    let p =
        (f + z2 / (2.0 * nf) + z * (f / nf - f * f / nf + z2 / (4.0 * nf * nf)).max(0.0).sqrt())
            / (1.0 + z2 / nf);
    p.min(1.0) * nf
}

/// Bisection for `p` with `BinomCDF(errors; n, p) = cf`; the CDF is
/// strictly decreasing in `p` on `(errors/n, 1)`.
fn binomial_upper_bound(errors: usize, n: usize, cf: f64) -> f64 {
    let cdf = |p: f64| -> f64 {
        // Sum_{i=0}^{errors} C(n, i) p^i (1-p)^(n-i), accumulated via the
        // recurrence term(i+1) = term(i) * (n-i)/(i+1) * p/(1-p), in log
        // space for stability.
        let lp = p.ln();
        let lq = (1.0 - p).ln();
        let mut log_term = n as f64 * lq; // i = 0
        let mut sum = log_term.exp();
        for i in 0..errors {
            log_term += ((n - i) as f64 / (i + 1) as f64).ln() + lp - lq;
            sum += log_term.exp();
        }
        sum
    };
    // The CDF is 1 at p -> 0 and ~0 at p -> 1, strictly decreasing, so the
    // whole unit interval brackets the inverse for any cf in (0, 1). (For
    // cf > ~0.5 the bound can legitimately sit *below* the observed rate.)
    let mut lo = f64::EPSILON;
    let mut hi = 1.0 - f64::EPSILON;
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if cdf(mid) > cf {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// Inverse standard-normal CDF (Acklam's rational approximation — ~1e-9
/// absolute error, ample for pruning).
fn normal_quantile(p: f64) -> f64 {
    debug_assert!(0.0 < p && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

struct Trainer<'a> {
    dataset: &'a Dataset,
    columns: Columns<'a>,
    /// The target's class codes, by row.
    classes: &'a [u32],
    n_classes: usize,
    config: TreeConfig,
    /// Attribute positions usable for splitting (everything but the target).
    attrs: Vec<usize>,
}

/// A candidate split's bookkeeping.
struct Candidate {
    test: SplitTest,
    gain: f64,
    gain_ratio: f64,
    /// Row partitions, one per branch.
    partitions: Vec<Vec<u32>>,
}

impl<'a> Trainer<'a> {
    fn class_counts(&self, rows: &[u32]) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &r in rows {
            counts[self.classes[r as usize] as usize] += 1;
        }
        counts
    }

    fn majority(counts: &[usize]) -> u32 {
        counts.iter().enumerate().max_by_key(|&(_, c)| c).map(|(i, _)| i as u32).unwrap_or(0)
    }

    fn build(&self, rows: Vec<u32>, depth: usize) -> Node {
        let counts = self.class_counts(&rows);
        let majority = Self::majority(&counts);
        let n = rows.len();
        let errors = n - counts[majority as usize];
        let leaf = Node::Leaf { class: majority, n, errors };

        if n < self.config.min_split
            || depth >= self.config.max_depth
            || counts.iter().filter(|&&c| c > 0).count() <= 1
        {
            return leaf;
        }

        let base_entropy = entropy(&counts);
        let mut candidates: Vec<Candidate> = self
            .attrs
            .iter()
            .filter_map(|&attr| self.best_split_on(&rows, attr, base_entropy))
            .collect();
        if candidates.is_empty() {
            return leaf;
        }
        // C4.5: among candidates with at-least-average gain, pick the best
        // gain ratio.
        let avg_gain: f64 =
            candidates.iter().map(|c| c.gain).sum::<f64>() / candidates.len() as f64;
        candidates.retain(|c| c.gain + 1e-12 >= avg_gain);
        let best = candidates
            .into_iter()
            .max_by(|a, b| a.gain_ratio.partial_cmp(&b.gain_ratio).expect("finite"))
            .expect("non-empty after retain");
        if best.gain <= 1e-12 {
            return leaf;
        }

        let children = best
            .partitions
            .into_iter()
            .map(|part| {
                if part.is_empty() {
                    // Empty branch inherits the parent's majority class.
                    Node::Leaf { class: majority, n: 0, errors: 0 }
                } else {
                    self.build(part, depth + 1)
                }
            })
            .collect();
        Node::Split { test: best.test, children, majority }
    }

    /// The best split on one attribute, or `None` if the attribute cannot
    /// split these rows.
    fn best_split_on(&self, rows: &[u32], attr: usize, base_entropy: f64) -> Option<Candidate> {
        match self.dataset.schema().attribute(attr)?.kind {
            AttrKind::Quantitative { .. } => self.threshold_split(rows, attr, base_entropy),
            AttrKind::Categorical { ref labels } => {
                self.category_split(rows, attr, labels.len(), base_entropy)
            }
        }
    }

    fn threshold_split(&self, rows: &[u32], attr: usize, base_entropy: f64) -> Option<Candidate> {
        let n = rows.len();
        let values = self.columns.quant(attr);
        let mut sorted: Vec<(f64, u32, u32)> =
            rows.iter().map(|&r| (values[r as usize], self.classes[r as usize], r)).collect();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));

        // Sweep: maintain left/right class counts; evaluate a cut between
        // each pair of adjacent distinct values.
        let mut left = vec![0usize; self.n_classes];
        let mut right = self.class_counts(rows);
        let nf = n as f64;
        let mut best: Option<(f64, f64, usize)> = None; // (gain, threshold, left size)
        for i in 0..n - 1 {
            let (v, class, _) = sorted[i];
            left[class as usize] += 1;
            right[class as usize] -= 1;
            let next_v = sorted[i + 1].0;
            if next_v <= v {
                continue; // not between distinct values
            }
            let n_left = i + 1;
            let n_right = n - n_left;
            let split_entropy =
                (n_left as f64 / nf) * entropy(&left) + (n_right as f64 / nf) * entropy(&right);
            let gain = base_entropy - split_entropy;
            if best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, (v + next_v) / 2.0, n_left));
            }
        }
        let (gain, threshold, n_left) = best?;
        let n_right = n - n_left;
        let split_info = entropy(&[n_left, n_right]);
        if split_info <= 0.0 {
            return None;
        }
        let mut parts = vec![Vec::with_capacity(n_left), Vec::with_capacity(n_right)];
        for &(v, _, r) in &sorted {
            parts[usize::from(v > threshold)].push(r);
        }
        Some(Candidate {
            test: SplitTest::Threshold { attr, threshold },
            gain,
            gain_ratio: gain / split_info,
            partitions: parts,
        })
    }

    fn category_split(
        &self,
        rows: &[u32],
        attr: usize,
        cardinality: usize,
        base_entropy: f64,
    ) -> Option<Candidate> {
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); cardinality];
        let codes = self.columns.cat(attr);
        for &r in rows {
            parts[codes[r as usize] as usize].push(r);
        }
        let non_empty = parts.iter().filter(|p| !p.is_empty()).count();
        if non_empty < 2 {
            return None;
        }
        let nf = rows.len() as f64;
        let mut split_entropy = 0.0;
        let mut sizes = Vec::with_capacity(cardinality);
        for part in &parts {
            sizes.push(part.len());
            if !part.is_empty() {
                split_entropy += (part.len() as f64 / nf) * entropy(&self.class_counts(part));
            }
        }
        let gain = base_entropy - split_entropy;
        let split_info = entropy(&sizes);
        if split_info <= 0.0 {
            return None;
        }
        Some(Candidate {
            test: SplitTest::Category { attr },
            gain,
            gain_ratio: gain / split_info,
            partitions: parts,
        })
    }

    /// Bottom-up pessimistic pruning: replace a subtree with a leaf when
    /// the leaf's pessimistic error is no worse than the subtree's.
    fn prune(&self, node: Node, rows: &[u32], cf: f64) -> Node {
        let Node::Split { test, children, majority } = node else {
            return node;
        };
        // Re-partition rows to prune children against their own data.
        let parts = self.partition(rows, &test, children.len());
        let children: Vec<Node> = children
            .into_iter()
            .zip(&parts)
            .map(|(child, part)| self.prune(child, part, cf))
            .collect();

        let subtree_errors: f64 = children
            .iter()
            .zip(&parts)
            .map(|(child, part)| self.subtree_pessimistic(child, part, cf))
            .sum();

        let counts = self.class_counts(rows);
        let leaf_class = Self::majority(&counts);
        let leaf_errors = rows.len() - counts[leaf_class as usize];
        let leaf_pessimistic = pessimistic_errors(leaf_errors, rows.len(), cf);

        if leaf_pessimistic <= subtree_errors + 0.1 {
            Node::Leaf { class: leaf_class, n: rows.len(), errors: leaf_errors }
        } else {
            Node::Split { test, children, majority }
        }
    }

    fn subtree_pessimistic(&self, node: &Node, rows: &[u32], cf: f64) -> f64 {
        match node {
            Node::Leaf { .. } => {
                let counts = self.class_counts(rows);
                let class = Self::majority(&counts);
                let errors = rows.len() - counts[class as usize];
                pessimistic_errors(errors, rows.len(), cf)
            }
            Node::Split { test, children, .. } => {
                let parts = self.partition(rows, test, children.len());
                children.iter().zip(&parts).map(|(c, p)| self.subtree_pessimistic(c, p, cf)).sum()
            }
        }
    }

    fn partition(&self, rows: &[u32], test: &SplitTest, n_branches: usize) -> Vec<Vec<u32>> {
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); n_branches];
        for &r in rows {
            parts[branch(test, &self.columns.row(r as usize))].push(r);
        }
        parts
    }
}

/// The branch `test` sends `row` down.
fn branch(test: &SplitTest, row: &impl Row) -> usize {
    match test {
        SplitTest::Threshold { attr, threshold } => usize::from(row.quant(*attr) > *threshold),
        SplitTest::Category { attr } => row.cat(*attr) as usize,
    }
}

/// Fraction of `dataset` rows whose `predict`ed class is not their class
/// at `target`; 0 for an empty dataset.
pub(crate) fn error_rate(
    dataset: &Dataset,
    target: usize,
    predict: impl Fn(&ColumnRow<'_, '_>) -> u32,
) -> f64 {
    if dataset.is_empty() {
        return 0.0;
    }
    let columns = Columns::new(dataset);
    let classes = columns.cat(target);
    let wrong = (0..dataset.len()).filter(|&r| predict(&columns.row(r)) != classes[r]).count();
    wrong as f64 / dataset.len() as f64
}

impl DecisionTree {
    /// Trains a tree predicting the categorical attribute `target` from
    /// every other attribute of `dataset`.
    pub fn train(
        dataset: &Dataset,
        target: &str,
        config: TreeConfig,
    ) -> Result<Self, ClassifierError> {
        config.validate()?;
        if dataset.is_empty() {
            return Err(ClassifierError::EmptyTrainingSet);
        }
        let schema = dataset.schema();
        let target_idx = schema
            .index_of(target)
            .ok_or_else(|| ClassifierError::BadTarget(format!("`{target}` not in schema")))?;
        let n_classes = match &schema.attribute(target_idx).expect("index valid").kind {
            AttrKind::Categorical { labels } => labels.len(),
            AttrKind::Quantitative { .. } => {
                return Err(ClassifierError::BadTarget(format!("`{target}` must be categorical")))
            }
        };
        let attrs: Vec<usize> = (0..schema.arity()).filter(|&i| i != target_idx).collect();
        let columns = Columns::new(dataset);
        let classes = columns.cat(target_idx);
        let trainer =
            Trainer { dataset, columns, classes, n_classes, config: config.clone(), attrs };
        let rows: Vec<u32> = (0..dataset.len() as u32).collect();
        let mut root = trainer.build(rows.clone(), 0);
        if let Some(cf) = config.confidence {
            root = trainer.prune(root, &rows, cf);
        }
        Ok(DecisionTree { root, target: target_idx, n_classes })
    }

    /// Predicts the class code of one row (a [`Tuple`](arcs_data::Tuple),
    /// say).
    pub fn predict(&self, row: &impl Row) -> u32 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class, .. } => return *class,
                Node::Split { test, children, majority } => {
                    match children.get(branch(test, row)) {
                        Some(child) => node = child,
                        // Unseen category code: fall back to the node's
                        // majority class.
                        None => return *majority,
                    }
                }
            }
        }
    }

    /// Fraction of `dataset` rows the tree misclassifies.
    pub fn error_rate(&self, dataset: &Dataset) -> f64 {
        error_rate(dataset, self.target, |row| self.predict(row))
    }

    /// The tree's root node.
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Schema position of the target attribute.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Number of target classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.root.n_leaves()
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_data::schema::{Attribute, Schema};
    use arcs_data::{Tuple, Value};

    fn xy_schema() -> Schema {
        Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::categorical("color", ["red", "blue"]),
            Attribute::categorical("class", ["a", "b"]),
        ])
        .unwrap()
    }

    #[test]
    fn learns_a_threshold() {
        // class = a iff x <= 5.
        let mut ds = Dataset::new(xy_schema());
        for i in 0..100 {
            let x = i as f64 / 10.0;
            let class = u32::from(x > 5.0);
            ds.push(&[Value::Quant(x), Value::Cat(0), Value::Cat(class)]).unwrap();
        }
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        assert_eq!(tree.error_rate(&ds), 0.0);
        assert!(tree.depth() <= 3, "depth = {}", tree.depth());
        let probe = Tuple::new(vec![Value::Quant(2.0), Value::Cat(0), Value::Cat(0)]);
        assert_eq!(tree.predict(&probe), 0);
        let probe = Tuple::new(vec![Value::Quant(8.0), Value::Cat(0), Value::Cat(0)]);
        assert_eq!(tree.predict(&probe), 1);
    }

    #[test]
    fn learns_a_categorical_split() {
        // class = a iff color = red, x is noise.
        let mut ds = Dataset::new(xy_schema());
        for i in 0..100 {
            let x = (i % 10) as f64;
            let color = (i % 2) as u32;
            ds.push(&[Value::Quant(x), Value::Cat(color), Value::Cat(color)]).unwrap();
        }
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        assert_eq!(tree.error_rate(&ds), 0.0);
        assert_eq!(tree.depth(), 2);
    }

    #[test]
    fn learns_xor_of_two_attributes() {
        let schema = Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("class", ["a", "b"]),
        ])
        .unwrap();
        let mut ds = Dataset::new(schema);
        for ix in 0..20 {
            for iy in 0..20 {
                let x = ix as f64 / 2.0;
                let y = iy as f64 / 2.0;
                let class = u32::from((x > 5.0) ^ (y > 5.0));
                ds.push(&[Value::Quant(x), Value::Quant(y), Value::Cat(class)]).unwrap();
            }
        }
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        assert_eq!(tree.error_rate(&ds), 0.0);
        assert!(tree.n_leaves() >= 4);
    }

    #[test]
    fn pruning_collapses_noise_splits() {
        // Pure noise: no attribute predicts the class; the pruned tree
        // should be (close to) a single leaf.
        let mut ds = Dataset::new(xy_schema());
        for i in 0..200 {
            let x = (i % 17) as f64 / 1.7;
            let class = ((i * 31 + 7) % 2) as u32;
            ds.push(&[Value::Quant(x), Value::Cat((i % 2) as u32), Value::Cat(class)]).unwrap();
        }
        let pruned = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        let unpruned = DecisionTree::train(
            &ds,
            "class",
            TreeConfig { confidence: None, ..TreeConfig::default() },
        )
        .unwrap();
        assert!(
            pruned.n_leaves() <= unpruned.n_leaves(),
            "pruned {} vs unpruned {}",
            pruned.n_leaves(),
            unpruned.n_leaves()
        );
        assert!(pruned.n_leaves() <= 4, "noise tree kept {} leaves", pruned.n_leaves());
    }

    #[test]
    fn rejects_bad_inputs() {
        let ds = Dataset::new(xy_schema());
        assert_eq!(
            DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap_err(),
            ClassifierError::EmptyTrainingSet
        );
        let mut ds = Dataset::new(xy_schema());
        ds.push(&[Value::Quant(1.0), Value::Cat(0), Value::Cat(0)]).unwrap();
        assert!(DecisionTree::train(&ds, "missing", TreeConfig::default()).is_err());
        assert!(DecisionTree::train(&ds, "x", TreeConfig::default()).is_err());
        assert!(DecisionTree::train(
            &ds,
            "class",
            TreeConfig { min_split: 1, ..TreeConfig::default() }
        )
        .is_err());
        assert!(DecisionTree::train(
            &ds,
            "class",
            TreeConfig { confidence: Some(0.0), ..TreeConfig::default() }
        )
        .is_err());
    }

    #[test]
    fn single_class_data_is_one_leaf() {
        let mut ds = Dataset::new(xy_schema());
        for i in 0..50 {
            ds.push(&[Value::Quant(i as f64 / 5.0), Value::Cat(0), Value::Cat(0)]).unwrap();
        }
        let tree = DecisionTree::train(&ds, "class", TreeConfig::default()).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.error_rate(&ds), 0.0);
    }

    #[test]
    fn pessimistic_errors_properties() {
        // More observed errors -> more pessimistic errors.
        assert!(pessimistic_errors(5, 100, 0.25) > pessimistic_errors(1, 100, 0.25));
        // Zero observed errors still get a positive pessimistic estimate.
        assert!(pessimistic_errors(0, 10, 0.25) > 0.0);
        // Smaller confidence factor -> harder pessimism.
        assert!(pessimistic_errors(5, 100, 0.10) > pessimistic_errors(5, 100, 0.50));
        // Bounded by n.
        assert!(pessimistic_errors(10, 10, 0.25) <= 10.0);
        assert_eq!(pessimistic_errors(0, 0, 0.25), 0.0);
    }

    #[test]
    fn normal_quantile_sanity() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.75) - 0.6745).abs() < 1e-3);
        assert!((normal_quantile(0.975) - 1.96).abs() < 1e-3);
        assert!((normal_quantile(0.025) + 1.96).abs() < 1e-3);
        assert!((normal_quantile(0.999) - 3.0902).abs() < 1e-3);
    }

    #[test]
    fn max_depth_bounds_the_tree() {
        let mut ds = Dataset::new(xy_schema());
        for i in 0..256 {
            let x = i as f64 / 25.6;
            let class = ((i / 2) % 2) as u32; // needs many splits
            ds.push(&[Value::Quant(x), Value::Cat(0), Value::Cat(class)]).unwrap();
        }
        let tree = DecisionTree::train(
            &ds,
            "class",
            TreeConfig { max_depth: 3, confidence: None, ..TreeConfig::default() },
        )
        .unwrap();
        assert!(tree.depth() <= 4); // root at depth 0 + 3 levels of children
    }
}
