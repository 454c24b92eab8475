//! Clusters with more than two attributes (paper §5).
//!
//! The paper proposes extending the system "by iteratively combining
//! overlapping sets of two-attribute clustered association rules to
//! produce clusters that have an arbitrary number of attributes". This
//! module implements that join: two rule sets that share an attribute are
//! combined on the overlap of their shared ranges, yielding boxes over the
//! union of their attributes; the join can be applied repeatedly to grow
//! dimensionality.

use std::collections::BTreeMap;

use arcs_core::cluster::fmt_bound;
use arcs_core::request::group_code;
use arcs_core::sql::{range_predicate, SqlPredicate};
use arcs_core::verify::ErrorCounts;
use arcs_core::{ArcsError, ClusteredRule};
use arcs_data::Dataset;

/// An axis-aligned box over any number of named quantitative attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterBox {
    /// Per-attribute half-open ranges, keyed by attribute name (sorted).
    pub ranges: BTreeMap<String, (f64, f64)>,
    /// Criterion attribute name.
    pub criterion_attr: String,
    /// Criterion group label.
    pub group_label: String,
}

impl ClusterBox {
    /// Builds a box from one two-attribute clustered rule.
    pub fn from_rule(rule: &ClusteredRule) -> Self {
        let mut ranges = BTreeMap::new();
        ranges.insert(rule.x_attr.clone(), rule.x_range);
        ranges.insert(rule.y_attr.clone(), rule.y_range);
        ClusterBox {
            ranges,
            criterion_attr: rule.criterion_attr.clone(),
            group_label: rule.group_label.clone(),
        }
    }

    /// Number of attributes the box constrains.
    pub fn dimensions(&self) -> usize {
        self.ranges.len()
    }

    /// Each range's attribute column in `dataset`, with the range.
    fn columns<'a>(&self, dataset: &'a Dataset) -> Result<Vec<RangeColumn<'a>>, ArcsError> {
        let schema = dataset.schema();
        self.ranges
            .iter()
            .map(|(attr, &(lo, hi))| Ok((dataset.quant(schema.require(attr)?)?, lo..hi)))
            .collect()
    }

    /// Joins with `other` on their shared attributes: shared ranges must
    /// overlap (the result takes the intersection), disjoint attributes
    /// are carried over. Returns `None` when the boxes target different
    /// groups, share no attribute, or a shared range is disjoint.
    pub fn join(&self, other: &ClusterBox) -> Option<ClusterBox> {
        if self.group_label != other.group_label || self.criterion_attr != other.criterion_attr {
            return None;
        }
        let shared: Vec<&String> =
            self.ranges.keys().filter(|k| other.ranges.contains_key(*k)).collect();
        if shared.is_empty() {
            return None;
        }
        let mut ranges = self.ranges.clone();
        for (attr, &(lo, hi)) in &other.ranges {
            match ranges.get_mut(attr) {
                Some(range) => {
                    let new_lo = range.0.max(lo);
                    let new_hi = range.1.min(hi);
                    if new_lo >= new_hi {
                        return None; // shared range disjoint
                    }
                    *range = (new_lo, new_hi);
                }
                None => {
                    ranges.insert(attr.clone(), (lo, hi));
                }
            }
        }
        Some(ClusterBox {
            ranges,
            criterion_attr: self.criterion_attr.clone(),
            group_label: self.group_label.clone(),
        })
    }
}

impl std::fmt::Display for ClusterBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (attr, (lo, hi)) in &self.ranges {
            if !first {
                write!(f, "  AND  ")?;
            }
            first = false;
            write!(f, "{} <= {attr} < {}", fmt_bound(*lo), fmt_bound(*hi))?;
        }
        write!(f, "  =>  {} = {}", self.criterion_attr, self.group_label)
    }
}

impl SqlPredicate for ClusterBox {
    fn to_sql_where(&self) -> String {
        self.ranges
            .iter()
            .map(|(attr, &(lo, hi))| range_predicate(attr, lo, hi))
            .collect::<Vec<_>>()
            .join(" AND ")
    }
}

/// An attribute's column with the range a box allows it.
type RangeColumn<'a> = (&'a [f64], std::ops::Range<f64>);

/// Joins every compatible pair across two rule sets (the paper's one
/// combination step). Results are deduplicated.
pub fn combine_rule_sets(a: &[ClusteredRule], b: &[ClusteredRule]) -> Vec<ClusterBox> {
    let boxes_a: Vec<ClusterBox> = a.iter().map(ClusterBox::from_rule).collect();
    let boxes_b: Vec<ClusterBox> = b.iter().map(ClusterBox::from_rule).collect();
    let mut out: Vec<ClusterBox> = Vec::new();
    for ba in &boxes_a {
        for bb in &boxes_b {
            if let Some(joined) = ba.join(bb) {
                if !out.contains(&joined) {
                    out.push(joined);
                }
            }
        }
    }
    out
}

/// Measures a box set's error on a dataset: a tuple is a false positive
/// when covered but not in the group, a false negative when in the group
/// but uncovered. (Same definition as the 2-D verifier, lifted to boxes.)
pub fn box_errors(
    boxes: &[ClusterBox],
    dataset: &Dataset,
    criterion_attr: &str,
    group_label: &str,
) -> Result<ErrorCounts, ArcsError> {
    let schema = dataset.schema();
    let criterion_idx = schema.require(criterion_attr)?;
    let gk = match schema.attribute(criterion_idx).map(|a| &a.kind) {
        Some(arcs_data::schema::AttrKind::Categorical { labels }) => {
            group_code(labels, group_label)?
        }
        _ => return Err(ArcsError::UnknownGroup(group_label.to_string())),
    };

    let boxes: Vec<_> = boxes.iter().map(|b| b.columns(dataset)).collect::<Result<_, _>>()?;
    let mut counts = ErrorCounts::default();
    for (row, &g) in dataset.cat(criterion_idx)?.iter().enumerate() {
        let covered = boxes
            .iter()
            .any(|ranges| ranges.iter().all(|(values, range)| range.contains(&values[row])));
        let in_group = g == gk;
        match (covered, in_group) {
            (true, false) => counts.false_positives += 1,
            (false, true) => counts.false_negatives += 1,
            _ => {}
        }
        counts.n_examined += 1;
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_core::Rect;
    use arcs_data::schema::{Attribute, Schema};
    use arcs_data::Value;

    fn rule(
        x_attr: &str,
        x: (f64, f64),
        y_attr: &str,
        y: (f64, f64),
        group: &str,
    ) -> ClusteredRule {
        ClusteredRule {
            x_attr: x_attr.into(),
            x_range: x,
            y_attr: y_attr.into(),
            y_range: y,
            criterion_attr: "g".into(),
            group_label: group.into(),
            rect: Rect { x0: 0, y0: 0, x1: 0, y1: 0 },
            support: 0.1,
            confidence: 0.9,
        }
    }

    #[test]
    fn join_on_shared_attribute() {
        let ab = ClusterBox::from_rule(&rule("a", (0.0, 10.0), "b", (5.0, 15.0), "A"));
        let bc = ClusterBox::from_rule(&rule("b", (10.0, 20.0), "c", (1.0, 2.0), "A"));
        let joined = ab.join(&bc).expect("b ranges overlap at [10, 15)");
        assert_eq!(joined.dimensions(), 3);
        assert_eq!(joined.ranges["a"], (0.0, 10.0));
        assert_eq!(joined.ranges["b"], (10.0, 15.0));
        assert_eq!(joined.ranges["c"], (1.0, 2.0));
    }

    #[test]
    fn join_fails_on_disjoint_shared_range() {
        let ab = ClusterBox::from_rule(&rule("a", (0.0, 10.0), "b", (0.0, 5.0), "A"));
        let bc = ClusterBox::from_rule(&rule("b", (5.0, 10.0), "c", (0.0, 1.0), "A"));
        assert!(ab.join(&bc).is_none());
    }

    #[test]
    fn join_fails_without_shared_attribute_or_on_group_mismatch() {
        let ab = ClusterBox::from_rule(&rule("a", (0.0, 1.0), "b", (0.0, 1.0), "A"));
        let cd = ClusterBox::from_rule(&rule("c", (0.0, 1.0), "d", (0.0, 1.0), "A"));
        assert!(ab.join(&cd).is_none());
        let ab_other = ClusterBox::from_rule(&rule("a", (0.0, 1.0), "b", (0.0, 1.0), "B"));
        assert!(ab.join(&ab_other).is_none());
    }

    #[test]
    fn combine_rule_sets_produces_expected_boxes() {
        let set_ab = vec![
            rule("a", (0.0, 10.0), "b", (0.0, 10.0), "A"),
            rule("a", (20.0, 30.0), "b", (20.0, 30.0), "A"),
        ];
        let set_bc = vec![rule("b", (5.0, 25.0), "c", (0.0, 1.0), "A")];
        let boxes = combine_rule_sets(&set_ab, &set_bc);
        // Both ab-rules' b-ranges overlap [5, 25): two 3-D boxes.
        assert_eq!(boxes.len(), 2);
        assert!(boxes.iter().all(|b| b.dimensions() == 3));
        assert_eq!(boxes[0].ranges["b"], (5.0, 10.0));
        assert_eq!(boxes[1].ranges["b"], (20.0, 25.0));
    }

    #[test]
    fn joins_chain_to_four_dimensions() {
        // (a,b) ⋈ (b,c) ⋈ (c,d): the §5 "iteratively combining" step.
        let ab = ClusterBox::from_rule(&rule("a", (0.0, 10.0), "b", (0.0, 10.0), "A"));
        let bc = ClusterBox::from_rule(&rule("b", (5.0, 15.0), "c", (0.0, 10.0), "A"));
        let cd = ClusterBox::from_rule(&rule("c", (5.0, 15.0), "d", (1.0, 2.0), "A"));
        let abc = ab.join(&bc).expect("b overlaps");
        assert_eq!(abc.dimensions(), 3);
        let abcd = abc.join(&cd).expect("c overlaps");
        assert_eq!(abcd.dimensions(), 4);
        assert_eq!(abcd.ranges["a"], (0.0, 10.0));
        assert_eq!(abcd.ranges["b"], (5.0, 10.0));
        assert_eq!(abcd.ranges["c"], (5.0, 10.0));
        assert_eq!(abcd.ranges["d"], (1.0, 2.0));
        // Join is commutative on the result's ranges.
        let alt = cd.join(&abc).expect("c overlaps");
        assert_eq!(alt.ranges, abcd.ranges);
    }

    #[test]
    fn display_reads_like_a_rule() {
        let b = ClusterBox::from_rule(&rule("age", (40.0, 60.0), "salary", (1.0, 2.0), "A"));
        let text = b.to_string();
        assert!(text.contains("40 <= age < 60"));
        assert!(text.contains("=>  g = A"));
    }

    #[test]
    fn box_predicate_joins_all_dimensions() {
        let mut ranges = BTreeMap::new();
        ranges.insert("a".to_string(), (0.0, 1.0));
        ranges.insert("b".to_string(), (2.0, 3.0));
        let cb = ClusterBox { ranges, criterion_attr: "g".into(), group_label: "X".into() };
        assert_eq!(cb.to_sql_where(), "\"a\" >= 0 AND \"a\" < 1 AND \"b\" >= 2 AND \"b\" < 3");
    }

    #[test]
    fn box_errors_on_dataset() {
        let schema = Schema::new(vec![
            Attribute::quantitative("a", 0.0, 10.0),
            Attribute::quantitative("b", 0.0, 10.0),
            Attribute::quantitative("c", 0.0, 10.0),
            Attribute::categorical("g", ["A", "other"]),
        ])
        .unwrap();
        let mut ds = Dataset::new(schema);
        // In-box group-A tuple, in-box other (FP), out-of-box group-A (FN).
        for (a, b, c, g) in [(1.0, 1.0, 1.0, 0u32), (1.0, 1.0, 1.0, 1), (9.0, 9.0, 9.0, 0)] {
            ds.push(&[Value::Quant(a), Value::Quant(b), Value::Quant(c), Value::Cat(g)]).unwrap();
        }
        let mut ranges = BTreeMap::new();
        ranges.insert("a".to_string(), (0.0, 5.0));
        ranges.insert("b".to_string(), (0.0, 5.0));
        ranges.insert("c".to_string(), (0.0, 5.0));
        let boxes =
            vec![ClusterBox { ranges, criterion_attr: "g".into(), group_label: "A".into() }];
        let counts = box_errors(&boxes, &ds, "g", "A").unwrap();
        assert_eq!(counts.false_positives, 1);
        assert_eq!(counts.false_negatives, 1);
        assert_eq!(counts.n_examined, 3);
        assert!(box_errors(&boxes, &ds, "g", "Z").is_err());
    }
}
