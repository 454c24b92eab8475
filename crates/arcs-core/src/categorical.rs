//! Categorical LHS attributes (paper §5).
//!
//! The paper's clustering assumes two quantitative LHS attributes because
//! categorical attributes have no ordering. Its future-work section
//! reports an extension "to handle the case where one attribute is
//! categorical and the other quantitative … by using the ordering of the
//! quantitative attribute we consider only those subsets of the
//! categorical attribute that yield the densest clusters."
//!
//! Implementation: the categorical axis is *re-ordered by density* — the
//! per-category confidence of the criterion group — so that categories
//! likely to co-occur in a cluster become adjacent columns. The crate's
//! one threshold search (paper §3.7, the one
//! [`Session::segment`](crate::session::Session::segment) runs) walks the
//! reordered grid, and each cluster's column span decodes to a *set* of
//! category values rather than a range.

use arcs_data::schema::AttrKind;
use arcs_data::Dataset;

use crate::binarray::BinArray;
use crate::binning::BinMap;
use crate::cluster::Rect;
use crate::engine::Thresholds;
use crate::error::ArcsError;
use crate::index::OccupancyIndex;
use crate::mdl::MdlScore;
use crate::optimizer::{search, OptimizerConfig};
use crate::request::group_code;
use crate::verify::ErrorCounts;

/// A clustered rule whose LHS combines a category *set* with a
/// quantitative range:
///
/// ```text
/// zipcode IN {94305, 94040}  AND  20000 <= salary < 60000  =>  group = A
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalRule {
    /// Name of the categorical attribute.
    pub cat_attr: String,
    /// Category codes covered by the cluster.
    pub category_codes: Vec<u32>,
    /// Category labels covered by the cluster.
    pub category_labels: Vec<String>,
    /// Name of the quantitative attribute.
    pub quant_attr: String,
    /// Half-open value range on the quantitative attribute.
    pub quant_range: (f64, f64),
    /// Name of the criterion attribute.
    pub criterion_attr: String,
    /// Criterion group label.
    pub group_label: String,
    /// The cluster rectangle in (reordered) grid coordinates.
    pub rect: Rect,
    /// Aggregate support of the cluster.
    pub support: f64,
    /// Aggregate confidence of the cluster.
    pub confidence: f64,
}

impl CategoricalRule {
    /// Whether a `(category, quant value)` pair satisfies the rule's LHS.
    pub fn covers(&self, category: u32, quant: f64) -> bool {
        self.category_codes.contains(&category)
            && (self.quant_range.0..self.quant_range.1).contains(&quant)
    }
}

impl std::fmt::Display for CategoricalRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} IN {{{}}}  AND  {} <= {} < {}  =>  {} = {}",
            self.cat_attr,
            self.category_labels.join(", "),
            crate::cluster::fmt_bound(self.quant_range.0),
            self.quant_attr,
            crate::cluster::fmt_bound(self.quant_range.1),
            self.criterion_attr,
            self.group_label
        )
    }
}

/// Result of categorical × quantitative segmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalSegmentation {
    /// The clustered rules.
    pub rules: Vec<CategoricalRule>,
    /// Category codes in density order (grid column order).
    pub ordering: Vec<u32>,
    /// Thresholds the search settled on.
    pub thresholds: Thresholds,
    /// MDL score of the winning segmentation.
    pub score: MdlScore,
    /// Verification errors on the full dataset.
    pub errors: ErrorCounts,
}

/// Configuration for categorical segmentation — the threshold search's
/// configuration plus the quantitative axis bin count.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalConfig {
    /// Number of bins on the quantitative axis.
    pub n_quant_bins: usize,
    /// The threshold search's parameters (smoothing, BitOp, MDL weights,
    /// budget, threads).
    pub optimizer: OptimizerConfig,
}

impl Default for CategoricalConfig {
    fn default() -> Self {
        CategoricalConfig { n_quant_bins: 50, optimizer: OptimizerConfig::default() }
    }
}

/// Segments `(cat_attr, quant_attr)` space for the tuples whose
/// `criterion_attr` equals `group_label`, with the categorical axis
/// density-ordered. Errors with [`ArcsError::NoSegmentation`] when the
/// search evaluates no point that clusters (an expired
/// `max_wall_time` evaluates none), and with
/// [`ArcsError::InvalidConfig`] on an invalid search configuration.
pub fn segment_categorical(
    dataset: &Dataset,
    cat_attr: &str,
    quant_attr: &str,
    criterion_attr: &str,
    group_label: &str,
    config: &CategoricalConfig,
) -> Result<CategoricalSegmentation, ArcsError> {
    if dataset.is_empty() {
        return Err(ArcsError::InvalidConfig("dataset is empty".into()));
    }
    let schema = dataset.schema();
    let cat_idx = schema.require(cat_attr)?;
    let quant_idx = schema.require(quant_attr)?;
    let criterion_idx = schema.require(criterion_attr)?;

    let cat = schema.attribute(cat_idx).expect("index valid");
    let AttrKind::Categorical { labels: cat_labels } = &cat.kind else {
        return Err(ArcsError::AttributeKind {
            attribute: cat_attr.to_string(),
            expected: "a categorical attribute",
        });
    };
    let quant = schema.attribute(quant_idx).expect("index valid");
    let AttrKind::Quantitative { min, max } = quant.kind else {
        return Err(ArcsError::AttributeKind {
            attribute: quant_attr.to_string(),
            expected: "a quantitative attribute",
        });
    };
    let criterion = schema.attribute(criterion_idx).expect("index valid");
    let AttrKind::Categorical { labels: group_labels } = &criterion.kind else {
        return Err(ArcsError::AttributeKind {
            attribute: criterion_attr.to_string(),
            expected: "a categorical criterion attribute",
        });
    };
    let gk = group_code(group_labels, group_label)?;

    // Density ordering: per-category confidence of the criterion group,
    // descending, so dense categories pack into adjacent columns.
    let k = cat_labels.len();
    let (codes, groups) = (dataset.cat(cat_idx)?, dataset.cat(criterion_idx)?);
    let mut per_cat = vec![(0u64, 0u64); k]; // (group count, total)
    for (&c, &g) in codes.iter().zip(groups) {
        per_cat[c as usize].1 += 1;
        if g == gk {
            per_cat[c as usize].0 += 1;
        }
    }
    let density = |c: usize| -> f64 {
        let (g, n) = per_cat[c];
        if n == 0 {
            0.0
        } else {
            g as f64 / n as f64
        }
    };
    let mut ordering: Vec<u32> = (0..k as u32).collect();
    ordering.sort_by(|&a, &b| density(b as usize).total_cmp(&density(a as usize)).then(a.cmp(&b)));
    // column_of[category code] = grid column.
    let mut column_of = vec![0usize; k];
    for (col, &code) in ordering.iter().enumerate() {
        column_of[code as usize] = col;
    }

    // Bin into the reordered array.
    let quant_map = BinMap::equi_width(min, max, config.n_quant_bins)?;
    let mut array = BinArray::new(k, quant_map.n_bins(), group_labels.len())?;
    for ((&c, &v), &g) in codes.iter().zip(dataset.quant(quant_idx)?).zip(groups) {
        array.add(column_of[c as usize], quant_map.bin_of_value(v), g);
    }

    // The §3.7 search, verifying every point against `array`, which
    // holds every tuple, so its errors are over the whole dataset.
    let index = OccupancyIndex::build(&array);
    let best = search(&array, &index, gk, &array, &config.optimizer)?
        .best
        .ok_or(ArcsError::NoSegmentation)?;

    // Decode clusters: column span -> category set; row span -> range.
    let n = array.n_tuples();
    let mut rules = Vec::with_capacity(best.clusters.len());
    for &rect in &best.clusters {
        let category_codes: Vec<u32> = (rect.x0..=rect.x1).map(|col| ordering[col]).collect();
        let category_labels =
            category_codes.iter().map(|&c| cat_labels[c as usize].clone()).collect();
        let (q_lo, _) = quant_map.range(rect.y0).expect("row in range");
        let (_, q_hi) = quant_map.range(rect.y1).expect("row in range");
        let mut group_count = 0u64;
        let mut total_count = 0u64;
        for (x, y) in rect.cells() {
            group_count += array.group_count(x, y, gk) as u64;
            total_count += array.cell_total(x, y) as u64;
        }
        rules.push(CategoricalRule {
            cat_attr: cat_attr.to_string(),
            category_codes,
            category_labels,
            quant_attr: quant_attr.to_string(),
            quant_range: (q_lo, q_hi),
            criterion_attr: criterion_attr.to_string(),
            group_label: group_label.to_string(),
            rect,
            support: if n == 0 { 0.0 } else { group_count as f64 / n as f64 },
            confidence: if total_count == 0 {
                0.0
            } else {
                group_count as f64 / total_count as f64
            },
        });
    }

    Ok(CategoricalSegmentation {
        rules,
        ordering,
        thresholds: best.thresholds,
        score: best.score,
        errors: best.errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_data::schema::{Attribute, Schema};
    use arcs_data::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::categorical("zip", ["z0", "z1", "z2", "z3", "z4", "z5"]),
            Attribute::quantitative("salary", 0.0, 100.0),
            Attribute::categorical("g", ["A", "other"]),
        ])
        .unwrap()
    }

    /// Group A concentrates in zips {1, 4} (non-adjacent codes!) at
    /// salaries [20, 50); everything else is background.
    fn dataset() -> Dataset {
        let mut ds = Dataset::new(schema());
        for zip in 0..6u32 {
            for s in 0..10 {
                let salary = s as f64 * 10.0 + 5.0;
                let hot = (zip == 1 || zip == 4) && (20.0..50.0).contains(&salary);
                let (n_a, n_other) = if hot { (30, 2) } else { (0, 6) };
                for _ in 0..n_a {
                    ds.push(&[Value::Cat(zip), Value::Quant(salary), Value::Cat(0)]).unwrap();
                }
                for _ in 0..n_other {
                    ds.push(&[Value::Cat(zip), Value::Quant(salary), Value::Cat(1)]).unwrap();
                }
            }
        }
        ds
    }

    fn config() -> CategoricalConfig {
        CategoricalConfig {
            n_quant_bins: 10,
            optimizer: OptimizerConfig {
                bitop: crate::bitop::BitOpConfig::no_pruning(),
                ..OptimizerConfig::default()
            },
        }
    }

    #[test]
    fn density_ordering_makes_nonadjacent_categories_clusterable() {
        let ds = dataset();
        let seg = segment_categorical(&ds, "zip", "salary", "g", "A", &config()).unwrap();
        // The two hot zips must land in the leading columns.
        assert_eq!(
            {
                let mut lead: Vec<u32> = seg.ordering[..2].to_vec();
                lead.sort_unstable();
                lead
            },
            vec![1, 4]
        );
        // One cluster covering exactly the two hot categories and the
        // 20..50 salary band.
        assert_eq!(seg.rules.len(), 1, "rules: {:?}", seg.rules);
        let rule = &seg.rules[0];
        let mut codes = rule.category_codes.clone();
        codes.sort_unstable();
        assert_eq!(codes, vec![1, 4]);
        assert_eq!(rule.quant_range, (20.0, 50.0));
        assert!(rule.confidence > 0.85);
        assert_eq!(seg.errors.false_negatives, 0);
    }

    #[test]
    fn rule_covers_and_displays() {
        let ds = dataset();
        let seg = segment_categorical(&ds, "zip", "salary", "g", "A", &config()).unwrap();
        let rule = &seg.rules[0];
        assert!(rule.covers(1, 30.0));
        assert!(rule.covers(4, 49.9));
        assert!(!rule.covers(0, 30.0));
        assert!(!rule.covers(1, 50.0));
        let text = rule.to_string();
        assert!(text.contains("zip IN {"));
        assert!(text.contains("=>  g = A"));
    }

    #[test]
    fn rejects_wrong_attribute_kinds() {
        let ds = dataset();
        let c = config();
        assert!(segment_categorical(&ds, "salary", "salary", "g", "A", &c).is_err());
        assert!(segment_categorical(&ds, "zip", "zip", "g", "A", &c).is_err());
        assert!(segment_categorical(&ds, "zip", "salary", "salary", "A", &c).is_err());
        assert!(segment_categorical(&ds, "zip", "salary", "g", "Z", &c).is_err());
        assert!(
            segment_categorical(&Dataset::new(schema()), "zip", "salary", "g", "A", &c).is_err()
        );
    }
}
