//! Entropy-based LHS attribute selection (paper §5).
//!
//! The paper leaves choosing the two LHS attributes to the user (or to
//! classical factor analysis) and suggests, as future work, *"apply
//! measures of information gain such as entropy when determining which two
//! attributes to select for segmentation"*. This module implements that:
//! each quantitative attribute is discretised and scored by the mutual
//! information between its bins and the criterion attribute; pairs can
//! additionally be scored jointly.

use arcs_data::schema::AttrKind;
use arcs_data::stats::mutual_information;
use arcs_data::Dataset;

use crate::binning::BinMap;
use crate::error::ArcsError;

/// A scored candidate LHS attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeScore {
    /// Attribute name.
    pub name: String,
    /// Position in the schema.
    pub index: usize,
    /// Mutual information (bits) between the binned attribute and the
    /// criterion attribute.
    pub mutual_information: f64,
}

/// Scores every quantitative attribute by mutual information with the
/// categorical `criterion` attribute, descending. `n_bins` controls the
/// discretisation used for scoring (not for the later segmentation).
pub fn rank_attributes(
    dataset: &Dataset,
    criterion: &str,
    n_bins: usize,
) -> Result<Vec<AttributeScore>, ArcsError> {
    if dataset.is_empty() {
        return Err(ArcsError::InvalidConfig("dataset is empty".into()));
    }
    let schema = dataset.schema();
    let criterion_idx = schema.require(criterion)?;
    let nseg = match &schema.attribute(criterion_idx).expect("index valid").kind {
        AttrKind::Categorical { labels } => labels.len(),
        AttrKind::Quantitative { .. } => {
            return Err(ArcsError::AttributeKind {
                attribute: criterion.to_string(),
                expected: "a categorical criterion attribute",
            })
        }
    };
    let classes = dataset.cat(criterion_idx)?;

    let mut scores = Vec::new();
    for (idx, attr) in schema.attributes().iter().enumerate() {
        let AttrKind::Quantitative { min, max } = attr.kind else {
            continue;
        };
        let map = BinMap::equi_width(min, max, n_bins)?;
        let col = dataset.quant(idx)?;
        let mut joint = vec![vec![0usize; nseg]; n_bins];
        for (v, &c) in col.iter().zip(classes) {
            joint[map.bin_of_value(*v)][c as usize] += 1;
        }
        scores.push(AttributeScore {
            name: attr.name.clone(),
            index: idx,
            mutual_information: mutual_information(&joint),
        });
    }
    scores.sort_by(|a, b| b.mutual_information.total_cmp(&a.mutual_information));
    Ok(scores)
}

/// Picks the attribute pair with the highest *joint* mutual information
/// with the criterion, searching all pairs among the `top_k`
/// marginally-ranked attributes. Joint scoring is essential when an
/// attribute matters only in combination — e.g. Function 2's `age`, whose
/// marginal MI is near zero because each age band merely shifts the
/// salary window. For the same reason `top_k` should usually cover *all*
/// quantitative attributes (the pair count grows quadratically, so cap it
/// only when the schema is wide).
pub fn select_pair_joint(
    dataset: &Dataset,
    criterion: &str,
    n_bins: usize,
    top_k: usize,
) -> Result<(String, String), ArcsError> {
    let ranked = rank_attributes(dataset, criterion, n_bins)?;
    if ranked.len() < 2 {
        return Err(ArcsError::InvalidConfig(format!(
            "need at least two quantitative attributes, found {}",
            ranked.len()
        )));
    }
    let candidates = &ranked[..top_k.clamp(2, ranked.len())];
    let mut best: Option<((&str, &str), f64)> = None;
    for (i, a) in candidates.iter().enumerate() {
        for b in &candidates[i + 1..] {
            let mi = pair_mutual_information(dataset, &a.name, &b.name, criterion, n_bins)?;
            if best.is_none_or(|(_, m)| mi > m) {
                best = Some(((&a.name, &b.name), mi));
            }
        }
    }
    let ((a, b), _) = best.expect("at least one pair exists");
    Ok((a.to_string(), b.to_string()))
}

/// Joint mutual information (bits) between the binned `(x, y)` pair and
/// the criterion — a finer (but quadratically larger) pair score.
fn pair_mutual_information(
    dataset: &Dataset,
    x_attr: &str,
    y_attr: &str,
    criterion: &str,
    n_bins: usize,
) -> Result<f64, ArcsError> {
    let schema = dataset.schema();
    let x_idx = schema.require(x_attr)?;
    let y_idx = schema.require(y_attr)?;
    let criterion_idx = schema.require(criterion)?;
    let nseg =
        schema.attribute(criterion_idx).and_then(|a| a.kind.cardinality()).ok_or_else(|| {
            ArcsError::AttributeKind {
                attribute: criterion.to_string(),
                expected: "a categorical criterion attribute",
            }
        })? as usize;

    let map_for = |idx: usize| -> Result<BinMap, ArcsError> {
        let attr = schema.attribute(idx).expect("index valid");
        match attr.kind {
            AttrKind::Quantitative { min, max } => BinMap::equi_width(min, max, n_bins),
            AttrKind::Categorical { .. } => Err(ArcsError::AttributeKind {
                attribute: attr.name.clone(),
                expected: "a quantitative LHS attribute",
            }),
        }
    };
    let x_map = map_for(x_idx)?;
    let y_map = map_for(y_idx)?;

    let mut joint = vec![vec![0usize; nseg]; n_bins * n_bins];
    let (xs, ys) = (dataset.quant(x_idx)?, dataset.quant(y_idx)?);
    for ((&x, &y), &c) in xs.iter().zip(ys).zip(dataset.cat(criterion_idx)?) {
        let (bx, by) = (x_map.bin_of_value(x), y_map.bin_of_value(y));
        joint[by * n_bins + bx][c as usize] += 1;
    }
    Ok(mutual_information(&joint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_data::agrawal::attr;
    use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};
    use arcs_data::schema::{Attribute, Schema};
    use arcs_data::Value;

    #[test]
    fn informative_attribute_outranks_noise() {
        // class = 1 iff x > 5; y is pure noise.
        let schema = Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("g", ["a", "b"]),
        ])
        .unwrap();
        let mut ds = Dataset::new(schema);
        for i in 0..200 {
            let x = (i % 10) as f64 + 0.5;
            // y cycles independently of x (and of the class).
            let y = ((i / 10) % 10) as f64 + 0.5;
            let g = u32::from(x > 5.0);
            ds.push(&[Value::Quant(x), Value::Quant(y), Value::Cat(g)]).unwrap();
        }
        let ranked = rank_attributes(&ds, "g", 10).unwrap();
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].name, "x");
        assert!(ranked[0].mutual_information > ranked[1].mutual_information + 0.5);
    }

    #[test]
    fn agrawal_f2_salary_ranks_first_and_age_salary_pair_dominates() {
        let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(5)).unwrap();
        let ds = gen.generate(5_000);
        let ranked = rank_attributes(&ds, "group", 10).unwrap();
        // Marginally, salary is F2's strongest single determinant. (Age's
        // *marginal* MI is near zero by construction — each age band simply
        // shifts the salary window — so the joint score is what identifies
        // the pair.)
        assert_eq!(ranked[0].name, "salary", "ranking: {ranked:?}");
        let age_salary = pair_mutual_information(&ds, "age", "salary", "group", 10).unwrap();
        let hyears_loan = pair_mutual_information(&ds, "hyears", "loan", "group", 10).unwrap();
        let salary_alone = ranked[0].mutual_information;
        assert!(age_salary > hyears_loan + 0.2, "{age_salary} vs {hyears_loan}");
        assert!(age_salary > salary_alone + 0.1, "{age_salary} vs {salary_alone}");
        let _ = attr::AGE;
    }

    #[test]
    fn pair_mi_beats_single_mi_for_joint_dependence() {
        // class = xor(x > 5, y > 5): each attribute alone is uninformative
        // but the pair determines the class.
        let schema = Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::categorical("g", ["a", "b"]),
        ])
        .unwrap();
        let mut ds = Dataset::new(schema);
        for ix in 0..10 {
            for iy in 0..10 {
                let x = ix as f64 + 0.5;
                let y = iy as f64 + 0.5;
                let g = u32::from((x > 5.0) ^ (y > 5.0));
                ds.push(&[Value::Quant(x), Value::Quant(y), Value::Cat(g)]).unwrap();
            }
        }
        let singles = rank_attributes(&ds, "g", 10).unwrap();
        assert!(singles[0].mutual_information < 0.1);
        let joint = pair_mutual_information(&ds, "x", "y", "g", 10).unwrap();
        assert!(joint > 0.9, "joint MI = {joint}");
    }

    #[test]
    fn joint_selection_recovers_the_f2_pair() {
        // MI estimates over a 10x10x2 joint histogram need a decent sample
        // to separate the true pair from estimation-bias noise.
        let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(8)).unwrap();
        let ds = gen.generate(20_000);
        let (a, b) = select_pair_joint(&ds, "group", 10, 6).unwrap();
        let mut pair = [a.as_str(), b.as_str()];
        pair.sort_unstable();
        assert_eq!(pair, ["age", "salary"], "selected ({a}, {b})");
    }

    #[test]
    fn joint_selection_solves_the_xor_case() {
        // Marginal selection is blind here; the joint score is not.
        let schema = Schema::new(vec![
            Attribute::quantitative("x", 0.0, 10.0),
            Attribute::quantitative("y", 0.0, 10.0),
            Attribute::quantitative("noise", 0.0, 10.0),
            Attribute::categorical("g", ["a", "b"]),
        ])
        .unwrap();
        let mut ds = Dataset::new(schema);
        for ix in 0..20 {
            for iy in 0..20 {
                let x = ix as f64 / 2.0;
                let y = iy as f64 / 2.0;
                let noise = ((ix * 13 + iy * 7) % 20) as f64 / 2.0;
                let g = u32::from((x > 5.0) ^ (y > 5.0));
                ds.push(&[Value::Quant(x), Value::Quant(y), Value::Quant(noise), Value::Cat(g)])
                    .unwrap();
            }
        }
        let (a, b) = select_pair_joint(&ds, "g", 10, 3).unwrap();
        let mut pair = [a, b];
        pair.sort_unstable();
        assert_eq!(pair, ["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let schema = Schema::new(vec![
            Attribute::quantitative("x", 0.0, 1.0),
            Attribute::categorical("g", ["a"]),
        ])
        .unwrap();
        let empty = Dataset::new(schema.clone());
        assert!(rank_attributes(&empty, "g", 5).is_err());

        let mut ds = Dataset::new(schema);
        ds.push(&[Value::Quant(0.5), Value::Cat(0)]).unwrap();
        assert!(rank_attributes(&ds, "missing", 5).is_err());
        assert!(rank_attributes(&ds, "x", 5).is_err()); // quantitative criterion
        assert!(select_pair_joint(&ds, "g", 5, 2).is_err()); // only one quant attribute
        assert!(pair_mutual_information(&ds, "x", "g", "g", 5).is_err());
    }
}
