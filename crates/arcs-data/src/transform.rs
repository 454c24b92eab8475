//! Dataset transforms.
//!
//! The paper's criterion attribute must be categorical, but §2.2 notes
//! "the RHS attribute could be quantitative but would first require
//! binning with the resulting bins then treated as categorical values" —
//! exactly the motivating §1 scenario, where customers are grouped by
//! *total sales* into "excellent" / "above average" / "average".
//! [`discretize`] performs that conversion.

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::schema::{AttrKind, Attribute, Schema};

/// How to discretize a quantitative attribute into a categorical one.
#[derive(Debug, Clone, PartialEq)]
pub enum Discretization {
    /// `n` equal-width intervals over the attribute's declared domain.
    EquiWidth {
        /// Number of intervals.
        n: usize,
    },
    /// `n` equal-count intervals (quantiles of the observed values) —
    /// e.g. `n = 3` gives terciles like the paper's profitability groups.
    EquiDepth {
        /// Number of intervals.
        n: usize,
    },
    /// Explicit ascending cut points: values below `cuts[0]` get label 0,
    /// `[cuts[0], cuts[1])` label 1, and so on (`cuts.len() + 1` labels).
    Cuts {
        /// Ascending boundary values.
        cuts: Vec<f64>,
    },
}

/// Returns a new dataset where the quantitative attribute `attr` has been
/// replaced by a categorical attribute with the given `labels` (one per
/// interval). `labels` must match the interval count of the
/// discretization; pass an empty slice to auto-generate labels from the
/// interval bounds.
pub fn discretize(
    dataset: &Dataset,
    attr: &str,
    how: &Discretization,
    labels: &[&str],
) -> Result<Dataset, DataError> {
    let schema = dataset.schema();
    let idx = schema.require(attr)?;
    let AttrKind::Quantitative { min, max } = schema.attribute(idx).expect("index valid").kind
    else {
        return Err(DataError::TypeMismatch {
            attribute: attr.to_string(),
            expected: "a quantitative attribute to discretize",
        });
    };

    // Resolve the cut points.
    let cuts: Vec<f64> = match how {
        Discretization::EquiWidth { n } => {
            if *n < 2 {
                return Err(DataError::InvalidConfig(
                    "discretization needs at least 2 intervals".into(),
                ));
            }
            let width = (max - min) / *n as f64;
            (1..*n).map(|i| min + width * i as f64).collect()
        }
        Discretization::EquiDepth { n } => {
            if *n < 2 {
                return Err(DataError::InvalidConfig(
                    "discretization needs at least 2 intervals".into(),
                ));
            }
            if dataset.is_empty() {
                return Err(DataError::InvalidConfig(
                    "equi-depth discretization needs data".into(),
                ));
            }
            let mut values = dataset.quant(idx)?.to_vec();
            values.sort_by(f64::total_cmp);
            let len = values.len();
            let mut cuts: Vec<f64> = (1..*n).map(|i| values[(i * len / *n).min(len - 1)]).collect();
            cuts.dedup();
            cuts
        }
        Discretization::Cuts { cuts } => {
            if cuts.is_empty() {
                return Err(DataError::InvalidConfig(
                    "explicit discretization needs at least one cut".into(),
                ));
            }
            if cuts.windows(2).any(|w| w[0] >= w[1]) {
                return Err(DataError::InvalidConfig(
                    "cut points must be strictly ascending".into(),
                ));
            }
            cuts.clone()
        }
    };
    let n_intervals = cuts.len() + 1;

    // Resolve labels.
    let label_vec: Vec<String> = if labels.is_empty() {
        let mut auto = Vec::with_capacity(n_intervals);
        let mut lo = min;
        for &c in &cuts {
            auto.push(format!("[{lo}..{c})"));
            lo = c;
        }
        auto.push(format!("[{lo}..{max}]"));
        auto
    } else {
        if labels.len() != n_intervals {
            return Err(DataError::InvalidConfig(format!(
                "{} labels supplied for {} intervals",
                labels.len(),
                n_intervals
            )));
        }
        labels.iter().map(ToString::to_string).collect()
    };

    // New schema: same attributes, `attr` swapped for the categorical.
    let attributes: Vec<Attribute> = schema
        .attributes()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            if i == idx {
                Attribute::categorical(a.name.clone(), label_vec.clone())
            } else {
                a.clone()
            }
        })
        .collect();
    let new_schema = Schema::new(attributes)?;

    let codes = dataset.quant(idx)?.iter().map(|&v| cuts.partition_point(|c| *c <= v) as u32);
    Ok(dataset.with_cat_column(new_schema, idx, codes.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Value;

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::quantitative("sales", 0.0, 100.0),
            Attribute::quantitative("age", 0.0, 90.0),
        ])
        .unwrap();
        let mut ds = Dataset::new(schema);
        for i in 0..100 {
            ds.push(&[Value::Quant(i as f64), Value::Quant(30.0)]).unwrap();
        }
        ds
    }

    #[test]
    fn equi_width_terciles_with_labels() {
        let ds = dataset();
        // Cut sales at ~33.3 and ~66.7 into three named groups.
        let out = discretize(
            &ds,
            "sales",
            &Discretization::EquiWidth { n: 3 },
            &["average", "above_average", "excellent"],
        )
        .unwrap();
        let attr = out.schema().attribute(0).unwrap();
        assert!(attr.kind.is_categorical());
        assert_eq!(attr.label(0), Some("average"));
        assert_eq!(attr.label(2), Some("excellent"));
        assert_eq!(out.len(), 100);
        assert_eq!(out.cat(0).unwrap()[0], 0);
        assert_eq!(out.cat(0).unwrap()[50], 1);
        assert_eq!(out.cat(0).unwrap()[99], 2);
        // The other attribute is untouched.
        assert_eq!(out.quant(1).unwrap()[0], 30.0);
    }

    #[test]
    fn equi_depth_balances_group_sizes() {
        let ds = dataset(); // uniform 0..99
        let out = discretize(&ds, "sales", &Discretization::EquiDepth { n: 4 }, &[]).unwrap();
        let mut counts = [0usize; 4];
        for &code in out.cat(0).unwrap() {
            counts[code as usize] += 1;
        }
        for &c in &counts {
            assert!((20..=30).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn explicit_cuts() {
        let ds = dataset();
        let out = discretize(
            &ds,
            "sales",
            &Discretization::Cuts { cuts: vec![10.0, 90.0] },
            &["low", "mid", "high"],
        )
        .unwrap();
        assert_eq!(out.cat(0).unwrap()[5], 0);
        assert_eq!(out.cat(0).unwrap()[10], 1); // boundary goes up
        assert_eq!(out.cat(0).unwrap()[89], 1);
        assert_eq!(out.cat(0).unwrap()[95], 2);
    }

    #[test]
    fn auto_labels_describe_intervals() {
        let ds = dataset();
        let out =
            discretize(&ds, "sales", &Discretization::Cuts { cuts: vec![50.0] }, &[]).unwrap();
        let attr = out.schema().attribute(0).unwrap();
        assert_eq!(attr.label(0), Some("[0..50)"));
        assert_eq!(attr.label(1), Some("[50..100]"));
    }

    #[test]
    fn validates_inputs() {
        let ds = dataset();
        assert!(discretize(&ds, "missing", &Discretization::EquiWidth { n: 3 }, &[]).is_err());
        assert!(discretize(&ds, "sales", &Discretization::EquiWidth { n: 1 }, &[]).is_err());
        assert!(discretize(&ds, "sales", &Discretization::Cuts { cuts: vec![] }, &[]).is_err());
        assert!(
            discretize(&ds, "sales", &Discretization::Cuts { cuts: vec![5.0, 5.0] }, &[]).is_err()
        );
        assert!(discretize(&ds, "sales", &Discretization::EquiWidth { n: 3 }, &["only", "two"])
            .is_err());
        // Discretizing a categorical attribute is a type error.
        let out = discretize(&ds, "sales", &Discretization::EquiWidth { n: 2 }, &[]).unwrap();
        assert!(discretize(&out, "sales", &Discretization::EquiWidth { n: 2 }, &[]).is_err());
    }
}
