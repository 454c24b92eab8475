//! SQL export of clustered rules.
//!
//! The paper's motivating use (§1) is selecting customers for a mailing:
//! a segmentation is only actionable once it can run against the customer
//! database. This module renders rules as standalone SQL `WHERE`
//! predicates (standard SQL: double-quoted identifiers, single-quoted
//! literals, both with doubling escapes).

use crate::categorical::CategoricalRule;
use crate::cluster::ClusteredRule;
use crate::multidim::ClusterBox;

/// Quotes an identifier for standard SQL (`"name"`, embedded quotes
/// doubled).
pub fn quote_ident(name: &str) -> String {
    format!("\"{}\"", name.replace('"', "\"\""))
}

/// Quotes a string literal for standard SQL (`'value'`, embedded quotes
/// doubled).
pub fn quote_literal(value: &str) -> String {
    format!("'{}'", value.replace('\'', "''"))
}

fn range_predicate(attr: &str, lo: f64, hi: f64) -> String {
    format!("{0} >= {1} AND {0} < {2}", quote_ident(attr), lo, hi)
}

/// Types that can render themselves as a SQL `WHERE` predicate selecting
/// the tuples their LHS covers.
pub trait SqlPredicate {
    /// The predicate over the LHS attributes (no `WHERE` keyword).
    fn to_sql_where(&self) -> String;

    /// A full `SELECT` statement over `table` for the rows the rule
    /// selects.
    fn to_sql_select(&self, table: &str) -> String {
        format!("SELECT * FROM {} WHERE {}", quote_ident(table), self.to_sql_where())
    }
}

impl SqlPredicate for ClusteredRule {
    fn to_sql_where(&self) -> String {
        format!(
            "{} AND {}",
            range_predicate(&self.x_attr, self.x_range.0, self.x_range.1),
            range_predicate(&self.y_attr, self.y_range.0, self.y_range.1),
        )
    }
}

impl SqlPredicate for CategoricalRule {
    fn to_sql_where(&self) -> String {
        let labels: Vec<String> = self.category_labels.iter().map(|l| quote_literal(l)).collect();
        format!(
            "{} IN ({}) AND {}",
            quote_ident(&self.cat_attr),
            labels.join(", "),
            range_predicate(&self.quant_attr, self.quant_range.0, self.quant_range.1),
        )
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

/// Renders a whole segmentation as one predicate: the union (`OR`) of the
/// per-rule predicates, each parenthesised.
pub fn segmentation_where<T: SqlPredicate>(rules: &[T]) -> String {
    if rules.is_empty() {
        return "FALSE".to_string();
    }
    rules.iter().map(|r| format!("({})", r.to_sql_where())).collect::<Vec<_>>().join(" OR ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Rect;
    use std::collections::BTreeMap;

    fn rule() -> ClusteredRule {
        ClusteredRule {
            x_attr: "age".into(),
            x_range: (40.0, 60.0),
            y_attr: "salary".into(),
            y_range: (75_000.0, 125_000.0),
            criterion_attr: "group".into(),
            group_label: "A".into(),
            rect: Rect { x0: 0, y0: 0, x1: 0, y1: 0 },
            support: 0.1,
            confidence: 0.9,
        }
    }

    #[test]
    fn quoting_escapes() {
        assert_eq!(quote_ident("age"), "\"age\"");
        assert_eq!(quote_ident("a\"b"), "\"a\"\"b\"");
        assert_eq!(quote_literal("A"), "'A'");
        assert_eq!(quote_literal("O'Brien"), "'O''Brien'");
    }

    #[test]
    fn clustered_rule_predicate() {
        let sql = rule().to_sql_where();
        assert_eq!(
            sql,
            "\"age\" >= 40 AND \"age\" < 60 AND \"salary\" >= 75000 AND \"salary\" < 125000"
        );
        let select = rule().to_sql_select("customers");
        assert!(select.starts_with("SELECT * FROM \"customers\" WHERE "));
    }

    #[test]
    fn categorical_rule_predicate() {
        let rule = CategoricalRule {
            cat_attr: "zip".into(),
            category_codes: vec![1, 4],
            category_labels: vec!["94305".into(), "94040".into()],
            quant_attr: "salary".into(),
            quant_range: (20_000.0, 60_000.0),
            criterion_attr: "group".into(),
            group_label: "A".into(),
            rect: Rect { x0: 0, y0: 0, x1: 1, y1: 0 },
            support: 0.1,
            confidence: 0.9,
        };
        assert_eq!(
            rule.to_sql_where(),
            "\"zip\" IN ('94305', '94040') AND \"salary\" >= 20000 AND \"salary\" < 60000"
        );
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
    fn segmentation_union() {
        let rules = vec![rule(), rule()];
        let sql = segmentation_where(&rules);
        assert!(sql.contains(") OR ("));
        assert_eq!(sql.matches("\"age\"").count(), 4);
        let empty: Vec<ClusteredRule> = Vec::new();
        assert_eq!(segmentation_where(&empty), "FALSE");
    }
}
