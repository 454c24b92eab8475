//! Clusters: rectangular regions of the bin grid, and their conversion to
//! clustered association rules (paper §2.1, §3.3).

use std::fmt;

use crate::binning::BinMap;
use crate::error::ArcsError;

/// An axis-aligned rectangle of grid cells with **inclusive** bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Leftmost column.
    pub x0: usize,
    /// Bottom row (grid row index; the paper draws y increasing upward).
    pub y0: usize,
    /// Rightmost column (inclusive).
    pub x1: usize,
    /// Top row (inclusive).
    pub y1: usize,
}

impl Rect {
    /// Creates a rect, validating `x0 <= x1 && y0 <= y1`.
    pub fn new(x0: usize, y0: usize, x1: usize, y1: usize) -> Result<Self, ArcsError> {
        if x0 > x1 || y0 > y1 {
            return Err(ArcsError::InvalidConfig(format!(
                "inverted rect ({x0}, {y0})..({x1}, {y1})"
            )));
        }
        Ok(Rect { x0, y0, x1, y1 })
    }

    /// Width in cells.
    pub fn width(&self) -> usize {
        self.x1 - self.x0 + 1
    }

    /// Height in cells.
    pub fn height(&self) -> usize {
        self.y1 - self.y0 + 1
    }

    /// Area in cells.
    pub fn area(&self) -> usize {
        self.width() * self.height()
    }

    /// Whether the cell `(x, y)` lies inside.
    pub fn contains(&self, x: usize, y: usize) -> bool {
        (self.x0..=self.x1).contains(&x) && (self.y0..=self.y1).contains(&y)
    }

    /// The intersection with `other`, if non-empty.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.x0.max(other.x0);
        let x1 = self.x1.min(other.x1);
        let y0 = self.y0.max(other.y0);
        let y1 = self.y1.min(other.y1);
        (x0 <= x1 && y0 <= y1).then_some(Rect { x0, y0, x1, y1 })
    }

    /// Whether `self` and `other` share at least one cell.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.intersect(other).is_some()
    }

    /// Iterates over all contained cells, row-major.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.y0..=self.y1).flat_map(move |y| (self.x0..=self.x1).map(move |x| (x, y)))
    }
}

/// A clustered association rule (paper §2.1): two attribute ranges implying
/// a criterion group, decoded back to raw attribute values.
///
/// ```text
/// 40 <= Age < 42  AND  40000 <= Salary < 60000  =>  Group = A
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredRule {
    /// Name of the x attribute.
    pub x_attr: String,
    /// Half-open value range `[lo, hi)` on the x attribute.
    pub x_range: (f64, f64),
    /// Name of the y attribute.
    pub y_attr: String,
    /// Half-open value range `[lo, hi)` on the y attribute.
    pub y_range: (f64, f64),
    /// Name of the criterion attribute.
    pub criterion_attr: String,
    /// Label of the criterion group the rule implies.
    pub group_label: String,
    /// The grid rectangle the rule was decoded from.
    pub rect: Rect,
    /// Aggregate support of the cluster: fraction of all tuples that fall
    /// in the rectangle *and* carry the group label.
    pub support: f64,
    /// Aggregate confidence: of the tuples in the rectangle, the fraction
    /// carrying the group label.
    pub confidence: f64,
}

impl ClusteredRule {
    /// Decodes a grid rectangle into value ranges using the binner's maps.
    #[allow(clippy::too_many_arguments)]
    pub fn from_rect(
        rect: Rect,
        x_map: &BinMap,
        y_map: &BinMap,
        x_attr: &str,
        y_attr: &str,
        criterion_attr: &str,
        group_label: &str,
        support: f64,
        confidence: f64,
    ) -> Result<Self, ArcsError> {
        let (x_lo, _) = x_map
            .range(rect.x0)
            .ok_or(ArcsError::OutOfBounds { what: format!("x bin {}", rect.x0) })?;
        let (_, x_hi) = x_map
            .range(rect.x1)
            .ok_or(ArcsError::OutOfBounds { what: format!("x bin {}", rect.x1) })?;
        let (y_lo, _) = y_map
            .range(rect.y0)
            .ok_or(ArcsError::OutOfBounds { what: format!("y bin {}", rect.y0) })?;
        let (_, y_hi) = y_map
            .range(rect.y1)
            .ok_or(ArcsError::OutOfBounds { what: format!("y bin {}", rect.y1) })?;
        Ok(ClusteredRule {
            x_attr: x_attr.to_string(),
            x_range: (x_lo, x_hi),
            y_attr: y_attr.to_string(),
            y_range: (y_lo, y_hi),
            criterion_attr: criterion_attr.to_string(),
            group_label: group_label.to_string(),
            rect,
            support,
            confidence,
        })
    }

    /// Whether a raw `(x, y)` point satisfies the rule's LHS.
    pub fn covers(&self, x: f64, y: f64) -> bool {
        (self.x_range.0..self.x_range.1).contains(&x)
            && (self.y_range.0..self.y_range.1).contains(&y)
    }
}

/// Formats a bound with at most four decimals, trimming trailing zeros —
/// keeps binned boundaries like `41.6` readable despite floating-point
/// representation error.
pub(crate) fn fmt_bound(v: f64) -> String {
    let mut s = format!("{v:.4}");
    if s.contains('.') {
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.pop();
        }
    }
    s
}

impl fmt::Display for ClusteredRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} <= {} < {}  AND  {} <= {} < {}  =>  {} = {}",
            fmt_bound(self.x_range.0),
            self.x_attr,
            fmt_bound(self.x_range.1),
            fmt_bound(self.y_range.0),
            self.y_attr,
            fmt_bound(self.y_range.1),
            self.criterion_attr,
            self.group_label
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_geometry() {
        let r = Rect::new(2, 3, 5, 7).unwrap();
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 5);
        assert_eq!(r.area(), 20);
        assert!(r.contains(2, 3));
        assert!(r.contains(5, 7));
        assert!(!r.contains(6, 7));
        assert!(!r.contains(5, 8));
        assert_eq!(r.cells().count(), 20);
        assert!(Rect::new(5, 0, 2, 0).is_err());
        assert!(Rect::new(0, 5, 0, 2).is_err());
    }

    #[test]
    fn unit_rect() {
        let r = Rect::new(4, 4, 4, 4).unwrap();
        assert_eq!(r.area(), 1);
        assert_eq!(r.cells().collect::<Vec<_>>(), vec![(4, 4)]);
    }

    #[test]
    fn intersection_and_overlap() {
        let a = Rect::new(0, 0, 4, 4).unwrap();
        let b = Rect::new(3, 3, 6, 6).unwrap();
        let c = Rect::new(5, 0, 6, 2).unwrap();
        assert_eq!(a.intersect(&b), Some(Rect { x0: 3, y0: 3, x1: 4, y1: 4 }));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.intersect(&c), None);
        // Touching at a single shared cell counts as overlap.
        let d = Rect::new(4, 4, 8, 8).unwrap();
        assert_eq!(a.intersect(&d).unwrap().area(), 1);
    }

    #[test]
    fn clustered_rule_decodes_ranges() {
        let x_map = BinMap::equi_width(20.0, 80.0, 60).unwrap(); // 1 year/bin
        let y_map = BinMap::equi_width(0.0, 150_000.0, 15).unwrap(); // 10k/bin
        let rect = Rect::new(20, 4, 21, 5).unwrap(); // ages 40..42, salary 40k..60k
        let rule =
            ClusteredRule::from_rect(rect, &x_map, &y_map, "age", "salary", "group", "A", 0.1, 0.9)
                .unwrap();
        assert_eq!(rule.x_range, (40.0, 42.0));
        assert_eq!(rule.y_range, (40_000.0, 60_000.0));
        let text = rule.to_string();
        assert_eq!(text, "40 <= age < 42  AND  40000 <= salary < 60000  =>  group = A");
    }

    #[test]
    fn clustered_rule_covers_points() {
        let x_map = BinMap::equi_width(0.0, 10.0, 10).unwrap();
        let y_map = BinMap::equi_width(0.0, 10.0, 10).unwrap();
        let rule = ClusteredRule::from_rect(
            Rect::new(2, 3, 4, 5).unwrap(),
            &x_map,
            &y_map,
            "x",
            "y",
            "g",
            "A",
            0.0,
            0.0,
        )
        .unwrap();
        assert!(rule.covers(2.0, 3.0));
        assert!(rule.covers(4.9, 5.9));
        assert!(!rule.covers(5.0, 4.0)); // half-open upper bound
        assert!(!rule.covers(1.9, 4.0));
    }

    #[test]
    fn from_rect_rejects_out_of_range_bins() {
        let x_map = BinMap::equi_width(0.0, 10.0, 5).unwrap();
        let y_map = BinMap::equi_width(0.0, 10.0, 5).unwrap();
        let rect = Rect::new(0, 0, 5, 0).unwrap(); // x1 = 5 out of range
        assert!(
            ClusteredRule::from_rect(rect, &x_map, &y_map, "x", "y", "g", "A", 0.0, 0.0).is_err()
        );
    }
}
