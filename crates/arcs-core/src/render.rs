//! ASCII rendering of grids and clusters (for the Figure 1/4/5/7-style
//! displays in examples and the benchmark harness).

use crate::cluster::Rect;
use crate::grid::Grid;

/// Renders a grid as rows of `#` / `.`, top row first.
pub fn render_grid(grid: &Grid) -> String {
    let mut out = String::with_capacity((grid.width() + 1) * grid.height());
    for y in 0..grid.height() {
        for x in 0..grid.width() {
            out.push(if grid.get(x, y) { '#' } else { '.' });
        }
        out.push('\n');
    }
    out
}

/// Renders a grid with clusters overlaid: cells inside cluster `i` print
/// the letter `A + (i mod 26)` (uppercase), set cells outside any cluster
/// print `#`, unset cells `.`.
pub fn render_clusters(grid: &Grid, clusters: &[Rect]) -> String {
    let mut out = String::with_capacity((grid.width() + 1) * grid.height());
    for y in 0..grid.height() {
        for x in 0..grid.width() {
            let label = clusters.iter().position(|r| r.contains(x, y));
            out.push(match label {
                Some(i) => (b'A' + (i % 26) as u8) as char,
                None if grid.get(x, y) => '#',
                None => '.',
            });
        }
        out.push('\n');
    }
    out
}

/// Renders two grids side by side with a gutter — the paper's Figure 7
/// "(a) prior to smoothing, (b) after smoothing" layout.
pub fn render_side_by_side(left: &Grid, right: &Grid, gutter: &str) -> String {
    let height = left.height().max(right.height());
    let mut out = String::new();
    for y in 0..height {
        for x in 0..left.width() {
            out.push(if y < left.height() && left.get(x, y) { '#' } else { '.' });
        }
        out.push_str(gutter);
        for x in 0..right.width() {
            out.push(if y < right.height() && right.get(x, y) { '#' } else { '.' });
        }
        out.push('\n');
    }
    out
}

/// Renders a grid with cluster overlays as an SVG document (the paper's
/// Figure 1 style: rule cells as filled squares, clusters as outlined
/// rounded rectangles). `cell_px` is the size of one grid cell in pixels.
/// Row 0 is drawn at the *bottom*, matching the paper's axes (the y
/// attribute increases upward).
pub fn render_svg(grid: &Grid, clusters: &[Rect], cell_px: usize) -> String {
    let cell = cell_px.max(1);
    let w = grid.width() * cell;
    let h = grid.height() * cell;
    let mut svg = String::with_capacity(4096);
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\">\n"
    ));
    svg.push_str(&format!("  <rect width=\"{w}\" height=\"{h}\" fill=\"#ffffff\"/>\n"));
    // Rule cells.
    for (x, y) in grid.iter_set() {
        let px = x * cell;
        let py = (grid.height() - 1 - y) * cell;
        svg.push_str(&format!(
            "  <rect x=\"{px}\" y=\"{py}\" width=\"{cell}\" height=\"{cell}\" \
             fill=\"#4a4a4a\"/>\n"
        ));
    }
    // Cluster outlines, cycling a small palette.
    const PALETTE: [&str; 6] = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf"];
    for (i, rect) in clusters.iter().enumerate() {
        let px = rect.x0 * cell;
        let py = (grid.height() - 1 - rect.y1) * cell;
        let pw = rect.width() * cell;
        let ph = rect.height() * cell;
        let colour = PALETTE[i % PALETTE.len()];
        svg.push_str(&format!(
            "  <rect x=\"{px}\" y=\"{py}\" width=\"{pw}\" height=\"{ph}\" rx=\"{r}\" \
             fill=\"{colour}\" fill-opacity=\"0.15\" stroke=\"{colour}\" \
             stroke-width=\"2\"/>\n",
            r = cell / 2
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_roundtrips_through_render_and_parse() {
        let art = "##..\n.##.\n..##\n";
        let grid = Grid::parse(art).unwrap();
        assert_eq!(render_grid(&grid), art);
        let reparsed = Grid::parse(&render_grid(&grid)).unwrap();
        assert_eq!(reparsed, grid);
    }

    #[test]
    fn clusters_are_lettered() {
        let grid = Grid::parse("###.\n###.\n...#\n").unwrap();
        let clusters = vec![Rect::new(0, 0, 2, 1).unwrap()];
        let art = render_clusters(&grid, &clusters);
        assert_eq!(art, "AAA.\nAAA.\n...#\n");
    }

    #[test]
    fn cluster_letters_wrap_after_z() {
        let mut grid = Grid::new(30, 1).unwrap();
        for x in 0..28 {
            grid.set(x, 0);
        }
        let clusters: Vec<Rect> = (0..28).map(|x| Rect::new(x, 0, x, 0).unwrap()).collect();
        let art = render_clusters(&grid, &clusters);
        assert!(art.starts_with("ABCDEFGHIJKLMNOPQRSTUVWXYZAB"));
    }

    #[test]
    fn side_by_side_layout() {
        let a = Grid::parse("#.\n.#\n").unwrap();
        let b = Grid::parse("##\n##\n").unwrap();
        let art = render_side_by_side(&a, &b, " | ");
        assert_eq!(art, "#. | ##\n.# | ##\n");
    }

    #[test]
    fn side_by_side_uneven_heights() {
        let a = Grid::parse("#\n").unwrap();
        let b = Grid::parse("#\n#\n").unwrap();
        let art = render_side_by_side(&a, &b, "|");
        assert_eq!(art, "#|#\n.|#\n");
    }

    #[test]
    fn svg_contains_cells_and_clusters() {
        let grid = Grid::parse("##.\n##.\n...\n").unwrap();
        let clusters = vec![Rect::new(0, 1, 1, 2).unwrap()];
        let svg = render_svg(&grid, &clusters, 10);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("width=\"30\" height=\"30\""));
        // 4 set cells + background + 1 cluster outline = 6 rects.
        assert_eq!(svg.matches("<rect").count(), 6);
        assert!(svg.contains("stroke=\"#d62728\""));
        // Balanced tags (all rects self-close).
        assert_eq!(svg.matches("/>").count(), 6);
    }

    #[test]
    fn svg_flips_y_axis() {
        // A single cell at grid (0, 0) must be drawn at the *bottom* row.
        let mut grid = Grid::new(2, 3).unwrap();
        grid.set(0, 0);
        let svg = render_svg(&grid, &[], 10);
        assert!(svg.contains("<rect x=\"0\" y=\"20\""), "{svg}");
    }

    #[test]
    fn svg_minimum_cell_size() {
        let grid = Grid::parse("#\n").unwrap();
        let svg = render_svg(&grid, &[], 0); // clamped to 1
        assert!(svg.contains("width=\"1\" height=\"1\""));
    }
}
