//! Property-based tests (proptest) holding BitOp to the clustering
//! baselines of [`arcs_bench::cover`]: the exact minimum-cover oracle and
//! connected components.

use proptest::collection::vec;
use proptest::prelude::*;

use arcs_bench::cover::{connected_components, optimal_cover};
use arcs_core::bitop::{self, BitOpConfig};
use arcs_core::Grid;

/// Strategy: a small random grid as (width, height, cell bits).
fn grid_strategy() -> impl Strategy<Value = Grid> {
    (1usize..80, 1usize..20).prop_flat_map(|(w, h)| {
        vec(any::<bool>(), w * h).prop_map(move |bits| {
            let mut grid = Grid::new(w, h).unwrap();
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    grid.set(i % w, i / w);
                }
            }
            grid
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On small grids BitOp's greedy cover never uses fewer rectangles
    /// than the exact optimum, and stays within the greedy set-cover
    /// guarantee in practice (we assert a loose 3x bound; measured average
    /// is ~1.01x, see `exp_clusterer_quality`).
    #[test]
    fn bitop_respects_the_optimal_cover_oracle(
        bits in vec(any::<bool>(), 36..=36),
    ) {
        let mut grid = Grid::new(6, 6).unwrap();
        for (i, &b) in bits.iter().enumerate() {
            if b {
                grid.set(i % 6, i / 6);
            }
        }
        let optimal = optimal_cover(&grid).unwrap();
        let greedy = bitop::cluster(
            &grid,
            &BitOpConfig::no_pruning(),
        )
        .unwrap();
        prop_assert!(greedy.len() >= optimal.len());
        if !optimal.is_empty() {
            prop_assert!(greedy.len() <= optimal.len() * 3);
        }
    }

    /// Connected components partition the set cells: every set cell lies
    /// in exactly one component's bounding box... (boxes may overlap on
    /// unset cells, so we check membership by flood identity instead:
    /// total boxes ≤ set cells, and every set cell is inside some box).
    #[test]
    fn connected_components_cover_every_set_cell(grid in grid_strategy()) {
        let comps = connected_components(&grid);
        prop_assert!(comps.len() <= grid.count_ones());
        for (x, y) in grid.iter_set() {
            prop_assert!(comps.iter().any(|r| r.contains(x, y)));
        }
    }
}
