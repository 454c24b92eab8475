//! Property-based tests (proptest) for the core data structures and
//! invariants: the bitmap grid, BitOp cover properties, binning, the
//! BinArray/engine consistency, MDL monotonicity, the verifier, the
//! Figure 10 lattice and search, and the query body shared by sessions
//! and the serving core.

use proptest::collection::vec;
use proptest::prelude::*;

use arcs::core::bitop::{self, BitOpConfig};
use arcs::core::engine::{mine_rules, mine_rules_indexed, rule_grid, support_grid};
use arcs::core::grid::{for_each_run, for_each_run_reference};
use arcs::core::index::{DeltaMiner, OccupancyIndex};
use arcs::core::jsonio::{parse, Reader};
use arcs::core::mdl::{mdl_cost, MdlWeights};
use arcs::core::request::{read_query_result, write_query_result};
use arcs::core::smooth::{smooth, smooth_reference, SmoothConfig};
use arcs::core::verify::{verify_counts, verify_tuples};
use arcs::core::{optimize, Request, ThresholdLattice};
use arcs::prelude::*;

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

/// Strategy: grids whose widths straddle the 64-bit word boundary, plus
/// degenerate 1xN / Nx1 shapes — the cases a word-level kernel gets wrong
/// first (cross-word carries, tail masks, single-row neighbourhoods).
fn wide_grid_strategy() -> impl Strategy<Value = Grid> {
    (0usize..4, 50usize..140, 1usize..8)
        .prop_map(|(shape, big, small)| match shape {
            0 => (big, small),   // straddles the word boundary
            1 => (1, small + 1), // single column
            2 => (big, 1),       // single row
            _ => (small, small), // tiny square (1x1 included)
        })
        .prop_flat_map(|(w, h)| {
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

/// Strategy: no cluster spec, or one varying the smoothing passes and
/// the pruning area fraction.
fn cluster_spec_strategy() -> impl Strategy<Value = Option<ClusterSpec>> {
    (any::<bool>(), 0usize..3, 0.0f64..0.2).prop_map(|(on, passes, fraction)| {
        on.then(|| ClusterSpec {
            smoothing: SmoothConfig { passes },
            bitop: BitOpConfig { min_area_fraction: fraction, ..BitOpConfig::default() },
        })
    })
}

/// The reference composition of one query on `array`: the full-scan
/// miner for the rules; the full-scan bitmap, the scalar smoother and
/// BitOp for the clusters.
fn reference_answer(
    array: &BinArray,
    gk: u32,
    t: Thresholds,
    spec: Option<&ClusterSpec>,
) -> (Vec<BinnedRule>, Option<Vec<Rect>>) {
    let clusters = spec.map(|spec| {
        let grid = rule_grid(array, gk, t).unwrap();
        let smoothed = smooth_reference(&grid, &spec.smoothing).unwrap();
        bitop::cluster(&smoothed, &spec.bitop).unwrap()
    });
    (mine_rules(array, gk, t), clusters)
}

/// A rule with its floats as bit patterns, so `==` is bit for bit (`-0.0`
/// differs from `0.0`, a NaN equals itself).
fn rule_bits(r: &BinnedRule) -> (usize, usize, u32, u32, u32, [u64; 4]) {
    let measures = [r.support, r.confidence, r.lift, r.leverage].map(f64::to_bits);
    (r.x, r.y, r.group, r.count, r.total, measures)
}

/// A dataset over `x, y ∈ [0, 10)` and a three-group criterion `g`.
/// `rows` as tuples, in order.
fn xyg_tuples(rows: &[(f64, f64, u32)]) -> Vec<Tuple> {
    rows.iter()
        .map(|&(x, y, g)| Tuple::new(vec![Value::Quant(x), Value::Quant(y), Value::Cat(g)]))
        .collect()
}

fn xyg_dataset(rows: &[(f64, f64, u32)]) -> Dataset {
    let schema = Schema::new(vec![
        Attribute::quantitative("x", 0.0, 10.0),
        Attribute::quantitative("y", 0.0, 10.0),
        Attribute::categorical("g", ["a", "b", "c"]),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    for &(x, y, g) in rows {
        ds.push(&[Value::Quant(x), Value::Quant(y), Value::Cat(g)]).unwrap();
    }
    ds
}

/// The lattice the per-level filter builds, from `BinArray`'s public
/// accessors: the ascending distinct group counts of the occupied cells
/// as support fractions and, per level, the sorted distinct confidences
/// of the cells whose count reaches it.
fn reference_lattice(array: &BinArray, gk: u32) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = array.n_tuples();
    let cells: Vec<(u32, f64)> = array
        .occupied_cells()
        .map(|(x, y)| (array.group_count(x, y, gk), array.confidence(x, y, gk)))
        .filter(|&(count, _)| count > 0)
        .collect();
    let mut counts: Vec<u32> = cells.iter().map(|&(count, _)| count).collect();
    counts.sort_unstable();
    counts.dedup();
    counts
        .iter()
        .map(|&level| {
            let mut confs: Vec<f64> =
                cells.iter().filter(|&&(c, _)| c >= level).map(|&(_, conf)| conf).collect();
            confs.sort_by(f64::total_cmp);
            confs.dedup();
            (level as f64 / n as f64, confs)
        })
        .unzip()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The count verifier on an array binned from a sample reports the
    /// errors the tuple verifier finds on that sample, for the BitOp
    /// clusters of any grid and for the empty cluster set. On a session's
    /// own bin array it reports the errors over every row of the dataset,
    /// and so does each `Segmentation`.
    #[test]
    fn count_verifier_matches_the_tuple_verifier(
        data in (vec((0.0f64..10.0, 0.0f64..10.0, 0u32..3), 0..300), 1usize..12, 1usize..12),
        picks in vec(any::<bool>(), 300),
        bits in vec(any::<bool>(), 144),
        fraction in 0.0f64..0.2,
    ) {
        let (rows, nx, ny) = data;
        let ds = xyg_dataset(&rows);
        let tuples = xyg_tuples(&rows);
        let binner = Binner::equi_width(ds.schema(), "x", "y", "g", nx, ny).unwrap();
        let sample: Vec<&Tuple> = tuples.iter().zip(&picks).filter(|(_, &p)| p).map(|(t, _)| t).collect();
        let array = binner.bin_rows(sample.iter().copied()).unwrap();
        let mut grid = Grid::new(nx, ny).unwrap();
        for (i, _) in bits.iter().enumerate().take(nx * ny).filter(|(_, &b)| b) {
            grid.set(i % nx, i / nx);
        }
        let config = BitOpConfig { min_area_fraction: fraction, threads: 1 };
        let clusters = bitop::cluster(&grid, &config).unwrap();
        for gk in 0..3u32 {
            for c in [&clusters[..], &[]] {
                prop_assert_eq!(
                    verify_counts(c, &array, gk),
                    verify_tuples(c, &binner, sample.iter().copied(), gk),
                    "clusters {:?}, group {}", c, gk
                );
            }
        }

        if ds.is_empty() {
            return Ok(()); // a session needs rows
        }
        let arcs = Arcs::new(ArcsConfig { n_x_bins: nx, n_y_bins: ny, ..ArcsConfig::default() })
            .unwrap();
        let mut session = arcs.open(&ds, SegmentRequest::new("x", "y", "g")).unwrap();
        for gk in 0..3u32 {
            for c in [&clusters[..], &[]] {
                prop_assert_eq!(
                    verify_counts(c, session.bin_array(), gk),
                    verify_tuples(c, &binner, tuples.iter(), gk),
                    "session array, clusters {:?}, group {}", c, gk
                );
            }
        }
        for (gk, (label, seg)) in session.segment_all().unwrap().into_iter().enumerate() {
            match seg {
                Ok(seg) => prop_assert_eq!(
                    seg.errors,
                    verify_tuples(&seg.clusters, &binner, tuples.iter(), gk as u32),
                    "segmentation of group {}", label
                ),
                // Nothing clusters for a group without rows.
                Err(ArcsError::NoSegmentation) => {}
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
    }

    /// Every evaluation the search records carries the errors the tuple
    /// verifier finds for its clusters on the sample `optimize` was given,
    /// at any thread count.
    #[test]
    fn search_trace_errors_match_the_tuple_verifier(
        rows in vec((0.0f64..10.0, 0.0f64..10.0, 0u32..3), 1..300),
        picks in vec(any::<bool>(), 300),
        bins in 2usize..12,
        passes in 0usize..2,
        threads in 1usize..4,
    ) {
        let ds = xyg_dataset(&rows);
        let tuples = xyg_tuples(&rows);
        let binner = Binner::equi_width(ds.schema(), "x", "y", "g", bins, bins).unwrap();
        let array = binner.bin_rows(&tuples).unwrap();
        let sample: Vec<&Tuple> = tuples.iter().zip(&picks).filter(|(_, &p)| p).map(|(t, _)| t).collect();
        let gk = rows[0].2;
        let config = OptimizerConfig {
            smoothing: SmoothConfig { passes },
            bitop: BitOpConfig { threads: 1, ..BitOpConfig::no_pruning() },
            max_evaluations: 40,
            threads,
            ..OptimizerConfig::default()
        };
        match optimize(&array, gk, &binner, &sample, &config) {
            Ok(result) => {
                prop_assert!(!result.trace.is_empty());
                for eval in &result.trace {
                    prop_assert_eq!(
                        eval.errors,
                        verify_tuples(&eval.clusters, &binner, sample.iter().copied(), gk),
                        "at {:?}", eval.thresholds
                    );
                }
            }
            // Smoothing can erase every sparse qualifying cell.
            Err(ArcsError::NoSegmentation) => prop_assert!(passes > 0),
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// The one-sweep lattice equals the per-level filter at every level,
    /// on small arrays whose cells share counts and confidences.
    #[test]
    fn sweep_lattice_matches_the_per_level_filter(
        shape in (1usize..8, 1usize..8),
        counts in vec((0u32..4, 0u32..4, 0u32..3), 64),
    ) {
        let (nx, ny) = shape;
        let mut array = BinArray::new(nx, ny, 3).unwrap();
        for (i, &(a, b, c)) in counts.iter().enumerate().take(nx * ny) {
            for (g, n) in [(0, a), (1, b), (2, c)] {
                for _ in 0..n {
                    array.add(i % nx, i / nx, g);
                }
            }
        }
        for gk in 0..3u32 {
            let lattice = ThresholdLattice::build(&array, gk);
            let (supports, confidences) = reference_lattice(&array, gk);
            prop_assert_eq!(lattice.supports(), &supports[..]);
            for (i, confs) in confidences.iter().enumerate() {
                prop_assert_eq!(lattice.confidences_for(i), &confs[..], "level {}", i);
            }
            prop_assert_eq!(lattice.occupied_cells(), array.occupied_cells().count() as u64);
        }
    }

    /// BitOp without pruning is an exact cover: clusters are disjoint,
    /// every cluster cell is set, and the union equals the set cells.
    #[test]
    fn bitop_is_an_exact_disjoint_cover(grid in grid_strategy()) {
        let config = BitOpConfig { min_area_fraction: 0.0, threads: 1 };
        let clusters = bitop::cluster(&grid, &config).unwrap();
        // Disjoint.
        for (i, a) in clusters.iter().enumerate() {
            for b in &clusters[i + 1..] {
                prop_assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
        }
        // Exact cover.
        let covered: usize = clusters.iter().map(Rect::area).sum();
        prop_assert_eq!(covered, grid.count_ones());
        for rect in &clusters {
            prop_assert!(grid.rect_is_full(*rect));
        }
    }

    /// Candidate enumeration only returns rectangles fully set in the grid.
    #[test]
    fn bitop_candidates_are_fully_set(grid in grid_strategy()) {
        for rect in bitop::enumerate_candidates(&grid) {
            prop_assert!(grid.rect_is_full(rect), "candidate {rect:?} not full");
        }
    }

    /// Run extraction reconstructs the exact bit pattern of a row mask.
    #[test]
    fn runs_reconstruct_the_mask(bits in vec(any::<bool>(), 1..200)) {
        let width = bits.len();
        let mut words = vec![0u64; width.div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        let mut reconstructed = vec![false; width];
        for_each_run(&words, width, |x0, x1| {
            reconstructed[x0..=x1].fill(true);
        });
        prop_assert_eq!(reconstructed, bits);
    }

    /// The tz-skipping run extractor is bit-identical to the
    /// bit-at-a-time reference on arbitrary masks — same runs, in the
    /// same order, including runs that carry across 64-bit word
    /// boundaries and tail widths that are not word multiples.
    #[test]
    fn run_extraction_matches_the_reference(
        words in vec(any::<u64>(), 1..5),
        tail in 1usize..=64,
    ) {
        let width = (words.len() - 1) * 64 + tail;
        let mut fast = Vec::new();
        for_each_run(&words, width, |x0, x1| fast.push((x0, x1)));
        let mut slow = Vec::new();
        for_each_run_reference(&words, width, |x0, x1| slow.push((x0, x1)));
        prop_assert_eq!(fast, slow, "width {}, words {:?}", width, words);
    }

    /// The word-parallel candidate scan is bit-identical to the branchy
    /// scalar reference on arbitrary grids — same rectangles, in the
    /// same order — including word-straddling widths and degenerate
    /// single-row / single-column shapes.
    #[test]
    fn candidate_enumeration_matches_the_reference(grid in wide_grid_strategy()) {
        prop_assert_eq!(
            bitop::enumerate_candidates(&grid),
            bitop::enumerate_candidates_reference(&grid)
        );
    }

    /// Equi-width binning: every value maps into a bin whose range
    /// contains it (up to the closed last bin).
    #[test]
    fn equi_width_bin_contains_value(
        lo in -1e6f64..1e6,
        width in 1e-3f64..1e6,
        n_bins in 1usize..200,
        t in 0.0f64..1.0,
    ) {
        let hi = lo + width;
        let map = BinMap::equi_width(lo, hi, n_bins).unwrap();
        let v = lo + t * width;
        let b = map.bin_of_value(v);
        prop_assert!(b < n_bins);
        let (blo, bhi) = map.range(b).unwrap();
        prop_assert!(
            (blo <= v && v < bhi) || (b == n_bins - 1 && v >= bhi),
            "value {v} not in bin {b} = [{blo}, {bhi})"
        );
    }

    /// Equi-depth binning: bins are non-empty intervals in ascending order
    /// and every input value maps to a valid bin.
    #[test]
    fn equi_depth_bins_are_ordered(values in vec(-1e6f64..1e6, 1..300), n in 1usize..20) {
        let map = BinMap::equi_depth(&values, n).unwrap();
        prop_assert!(map.n_bins() >= 1 && map.n_bins() <= n);
        let mut prev_hi = f64::NEG_INFINITY;
        for b in 0..map.n_bins() {
            let (lo, hi) = map.range(b).unwrap();
            prop_assert!(lo < hi);
            prop_assert!(lo >= prev_hi);
            prev_hi = hi;
        }
        for &v in &values {
            prop_assert!(map.bin_of_value(v) < map.n_bins());
        }
    }

    /// BinArray bookkeeping: group counts sum to cell totals, totals sum
    /// to the tuple count, support/confidence stay in [0, 1].
    #[test]
    fn binarray_counts_are_consistent(
        adds in vec((0usize..6, 0usize..6, 0u32..3), 0..300),
    ) {
        let mut ba = BinArray::new(6, 6, 3).unwrap();
        for &(x, y, g) in &adds {
            ba.add(x, y, g);
        }
        prop_assert_eq!(ba.n_tuples(), adds.len() as u64);
        let mut total = 0u64;
        for y in 0..6 {
            for x in 0..6 {
                let cell: u32 = (0..3).map(|g| ba.group_count(x, y, g)).sum();
                prop_assert_eq!(cell, ba.cell_total(x, y));
                total += ba.cell_total(x, y) as u64;
                for g in 0..3 {
                    let s = ba.support(x, y, g);
                    let c = ba.confidence(x, y, g);
                    prop_assert!((0.0..=1.0).contains(&s));
                    prop_assert!((0.0..=1.0).contains(&c));
                }
            }
        }
        prop_assert_eq!(total, ba.n_tuples());
    }

    /// Engine consistency: `rule_grid` sets exactly the cells `mine_rules`
    /// returns, and tightening either threshold shrinks the rule set.
    #[test]
    fn engine_grid_matches_rules_and_is_monotone(
        adds in vec((0usize..6, 0usize..6, 0u32..2), 1..300),
        s1 in 0.0f64..0.3, s2 in 0.0f64..0.3,
        c1 in 0.0f64..1.0, c2 in 0.0f64..1.0,
    ) {
        let mut ba = BinArray::new(6, 6, 2).unwrap();
        for &(x, y, g) in &adds {
            ba.add(x, y, g);
        }
        let (s_lo, s_hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let (c_lo, c_hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };

        let t = Thresholds::new(s_lo, c_lo).unwrap();
        let rules = mine_rules(&ba, 0, t);
        let grid = rule_grid(&ba, 0, t).unwrap();
        let from_rules: std::collections::HashSet<_> =
            rules.iter().map(|r| (r.x, r.y)).collect();
        let from_grid: std::collections::HashSet<_> = grid.iter_set().collect();
        prop_assert_eq!(&from_rules, &from_grid);

        let tighter_s = mine_rules(&ba, 0, Thresholds::new(s_hi, c_lo).unwrap());
        let tighter_c = mine_rules(&ba, 0, Thresholds::new(s_lo, c_hi).unwrap());
        prop_assert!(tighter_s.len() <= rules.len());
        prop_assert!(tighter_c.len() <= rules.len());
        // Subset, not just smaller.
        let set_s: std::collections::HashSet<_> =
            tighter_s.iter().map(|r| (r.x, r.y)).collect();
        prop_assert!(set_s.is_subset(&from_rules));
    }

    /// Support grid entries are the per-cell supports and sum to the
    /// group's share of the data.
    #[test]
    fn support_grid_sums_to_group_share(
        adds in vec((0usize..5, 0usize..5, 0u32..2), 1..200),
    ) {
        let mut ba = BinArray::new(5, 5, 2).unwrap();
        for &(x, y, g) in &adds {
            ba.add(x, y, g);
        }
        let sg = support_grid(&ba, 0);
        let total: f64 = sg.iter().sum();
        let group0 = adds.iter().filter(|&&(_, _, g)| g == 0).count() as f64;
        prop_assert!((total - group0 / adds.len() as f64).abs() < 1e-9);
    }

    /// MDL cost is monotone in both arguments and respects the weights.
    #[test]
    fn mdl_is_monotone(c1 in 1usize..1000, c2 in 1usize..1000,
                       e1 in 1usize..100_000, e2 in 1usize..100_000) {
        let w = MdlWeights::default();
        let (c_lo, c_hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let (e_lo, e_hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        prop_assert!(mdl_cost(c_lo, e_lo, w) <= mdl_cost(c_hi, e_lo, w) + 1e-12);
        prop_assert!(mdl_cost(c_lo, e_lo, w) <= mdl_cost(c_lo, e_hi, w) + 1e-12);
    }

    /// Smoothing never panics and its output density change is bounded by
    /// the neighbourhood argument: a completely empty grid stays empty and
    /// a full grid keeps its interior.
    #[test]
    fn smoothing_boundary_behaviour(w in 3usize..40, h in 3usize..12) {
        let empty = Grid::new(w, h).unwrap();
        let smoothed = smooth(&empty, &SmoothConfig::default()).unwrap();
        prop_assert!(smoothed.is_empty());

        let mut full = Grid::new(w, h).unwrap();
        full.set_rect(Rect { x0: 0, y0: 0, x1: w - 1, y1: h - 1 });
        let smoothed = smooth(&full, &SmoothConfig::default()).unwrap();
        for y in 1..h - 1 {
            for x in 1..w - 1 {
                prop_assert!(smoothed.get(x, y), "interior ({x},{y}) eroded");
            }
        }
    }

    /// The low-pass filter is monotone: adding set cells to the input can
    /// only add (never remove) set cells in the output — every
    /// neighbourhood sum is non-decreasing under insertion.
    #[test]
    fn smoothing_is_monotone(grid in grid_strategy(), extra in vec(any::<bool>(), 0..40)) {
        let mut bigger = grid.clone();
        let (w, h) = (grid.width(), grid.height());
        for (i, &b) in extra.iter().enumerate() {
            if b {
                bigger.set((i * 7) % w, (i * 3) % h);
            }
        }
        let small_smoothed = smooth(&grid, &SmoothConfig::default()).unwrap();
        let big_smoothed = smooth(&bigger, &SmoothConfig::default()).unwrap();
        for (x, y) in small_smoothed.iter_set() {
            prop_assert!(
                big_smoothed.get(x, y),
                "cell ({x},{y}) lost by adding input cells"
            );
        }
    }

    /// The classifier's exact-binomial pessimistic bound really is the
    /// inverse CDF: evaluating the binomial CDF at the returned rate gives
    /// back the confidence factor.
    #[test]
    fn pessimistic_bound_inverts_the_binomial_cdf(
        n in 1usize..60,
        e_frac in 0.0f64..1.0,
        cf in 0.05f64..0.95,
    ) {
        let errors = ((n as f64 * e_frac) as usize).min(n.saturating_sub(1));
        let bound = arcs::classifier::tree::pessimistic_errors(errors, n, cf);
        let p = bound / n as f64;
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
        if cf <= 0.5 {
            // At C4.5-style confidence factors the bound is pessimistic:
            // at least the observed rate.
            prop_assert!(p >= errors as f64 / n as f64 - 1e-9);
        }
        // Brute-force CDF at p.
        let mut cdf = 0.0;
        let mut term = (1.0 - p).powi(n as i32); // C(n,0) p^0 q^n
        for i in 0..=errors {
            cdf += term;
            term *= (n - i) as f64 / (i + 1) as f64 * p / (1.0 - p);
        }
        prop_assert!((cdf - cf).abs() < 1e-3, "CDF({p}) = {cdf}, cf = {cf}");
    }

    /// CSV write/read round-trips arbitrary valid datasets exactly
    /// (Rust's shortest-representation float formatting is lossless).
    #[test]
    fn csv_roundtrip_is_lossless(
        rows in vec((0.0f64..100.0, 0u32..3), 1..60),
    ) {
        let schema = Schema::new(vec![
            Attribute::quantitative("x", 0.0, 100.0),
            Attribute::categorical("g", ["a", "b", "c"]),
        ]).unwrap();
        let mut ds = Dataset::new(schema.clone());
        for &(x, g) in &rows {
            ds.push(&[Value::Quant(x), Value::Cat(g)]).unwrap();
        }
        let mut buf = Vec::new();
        arcs::data::csv::write_csv(&ds, &mut buf).unwrap();
        let back = arcs::data::csv::read_csv(schema, &buf[..]).unwrap();
        prop_assert_eq!(back, ds);
    }

    /// SQL predicates always quote the attribute names and bound both
    /// ranges, whatever characters the names contain.
    #[test]
    fn sql_predicates_quote_safely(name in "[a-z\"']{1,12}") {
        use arcs::core::sql::SqlPredicate;
        let rule = arcs::core::ClusteredRule {
            x_attr: name.clone(),
            x_range: (1.0, 2.0),
            y_attr: "y".into(),
            y_range: (3.0, 4.0),
            criterion_attr: "g".into(),
            group_label: "A".into(),
            rect: Rect { x0: 0, y0: 0, x1: 0, y1: 0 },
            support: 0.0,
            confidence: 0.0,
        };
        let sql = rule.to_sql_where();
        // The doubled-quote escape keeps the identifier intact.
        let quoted = format!("\"{}\"", name.replace('"', "\"\""));
        prop_assert!(sql.contains(&quoted), "{sql}");
        prop_assert!(sql.contains(">= 1"));
        prop_assert!(sql.contains("< 2"));
    }

    /// The output-sensitive miners agree bit-for-bit with the naive
    /// full-scan reference on arbitrary bin arrays, and the delta miner
    /// stays exact along an arbitrary threshold walk (the Figure-10
    /// optimizer access pattern: many small threshold moves on one array).
    #[test]
    fn indexed_and_delta_mining_match_the_reference(
        adds in vec((0usize..7, 0usize..5, 0u32..3), 0..250),
        walk in vec((0.0f64..0.2, 0.0f64..1.0), 1..8),
    ) {
        let mut ba = BinArray::new(7, 5, 3).unwrap();
        for &(x, y, g) in &adds {
            ba.add(x, y, g);
        }
        let index = OccupancyIndex::build(&ba);
        prop_assert_eq!(index.n_tuples(), ba.n_tuples());
        for gk in 0..3u32 {
            let mut delta = DeltaMiner::new(&index, gk).unwrap();
            for &(s, c) in &walk {
                let t = Thresholds::new(s, c).unwrap();
                let (visited, _) = delta.update(&index, t);
                // A cell can be touched through both the count range and
                // the confidence range of one move, so touches are bounded
                // by twice the group's occupied cells — never the full grid.
                prop_assert!(
                    visited <= 2 * index.group_cells(gk).len() as u64,
                    "delta visited {visited} cells, group has only {}",
                    index.group_cells(gk).len()
                );
                prop_assert_eq!(delta.grid(), &rule_grid(&ba, gk, t).unwrap());
                let (rules, full) = mine_rules_indexed(&index, gk, t);
                prop_assert_eq!(&rules, &mine_rules(&ba, gk, t));
                prop_assert_eq!(full, index.group_cells(gk).len() as u64);
            }
        }
    }

    /// One formula: every rule either miner emits is
    /// `BinnedRule::from_counts` of its own cell counts and the array's
    /// totals, bit for bit. And a served result written and read back is
    /// `==` to the result: the round trip the daemon's wire answers rest
    /// on.
    #[test]
    fn every_rule_is_built_from_its_counts(
        adds in vec((0usize..9, 0usize..7, 0u32..3), 0..300),
        query in (0u32..3, 0.0f64..0.2, 0.0f64..1.0),
        spec in cluster_spec_strategy(),
    ) {
        let (gk, s, c) = query;
        let t = Thresholds::new(s, c).unwrap();
        let mut ba = BinArray::new(9, 7, 3).unwrap();
        for &(x, y, g) in &adds {
            ba.add(x, y, g);
        }
        let (n, group_total) = (ba.n_tuples(), ba.group_total(gk));
        let (indexed, _) = mine_rules_indexed(&OccupancyIndex::build(&ba), gk, t);
        let full_scan = mine_rules(&ba, gk, t);
        prop_assert_eq!(indexed.len(), full_scan.len());
        for rule in full_scan.iter().chain(&indexed) {
            prop_assert_eq!(rule.group, gk);
            prop_assert_eq!(rule.count, ba.group_count(rule.x, rule.y, gk));
            prop_assert_eq!(rule.total, ba.cell_total(rule.x, rule.y));
            let rebuilt =
                BinnedRule::from_counts(rule.x, rule.y, gk, rule.count, rule.total, n, group_total);
            prop_assert_eq!(rule_bits(rule), rule_bits(&rebuilt));
        }

        let server = Server::new(ba, ServeConfig::default()).unwrap();
        let mut request = QueryRequest::new(gk, t);
        request.cluster = spec;
        let served = server.query(&request).unwrap();
        let mut text = String::new();
        write_query_result(&served.result, &mut text);
        let mut reader = Reader::new(&text);
        let back = read_query_result(&mut reader).unwrap();
        reader.finish().unwrap();
        prop_assert_eq!(&back, &*served.result);
        let pairs = back.rules.iter().zip(&served.result.rules);
        prop_assert!(pairs.into_iter().all(|(a, b)| rule_bits(a) == rule_bits(b)));
    }

    /// The word-parallel smoothing kernel is bit-identical to the scalar
    /// reference for every pass count — including widths that are not
    /// multiples of 64 and degenerate single-row / single-column grids.
    #[test]
    fn word_smoothing_matches_the_scalar_reference(
        grid in wide_grid_strategy(),
        passes in 0usize..4,
    ) {
        let config = SmoothConfig { passes };
        let fast = smooth(&grid, &config).unwrap();
        let slow = smooth_reference(&grid, &config).unwrap();
        prop_assert_eq!(&fast, &slow, "config: {:?}", config);
    }

    /// Tuples generated by any Agrawal function always validate against
    /// the schema, and labels are within the group cardinality.
    #[test]
    fn generator_tuples_always_validate(seed in 0u64..1000, func_idx in 0usize..10) {
        let config = GeneratorConfig {
            function: AgrawalFunction::ALL[func_idx],
            ..GeneratorConfig::paper_defaults(seed)
        };
        let mut gen = AgrawalGenerator::new(config).unwrap();
        let schema = arcs::data::agrawal::schema();
        for t in gen.by_ref().take(50) {
            prop_assert!(Tuple::validated(t.values().to_vec(), &schema).is_ok());
        }
    }

    /// One request, one answer: a label-named `Request`, sent through
    /// its JSON form as the wire carries it, gets `==` results from
    /// `Session::query` and `Server::query_unified`, and both hold what
    /// the reference composition computes.
    #[test]
    fn session_and_server_answer_like_the_reference_composition(
        data in (vec((0.0f64..10.0, 0.0f64..10.0, 0u32..3), 1..300), 4usize..12, 4usize..12),
        query in (0u32..3, 0.0f64..0.3, 0.0f64..1.0),
        spec in cluster_spec_strategy(),
    ) {
        let (rows, nx, ny) = data;
        let (gk, s, c) = query;
        let ds = xyg_dataset(&rows);
        let config = ArcsConfig { n_x_bins: nx, n_y_bins: ny, ..ArcsConfig::default() };
        let mut session = Arcs::new(config).unwrap()
            .open(&ds, SegmentRequest::new("x", "y", "g")).unwrap();
        let array = session.bin_array().clone();
        let labels = session.binner().labels().to_vec();
        let t = Thresholds::new(s, c).unwrap();

        let mut request = Request::new().group(labels[gk as usize].clone()).thresholds(t);
        if let Some(spec) = &spec {
            request = request.cluster(spec.clone());
        }
        let request = Request::from_json(&parse(&request.to_json().to_string()).unwrap()).unwrap();
        let (rules, clusters) = reference_answer(&array, gk, t, spec.as_ref());
        let local = session.query(&request).unwrap();
        prop_assert_eq!(local.group, gk);
        prop_assert_eq!(&local.rules, &rules);
        prop_assert_eq!(&local.clusters, &clusters);
        let server = Server::new(array, ServeConfig::default()).unwrap();
        let served = server.query_unified(&request, &labels).unwrap();
        prop_assert_eq!(&*served.result, &local);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharded binning over a dataset's columns merges to the exact
    /// `BinArray` the sequential pass over its tuples builds — same
    /// counts, same checksum — under equi-width and equi-depth maps, at 1
    /// to 8 threads. A case holds up to 22,000 rows, so it bins as 1 to 5
    /// shards of at least 4,096 rows, and some values sit on a bin edge
    /// or outside the declared domain.
    #[test]
    fn parallel_binning_matches_sequential(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let schema = Schema::new(vec![
            Attribute::quantitative("x", 0.0, 50.0),
            Attribute::quantitative("y", 0.0, 50.0),
            Attribute::categorical("g", ["a", "b", "c"]),
        ]).unwrap();
        let n = rng.gen_range(1..=22_000);
        let mut ds = Dataset::with_capacity(schema.clone(), n);
        for _ in 0..n {
            let mut value = || match rng.gen_range(0..10) {
                0 => rng.gen_range(0..=10) as f64 * 5.0,
                1 => rng.gen_range(-10.0..60.0),
                _ => rng.gen_range(0.0..50.0),
            };
            let (x, y) = (value(), value());
            ds.push(&[Value::Quant(x), Value::Quant(y), Value::Cat(rng.gen_range(0..3))]).unwrap();
        }
        let (x_bins, y_bins) = (rng.gen_range(1..60), rng.gen_range(1..60));
        let depth = |idx, bins| BinMap::equi_depth(ds.quant(idx).unwrap(), bins).unwrap();
        let binners = [
            Binner::equi_width(&schema, "x", "y", "g", x_bins, y_bins).unwrap(),
            Binner::with_maps(&schema, "x", "y", "g", depth(0, x_bins), depth(1, y_bins)).unwrap(),
        ];
        let tuples = arcs::data::sample::sample_rows(&ds, n, &mut rng).unwrap();
        for binner in &binners {
            let sequential = binner.bin_rows(tuples.iter().copied()).unwrap();
            for threads in 1..=8 {
                let parallel = binner.bin_rows_parallel(ds.rows(), threads).unwrap();
                prop_assert_eq!(&parallel, &sequential, "threads {}", threads);
                prop_assert_eq!(parallel.checksum(), sequential.checksum());
            }
        }
    }
}
