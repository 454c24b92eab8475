//! Determinism and robustness across seeds: every stochastic component
//! takes an explicit seed, so identical configurations reproduce
//! bit-for-bit, and the headline result holds across seeds.

use arcs::prelude::*;

#[test]
fn identical_seeds_reproduce_identical_segmentations() {
    let run = |seed| {
        let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(seed)).unwrap();
        let ds = gen.generate(10_000);
        let arcs = Arcs::with_defaults();
        arcs.open(&ds, SegmentRequest::new("age", "salary", "group").group("A"))
            .unwrap()
            .segment()
            .unwrap()
    };
    let a = run(123);
    let b = run(123);
    assert_eq!(a, b);
}

#[test]
fn different_data_seeds_still_recover_three_rules() {
    for seed in [10, 20, 30] {
        let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(seed)).unwrap();
        let ds = gen.generate(25_000);
        let arcs = Arcs::with_defaults();
        let seg = arcs
            .open(&ds, SegmentRequest::new("age", "salary", "group").group("A"))
            .unwrap()
            .segment()
            .unwrap();
        assert_eq!(
            seg.rules.len(),
            3,
            "seed {seed}: {:#?}",
            seg.rules.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }
}

#[test]
fn generator_streams_are_reproducible_across_iterator_and_generate() {
    let config = GeneratorConfig::paper_defaults(55);
    let mut by_generate = AgrawalGenerator::new(config.clone()).unwrap();
    let ds = by_generate.generate(500);
    let mut by_iter = Dataset::new(ds.schema().clone());
    for tuple in AgrawalGenerator::new(config).unwrap().take(500) {
        by_iter.push(tuple.values()).unwrap();
    }
    assert_eq!(ds, by_iter);
}

/// Builds an `Arcs` with every thread knob pinned to `threads`.
fn arcs_with_threads(threads: usize) -> Arcs {
    let config = ArcsConfig {
        threads,
        optimizer: OptimizerConfig { threads, ..OptimizerConfig::default() },
        ..ArcsConfig::default()
    };
    Arcs::new(config).unwrap()
}

/// PR 2 tentpole guarantee, re-asserted over the persistent worker pool
/// (PR 10): the parallel execution layer is bit-identical to the
/// sequential one — same `BinArray` checksum after sharded binning and
/// the same rules in the same order after the parallel threshold search —
/// on the paper's Agrawal F2 workload at every pooled thread count.
#[test]
fn parallel_execution_is_bit_identical_on_agrawal_f2() {
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(99)).unwrap();
    let ds = gen.generate(30_000);
    let request = SegmentRequest::new("age", "salary", "group").group("A");

    let mut baseline = arcs_with_threads(1).open(&ds, request.clone()).unwrap();
    let base_checksum = baseline.bin_array().checksum();
    let base_seg = baseline.segment().unwrap();

    for threads in [2, 4, 8] {
        let mut session = arcs_with_threads(threads).open(&ds, request.clone()).unwrap();
        assert_eq!(
            session.bin_array().checksum(),
            base_checksum,
            "bin array diverged at {threads} threads"
        );
        let seg = session.segment().unwrap();
        assert_eq!(seg.rules, base_seg.rules, "rules diverged at {threads} threads");
        assert_eq!(seg, base_seg, "segmentation diverged at {threads} threads");
    }
}

/// PR 3 acceptance criterion: determinism survives fault injection. With
/// a failpoint panicking every binning shard worker, recovery (bounded
/// retries, then per-shard sequential recompute) must reproduce the exact
/// fault-free result — same `BinArray` checksum, same segmentation — with
/// the absorbed panics visible in the report counters.
#[cfg(feature = "failpoints")]
#[test]
fn injected_shard_panics_do_not_change_results() {
    use arcs::core::faults;

    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(99)).unwrap();
    let ds = gen.generate(30_000);
    let request = SegmentRequest::new("age", "salary", "group").group("A");

    let mut clean = arcs_with_threads(4).open(&ds, request.clone()).unwrap();
    let clean_checksum = clean.bin_array().checksum();
    let clean_seg = clean.segment().unwrap();

    // Recovery is bit-identical, so tests sharing the process while this
    // schedule is armed still pass — but serialise the arm/clear window
    // anyway to keep `worker_panics` attributable to this session.
    faults::configure_from_spec("binner.shard=panic@1+").unwrap();
    let mut faulted = arcs_with_threads(4).open(&ds, request).unwrap();
    faults::clear();

    assert_eq!(faulted.bin_array().checksum(), clean_checksum);
    assert!(faulted.report().counters.worker_panics > 0);
    assert_eq!(faulted.segment().unwrap(), clean_seg);
}

/// The same bit-identity on an adversarially clumped dataset (all mass in
/// a few cells, sizes not divisible by the chunk size) rather than the
/// smooth synthetic workload.
#[test]
fn parallel_binning_is_bit_identical_on_a_clumped_dataset() {
    let schema = Schema::new(vec![
        Attribute::quantitative("x", 0.0, 100.0),
        Attribute::quantitative("y", 0.0, 100.0),
        Attribute::categorical("g", ["A", "B", "C"]),
    ])
    .unwrap();
    let mut ds = Dataset::new(schema);
    // 10_007 rows (prime, so no chunking divides evenly), heavily skewed.
    for i in 0..10_007u64 {
        let cell = (i * i + 17) % 7;
        let x = (cell as f64) * 13.0 + 1.5;
        let y = ((i % 3) as f64) * 30.0 + 2.5;
        let g = (i % 5).min(2) as u32;
        ds.push(&[Value::Quant(x), Value::Quant(y), Value::Cat(g)]).unwrap();
    }
    let request = SegmentRequest::new("x", "y", "g");
    let base = arcs_with_threads(1).open(&ds, request.clone()).unwrap();
    for threads in [2, 3, 4, 8] {
        let session = arcs_with_threads(threads).open(&ds, request.clone()).unwrap();
        assert_eq!(
            session.bin_array().checksum(),
            base.bin_array().checksum(),
            "checksum diverged at {threads} threads"
        );
    }
}
