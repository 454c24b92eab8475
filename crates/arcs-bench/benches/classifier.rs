//! Criterion micro-benchmarks for the C4.5 baseline: training-time growth
//! with |D| (the super-linear cost behind the paper's Table 2 contrast).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use arcs_classifier::{DecisionTree, RuleSet, RulesConfig, TreeConfig};
use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};
use arcs_data::Dataset;

fn dataset(n: usize) -> Dataset {
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(2)).expect("valid config");
    gen.generate(n)
}

fn bench_classifier(c: &mut Criterion) {
    let mut group = c.benchmark_group("classifier/train");
    group.sample_size(10);
    for n in [2_000usize, 5_000, 10_000, 20_000] {
        let ds = dataset(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &ds, |b, ds| {
            b.iter(|| DecisionTree::train(ds, "group", TreeConfig::default()).expect("trains"));
        });
    }
    group.finish();

    c.bench_function("classifier/extract_rules_5k", |b| {
        let ds = dataset(5_000);
        let tree = DecisionTree::train(&ds, "group", TreeConfig::default()).expect("trains");
        b.iter(|| RuleSet::from_tree(&tree, &ds, RulesConfig::default()).expect("extracts"));
    });
}

criterion_group!(benches, bench_classifier);
criterion_main!(benches);
