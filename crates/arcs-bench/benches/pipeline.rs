//! Criterion micro-benchmark for the full ARCS pipeline (bin → optimize →
//! decode) on the paper's workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use arcs_core::{Arcs, ArcsConfig, SegmentRequest};
use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};
use arcs_data::Dataset;

fn dataset(n: usize, u: f64) -> Dataset {
    let config = GeneratorConfig { outlier_fraction: u, ..GeneratorConfig::paper_defaults(3) };
    let mut gen = AgrawalGenerator::new(config).expect("valid config");
    gen.generate(n)
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/segment");
    group.sample_size(10);
    for (n, u) in [(20_000usize, 0.0), (50_000, 0.0), (50_000, 0.10)] {
        let ds = dataset(n, u);
        let label = format!("{n}_u{:.0}", u * 100.0);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(label), &ds, |b, ds| {
            let arcs = Arcs::new(ArcsConfig::default()).expect("valid config");
            b.iter(|| {
                arcs.open(ds, SegmentRequest::new("age", "salary", "group").group("A"))
                    .and_then(|mut s| s.segment())
                    .expect("segmentation succeeds")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
