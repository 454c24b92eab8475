//! Criterion micro-benchmarks for the binner: tuples/second through the
//! single binning pass over a dataset's columns, on one thread (the
//! dominant cost of ARCS at scale, Figure 15).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use arcs_core::Binner;
use arcs_data::agrawal;
use arcs_data::generator::{AgrawalGenerator, GeneratorConfig};
use arcs_data::Dataset;

fn dataset(n: usize) -> Dataset {
    let mut gen = AgrawalGenerator::new(GeneratorConfig::paper_defaults(1)).expect("valid config");
    gen.generate(n)
}

fn bench_binning(c: &mut Criterion) {
    let schema = agrawal::schema();
    let binner = Binner::equi_width(&schema, "age", "salary", "group", 50, 50)
        .expect("schema attributes exist");

    let mut group = c.benchmark_group("binning/bin_rows_parallel");
    group.sample_size(30);
    for n in [10_000usize, 100_000] {
        let ds = dataset(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &ds, |b, ds| {
            b.iter(|| binner.bin_rows_parallel(ds.rows(), 1).expect("binning succeeds"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_binning);
criterion_main!(benches);
