//! End-to-end capture→analysis throughput, sequential vs `Threads(n)`.
//!
//! The same simulated capture is ingested (flow reconstruction, dialect
//! detection, streaming APDU decode) and analysed (typeID census, session
//! extraction, chain census, series extraction) at increasing worker
//! counts. Output is bit-identical at every setting — only wall-clock
//! time changes — so the elements/s throughputs are directly comparable.
//! The work unit itself lives in `uncharted_bench::pipebench`, shared with
//! the CI smoke test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use uncharted::ExecPolicy;
use uncharted_bench::pipebench::{ingest_and_analyze, scenario_packets};

fn bench_pipeline(c: &mut Criterion) {
    let packets = scenario_packets(6, 120.0);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(packets.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("ingest_analyze", threads),
            &threads,
            |b, &threads| {
                b.iter(|| ingest_and_analyze(packets.clone(), ExecPolicy::Threads(threads)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
