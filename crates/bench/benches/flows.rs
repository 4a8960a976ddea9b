//! Capture-plane throughput: packet parsing, flow reconstruction, pcap
//! round trips and full dataset ingestion.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use uncharted::analysis::dataset::Dataset;
use uncharted::nettap::flow::FlowTable;
use uncharted::nettap::pcap::Capture;
use uncharted::{ExecContext, Scenario, Simulation, Year};

fn capture() -> Capture {
    Simulation::new(Scenario::small(Year::Y1, 11, 120.0))
        .run()
        .captures
        .remove(0)
}

fn bench_capture_plane(c: &mut Criterion) {
    let cap = capture();
    let parsed = cap.parsed();
    let mut group = c.benchmark_group("capture");
    group.throughput(Throughput::Elements(cap.len() as u64));

    group.bench_function("parse_packets", |b| b.iter(|| black_box(cap.parsed())));
    group.bench_function("flow_reconstruction", |b| {
        b.iter(|| {
            black_box(FlowTable::reconstruct(
                black_box(&parsed),
                uncharted::nettap::NettapMetrics::sink(),
            ))
        })
    });
    group.bench_function("dataset_ingest", |b| {
        b.iter(|| black_box(Dataset::ingest(parsed.clone(), &ExecContext::sequential())))
    });

    let mut pcap_bytes = Vec::new();
    cap.write_pcap(&mut pcap_bytes).unwrap();
    group.throughput(Throughput::Bytes(pcap_bytes.len() as u64));
    group.bench_function("pcap_write", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(pcap_bytes.len());
            cap.write_pcap(&mut buf).unwrap();
            black_box(buf)
        })
    });
    group.bench_function("pcap_read", |b| {
        b.iter(|| black_box(Capture::read_pcap(black_box(&pcap_bytes[..])).unwrap()))
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    group.sample_size(10);
    group.bench_function("y1_small_60s", |b| {
        b.iter(|| black_box(Simulation::new(Scenario::small(Year::Y1, 3, 60.0)).run()))
    });
    group.finish();
}

criterion_group!(benches, bench_capture_plane, bench_simulation);
criterion_main!(benches);
