//! Criterion bench: record-path cost of the observability layer.  The
//! design contract (`docs/observability.md`) is that a record is a handful
//! of relaxed atomics; the `obs_overhead` group keeps that measured on the
//! primitive record paths: counter increments and histogram records across
//! the bucket range.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use micrograd_obs::Registry;
use std::hint::black_box;

fn obs_overhead(c: &mut Criterion) {
    const BATCH: u64 = 1_000;
    let registry = Registry::new();
    let counter = registry.counter("bench_events_total", "bench counter");
    let histogram = registry.histogram("bench_latency_us", "bench histogram");

    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(BATCH));
    group.bench_function("counter_inc", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                counter.inc();
            }
        });
    });
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            // Sweep the value range so every bucket tier (linear head,
            // log-linear middle, overflow) stays on the measured path.
            for i in 0..BATCH {
                histogram.record(black_box(i.wrapping_mul(2_654_435_761) % 10_000_000));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, obs_overhead);
criterion_main!(benches);
