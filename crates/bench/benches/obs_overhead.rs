//! Criterion bench: record-path cost of the observability layer, on and
//! off.  The design contract (`docs/observability.md`) is that a disabled
//! recorder is a branch and an enabled one a handful of relaxed atomics;
//! this group keeps both claims measured.
//!
//! * `obs_overhead` — the primitive record paths: counter increments and
//!   histogram records across the bucket range;
//! * `obs_overhead_sim` — a full simulator run with profiling off vs
//!   sampling every 4096 retired instructions, the end-to-end form of the
//!   same question (the delta is the profiler's cost inside the hot loop).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use micrograd_codegen::{Generator, GeneratorInput, TestCase, TraceExpander};
use micrograd_obs::Registry;
use micrograd_sim::{CoreConfig, Simulator};
use std::hint::black_box;

fn testcase() -> TestCase {
    let input = GeneratorInput {
        loop_size: 300,
        seed: 1,
        ..GeneratorInput::default()
    };
    Generator::new().generate(&input).expect("generate")
}

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

fn obs_overhead_sim(c: &mut Criterion) {
    const DYNAMIC_LEN: usize = 50_000;
    let tc = testcase();
    let expander = TraceExpander::new(DYNAMIC_LEN, 1);
    let trace = expander.expand(&tc);

    let mut group = c.benchmark_group("obs_overhead_sim");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(20);
    let mut plain = Simulator::new(CoreConfig::small());
    group.bench_function("profile_off", |b| {
        b.iter(|| plain.run(&trace));
    });
    let mut profiled = Simulator::new(CoreConfig::small());
    profiled.set_profiling(4_096);
    group.bench_function("profile_on", |b| {
        b.iter(|| profiled.run(&trace));
    });
    group.finish();
}

criterion_group!(benches, obs_overhead, obs_overhead_sim);
criterion_main!(benches);
