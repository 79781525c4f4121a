//! Criterion bench: simulator throughput (dynamic instructions per second)
//! on both Table II cores.  This is the substrate cost that every tuning
//! evaluation pays, so it bounds how fast the whole framework can iterate.
//!
//! Two groups are tracked across PRs, both annotated with
//! `Throughput::Elements` so criterion reports instructions/second:
//!
//! * `simulator_throughput` — the materialized baseline (`run` over a
//!   pre-expanded 50 k trace) next to the fused streaming path
//!   (`run_source` over a `StreamingExpander`, which pays expansion *and*
//!   simulation in the measured region yet needs no trace allocation),
//!   once computing its own ChaCha8 words and once reading a shared
//!   `Keystream` as `SimPlatform` evaluations do (`run_source_shared`);
//! * `simulator_throughput_streaming` — a large-`dynamic_len` variant
//!   (2 M instructions) that is only affordable because the streaming path
//!   runs in O(window) memory; the materialized two-pass equivalent is
//!   benched alongside it for the fused-vs-two-pass comparison.
//! * `prefetcher_training` — the demand-miss training path of the stride
//!   prefetcher in isolation, guarding the indexed-table rewrite (the old
//!   linear `find` + `Vec::remove(0)` was O(capacity) per miss).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use micrograd_codegen::{
    Generator, GeneratorInput, Keystream, StreamingExpander, TestCase, TraceExpander,
};
use micrograd_sim::{CoreConfig, PrefetchConfig, Simulator, StridePrefetcher};
use std::sync::Arc;

fn testcase() -> TestCase {
    let input = GeneratorInput {
        loop_size: 300,
        seed: 1,
        ..GeneratorInput::default()
    };
    Generator::new().generate(&input).expect("generate")
}

fn simulator_throughput(c: &mut Criterion) {
    let tc = testcase();
    let expander = TraceExpander::new(50_000, 1);
    let trace = expander.expand(&tc);
    let keystream = Arc::new(Keystream::new(1, 50_000));

    let mut group = c.benchmark_group("simulator_throughput");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(20);
    for config in [CoreConfig::small(), CoreConfig::large()] {
        let name = config.name.clone();
        let mut sim = Simulator::new(config);
        group.bench_with_input(BenchmarkId::new("run", &name), &trace, |b, trace| {
            b.iter(|| sim.run(trace));
        });
        group.bench_function(BenchmarkId::new("run_source", &name), |b| {
            b.iter(|| sim.run_source(&mut expander.stream(&tc)));
        });
        group.bench_function(BenchmarkId::new("run_source_shared", &name), |b| {
            b.iter(|| {
                let mut source = StreamingExpander::from_keystream(tc.clone(), 50_000, &keystream);
                sim.run_source(&mut source)
            });
        });
    }
    group.finish();
}

fn simulator_throughput_streaming(c: &mut Criterion) {
    const STREAM_LEN: usize = 2_000_000;
    let tc = testcase();
    let expander = TraceExpander::new(STREAM_LEN, 1);

    let mut group = c.benchmark_group("simulator_throughput_streaming");
    group.throughput(Throughput::Elements(STREAM_LEN as u64));
    group.sample_size(10);
    let mut sim = Simulator::new(CoreConfig::small());
    // Fused: expansion streams straight into the simulator, O(window) memory.
    group.bench_function("streaming", |b| {
        b.iter(|| sim.run_source(&mut expander.stream(&tc)));
    });
    // Two-pass: materialize the 2 M-entry trace, then simulate it.
    group.bench_function("materialized", |b| {
        b.iter(|| sim.run(&expander.expand(&tc)));
    });
    group.finish();
}

fn prefetcher_training(c: &mut Criterion) {
    const OBSERVATIONS: usize = 100_000;
    let mut group = c.benchmark_group("prefetcher_training");
    group.throughput(Throughput::Elements(OBSERVATIONS as u64));
    group.sample_size(20);
    // Worst case for a linear table: more hot PCs than entries, so every
    // miss on a fresh PC pays an eviction; strided addresses per PC keep
    // the stride detector training.
    group.bench_function("capacity_thrash", |b| {
        b.iter(|| {
            let mut p = StridePrefetcher::new(PrefetchConfig {
                enabled: true,
                degree: 2,
            });
            let mut issued = 0u64;
            for i in 0..OBSERVATIONS as u64 {
                let pc = 0x40_0000 + (i % 96) * 4;
                let addr = 0x2000_0000 + (i % 96) * 0x1_0000 + (i / 96) * 0x100;
                issued += p.observe(pc, addr, 64).len() as u64;
            }
            issued
        });
    });
    // Steady state: a handful of streaming PCs that stay resident.
    group.bench_function("resident_streams", |b| {
        b.iter(|| {
            let mut p = StridePrefetcher::new(PrefetchConfig {
                enabled: true,
                degree: 2,
            });
            let mut issued = 0u64;
            for i in 0..OBSERVATIONS as u64 {
                let pc = 0x40_0000 + (i % 8) * 4;
                let addr = 0x2000_0000 + (i % 8) * 0x10_0000 + (i / 8) * 0x40;
                issued += p.observe(pc, addr, 64).len() as u64;
            }
            issued
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    simulator_throughput,
    simulator_throughput_streaming,
    prefetcher_training
);
criterion_main!(benches);
