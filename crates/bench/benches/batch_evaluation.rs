//! Criterion bench: sequential vs parallel batch evaluation throughput.
//!
//! Measures `ExecutionPlatform::evaluate_batch` on an epoch-shaped batch of
//! distinct generator inputs (the ladder probes of one gradient-descent
//! epoch on the Small core), comparing the sequential path against worker
//! pools of increasing size.  This is the speedup the batch-parallel
//! evaluation pipeline exists for; on a multi-core host the `workers-N`
//! variants should scale towards N× until memory bandwidth intervenes.
//! Those inputs fix the memory and branch knobs at their defaults, which
//! make few random outcomes; `sequential_full` evaluates random inputs of
//! the full knob space, whose re-use draws and flips `clone-cold` jobs pay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use micrograd_codegen::GeneratorInput;
use micrograd_core::{ExecutionPlatform, KnobSpace, SimPlatform};
use micrograd_sim::CoreConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One epoch's worth of distinct evaluation inputs.
fn epoch_batch(space: &KnobSpace, count: usize) -> Vec<GeneratorInput> {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    (0..count)
        .map(|_| {
            space
                .resolve(&space.random_config(&mut rng), 1)
                .expect("valid random config")
        })
        .collect()
}

fn batch_evaluation(c: &mut Criterion) {
    let space = {
        let mut s = KnobSpace::instruction_fractions();
        s.loop_size = 150;
        s
    };
    let batch = epoch_batch(&space, 24);
    let full_batch = {
        let mut full = KnobSpace::full();
        full.loop_size = space.loop_size;
        epoch_batch(&full, 24)
    };

    let host_workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut worker_counts = vec![1usize, 2, 4];
    if !worker_counts.contains(&host_workers) {
        worker_counts.push(host_workers);
    }

    let mut group = c.benchmark_group("batch_evaluation");
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            // A fresh platform per iteration so memoization does not hide
            // the evaluation cost.
            let platform = SimPlatform::new(CoreConfig::small())
                .with_dynamic_len(10_000)
                .with_seed(1);
            platform.evaluate_batch(&batch)
        });
    });
    group.bench_function("sequential_full", |b| {
        b.iter(|| {
            let platform = SimPlatform::new(CoreConfig::small())
                .with_dynamic_len(10_000)
                .with_seed(1);
            platform.evaluate_batch(&full_batch)
        });
    });
    for workers in worker_counts {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let platform = SimPlatform::new(CoreConfig::small())
                        .with_dynamic_len(10_000)
                        .with_seed(1)
                        .with_parallelism(Some(workers));
                    platform.evaluate_batch(&batch)
                });
            },
        );
    }

    // Duplicate-heavy batch: every distinct input appears 16×, the shape a
    // gradient ladder produces when most probes revisit the epoch base.
    // This isolates the batch dedup path (sort-based run grouping): the
    // evaluation work is constant, so differences between variants are
    // pure dedup overhead.
    let dedup_batch: Vec<GeneratorInput> = epoch_batch(&space, 6)
        .into_iter()
        .flat_map(|input| std::iter::repeat_n(input, 16))
        .collect();
    group.throughput(Throughput::Elements(dedup_batch.len() as u64));
    group.bench_function("dedup_heavy", |b| {
        b.iter(|| {
            let platform = SimPlatform::new(CoreConfig::small())
                .with_dynamic_len(10_000)
                .with_seed(1)
                .with_parallelism(Some(2));
            platform.evaluate_batch(&dedup_batch)
        });
    });
    group.finish();
}

criterion_group!(benches, batch_evaluation);
criterion_main!(benches);
