//! Criterion bench: service-layer throughput.
//!
//! Two costs gate how much traffic one `microgradd` can absorb: the wire
//! protocol (every request/response crosses `encode_line`/`decode_*`) and
//! the scheduler's submit→execute→fetch pipeline.  The protocol group
//! measures encode/decode round-trips for the hot message shapes (a submit
//! request and a full report response); the scheduler group measures
//! jobs/sec through a workerless (inline-stepped) scheduler against a cold
//! store — every job pays a real tuning run — and the two costs of a
//! restarted daemon's warm durable store, apart: opening it, and answering
//! submissions from it without executing.  The store group measures the
//! cache-dump codec a job's persistence and a warm start pay: one
//! job-sized chunk of 1,000 memoized evaluations appended to a disk store,
//! and loaded back.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use micrograd_codegen::GeneratorInput;
use micrograd_core::{
    CoreKind, FrameworkConfig, KnobSpaceKind, MetricKind, Metrics, MicroGrad, PackedInput,
    StressGoal, TunerKind, UseCaseConfig,
};
use micrograd_service::{
    decode_request, decode_response, encode_line, Request, RequestBody, Response, ResponseBody,
    ResultStore, Scheduler, SchedulerConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn tiny_config(seed: u64) -> FrameworkConfig {
    FrameworkConfig {
        core: CoreKind::Small,
        tuner: TunerKind::GradientDescent,
        knob_space: KnobSpaceKind::InstructionFractions,
        use_case: UseCaseConfig::Stress {
            metric: MetricKind::Ipc,
            goal: StressGoal::Minimize,
        },
        max_epochs: 1,
        dynamic_len: 2_000,
        reference_len: 2_000,
        seed,
        ..FrameworkConfig::default()
    }
}

/// The batch of distinct jobs one scheduler iteration pushes through.
fn job_batch() -> Vec<FrameworkConfig> {
    (0..4).map(tiny_config).collect()
}

fn protocol_roundtrip(c: &mut Criterion) {
    let submit = Request::new(RequestBody::Submit {
        config: tiny_config(1),
        priority: 3,
        deadline_ms: None,
    });
    let submit_line = encode_line(&submit).expect("submit encodes");

    // A real report response, so the decode side sees production-shaped
    // payloads (nested reports, float-heavy metrics).
    let output = MicroGrad::new(tiny_config(1))
        .run()
        .expect("tiny stress run succeeds");
    let report = Response::new(ResponseBody::Report { job: 1, output });
    let report_line = encode_line(&report).expect("report encodes");

    let mut group = c.benchmark_group("service_protocol");
    group.throughput(Throughput::Bytes(submit_line.len() as u64));
    group.bench_function("submit_encode_decode", |b| {
        b.iter(|| {
            let line = encode_line(&submit).expect("submit encodes");
            decode_request(&line).expect("round-trips")
        });
    });
    group.throughput(Throughput::Bytes(report_line.len() as u64));
    group.bench_function("report_encode_decode", |b| {
        b.iter(|| {
            let line = encode_line(&report).expect("report encodes");
            decode_response(&line).expect("round-trips")
        });
    });
    group.finish();
}

/// Drains a workerless scheduler inline: submit every config, step until
/// the queue is empty, return the completed-job count (read from the
/// registry, which costs no store scan).
fn run_batch(scheduler: &Scheduler, jobs: &[FrameworkConfig]) -> u64 {
    for config in jobs {
        scheduler
            .submit(config.clone(), 0)
            .expect("queue has capacity");
    }
    while scheduler.step() {}
    scheduler
        .metrics()
        .samples()
        .into_iter()
        .find(|sample| sample.name == "micrograd_jobs_completed_total")
        .map_or(0, |sample| sample.value)
}

fn scheduler_throughput(c: &mut Criterion) {
    let jobs = job_batch();

    // Warm store: one execution of every job persisted to disk up front;
    // the benched submissions are then pure durable-store hits.
    let warm_dir =
        std::env::temp_dir().join(format!("micrograd-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&warm_dir);
    {
        let store = ResultStore::open(&warm_dir).expect("scratch store opens");
        let scheduler = Scheduler::new(
            SchedulerConfig {
                workers: 0,
                queue_capacity: jobs.len(),
                ..SchedulerConfig::default()
            },
            store,
        );
        assert_eq!(run_batch(&scheduler, &jobs), jobs.len() as u64);
    }

    let mut group = c.benchmark_group("service_scheduler");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs.len() as u64));
    group.bench_function("jobs_cold_store", |b| {
        b.iter(|| {
            // A fresh in-memory store per iteration: every job executes.
            let scheduler = Scheduler::new(
                SchedulerConfig {
                    workers: 0,
                    queue_capacity: jobs.len(),
                    ..SchedulerConfig::default()
                },
                ResultStore::in_memory(),
            );
            run_batch(&scheduler, &jobs)
        });
    });
    // A restart's cost: the open scan of the pre-populated directory.
    group.bench_function("store_open", |b| {
        b.iter(|| ResultStore::open(&warm_dir).expect("scratch store opens"));
    });
    // An answer's cost, over a store opened once: with no terminal record
    // retained, no submission dedups, so every one is a store hit.
    let scheduler = Scheduler::new(
        SchedulerConfig {
            workers: 0,
            queue_capacity: jobs.len(),
            retained_jobs: 0,
        },
        ResultStore::open(&warm_dir).expect("scratch store opens"),
    );
    group.bench_function("store_hit", |b| {
        b.iter(|| {
            for config in &jobs {
                let receipt = scheduler.submit(config.clone(), 0).expect("accepted");
                assert!(receipt.cached, "every submission is a store hit");
            }
        });
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&warm_dir);
}

/// `n` evaluations shaped like a tuning run's: random knob weights and a
/// full metric vector of full-precision values.
fn evaluations(n: usize) -> Vec<(GeneratorInput, Metrics)> {
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    (0..n)
        .map(|i| {
            let mut input = GeneratorInput {
                loop_size: 300,
                reg_dependency_distance: rng.gen_range(1..=10),
                branch_randomness: rng.gen_range(0.0..1.0),
                seed: i as u64,
                ..GeneratorInput::default()
            };
            for weight in input.instr_weights.values_mut() {
                *weight = f64::from(rng.gen_range(0..=10u32));
            }
            let metrics = MetricKind::ALL.iter().fold(Metrics::new(), |m, &kind| {
                m.with(kind, rng.gen_range(0.0..4.0))
            });
            (input, metrics)
        })
        .collect()
}

fn store_codec(c: &mut Criterion) {
    let entries: Vec<_> = evaluations(1_000)
        .iter()
        .map(|(input, metrics)| (PackedInput::new(input), metrics.clone()))
        .collect();
    let pairs = || entries.iter().map(|(input, metrics)| (input, metrics));
    let dir = std::env::temp_dir().join(format!("micrograd-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("scratch store opens");
    // Appends go to one key (its dump grows by a chunk per sample); loads
    // read another key's single chunk.
    let (appended, loaded) = ("large:25000:1", "large:25000:2");
    store.append_cache(loaded, pairs()).expect("chunk lands");

    let mut group = c.benchmark_group("service_store");
    group.sample_size(10);
    group.throughput(Throughput::Elements(entries.len() as u64));
    group.bench_function("append_cache", |b| {
        b.iter(|| store.append_cache(appended, pairs()).expect("chunk lands"));
    });
    group.bench_function("load_cache", |b| {
        b.iter(|| store.load_cache(loaded).len());
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    protocol_roundtrip,
    scheduler_throughput,
    store_codec
);
criterion_main!(benches);
