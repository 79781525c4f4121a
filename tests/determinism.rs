//! Determinism invariants of the evaluation pipeline.
//!
//! Two families of invariants live here:
//!
//! 1. **Parallel-evaluation determinism** — tuning results must be
//!    bit-identical whatever the batch worker count: the platform may
//!    schedule a batch on any number of workers, but results are
//!    post-processed strictly in submission order, every evaluation is a
//!    pure seeded function of its input, and best-so-far tie-breaking
//!    follows input order — so `parallelism: Some(n)` must reproduce the
//!    `parallelism: None` run exactly, epoch by epoch, also when `Some(0)`
//!    batches of several platforms share the process's spare cores, when
//!    concurrent batches race a platform's first-miss keystream build, and
//!    when concurrent runs share one memo table.
//! 2. **Streaming-evaluation determinism** — the fused single-pass
//!    `Simulator::run_source` over streaming trace sources must produce
//!    bit-identical `SimStats` to the two-pass materialized `run`, for both
//!    knob-driven test cases and all eight application models, so switching
//!    the hot path to streaming changes nothing but the memory footprint.
//!    The same holds one layer up: `simpoint::analyze_source` (the one-pass
//!    streaming BBV profiler) must produce a bit-identical `PhaseAnalysis`
//!    to the materialized `simpoint::analyze`, and the clone-per-SimPoint
//!    facade run must be bit-identical whatever the batch worker count.

use micrograd::codegen::{Generator, GeneratorInput, TraceExpander};
use micrograd::core::memo::MemoTable;
use micrograd::core::tuner::{
    BruteForceTuner, GaParams, GdParams, GeneticTuner, GradientDescentTuner, RandomSearchTuner,
    Tuner, TuningBudget, TuningResult,
};
use micrograd::core::{
    CoreKind, ExecutionPlatform, FrameworkConfig, KnobSpace, KnobSpaceKind, MetricKind, MicroGrad,
    SimPlatform, StressGoal, StressLoss, TunerKind, UseCaseConfig,
};
use micrograd::sim::{CoreConfig, Simulator};
use micrograd::workloads::{simpoint, ApplicationTraceGenerator, Benchmark};
use std::sync::Arc;

fn space() -> KnobSpace {
    let mut space = KnobSpace::instruction_fractions();
    space.loop_size = 100;
    space
}

fn run(tuner: &mut dyn Tuner, parallelism: Option<usize>, epochs: usize) -> TuningResult {
    let platform = SimPlatform::new(CoreConfig::small())
        .with_dynamic_len(5_000)
        .with_seed(9)
        .with_parallelism(parallelism);
    let loss = StressLoss::new(MetricKind::Ipc, StressGoal::Minimize);
    tuner
        .tune(&platform, &space(), &loss, &TuningBudget::epochs(epochs))
        .expect("tuning run succeeds")
}

fn assert_identical(sequential: &TuningResult, parallel: &TuningResult, label: &str) {
    assert_eq!(
        sequential.best_config, parallel.best_config,
        "{label}: best_config diverged"
    );
    assert_eq!(
        sequential.best_metrics, parallel.best_metrics,
        "{label}: best_metrics diverged"
    );
    assert!(
        (sequential.best_loss - parallel.best_loss).abs() == 0.0,
        "{label}: best_loss diverged"
    );
    assert_eq!(
        sequential.total_evaluations, parallel.total_evaluations,
        "{label}: evaluation counts diverged"
    );
    assert_eq!(
        sequential.epochs, parallel.epochs,
        "{label}: epoch records diverged"
    );
    assert_eq!(
        sequential.converged, parallel.converged,
        "{label}: convergence diverged"
    );
}

/// Runs a freshly constructed tuner at every parallelism setting — a single
/// worker thread, a 4-thread pool and the host-sized `Some(0)` pool — and
/// asserts each run reproduces the sequential (`None`) baseline exactly.
fn assert_deterministic_across_parallelism(
    label: &str,
    epochs: usize,
    mut make_tuner: impl FnMut() -> Box<dyn Tuner>,
) {
    let sequential = run(make_tuner().as_mut(), None, epochs);
    for parallelism in [Some(1), Some(4), Some(0)] {
        let parallel = run(make_tuner().as_mut(), parallelism, epochs);
        assert_identical(
            &sequential,
            &parallel,
            &format!("{label} (parallelism {parallelism:?})"),
        );
    }
}

#[test]
fn gradient_descent_is_deterministic_under_parallelism() {
    assert_deterministic_across_parallelism("gradient-descent", 5, || {
        Box::new(GradientDescentTuner::new(GdParams {
            seed: 5,
            ..GdParams::default()
        }))
    });
}

#[test]
fn genetic_algorithm_is_deterministic_under_parallelism() {
    assert_deterministic_across_parallelism("genetic-algorithm", 3, || {
        Box::new(GeneticTuner::new(GaParams::tiny()))
    });
}

#[test]
fn brute_force_is_deterministic_under_parallelism() {
    assert_deterministic_across_parallelism("brute-force", 4, || {
        Box::new(BruteForceTuner::new(2, 256))
    });
}

#[test]
fn random_search_is_deterministic_under_parallelism() {
    assert_deterministic_across_parallelism("random-search", 3, || {
        Box::new(RandomSearchTuner::new(6, 17))
    });
}

#[test]
fn concurrent_spare_core_batches_match_sequential_evaluation() {
    // `Some(0)` batches borrow helpers from one process-wide count of
    // spare cores, so two batches running at once split the host between
    // them in whatever way the timing gives.  Each must still reproduce
    // sequential evaluation exactly; every input here appears twice, so
    // the in-batch dedup is exercised as well.
    let inputs: Vec<GeneratorInput> = (0..24)
        .map(|i| GeneratorInput {
            loop_size: 60 + 20 * (i % 6),
            reg_dependency_distance: 1 + (i % 4) as u32,
            ..GeneratorInput::default()
        })
        .collect();
    let platform = |core: &CoreConfig, parallelism| {
        SimPlatform::new(core.clone())
            .with_dynamic_len(5_000)
            .with_seed(9)
            .with_parallelism(parallelism)
    };
    let cores = [CoreConfig::large(), CoreConfig::small()];
    let start = std::sync::Barrier::new(cores.len());
    std::thread::scope(|scope| {
        for core in &cores {
            let (inputs, start) = (&inputs, &start);
            scope.spawn(move || {
                let sequential = platform(core, None);
                let expected: Vec<_> = inputs.iter().map(|i| sequential.evaluate(i)).collect();
                // Both threads start their batches together; a fresh
                // platform per round, so no round is a memo hit.
                start.wait();
                for round in 0..3 {
                    let batch = platform(core, Some(0)).evaluate_batch(inputs);
                    assert_eq!(batch, expected, "{} core, round {round}", core.name);
                }
            });
        }
    });
}

#[test]
fn batches_racing_a_fresh_platforms_keystream_build_match_sequential_evaluation() {
    // A platform builds its shared expansion keystream on its first miss.
    // Two batches started together on one fresh `Some(0)` platform race
    // that build; each must still reproduce sequential evaluation on
    // another fresh platform.  The halves share no input, so every
    // evaluation is a miss.
    let inputs: Vec<GeneratorInput> = (0..16)
        .map(|i| GeneratorInput {
            loop_size: 50 + 10 * i,
            mem_temporal_window: 4 + (i % 3) as u64 * 60,
            mem_temporal_period: 1 + (i % 4) as u64,
            branch_randomness: 0.25 * (i % 5) as f64,
            ..GeneratorInput::default()
        })
        .collect();
    let platform = |parallelism| {
        SimPlatform::new(CoreConfig::large())
            .with_dynamic_len(6_000)
            .with_seed(12)
            .with_parallelism(parallelism)
    };
    let sequential = platform(None);
    let expected: Vec<_> = inputs.iter().map(|i| sequential.evaluate(i)).collect();
    let (first, second) = inputs.split_at(inputs.len() / 2);
    for round in 0..3 {
        let racing = platform(Some(0));
        let start = std::sync::Barrier::new(2);
        let batches: Vec<_> = std::thread::scope(|scope| {
            let threads: Vec<_> = [first, second]
                .into_iter()
                .map(|half| {
                    let (racing, start) = (&racing, &start);
                    scope.spawn(move || {
                        start.wait();
                        racing.evaluate_batch(half)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|batch| batch.join().expect("batch thread"))
                .collect()
        });
        assert_eq!(batches.concat(), expected, "round {round}");
    }
}

#[test]
fn a_platform_reconfigured_after_evaluating_matches_a_fresh_one() {
    // `with_seed` and `with_dynamic_len` drop the keystream the first
    // evaluation built, so the next evaluation expands with the new
    // settings.  `evaluate_detailed` bypasses the memo table.
    let input = GeneratorInput {
        loop_size: 120,
        mem_temporal_period: 3,
        branch_randomness: 0.5,
        ..GeneratorInput::default()
    };
    let fresh = |len, seed| {
        SimPlatform::new(CoreConfig::small())
            .with_dynamic_len(len)
            .with_seed(seed)
    };
    let used = || {
        let platform = fresh(4_000, 5);
        platform
            .evaluate_detailed(&input)
            .expect("first evaluation");
        platform
    };
    let before = fresh(4_000, 5).evaluate_detailed(&input).expect("evaluate");
    for (reconfigured, len, seed) in [
        (used().with_seed(6), 4_000, 6),
        (used().with_dynamic_len(9_000), 9_000, 5),
        (used().with_dynamic_len(1_000).with_seed(7), 1_000, 7),
    ] {
        let expected = fresh(len, seed)
            .evaluate_detailed(&input)
            .expect("evaluate");
        assert_ne!(expected, before, "len {len}, seed {seed}");
        assert_eq!(
            reconfigured.evaluate_detailed(&input).expect("evaluate"),
            expected,
            "len {len}, seed {seed}"
        );
    }
}

#[test]
fn streaming_expansion_matches_materialized_simulation() {
    // The streaming cursor must drive the simulator to bit-identical
    // statistics for knob-driven test cases across seeds and knob settings.
    for (seed, dependency, footprint) in [(1u64, 2u32, 64u64), (9, 6, 512), (23, 1, 4096)] {
        let input = GeneratorInput {
            loop_size: 150,
            reg_dependency_distance: dependency,
            mem_footprint_kb: footprint,
            seed,
            ..GeneratorInput::default()
        };
        let tc = Generator::new().generate(&input).expect("generate");
        let expander = TraceExpander::new(30_000, seed);
        let trace = expander.expand(&tc);
        for core in [CoreConfig::small(), CoreConfig::large()] {
            let mut sim = Simulator::new(core);
            let materialized = sim.run(&trace);
            let streamed = sim.run_source(&mut expander.stream(&tc));
            assert_eq!(materialized, streamed, "seed {seed} diverged");
        }
    }
}

#[test]
fn streaming_application_traces_match_for_all_benchmarks() {
    // Every one of the paper's eight application models, at several seeds,
    // must simulate identically whether its trace is materialized first or
    // streamed straight into the core model.
    let mut sim = Simulator::new(CoreConfig::small());
    for benchmark in Benchmark::ALL {
        for seed in [3u64, 17] {
            let generator = ApplicationTraceGenerator::new(12_000, seed);
            let profile = benchmark.profile();
            let materialized = sim.run(&generator.generate(&profile));
            let streamed = sim.run_source(&mut generator.stream(&profile));
            assert_eq!(materialized, streamed, "{benchmark:?} seed {seed} diverged");
        }
    }
}

#[test]
fn streaming_phase_analysis_matches_materialized_for_all_benchmarks() {
    // The one-pass streaming BBV profiler must produce a bit-identical
    // `PhaseAnalysis` to the materialized path for every one of the paper's
    // eight application models, at several seeds, including a length that
    // exercises the folded-tail interval (50_000 % 4_000 = 2_000 >= half).
    for benchmark in Benchmark::ALL {
        for seed in [3u64, 17, 29] {
            let generator = ApplicationTraceGenerator::new(50_000, seed);
            let profile = benchmark.profile();
            let materialized = simpoint::analyze(&generator.generate(&profile), 4_000, 5, seed);
            let streamed =
                simpoint::analyze_source(&mut generator.stream(&profile), 4_000, 5, seed);
            assert_eq!(materialized, streamed, "{benchmark:?} seed {seed} diverged");
            let analysis = streamed.expect("stream long enough");
            assert_eq!(analysis.profiled_instructions(), 50_000);
            let total: f64 = analysis.simpoints.iter().map(|s| s.weight).sum();
            assert!((total - 1.0).abs() < 1e-9, "{benchmark:?} seed {seed}");
        }
    }
}

#[test]
fn clone_simpoints_is_deterministic_under_parallelism() {
    // End to end through the clone-per-SimPoint facade entry: per-phase
    // tuning submits its probes through `evaluate_batch`, so the whole
    // report — phase analysis, per-phase clones, composite validation —
    // must be bit-identical whatever the worker count.
    let base = FrameworkConfig {
        core: CoreKind::Small,
        tuner: TunerKind::GradientDescent,
        knob_space: KnobSpaceKind::InstructionFractions,
        use_case: UseCaseConfig::CloneSimpoints {
            benchmark: "gcc".into(),
            accuracy_target: 0.99,
            interval_len: 5_000,
            max_phases: 3,
        },
        max_epochs: 2,
        dynamic_len: 4_000,
        reference_len: 20_000,
        seed: 3,
        parallelism: None,
    };
    let sequential = MicroGrad::new(base.clone()).run().expect("sequential run");
    let parallel = MicroGrad::new(FrameworkConfig {
        parallelism: Some(4),
        ..base
    })
    .run()
    .expect("parallel run");
    assert_eq!(sequential, parallel);
    let report = sequential.as_simpoint_clone().expect("simpoint output");
    assert!(report.num_phases() >= 1);
    assert!(report.evaluations > 0);
}

#[test]
fn framework_runs_are_deterministic_under_parallelism() {
    // End to end through the configuration-file facade: a parallel stress
    // run reproduces the sequential report exactly.
    let base = FrameworkConfig {
        core: CoreKind::Small,
        tuner: TunerKind::GradientDescent,
        knob_space: KnobSpaceKind::InstructionFractions,
        use_case: UseCaseConfig::Stress {
            metric: MetricKind::Ipc,
            goal: StressGoal::Minimize,
        },
        max_epochs: 3,
        dynamic_len: 4_000,
        reference_len: 4_000,
        seed: 3,
        parallelism: None,
    };
    let sequential = MicroGrad::new(base.clone()).run().expect("sequential run");
    let parallel = MicroGrad::new(FrameworkConfig {
        parallelism: Some(4),
        ..base
    })
    .run()
    .expect("parallel run");
    assert_eq!(sequential, parallel);
}

#[test]
fn concurrent_runs_sharing_one_memo_table_match_sequential_runs() {
    // The service's jobs of one platform key evaluate on one resident
    // table.  Two runs on it at once see each other's results as they
    // land, which must change nothing in either report.
    for core in [CoreKind::Large, CoreKind::Small] {
        let config = |goal| FrameworkConfig {
            core,
            tuner: TunerKind::GradientDescent,
            knob_space: KnobSpaceKind::InstructionFractions,
            use_case: UseCaseConfig::Stress {
                metric: MetricKind::Ipc,
                goal,
            },
            max_epochs: 3,
            dynamic_len: 4_000,
            reference_len: 4_000,
            seed: 3,
            parallelism: Some(0),
        };
        let configs = [config(StressGoal::Minimize), config(StressGoal::Maximize)];
        let table = Arc::new(MemoTable::new(SimPlatform::DEFAULT_CACHE_CAPACITY));
        let start = std::sync::Barrier::new(configs.len());
        let shared: Vec<_> = std::thread::scope(|scope| {
            let runs: Vec<_> = configs
                .iter()
                .map(|config| {
                    let (table, start) = (&table, &start);
                    scope.spawn(move || {
                        let framework = MicroGrad::new(config.clone());
                        let platform = framework.platform().with_cache(Arc::clone(table));
                        start.wait();
                        framework.run_on(&platform).expect("shared-table run")
                    })
                })
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("run thread"))
                .collect()
        });
        for (config, report) in configs.iter().zip(&shared) {
            let sequential = MicroGrad::new(FrameworkConfig {
                parallelism: None,
                ..config.clone()
            })
            .run()
            .expect("sequential run");
            assert_eq!(&sequential, report, "{core:?}");
        }
        assert!(!table.is_empty());
    }
}
