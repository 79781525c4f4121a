//! The traced run: per-layer numbers, timed from outside the program.
//!
//! The workload's jobs run in-process over a [`RecordingPlatform`]; the
//! distinct recorded inputs are then replayed through each evaluation
//! layer's public entry point with a timer around each call, and the
//! service layers are timed from the client and from the server's
//! `metrics` scrape.  The breakdown checks that the parts add up to the
//! measured in-platform time.

use crate::jobs;
use crate::recording::{Call, RecordingPlatform};
use crate::service::{
    probe_store, run_jobs, start_server, stop_server, JobOutcome, Scrape, StoreProbe,
};
use crate::stats::{mean, median, ms, tail, us};
use crate::timed::{fill_store, paper_stress_space, PAPER_STRESS};
use crate::{Metrics, Outcome, Run};
use micrograd_bench::{CloneRow, ExperimentSizes, StressCurves};
use micrograd_codegen::{collect_trace, Generator, GeneratorInput, StreamingExpander, TraceSource};
use micrograd_core::tuner::{
    BruteForceTuner, GaParams, GdParams, GeneticTuner, GradientDescentTuner, Tuner, TuningBudget,
};
use micrograd_core::usecase::{CloningTask, StressTask};
use micrograd_core::{
    CloneLogLoss, ExecutionPlatform, FrameworkConfig, FrameworkOutput, KnobSpace, LossFunction,
    Metrics as SimMetrics, MicroGrad, SimPlatform, StressLoss, TunerKind, UseCaseConfig,
};
use micrograd_power::PowerModel;
use micrograd_service::platform_key;
use micrograd_sim::{CoreConfig, Simulator};
use micrograd_workloads::{ApplicationTraceGenerator, Benchmark};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Inputs replayed through the layers per workload (evenly spaced over the
/// distinct recorded inputs).
const MAX_REPLAYS: usize = 192;

/// Jobs of the `store-hit` set run in-process for the evaluation layers.
const STORE_HIT_TRACED_JOBS: usize = 64;

/// Share of in-platform time the breakdown may leave unexplained before it
/// is flagged.
const RESIDUAL_FLAG: f64 = 0.15;

/// One platform's recorded evaluations.
struct Recorded {
    platform: SimPlatform,
    /// The expansion seed the platform was built with.
    seed: u64,
    calls: Vec<Call>,
    loss: Box<dyn LossFunction>,
}

/// Everything the in-process evaluation trace collects.
#[derive(Default)]
struct EvalTrace {
    groups: Vec<Recorded>,
    run_walls: Vec<Duration>,
    reference: Vec<Duration>,
    reference_instrs: u64,
}

/// Runs a `clone-benchmark` configuration the way `MicroGrad::run_on`
/// builds it, over a recording wrapper, after importing `dump` as the
/// daemon imports the store's cache dump.  Returns the report and the
/// platform's cache export.
fn traced_clone_job(
    config: &FrameworkConfig,
    dump: Vec<(GeneratorInput, SimMetrics)>,
    trace: &mut EvalTrace,
) -> (FrameworkOutput, Vec<(GeneratorInput, SimMetrics)>) {
    let UseCaseConfig::CloneBenchmark {
        benchmark,
        accuracy_target,
    } = &config.use_case
    else {
        unreachable!("every traced service job is a clone-benchmark job");
    };
    let framework = MicroGrad::new(config.clone());
    let platform = framework.platform();
    platform.import_cache(dump);
    let start = Instant::now();
    let target = framework
        .characterize_benchmark_on(&platform, benchmark)
        .expect("bundled benchmark");
    trace.reference.push(start.elapsed());
    trace.reference_instrs += config.reference_len as u64;

    let task = CloningTask {
        accuracy_target: *accuracy_target,
        max_epochs: config.max_epochs,
        ..CloningTask::default()
    };
    let space = config.knob_space.build();
    let mut tuner = config.tuner.build(config.seed);
    let recorder = RecordingPlatform::new(&platform);
    let start = Instant::now();
    let report = task
        .run(&recorder, &space, benchmark, &target, tuner.as_mut())
        .expect("cloning run succeeds");
    trace.run_walls.push(start.elapsed());
    let calls = recorder.into_calls();
    let export = platform.export_cache();
    let loss = CloneLogLoss::new(target, task.metric_kinds);
    trace.groups.push(Recorded {
        platform,
        seed: config.seed,
        calls,
        loss: Box::new(loss),
    });
    (FrameworkOutput::Clone(report), export)
}

/// Runs `configs` in order in-process, carrying each platform key's cache
/// export to the next job with that key, as the daemon's store does.
fn traced_clone_jobs(configs: &[FrameworkConfig], trace: &mut EvalTrace) -> Vec<FrameworkOutput> {
    let mut dumps: BTreeMap<String, Vec<(GeneratorInput, SimMetrics)>> = BTreeMap::new();
    configs
        .iter()
        .map(|config| {
            let key = platform_key(config);
            let dump = dumps.remove(&key).unwrap_or_default();
            let (output, export) = traced_clone_job(config, dump, trace);
            dumps.insert(key, export);
            output
        })
        .collect()
}

/// `run_cloning_experiment` over a recording wrapper: the same calls, so
/// the rows must equal the library's.
fn traced_cloning_experiment(
    core: CoreConfig,
    tuner_kind: TunerKind,
    sizes: &ExperimentSizes,
    trace: &mut EvalTrace,
) -> Vec<CloneRow> {
    let platform = jobs::paper_platform(core, sizes);
    let mut space = KnobSpace::full();
    space.loop_size = sizes.loop_size;
    let task = CloningTask {
        max_epochs: sizes.cloning_epochs,
        ..CloningTask::default()
    };
    let recorder = RecordingPlatform::new(&platform);
    let mut rows = Vec::new();
    let mut last_target = SimMetrics::new();
    for benchmark in Benchmark::ALL {
        let start = Instant::now();
        let reference = ApplicationTraceGenerator::new(sizes.reference_len, sizes.seed)
            .generate(&benchmark.profile());
        let target = platform.measure_trace(&reference);
        trace.reference.push(start.elapsed());
        trace.reference_instrs += sizes.reference_len as u64;

        let mut tuner: Box<dyn Tuner> = match tuner_kind {
            TunerKind::Genetic => Box::new(GeneticTuner::new(GaParams {
                seed: sizes.seed,
                ..GaParams::paper()
            })),
            _ => Box::new(
                GradientDescentTuner::new(GdParams {
                    seed: sizes.seed,
                    ..GdParams::default()
                })
                .with_initial_config(CloningTask::warm_start_config(&space, &target)),
            ),
        };
        let start = Instant::now();
        let report = task
            .run(&recorder, &space, benchmark.name(), &target, tuner.as_mut())
            .expect("cloning run succeeds");
        trace.run_walls.push(start.elapsed());
        rows.push(CloneRow {
            benchmark: benchmark.name().to_owned(),
            ratios: report.ratios.clone(),
            mean_accuracy: report.mean_accuracy,
            epochs: report.epochs_used,
            evaluations: report.evaluations,
        });
        last_target = target;
    }
    let calls = recorder.into_calls();
    let loss = CloneLogLoss::new(last_target, task.metric_kinds);
    trace.groups.push(Recorded {
        platform,
        seed: sizes.seed,
        calls,
        loss: Box::new(loss),
    });
    rows
}

/// `run_stress_comparison` over a recording wrapper.
fn traced_stress_comparison(
    space: &KnobSpace,
    (metric, goal): (micrograd_core::MetricKind, micrograd_core::StressGoal),
    sizes: &ExperimentSizes,
    trace: &mut EvalTrace,
) -> StressCurves {
    let platform = jobs::paper_platform(CoreConfig::large(), sizes);
    let recorder = RecordingPlatform::new(&platform);
    let loss = StressLoss::new(metric, goal);

    let start = Instant::now();
    let brute = BruteForceTuner::new(sizes.brute_levels, sizes.brute_max_evals)
        .tune(
            &recorder,
            space,
            &loss,
            &TuningBudget::epochs(usize::MAX / 2),
        )
        .expect("brute-force run succeeds");
    trace.run_walls.push(start.elapsed());

    let start = Instant::now();
    let mut gd = GradientDescentTuner::new(GdParams {
        seed: sizes.seed,
        ..GdParams::default()
    });
    let gd_report = StressTask {
        metric,
        goal,
        max_epochs: sizes.stress_epochs_gd,
    }
    .run(&recorder, space, &mut gd)
    .expect("gradient-descent run succeeds");
    trace.run_walls.push(start.elapsed());

    let start = Instant::now();
    let mut ga = GeneticTuner::new(GaParams {
        seed: sizes.seed,
        ..GaParams::paper()
    });
    let ga_report = StressTask {
        metric,
        goal,
        max_epochs: sizes.stress_epochs_ga,
    }
    .run(&recorder, space, &mut ga)
    .expect("GA run succeeds");
    trace.run_walls.push(start.elapsed());

    let calls = recorder.into_calls();
    trace.groups.push(Recorded {
        platform,
        seed: sizes.seed,
        calls,
        loss: Box::new(loss),
    });
    StressCurves {
        metric,
        gd: gd_report.progression.clone(),
        ga: ga_report.progression.clone(),
        brute_force_optimum: brute.best_metrics.value_or_zero(metric),
        gd_evaluations: gd_report.evaluations,
        ga_evaluations: ga_report.evaluations,
        brute_evaluations: brute.total_evaluations,
        gd_report,
    }
}

/// Per-input layer times from the replay, in microseconds.
#[derive(Default)]
struct LayerTimes {
    generate: Vec<f64>,
    expand_ns_per_instr: Vec<f64>,
    replay_ns_per_instr: Vec<f64>,
    fused: Vec<f64>,
    fused_ns_per_instr: Vec<f64>,
    power: Vec<f64>,
    metrics_loss: Vec<f64>,
    memo_hit: Vec<f64>,
    mismatches: usize,
}

/// Replays up to [`MAX_REPLAYS`] distinct recorded inputs through
/// `Generator::generate`, a drained `StreamingExpander`, `Simulator::run`
/// on the pre-expanded trace, `Simulator::run_source` on a fresh expander,
/// `PowerModel::new` + `estimate`, `Metrics::from_run` + the loss, and a
/// resident `SimPlatform::evaluate`.  The fused result must equal the
/// replayed one and the memo hit, bit for bit.
fn replay_layers(trace: &EvalTrace) -> LayerTimes {
    let mut distinct: Vec<(usize, &GeneratorInput)> = Vec::new();
    for (g, group) in trace.groups.iter().enumerate() {
        let mut seen: Vec<&GeneratorInput> = Vec::new();
        for input in group.calls.iter().flat_map(|c| &c.inputs) {
            if !seen.contains(&input) {
                seen.push(input);
                distinct.push((g, input));
            }
        }
    }
    let step = distinct.len().div_ceil(MAX_REPLAYS).max(1);
    let mut times = LayerTimes::default();
    let generator = Generator::new();
    for &(g, input) in distinct.iter().step_by(step) {
        let group = &trace.groups[g];
        let platform = &group.platform;
        let (len, seed) = (platform.dynamic_len(), group.seed);
        let start = Instant::now();
        let Ok(test_case) = generator.generate(input) else {
            continue;
        };
        times.generate.push(us(start.elapsed()));

        let mut expander = StreamingExpander::new(&test_case, len, seed);
        let start = Instant::now();
        let mut expanded = 0usize;
        while let Some(d) = expander.next_dynamic() {
            black_box(d);
            expanded += 1;
        }
        times
            .expand_ns_per_instr
            .push(us(start.elapsed()) * 1e3 / expanded.max(1) as f64);

        let materialized = collect_trace(&mut StreamingExpander::new(&test_case, len, seed));
        let mut sim = Simulator::new(platform.core().clone());
        let start = Instant::now();
        let replayed = sim.run(black_box(&materialized));
        times
            .replay_ns_per_instr
            .push(us(start.elapsed()) * 1e3 / materialized.len().max(1) as f64);

        let start = Instant::now();
        let stats = sim.run_source(&mut StreamingExpander::new(&test_case, len, seed));
        let fused = us(start.elapsed());
        times.fused.push(fused);
        times
            .fused_ns_per_instr
            .push(fused * 1e3 / materialized.len().max(1) as f64);

        let start = Instant::now();
        let power = PowerModel::new(platform.power().clone()).estimate(&stats);
        times.power.push(us(start.elapsed()));

        let start = Instant::now();
        let metrics = SimMetrics::from_run(&stats, Some(&power));
        black_box(group.loss.loss(&metrics));
        times.metrics_loss.push(us(start.elapsed()));

        let start = Instant::now();
        let hit = platform.evaluate(input);
        times.memo_hit.push(us(start.elapsed()));

        if stats != replayed || hit.as_ref() != Ok(&metrics) {
            times.mismatches += 1;
        }
    }
    times
}

/// The evaluation-layer metrics and the breakdown report lines.
fn evaluation_metrics(trace: &EvalTrace, metrics: &mut Metrics, notes: &mut Vec<String>) -> usize {
    let layers = replay_layers(trace);
    let calls: Vec<&Call> = trace.groups.iter().flat_map(|g| &g.calls).collect();
    let (hits, misses): (u64, u64) = calls
        .iter()
        .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses));
    let miss_instrs: u64 = trace
        .groups
        .iter()
        .map(|g| g.calls.iter().map(|c| c.misses).sum::<u64>() * g.platform.dynamic_len() as u64)
        .sum();
    let batches: Vec<&&Call> = calls.iter().filter(|c| c.batch).collect();
    let batch_inputs: usize = batches.iter().map(|c| c.inputs.len()).sum();
    let in_platform: f64 = calls.iter().map(|c| us(c.wall)).sum();
    let run_total: f64 = trace.run_walls.iter().map(|d| us(*d)).sum();
    let job_total = run_total + trace.reference.iter().map(|d| us(*d)).sum::<f64>();

    metrics.insert("codegen.generate_us", median(&layers.generate));
    metrics.insert(
        "codegen.expand_ns_per_instr",
        median(&layers.expand_ns_per_instr),
    );
    metrics.insert(
        "sim.replay_ns_per_instr",
        median(&layers.replay_ns_per_instr),
    );
    metrics.insert("sim.fused_ns_per_instr", median(&layers.fused_ns_per_instr));
    metrics.insert("sim.instrs", (miss_instrs + trace.reference_instrs) as f64);
    metrics.insert("power.estimate_us", median(&layers.power));
    metrics.insert("core.metrics_loss_us", median(&layers.metrics_loss));
    metrics.insert(
        "core.memo_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    metrics.insert("core.memo_hit_us", median(&layers.memo_hit));
    metrics.insert(
        "core.single_evals",
        calls.iter().filter(|c| !c.batch).count() as f64,
    );
    metrics.insert(
        "core.batch_size",
        batch_inputs as f64 / batches.len().max(1) as f64,
    );
    metrics.insert(
        "core.batch_dup_ratio",
        batches.iter().map(|c| c.duplicates()).sum::<usize>() as f64 / batch_inputs.max(1) as f64,
    );
    let batch_ms: Vec<f64> = batches.iter().map(|c| ms(c.wall)).collect();
    metrics.insert("core.batch_ms", median(&batch_ms));
    metrics.insert(
        "core.tuner_self_ms",
        (run_total - in_platform) / 1e3 / trace.run_walls.len().max(1) as f64,
    );
    let reference_ms: Vec<f64> = trace.reference.iter().map(|d| ms(*d)).collect();
    metrics.insert("workloads.reference_ms", median(&reference_ms));

    // The breakdown: each call's misses pay generate + fused simulation +
    // power + metrics/loss and its hits pay a memo lookup, spread over the
    // call's workers.  Means, not medians, so the parts add up.
    let parts = [
        ("codegen generate", mean(&layers.generate), true),
        ("expand+simulate (fused)", mean(&layers.fused), true),
        ("power estimate", mean(&layers.power), true),
        ("metrics + loss", mean(&layers.metrics_loss), true),
        ("memo hit", mean(&layers.memo_hit), false),
    ];
    let attributed = |cost: f64, on_miss: bool| -> f64 {
        calls
            .iter()
            .map(|c| cost * (if on_miss { c.misses } else { c.hits }) as f64 / c.workers as f64)
            .sum()
    };
    let mut explained = 0.0;
    notes.push(format!(
        "breakdown over {} platform calls ({misses} misses, {hits} hits), {} inputs replayed:",
        calls.len(),
        layers.generate.len()
    ));
    notes.push(format!(
        "  {:<26}{:>12}{:>12}{:>12}",
        "layer", "time ms", "% platform", "% job"
    ));
    for (name, cost, on_miss) in parts {
        let t = attributed(cost, on_miss);
        explained += t;
        notes.push(format!(
            "  {name:<26}{:>12.1}{:>12.1}{:>12.1}",
            t / 1e3,
            100.0 * t / in_platform,
            100.0 * t / job_total
        ));
    }
    let expand_share = median(&layers.expand_ns_per_instr)
        / (median(&layers.expand_ns_per_instr) + median(&layers.replay_ns_per_instr));
    notes.push(format!(
        "  (expansion alone is {:.0}% of expand + replay)",
        100.0 * expand_share
    ));
    let residual = (in_platform - explained) / in_platform;
    notes.push(format!(
        "  {:<26}{:>12.1}{:>12.1}{:>12.1}",
        "residual",
        (in_platform - explained) / 1e3,
        100.0 * residual,
        100.0 * (in_platform - explained) / job_total
    ));
    notes.push(format!(
        "  {:<26}{:>12.1}{:>12}{:>12.1}",
        "tuner self (outside calls)",
        (run_total - in_platform) / 1e3,
        "",
        100.0 * (run_total - in_platform) / job_total
    ));
    notes.push(format!(
        "  {:<26}{:>12.1}{:>12}{:>12.1}",
        "reference characterization",
        (job_total - run_total) / 1e3,
        "",
        100.0 * (job_total - run_total) / job_total
    ));
    if residual.abs() > RESIDUAL_FLAG {
        notes.push(format!(
            "  FLAG: the parts leave {:.0}% of in-platform time unexplained (limit {:.0}%)",
            100.0 * residual,
            100.0 * RESIDUAL_FLAG
        ));
    }
    metrics.insert("core.breakdown_residual", residual);
    layers.mismatches
}

/// The client-side and server-side service numbers of one traced pass.
fn service_metrics(
    outcomes: &[Vec<JobOutcome>],
    requests: &Scrape,
    executions: &Scrape,
    probe: &StoreProbe,
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let ops = [
        ("submit", "service.submit_us", "service.submit_p99_us"),
        ("watch", "service.watch_us", "service.watch_p99_us"),
        ("fetch", "service.fetch_us", "service.fetch_p99_us"),
    ];
    for (i, (op, p50_name, p99_name)) in ops.into_iter().enumerate() {
        let samples: Vec<f64> = outcomes.iter().flatten().map(|o| us(o.ops[i])).collect();
        let maxima: Vec<f64> = outcomes
            .iter()
            .map(|pass| pass.iter().map(|o| us(o.ops[i])).fold(0.0, f64::max))
            .collect();
        let p50 = median(&samples);
        let p99 = tail(&samples, &maxima);
        notes.push(format!(
            "client {op}: p50 {p50:.1} us, tail {p99:.1} us (n={})",
            samples.len()
        ));
        metrics.insert(p50_name, p50);
        metrics.insert(p99_name, p99);
    }
    notes.push(format!("requests {}", requests.summary()));
    notes.push(format!("executions {}", executions.summary()));
    metrics.insert(
        "service.server_request_us",
        requests.typical("micrograd_request_duration_us"),
    );
    metrics.insert(
        "service.queue_wait_us",
        executions.typical("micrograd_job_queue_wait_us"),
    );
    metrics.insert(
        "service.execution_ms",
        executions.typical("micrograd_job_execution_us") / 1e3,
    );
    metrics.insert("service.store_open_ms", probe.open_ms);
    metrics.insert("service.store_files", probe.files as f64);
    metrics.insert("service.load_report_us", probe.load_report_us);
    metrics.insert("service.load_cache_ms", probe.load_cache_ms);
    metrics.insert("service.save_cache_ms", probe.save_cache_ms);
    metrics.insert("service.cache_dump_bytes", probe.cache_dump_bytes as f64);
    metrics.insert("service.report_codec_us", probe.codec_us);
    metrics.insert("service.report_bytes", probe.report_bytes);
}

/// Counts each output against its expected report.
fn check<'a>(
    outputs: impl IntoIterator<Item = Result<&'a FrameworkOutput, &'a String>>,
    expected: &[Option<FrameworkOutput>],
    what: &str,
    outcome: &mut Outcome,
) {
    for (i, output) in outputs.into_iter().enumerate() {
        outcome.attempted += 1;
        let error = match output {
            Ok(output) if expected.get(i).and_then(Option::as_ref) == Some(output) => continue,
            Ok(_) => "report differs from the expected one".to_owned(),
            Err(e) => e.clone(),
        };
        outcome.failed += 1;
        outcome.notes.push(format!("{what} job {i}: {error}"));
    }
}

/// A fresh daemon over an empty store runs `configs` with one client;
/// returns the outcomes, the scrape and a probe of the store.
fn cold_service_pass(
    run: &Run,
    configs: &[FrameworkConfig],
) -> (Vec<JobOutcome>, Scrape, StoreProbe) {
    let dir = run.fresh_dir();
    let (server, _) = start_server(&dir);
    let outcomes = run_jobs(&server, configs, 1);
    let scrape = Scrape::take(&server).unwrap_or_default();
    stop_server(server);
    let probe = probe_store(&dir, configs);
    run.remove(&dir);
    (outcomes, scrape, probe)
}

/// Traced `clone-cold`: the service pass, then the same jobs in-process;
/// each service report must equal the in-process one and the golden
/// digest.
pub fn clone_cold(run: &Run) -> Outcome {
    let configs = jobs::clone_cold(run.seed);
    let golden = jobs::golden("clone-cold", run.seed);
    let mut outcome = Outcome::default();
    let (outcomes, scrape, probe) = cold_service_pass(run, &configs);
    let mut trace = EvalTrace::default();
    let in_process = traced_clone_jobs(&configs, &mut trace);
    let expected: Vec<Option<FrameworkOutput>> = in_process
        .into_iter()
        .enumerate()
        .map(|(i, output)| (golden.get(i) == Some(&jobs::output_digest(&output))).then_some(output))
        .collect();
    check(
        outcomes.iter().map(|o| o.output.as_ref()),
        &expected,
        "clone-cold",
        &mut outcome,
    );
    finish(outcome, &trace, &[outcomes], &scrape, &scrape, &probe)
}

/// Traced `store-hit`: the preparation (its scrape gives the execution
/// histograms), two store-hit cycles with per-op client timers, the store
/// probe, and the first jobs of the set in-process for the evaluation
/// layers (their reports must equal the stored ones).
pub fn store_hit(run: &Run) -> Outcome {
    let configs = jobs::store_hit(run.seed);
    let store = run.fresh_dir();
    let mut outcome = Outcome::default();
    let (expected, executions) = fill_store(&store, &configs);
    outcome.attempted += configs.len() as u64;
    outcome.failed += expected.iter().filter(|e| e.is_none()).count() as u64;

    let mut cycles = Vec::new();
    let mut requests = Scrape::default();
    for _ in 0..2 {
        let (server, _) = start_server(&store);
        let outcomes = run_jobs(&server, &configs, 2);
        requests = Scrape::take(&server).unwrap_or_default();
        stop_server(server);
        check(
            outcomes.iter().map(|o| o.output.as_ref()),
            &expected,
            "store-hit",
            &mut outcome,
        );
        cycles.push(outcomes);
    }
    let probe = probe_store(&store, &configs);
    run.remove(&store);

    let mut trace = EvalTrace::default();
    let in_process = traced_clone_jobs(&configs[..STORE_HIT_TRACED_JOBS], &mut trace);
    check(
        in_process.iter().map(Ok),
        &expected,
        "in-process",
        &mut outcome,
    );
    finish(outcome, &trace, &cycles, &requests, &executions, &probe)
}

/// Traced `paper-fast`: the suite's calls replicated over recording
/// wrappers (their figures must equal the golden digest), then the Fig. 2
/// job set at the suite's sizes through the daemon for the service layers.
pub fn paper_fast(run: &Run) -> Outcome {
    let sizes = jobs::paper_sizes(run.seed);
    let mut outcome = Outcome::default();
    let mut trace = EvalTrace::default();
    let clone_figs: Vec<Vec<CloneRow>> = [
        (CoreConfig::large(), TunerKind::GradientDescent),
        (CoreConfig::small(), TunerKind::GradientDescent),
        (CoreConfig::large(), TunerKind::Genetic),
    ]
    .into_iter()
    .map(|(core, tuner)| traced_cloning_experiment(core, tuner, &sizes, &mut trace))
    .collect();
    let space = paper_stress_space(&sizes);
    let stress_figs: Vec<StressCurves> = PAPER_STRESS
        .into_iter()
        .map(|goal| traced_stress_comparison(&space, goal, &sizes, &mut trace))
        .collect();
    outcome.attempted += 1;
    let digest = jobs::figures_digest(&clone_figs, &stress_figs);
    if jobs::golden("paper-fast", run.seed).first() != Some(&digest) {
        outcome.failed += 1;
        outcome.notes.push(format!(
            "traced figures digest {digest:016x} differs from the recorded one"
        ));
    }

    let configs = jobs::paper_service(run.seed);
    let (outcomes, scrape, probe) = cold_service_pass(run, &configs);
    for (i, job) in outcomes.iter().enumerate() {
        outcome.attempted += 1;
        if let Err(e) = &job.output {
            outcome.failed += 1;
            outcome.notes.push(format!("service job {i}: {e}"));
        }
    }
    finish(outcome, &trace, &[outcomes], &scrape, &scrape, &probe)
}

fn finish(
    mut outcome: Outcome,
    trace: &EvalTrace,
    passes: &[Vec<JobOutcome>],
    requests: &Scrape,
    executions: &Scrape,
    probe: &StoreProbe,
) -> Outcome {
    let mismatches = evaluation_metrics(trace, &mut outcome.metrics, &mut outcome.notes);
    if mismatches > 0 {
        outcome.failed += mismatches as u64;
        outcome.notes.push(format!(
            "{mismatches} replayed inputs disagree across fused, replay and memo paths"
        ));
    }
    service_metrics(
        passes,
        requests,
        executions,
        probe,
        &mut outcome.metrics,
        &mut outcome.notes,
    );
    if probe.mismatches > 0 {
        outcome.failed += probe.mismatches as u64;
        outcome
            .notes
            .push(format!("{} store probes failed", probe.mismatches));
    }
    outcome
}
