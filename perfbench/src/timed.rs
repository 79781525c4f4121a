//! The timed runs (tracing off): the end-to-end metrics of each workload.

use crate::service::{run_jobs, start_server, stop_server, JobOutcome, Scrape};
use crate::stats::{mean, median, ms, percentile};
use crate::{heap, jobs};
use crate::{Metrics, Outcome, Run};
use micrograd_bench::{run_cloning_experiment, run_stress_comparison, CloneRow, StressCurves};
use micrograd_core::{
    FrameworkConfig, FrameworkOutput, KnobSpace, MetricKind, SimPlatform, StressGoal, TunerKind,
};
use micrograd_service::ResultStore;
use micrograd_sim::CoreConfig;
use std::time::{Duration, Instant};

/// Set-ups made before the timed phase, so `setup_s` is a median of many
/// samples even when a run has only a few passes.
const SETUP_REPEATS: usize = 31;

/// Latencies and work tallies of a run's timed passes.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    pass_s: Vec<f64>,
    /// Peak live heap of each pass, from its [`heap::reset_peak`] call.
    pass_heap_mb: Vec<f64>,
    setup_s: Vec<f64>,
    jobs: u64,
    evaluations: u64,
    /// Clone reports of the pass in progress: accuracies and evaluations.
    pass_accuracy: Vec<f64>,
    pass_clone_evals: u64,
    /// `(clone_accuracy, clone_evals)` of the first pass, whose jobs the
    /// seed fixes: deterministic, unlike the later passes' count.
    first_pass: Option<(f64, u64)>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add_pass(&mut self, elapsed: Duration, latencies: impl IntoIterator<Item = Duration>) {
        self.latencies_ms.extend(latencies.into_iter().map(ms));
        self.pass_s.push(elapsed.as_secs_f64());
        self.pass_heap_mb.push(heap::peak_mb());
    }

    /// Closes the pass whose reports were added since the last call.
    fn end_pass(&mut self) {
        let accuracy = mean(&self.pass_accuracy);
        self.first_pass
            .get_or_insert((accuracy, self.pass_clone_evals));
        self.pass_accuracy.clear();
        self.pass_clone_evals = 0;
    }

    /// Whether to start another pass: always a first one, then while the
    /// run would end nearer `seconds` with it than without it.
    fn another_pass(&self, elapsed: Duration, seconds: Duration) -> bool {
        let last = self.pass_s.last().copied().unwrap_or(0.0);
        self.pass_s.is_empty() || elapsed.as_secs_f64() + last / 2.0 < seconds.as_secs_f64()
    }

    fn add_report(&mut self, output: &FrameworkOutput) {
        self.jobs += 1;
        if let Some(report) = output.as_clone() {
            self.add_clone(report.mean_accuracy, report.evaluations);
        }
    }

    fn add_clone(&mut self, accuracy: f64, evaluations: usize) {
        self.evaluations += evaluations as u64;
        self.pass_clone_evals += evaluations as u64;
        self.pass_accuracy.push(accuracy);
    }

    fn finish(self, notes: Vec<String>) -> Outcome {
        let busy: f64 = self.pass_s.iter().sum();
        let (clone_accuracy, clone_evals) = self.first_pass.unwrap_or((f64::NAN, 0));
        let mut metrics = Metrics::new();
        metrics.insert("job_p50_ms", median(&self.latencies_ms));
        metrics.insert("jobs_per_s", self.jobs as f64 / busy);
        metrics.insert("evals_per_s", self.evaluations as f64 / busy);
        metrics.insert("suite_s", median(&self.pass_s));
        metrics.insert("clone_accuracy", clone_accuracy);
        metrics.insert("clone_evals", clone_evals as f64);
        metrics.insert("setup_s", median(&self.setup_s));
        metrics.insert("peak_heap_mb", median(&self.pass_heap_mb));
        let mut notes = notes;
        let (fastest, slowest) = self
            .pass_s
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
                (lo.min(s), hi.max(s))
            });
        let p99 = percentile(&self.latencies_ms, 0.99)
            .map_or_else(|| "needs 1000 samples".to_owned(), |p| format!("{p:.3} ms"));
        notes.push(format!(
            "{} passes of {fastest:.3}..{slowest:.3} s; {} job samples: p50 {:.3} ms, p99 {p99}",
            self.pass_s.len(),
            self.latencies_ms.len(),
            median(&self.latencies_ms),
        ));
        notes.push(format!(
            "process VmHWM {:.1} MiB (not gated, see README.md)",
            crate::peak_rss_mb()
        ));
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            notes,
        }
    }
}

/// Checks one pass's outcomes against expected reports, then closes the
/// pass; returns the failure lines.
fn check_outcomes(
    tally: &mut Tally,
    outcomes: &[JobOutcome],
    expected: impl Fn(usize, &FrameworkOutput) -> bool,
) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        tally.attempted += 1;
        match &outcome.output {
            Ok(output) if expected(i, output) => tally.add_report(output),
            Ok(_) => {
                tally.failed += 1;
                errors.push(format!("job {i}: report differs from the expected report"));
            }
            Err(e) => {
                tally.failed += 1;
                errors.push(format!("job {i}: {e}"));
            }
        }
    }
    tally.end_pass();
    errors
}

/// Set-up samples of a service workload: `Server::start` on a fresh,
/// empty store.
fn empty_store_setups(run: &Run, tally: &mut Tally) {
    for _ in 0..SETUP_REPEATS {
        let dir = run.fresh_dir();
        let (server, setup) = start_server(&dir);
        tally.setup_s.push(setup.as_secs_f64());
        stop_server(server);
        run.remove(&dir);
    }
}

/// `clone-cold`: one client, eight cold clone jobs per pass, each pass on
/// a fresh daemon over an empty store.  Pass `p` uses the jobs of seed
/// `seed + p`, so a run's timings average over several job seeds.
pub fn clone_cold(run: &Run) -> Outcome {
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    empty_store_setups(run, &mut tally);
    let start = Instant::now();
    while tally.another_pass(start.elapsed(), run.seconds) {
        let seed = run.seed + tally.pass_s.len() as u64;
        let configs = jobs::clone_cold(seed);
        let golden = jobs::golden("clone-cold", seed);
        heap::reset_peak();
        let dir = run.fresh_dir();
        let (server, setup) = start_server(&dir);
        tally.setup_s.push(setup.as_secs_f64());
        let pass = Instant::now();
        let outcomes = run_jobs(&server, &configs, 1);
        tally.add_pass(pass.elapsed(), outcomes.iter().map(|o| o.latency));
        let scrape = Scrape::take(&server);
        stop_server(server);
        run.remove(&dir);
        notes.extend(check_outcomes(&mut tally, &outcomes, |i, output| {
            golden.get(i) == Some(&jobs::output_digest(output))
        }));
        match scrape {
            Ok(scrape) => notes.push(scrape.summary()),
            Err(e) => {
                tally.failed += 1;
                notes.push(format!("metrics scrape failed: {e}"));
            }
        }
    }
    tally.finish(notes)
}

/// `store-hit`: a store prepared with [`jobs::STORE_HIT_JOBS`] reports;
/// each cycle restarts the daemon on it and two clients fetch every
/// report once.
pub fn store_hit(run: &Run) -> Outcome {
    let configs = jobs::store_hit(run.seed);
    let store = run.fresh_dir();
    let mut tally = Tally::default();
    let (expected, preparation) = fill_store(&store, &configs);
    tally.failed += expected.iter().filter(|e| e.is_none()).count() as u64;
    let mut notes = vec![format!("preparation {}", preparation.summary())];

    let start = Instant::now();
    while tally.another_pass(start.elapsed(), run.seconds) {
        heap::reset_peak();
        let (server, setup) = start_server(&store);
        tally.setup_s.push(setup.as_secs_f64());
        let pass = Instant::now();
        let outcomes = run_jobs(&server, &configs, 2);
        tally.add_pass(pass.elapsed(), outcomes.iter().map(|o| o.latency));
        let scrape = Scrape::take(&server);
        stop_server(server);
        notes.extend(check_outcomes(&mut tally, &outcomes, |i, output| {
            expected[i].as_ref() == Some(output)
        }));
        match scrape {
            Ok(scrape) => {
                if tally.pass_s.len() == 1 {
                    notes.push(scrape.summary());
                }
                if scrape.value("micrograd_executions_total") != 0 {
                    tally.failed += 1;
                    notes.push("a store-hit cycle executed a job".to_owned());
                }
            }
            Err(e) => {
                tally.failed += 1;
                notes.push(format!("metrics scrape failed: {e}"));
            }
        }
    }
    // A broken build fails every job of every cycle; the first lines say
    // enough.
    notes.truncate(64);
    run.remove(&store);
    tally.finish(notes)
}

/// Untimed preparation of `store-hit`: runs every job once through a
/// daemon on `store` (two clients) and reads each report back with
/// `ResultStore::load_report`, the answer every later fetch must equal.
/// A job whose fetched report was not stored as fetched maps to `None`.
/// Also returns the preparation server's scrape (its executions).
pub fn fill_store(
    store: &std::path::Path,
    configs: &[FrameworkConfig],
) -> (Vec<Option<FrameworkOutput>>, Scrape) {
    let (server, _) = start_server(store);
    let outcomes = run_jobs(&server, configs, 2);
    let scrape = Scrape::take(&server).unwrap_or_default();
    stop_server(server);
    let reader = ResultStore::open(store).expect("prepared store opens");
    let expected = configs
        .iter()
        .zip(&outcomes)
        .map(|(config, outcome)| {
            let stored = reader.load_report(config)?;
            (outcome.output.as_ref().ok() == Some(&stored)).then_some(stored)
        })
        .collect();
    (expected, scrape)
}

/// The five experiment calls `run_all` makes, in order, with their wall
/// times.
pub fn paper_suite(
    sizes: &micrograd_bench::ExperimentSizes,
) -> (Vec<Vec<CloneRow>>, Vec<StressCurves>, Vec<Duration>) {
    let mut times = Vec::new();
    let mut clone_figs = Vec::new();
    for (core, tuner) in [
        (CoreConfig::large(), TunerKind::GradientDescent),
        (CoreConfig::small(), TunerKind::GradientDescent),
        (CoreConfig::large(), TunerKind::Genetic),
    ] {
        let start = Instant::now();
        clone_figs.push(run_cloning_experiment(core, tuner, sizes));
        times.push(start.elapsed());
    }
    let space = paper_stress_space(sizes);
    let mut stress_figs = Vec::new();
    for (metric, goal) in PAPER_STRESS {
        let start = Instant::now();
        stress_figs.push(run_stress_comparison(
            CoreConfig::large(),
            &space,
            metric,
            goal,
            sizes,
        ));
        times.push(start.elapsed());
    }
    (clone_figs, stress_figs, times)
}

/// The stress comparisons of Figs. 5 and 6.
pub const PAPER_STRESS: [(MetricKind, StressGoal); 2] = [
    (MetricKind::Ipc, StressGoal::Minimize),
    (MetricKind::DynamicPower, StressGoal::Maximize),
];

/// The knob space of the stress figures.
#[must_use]
pub fn paper_stress_space(sizes: &micrograd_bench::ExperimentSizes) -> KnobSpace {
    let mut space = KnobSpace::instruction_fractions();
    space.loop_size = sizes.loop_size;
    space
}

/// `paper-fast`: repeated in-process regenerations of Figs. 2–6 and
/// Table III.  Pass `p` uses the sizes of seed `seed + p`, so a run's
/// timings average over several job seeds.
pub fn paper_fast(run: &Run) -> Outcome {
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    // Set-up is building the platforms of the five experiment calls.
    let sizes = jobs::paper_sizes(run.seed);
    for _ in 0..SETUP_REPEATS * 8 {
        let start = Instant::now();
        let platforms: Vec<SimPlatform> = [
            CoreConfig::large(),
            CoreConfig::small(),
            CoreConfig::large(),
            CoreConfig::large(),
            CoreConfig::large(),
        ]
        .into_iter()
        .map(|core| jobs::paper_platform(core, &sizes))
        .collect();
        tally.setup_s.push(start.elapsed().as_secs_f64());
        drop(std::hint::black_box(platforms));
    }
    let start = Instant::now();
    while tally.another_pass(start.elapsed(), run.seconds) {
        let seed = run.seed + tally.pass_s.len() as u64;
        heap::reset_peak();
        let pass = Instant::now();
        let (clone_figs, stress_figs, times) = paper_suite(&jobs::paper_sizes(seed));
        tally.add_pass(pass.elapsed(), times.iter().copied());
        tally.attempted += times.len() as u64;
        tally.jobs += times.len() as u64;
        for row in clone_figs.iter().flatten() {
            tally.add_clone(row.mean_accuracy, row.evaluations);
        }
        for curves in &stress_figs {
            tally.evaluations +=
                (curves.gd_evaluations + curves.ga_evaluations + curves.brute_evaluations) as u64;
        }
        tally.end_pass();
        let digest = jobs::figures_digest(&clone_figs, &stress_figs);
        let golden = jobs::golden("paper-fast", seed);
        if golden.first() != Some(&digest) {
            tally.failed += 1;
            notes.push(format!(
                "seed {seed}: figures digest {digest:016x} differs from the recorded {:016x?}",
                golden.first()
            ));
        }
    }
    tally.finish(notes)
}
