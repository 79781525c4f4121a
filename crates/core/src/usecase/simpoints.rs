//! The clone-per-SimPoint use case: one tuned clone per execution phase,
//! recombined into a weighted composite.
//!
//! This is the paper's third input mode — "Application Simpoints can be
//! provided, so as to generate a clone for each simpoint individually" —
//! closed end to end: the target application model is phase-analyzed in a
//! single streaming pass, each simpoint's reference metrics are measured on
//! an interval-windowed stream (no trace is ever materialized), one clone
//! is tuned per simpoint (every tuner submits its probes through
//! [`ExecutionPlatform::evaluate_batch`], so the per-phase searches ride
//! the same worker pool as everything else), and the tuned per-phase
//! generator inputs are stitched into a weighted
//! [`PhaseSchedule`](micrograd_codegen::PhaseSchedule) composite whose
//! blended metrics are validated against the whole-program original.

use crate::tuner::Tuner;
use crate::usecase::{CloneReport, CloningTask};
use crate::{ExecutionPlatform, KnobSpace, MetricKind, Metrics, MicroGradError};
use micrograd_codegen::{Generator, PhaseSchedule, StreamingExpander, TraceSource};
use micrograd_workloads::simpoint::{self, Simpoint};
use micrograd_workloads::{ApplicationProfile, ApplicationTraceGenerator};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Code-region spacing between composite phases (bytes of PC offset), so
/// per-phase clones do not alias in the instruction cache or branch
/// predictor as if they shared code.
const PHASE_CODE_REGION: u64 = 0x0100_0000;
/// Data-region spacing between composite phases (bytes of address offset).
const PHASE_DATA_REGION: u64 = 0x1000_0000;

/// One simpoint's cloning outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseCloneReport {
    /// The simpoint this clone stands for.
    pub simpoint: Simpoint,
    /// Dynamic instructions in the simpoint's interval (equals the analysis
    /// interval length except for a folded tail interval).
    pub interval_instructions: usize,
    /// Seed the phase was tuned and resolved with (the composite rebuilds
    /// the phase's generator input from this seed and
    /// [`CloneReport::knob_config`]).
    pub seed: u64,
    /// The cloning report of this phase (target metrics measured on the
    /// windowed interval stream).
    pub report: CloneReport,
}

/// Result of cloning one workload simpoint by simpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimpointCloneReport {
    /// Name of the cloned workload.
    pub workload: String,
    /// Interval length the phase analysis used.
    pub interval_len: usize,
    /// Number of profiled intervals.
    pub num_intervals: usize,
    /// Per-simpoint clones, sorted by cluster id.
    pub phases: Vec<PhaseCloneReport>,
    /// Whole-program reference metrics of the original application.
    pub blended_target: Metrics,
    /// Metrics of the weighted composite clone.
    pub blended_metrics: Metrics,
    /// Per-metric composite/original ratio (radar-chart radial axis).
    pub ratios: BTreeMap<MetricKind, f64>,
    /// Mean accuracy of the composite over the metrics of interest.
    pub mean_accuracy: f64,
    /// Total platform evaluations across all per-phase tuning runs.
    pub evaluations: usize,
}

impl SimpointCloneReport {
    /// Number of phases cloned.
    #[must_use]
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Mean absolute error of the composite (1 − accuracy).
    #[must_use]
    pub fn mean_error(&self) -> f64 {
        1.0 - self.mean_accuracy
    }

    /// The composite metric with the worst accuracy and that accuracy.
    #[must_use]
    pub fn worst_metric(&self) -> Option<(MetricKind, f64)> {
        super::worst_metric(&self.ratios)
    }
}

/// The clone-per-SimPoint task.
///
/// Wraps a [`CloningTask`] (applied once per simpoint) with the phase
/// analysis and composite-recombination parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimpointCloningTask {
    /// The per-phase cloning task (metrics of interest, accuracy target,
    /// epoch budget — each phase gets the full budget).
    pub cloning: CloningTask,
    /// Phase-analysis interval length in dynamic instructions.
    pub interval_len: usize,
    /// Maximum number of phases (k-means `max_k`).
    pub max_phases: usize,
    /// Total dynamic length of the composite clone; per-phase lengths are
    /// the simpoint weights scaled to this budget.
    pub clone_len: usize,
    /// Base seed: phase `i` is tuned and resolved with `seed + i`, the
    /// phase analysis is seeded with `seed`, and the composite's trace
    /// expansion uses `seed` — set it to the evaluation platform's seed
    /// (as the facade does) so the composite replays the same expansion
    /// streams tuning measured.
    pub seed: u64,
}

impl Default for SimpointCloningTask {
    fn default() -> Self {
        SimpointCloningTask {
            cloning: CloningTask::default(),
            interval_len: 10_000,
            max_phases: 5,
            clone_len: 50_000,
            seed: 1,
        }
    }
}

impl SimpointCloningTask {
    /// Creates a task with default parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Validates the task parameters.
    ///
    /// # Errors
    ///
    /// Returns [`MicroGradError::InvalidInput`] when a parameter is out of
    /// range.
    pub fn validate(&self) -> Result<(), MicroGradError> {
        self.cloning.validate()?;
        for (field, value) in [
            ("interval_len", self.interval_len),
            ("max_phases", self.max_phases),
            ("clone_len", self.clone_len),
        ] {
            if value == 0 {
                return Err(MicroGradError::InvalidInput {
                    field: field.into(),
                    reason: "must be at least 1".into(),
                });
            }
        }
        Ok(())
    }

    /// Clones `profile` simpoint by simpoint and validates the recombined
    /// composite against the whole-program original.
    ///
    /// `make_tuner` builds one tuner per phase from the phase's seed; a
    /// tuner built this way must evaluate knob configurations with that
    /// seed (as `TunerKind::build` does), so the composite's rebuilt
    /// generator inputs match what tuning measured.  Every stage streams:
    /// phase analysis is one [`simpoint::analyze_source`] pass, per-phase
    /// references are measured on [`TraceSource::window`]ed sources, and
    /// the composite plays back-to-back
    /// [`StreamingExpander`] cursors — peak trace-layer memory stays
    /// O(window) regardless of the profiled or composite length.
    ///
    /// # Errors
    ///
    /// Returns [`MicroGradError::InvalidInput`] if the profiled stream is
    /// shorter than half an interval, and propagates platform, codegen and
    /// tuner failures.
    pub fn run(
        &self,
        platform: &dyn ExecutionPlatform,
        space: &KnobSpace,
        workload_name: &str,
        generator: &ApplicationTraceGenerator,
        profile: &ApplicationProfile,
        make_tuner: &mut dyn FnMut(u64) -> Box<dyn Tuner>,
    ) -> Result<SimpointCloneReport, MicroGradError> {
        self.validate()?;

        // 1. Streaming phase analysis: one pass over the target model.
        let analysis = simpoint::analyze_source(
            &mut generator.stream(profile),
            self.interval_len,
            self.max_phases,
            self.seed,
        )
        .ok_or_else(|| MicroGradError::InvalidInput {
            field: "interval_len".into(),
            reason: format!(
                "application stream ({} instructions) is shorter than half an interval \
                 (need at least {} of interval_len {})",
                generator.dynamic_len(),
                self.interval_len.div_ceil(2),
                self.interval_len
            ),
        })?;

        // 2. Whole-program reference metrics (the blended validation
        // target), streamed.
        let blended_target = platform.measure_source(&mut generator.stream(profile));

        // 3. One clone per simpoint: reference metrics from the interval
        // window, then a full tuning run whose probes go through
        // `evaluate_batch`.
        let mut phases = Vec::with_capacity(analysis.simpoints.len());
        let mut evaluations = 0;
        for (i, sp) in analysis.simpoints.iter().enumerate() {
            let interval_instructions = analysis.interval_length(sp.interval_index);
            let mut window = generator
                .stream(profile)
                .window(sp.start_instruction, interval_instructions);
            let target = platform.measure_source(&mut window);

            let phase_seed = self.seed.wrapping_add(i as u64);
            let mut tuner = make_tuner(phase_seed);
            let phase_name = format!("{workload_name}/simpoint{}", sp.cluster);
            let report = self
                .cloning
                .run(platform, space, &phase_name, &target, tuner.as_mut())?;
            evaluations += report.evaluations;
            phases.push(PhaseCloneReport {
                simpoint: *sp,
                interval_instructions,
                seed: phase_seed,
                report,
            });
        }

        // 4. Stitch the tuned phases into the weighted composite and
        // validate its blended metrics against the original.
        let blended_metrics = self.measure_composite(platform, space, &phases)?;
        let kinds = &self.cloning.metric_kinds;
        let ratios: BTreeMap<MetricKind, f64> = kinds
            .iter()
            .map(|k| (*k, blended_metrics.ratio_to(&blended_target, *k)))
            .collect();
        let mean_accuracy = blended_metrics.mean_accuracy(&blended_target, kinds);

        Ok(SimpointCloneReport {
            workload: workload_name.to_owned(),
            interval_len: self.interval_len,
            num_intervals: analysis.assignments.len(),
            phases,
            blended_target,
            blended_metrics,
            ratios,
            mean_accuracy,
            evaluations,
        })
    }

    /// Dynamic length of each composite phase: the simpoint weights scaled
    /// to [`clone_len`](Self::clone_len) by largest-remainder
    /// apportionment, so the lengths sum to `clone_len` exactly and (when
    /// `clone_len` allows) every phase plays at least one instruction —
    /// naive per-phase rounding could overshoot the budget or silently
    /// drop a low-weight phase from the composite.
    #[must_use]
    pub fn phase_lengths(&self, simpoints: &[Simpoint]) -> Vec<usize> {
        if simpoints.is_empty() {
            return Vec::new();
        }
        let total_weight: f64 = simpoints.iter().map(|sp| sp.weight).sum();
        let budget = self.clone_len as f64;
        let exact: Vec<f64> = simpoints
            .iter()
            .map(|sp| {
                if total_weight > 0.0 {
                    sp.weight / total_weight * budget
                } else {
                    budget / simpoints.len() as f64
                }
            })
            .collect();
        let mut lengths: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        // Hand the floored-away remainder out one instruction at a time,
        // largest fractional part first (ties broken by phase order).
        let mut order: Vec<usize> = (0..lengths.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = exact[a] - exact[a].floor();
            let fb = exact[b] - exact[b].floor();
            fb.partial_cmp(&fa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut leftover = self.clone_len.saturating_sub(lengths.iter().sum());
        let mut recipients = order.iter().cycle();
        while leftover > 0 {
            let &i = recipients.next().expect("cycle never ends");
            lengths[i] += 1;
            leftover -= 1;
        }
        // Every tuned phase should appear in the composite: float a
        // zero-length phase to one instruction, taken from the largest.
        if self.clone_len >= lengths.len() {
            for i in 0..lengths.len() {
                if lengths[i] == 0 {
                    let donor = (0..lengths.len())
                        .max_by_key(|&j| lengths[j])
                        .expect("non-empty");
                    lengths[donor] -= 1;
                    lengths[i] += 1;
                }
            }
        }
        lengths
    }

    /// Builds the weighted [`PhaseSchedule`] composite from the tuned
    /// per-phase configurations and measures its blended metrics.
    fn measure_composite(
        &self,
        platform: &dyn ExecutionPlatform,
        space: &KnobSpace,
        phases: &[PhaseCloneReport],
    ) -> Result<Metrics, MicroGradError> {
        let simpoints: Vec<Simpoint> = phases.iter().map(|p| p.simpoint).collect();
        let lengths = self.phase_lengths(&simpoints);
        let mut schedule = PhaseSchedule::new();
        for (i, (phase, len)) in phases.iter().zip(&lengths).enumerate() {
            // The generator input is rebuilt with the phase's tuning seed
            // (matching what its probes resolved to), but trace expansion
            // uses the task's base seed — the platform expanded every
            // tuning evaluation with *its* seed, so replaying under the
            // per-phase seed would measure a different branch/reuse draw
            // sequence than the one the knobs were tuned against.
            let input = space.resolve(&phase.report.knob_config, phase.seed)?;
            let test_case = Generator::new().generate(&input)?;
            let stream = StreamingExpander::from_test_case(test_case, *len, self.seed);
            schedule = schedule.then_in_region(
                stream,
                *len,
                i as u64 * PHASE_CODE_REGION,
                i as u64 * PHASE_DATA_REGION,
            );
        }
        Ok(platform.measure_source(&mut schedule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{GdParams, GradientDescentTuner};
    use crate::SimPlatform;
    use micrograd_codegen::GeneratorInput;
    use micrograd_sim::CoreConfig;
    use micrograd_workloads::Benchmark;
    use parking_lot::Mutex;

    fn platform() -> SimPlatform {
        SimPlatform::new(CoreConfig::small())
            .with_dynamic_len(5_000)
            .with_seed(3)
    }

    fn space() -> KnobSpace {
        let mut s = KnobSpace::instruction_fractions();
        s.loop_size = 100;
        s
    }

    fn fast_task() -> SimpointCloningTask {
        SimpointCloningTask {
            cloning: CloningTask {
                max_epochs: 2,
                ..CloningTask::default()
            },
            interval_len: 5_000,
            max_phases: 3,
            clone_len: 5_000,
            seed: 3,
        }
    }

    fn gd_factory() -> impl FnMut(u64) -> Box<dyn Tuner> {
        |seed| {
            Box::new(GradientDescentTuner::new(GdParams {
                seed,
                ..GdParams::default()
            }))
        }
    }

    /// An [`ExecutionPlatform`] decorator counting batch submissions, to
    /// prove the per-phase tuning rides `evaluate_batch`.
    struct BatchCounting<'a> {
        inner: &'a SimPlatform,
        batches: Mutex<usize>,
        batched_inputs: Mutex<usize>,
    }

    impl ExecutionPlatform for BatchCounting<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn evaluate(&self, input: &GeneratorInput) -> Result<Metrics, MicroGradError> {
            self.inner.evaluate(input)
        }

        fn evaluate_batch(
            &self,
            inputs: &[GeneratorInput],
        ) -> Vec<Result<Metrics, MicroGradError>> {
            *self.batches.lock() += 1;
            *self.batched_inputs.lock() += inputs.len();
            self.inner.evaluate_batch(inputs)
        }

        fn measure_source(&self, source: &mut dyn TraceSource) -> Metrics {
            self.inner.measure_source(source)
        }
    }

    #[test]
    fn validation_rejects_zero_parameters() {
        for mutate in [
            (|t: &mut SimpointCloningTask| t.interval_len = 0) as fn(&mut SimpointCloningTask),
            |t| t.max_phases = 0,
            |t| t.clone_len = 0,
            |t| t.cloning.max_epochs = 0,
        ] {
            let mut task = fast_task();
            mutate(&mut task);
            assert!(task.validate().is_err());
        }
        assert!(fast_task().validate().is_ok());
    }

    #[test]
    fn too_short_a_stream_is_rejected() {
        let task = SimpointCloningTask {
            interval_len: 100_000,
            ..fast_task()
        };
        let generator = ApplicationTraceGenerator::new(10_000, 3);
        let err = task
            .run(
                &platform(),
                &space(),
                "gcc",
                &generator,
                &Benchmark::Gcc.profile(),
                &mut gd_factory(),
            )
            .unwrap_err();
        assert!(matches!(err, MicroGradError::InvalidInput { .. }));
    }

    #[test]
    fn phase_lengths_sum_to_clone_len() {
        let task = fast_task();
        let simpoint = |weight: f64, cluster: usize| Simpoint {
            interval_index: cluster,
            start_instruction: cluster * 5_000,
            weight,
            cluster,
        };
        let lengths =
            task.phase_lengths(&[simpoint(0.333, 0), simpoint(0.333, 1), simpoint(0.334, 2)]);
        assert_eq!(lengths.iter().sum::<usize>(), task.clone_len);
        assert!(task.phase_lengths(&[]).is_empty());

        // Adversarial rounding: two near-half weights would naively round
        // to the full budget, starving (or overshooting past) the third.
        let lengths = task.phase_lengths(&[
            simpoint(0.49999, 0),
            simpoint(0.49999, 1),
            simpoint(0.00002, 2),
        ]);
        assert_eq!(lengths.iter().sum::<usize>(), task.clone_len);
        assert!(
            lengths.iter().all(|&l| l >= 1),
            "every tuned phase must play at least one instruction: {lengths:?}"
        );

        // A tight budget still apportions exactly, one instruction each.
        let tight = SimpointCloningTask {
            clone_len: 3,
            ..fast_task()
        };
        let lengths =
            tight.phase_lengths(&[simpoint(0.9, 0), simpoint(0.05, 1), simpoint(0.05, 2)]);
        assert_eq!(lengths.iter().sum::<usize>(), 3);
        assert!(lengths.iter().all(|&l| l >= 1));
    }

    #[test]
    fn clone_per_simpoint_produces_a_weighted_composite() {
        let platform = platform();
        let counting = BatchCounting {
            inner: &platform,
            batches: Mutex::new(0),
            batched_inputs: Mutex::new(0),
        };
        let task = fast_task();
        let generator = ApplicationTraceGenerator::new(30_000, 3);
        let report = task
            .run(
                &counting,
                &space(),
                "gcc",
                &generator,
                &Benchmark::Gcc.profile(),
                &mut gd_factory(),
            )
            .unwrap();

        assert_eq!(report.workload, "gcc");
        assert_eq!(report.num_intervals, 6);
        assert!(report.num_phases() >= 1);
        assert_eq!(report.num_phases(), report.phases.len());
        // Simpoint weights form a distribution.
        let total: f64 = report.phases.iter().map(|p| p.simpoint.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Per-phase reports carry their own targets and evaluations.
        for phase in &report.phases {
            assert!(phase.report.evaluations > 0);
            assert_eq!(phase.interval_instructions, 5_000);
            assert!(phase.report.mean_accuracy > 0.0);
        }
        assert_eq!(
            report.evaluations,
            report.phases.iter().map(|p| p.report.evaluations).sum()
        );
        // Blended validation is populated against the whole-program target.
        assert_eq!(report.ratios.len(), task.cloning.metric_kinds.len());
        assert!(report.mean_accuracy > 0.0);
        assert!(report.mean_error() < 1.0);
        assert!(report.blended_target.value_or_zero(MetricKind::Ipc) > 0.0);
        assert!(report.blended_metrics.value_or_zero(MetricKind::Ipc) > 0.0);
        let (_, worst) = report.worst_metric().unwrap();
        assert!(worst <= report.mean_accuracy + 1e-9);
        // The per-phase tuning rode the batch interface.
        assert!(
            *counting.batches.lock() >= report.num_phases(),
            "expected at least one batch submission per phase"
        );
        assert!(*counting.batched_inputs.lock() > 0);
    }
}
