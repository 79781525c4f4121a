//! Shared cloning-experiment runner (Figs. 2, 3 and 4).

use crate::ExperimentSizes;
use micrograd_core::tuner::{GaParams, GdParams, GeneticTuner, GradientDescentTuner, Tuner};
use micrograd_core::usecase::CloningTask;
use micrograd_core::{ExecutionPlatform, KnobSpace, MetricKind, Metrics, SimPlatform, TunerKind};
use micrograd_sim::CoreConfig;
use micrograd_workloads::{ApplicationTraceGenerator, Benchmark};
use std::collections::BTreeMap;

/// One row of a cloning experiment: a benchmark's per-metric clone/original
/// ratios, mean accuracy and epoch count.
#[derive(Debug, Clone, PartialEq)]
pub struct CloneRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Per-metric clone/original ratio (radar radial axis).
    pub ratios: BTreeMap<MetricKind, f64>,
    /// Mean accuracy over the cloning metrics.
    pub mean_accuracy: f64,
    /// Epochs used by the tuner.
    pub epochs: usize,
    /// Platform evaluations used by the tuner.
    pub evaluations: usize,
}

/// Runs the cloning experiment of Fig. 2/3/4 for every bundled benchmark.
///
/// `core` selects the Table II core, `tuner_kind` selects gradient descent
/// (Figs. 2–3) or the GA baseline (Fig. 4).  For the GA the epoch budget is
/// the same as GD's, as in the paper ("we allow the GA based approach to run
/// for the same number of tuning epochs").
///
/// # Panics
///
/// Panics if a tuning run fails (the bundled platform cannot fail on valid
/// knob configurations).
#[must_use]
pub fn run_cloning_experiment(
    core: CoreConfig,
    tuner_kind: TunerKind,
    sizes: &ExperimentSizes,
) -> Vec<CloneRow> {
    let platform = SimPlatform::new(core)
        .with_dynamic_len(sizes.dynamic_len)
        .with_seed(sizes.seed)
        .with_parallelism(sizes.parallelism);
    let mut space = KnobSpace::full();
    space.loop_size = sizes.loop_size;
    let task = CloningTask {
        max_epochs: sizes.cloning_epochs,
        ..CloningTask::default()
    };

    // Every target is characterized before the first tuning run: a
    // reference stream's working set is then never alive beside a memo
    // table, which the platform allocates on its first evaluation and
    // fills through the runs.  Streamed, not materialized: no reference
    // trace is ever held whole.
    let targets: Vec<Metrics> = Benchmark::ALL
        .iter()
        .map(|benchmark| {
            platform.measure_source(
                &mut ApplicationTraceGenerator::new(sizes.reference_len, sizes.seed)
                    .stream(&benchmark.profile()),
            )
        })
        .collect();

    let mut rows = Vec::new();
    for (benchmark, target) in Benchmark::ALL.into_iter().zip(targets) {
        let mut tuner: Box<dyn Tuner> = match tuner_kind {
            TunerKind::Genetic => Box::new(GeneticTuner::new(GaParams {
                seed: sizes.seed,
                ..GaParams::paper()
            })),
            _ => {
                let warm = CloningTask::warm_start_config(&space, &target);
                Box::new(
                    GradientDescentTuner::new(GdParams {
                        seed: sizes.seed,
                        ..GdParams::default()
                    })
                    .with_initial_config(warm),
                )
            }
        };
        let report = task
            .run(&platform, &space, benchmark.name(), &target, tuner.as_mut())
            .expect("cloning run succeeds");
        rows.push(CloneRow {
            benchmark: benchmark.name().to_owned(),
            ratios: report.ratios.clone(),
            mean_accuracy: report.mean_accuracy,
            epochs: report.epochs_used,
            evaluations: report.evaluations,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_cloning_experiment_produces_a_row_per_benchmark() {
        let sizes = ExperimentSizes {
            reference_len: 6_000,
            dynamic_len: 4_000,
            loop_size: 100,
            cloning_epochs: 2,
            ..ExperimentSizes::fast()
        };
        let rows = run_cloning_experiment(CoreConfig::small(), TunerKind::GradientDescent, &sizes);
        assert_eq!(rows.len(), Benchmark::ALL.len());
        for row in &rows {
            assert_eq!(row.ratios.len(), MetricKind::CLONING.len());
            assert!(row.epochs <= 2);
            assert!(row.mean_accuracy > 0.0);
            assert!(row.evaluations > 0);
        }
    }
}
