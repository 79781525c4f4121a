//! A recording [`ExecutionPlatform`]: forwards every call to a
//! [`SimPlatform`] and logs the inputs, wall time and memo-cache movement
//! of each `evaluate` / `evaluate_batch` call.
//!
//! Tuners take `&dyn ExecutionPlatform`, so wrapping the platform times
//! the evaluation layer from outside the program without changing it.

use micrograd_codegen::{GeneratorInput, TraceSource};
use micrograd_core::{ExecutionPlatform, Metrics, MicroGradError, SimPlatform};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded platform call.
#[derive(Debug, Clone)]
pub struct Call {
    /// `true` for `evaluate_batch`, `false` for a single `evaluate`.
    pub batch: bool,
    /// The inputs, in call order.
    pub inputs: Vec<GeneratorInput>,
    /// Wall time of the call.
    pub wall: Duration,
    /// Memo-cache hits during the call.
    pub hits: u64,
    /// Memo-cache misses (full evaluations) during the call.
    pub misses: u64,
    /// Worker threads the platform used for the call.
    pub workers: usize,
}

impl Call {
    /// Inputs that repeat an earlier input of the same call.
    #[must_use]
    pub fn duplicates(&self) -> usize {
        let mut distinct: Vec<&GeneratorInput> = Vec::with_capacity(self.inputs.len());
        for input in &self.inputs {
            if !distinct.contains(&input) {
                distinct.push(input);
            }
        }
        self.inputs.len() - distinct.len()
    }
}

/// The recording wrapper.
#[derive(Debug)]
pub struct RecordingPlatform<'a> {
    inner: &'a SimPlatform,
    calls: Mutex<Vec<Call>>,
}

impl<'a> RecordingPlatform<'a> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: &'a SimPlatform) -> Self {
        RecordingPlatform {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// The recorded calls, in call order.
    #[must_use]
    pub fn into_calls(self) -> Vec<Call> {
        self.calls.into_inner().expect("no recorder panicked")
    }

    fn record<T>(&self, batch: bool, inputs: &[GeneratorInput], run: impl FnOnce() -> T) -> T {
        let before = self.inner.cache_stats();
        let workers = if batch && inputs.len() > 1 {
            self.inner.workers_for(inputs.len())
        } else {
            1
        };
        let start = Instant::now();
        let out = run();
        let wall = start.elapsed();
        let after = self.inner.cache_stats();
        self.calls.lock().expect("no recorder panicked").push(Call {
            batch,
            inputs: inputs.to_vec(),
            wall,
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            workers,
        });
        out
    }
}

impl ExecutionPlatform for RecordingPlatform<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn evaluate(&self, input: &GeneratorInput) -> Result<Metrics, MicroGradError> {
        self.record(false, std::slice::from_ref(input), || {
            self.inner.evaluate(input)
        })
    }

    fn evaluate_batch(&self, inputs: &[GeneratorInput]) -> Vec<Result<Metrics, MicroGradError>> {
        self.record(true, inputs, || self.inner.evaluate_batch(inputs))
    }

    fn check_cancelled(&self) -> Result<(), MicroGradError> {
        self.inner.check_cancelled()
    }

    fn measure_source(&self, source: &mut dyn TraceSource) -> Metrics {
        self.inner.measure_source(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micrograd_core::tuner::{GdParams, GradientDescentTuner, Tuner, TuningBudget};
    use micrograd_core::{KnobSpace, MetricKind, StressGoal, StressLoss};
    use micrograd_sim::CoreConfig;

    fn platform() -> SimPlatform {
        SimPlatform::new(CoreConfig::small())
            .with_dynamic_len(3_000)
            .with_seed(5)
            .with_parallelism(Some(2))
    }

    #[test]
    fn wrapper_returns_what_the_bare_platform_returns() {
        let inputs: Vec<GeneratorInput> = (0..4)
            .map(|i| GeneratorInput {
                loop_size: 60 + 20 * (i % 2),
                ..GeneratorInput::default()
            })
            .collect();
        let bare = platform();
        let wrapped = platform();
        let recorder = RecordingPlatform::new(&wrapped);
        assert_eq!(
            bare.evaluate_batch(&inputs),
            recorder.evaluate_batch(&inputs)
        );
        assert_eq!(bare.evaluate(&inputs[0]), recorder.evaluate(&inputs[0]));
        let calls = recorder.into_calls();
        assert_eq!(calls.len(), 2);
        assert!(calls[0].batch && !calls[1].batch);
        assert_eq!(calls[0].duplicates(), 2);
        assert_eq!((calls[0].misses, calls[0].hits), (2, 0));
        assert_eq!((calls[1].misses, calls[1].hits), (0, 1));
    }

    #[test]
    fn tuning_through_the_wrapper_matches_tuning_on_the_bare_platform() {
        let space = KnobSpace::instruction_fractions();
        let loss = StressLoss::new(MetricKind::Ipc, StressGoal::Minimize);
        let budget = TuningBudget::epochs(2);
        let tune = |p: &dyn ExecutionPlatform| {
            GradientDescentTuner::new(GdParams::default())
                .tune(p, &space, &loss, &budget)
                .expect("tuning succeeds")
                .best_metrics
        };
        let bare = platform();
        let wrapped = platform();
        let recorder = RecordingPlatform::new(&wrapped);
        assert_eq!(tune(&bare), tune(&recorder));
        assert!(!recorder.into_calls().is_empty());
    }
}
