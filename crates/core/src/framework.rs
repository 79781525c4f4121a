//! The MicroGrad facade: configuration-file driven runs.
//!
//! Section III-A of the paper describes the framework inputs as "provided in
//! the form of a configuration file".  [`FrameworkConfig`] is that file
//! (serde-serializable, JSON in the examples), and [`MicroGrad`] wires the
//! configured platform, knob space, tuner and use case together and returns
//! a [`FrameworkOutput`].

use crate::tuner::{
    BruteForceTuner, GaParams, GdParams, GeneticTuner, GradientDescentTuner, RandomSearchTuner,
    Tuner,
};
use crate::usecase::{
    CloneReport, CloningTask, SimpointCloneReport, SimpointCloningTask, StressReport, StressTask,
};
use crate::{
    ExecutionPlatform, KnobSpace, MetricKind, Metrics, MicroGradError, SimPlatform, StressGoal,
};
use micrograd_sim::CoreConfig;
use micrograd_workloads::{ApplicationTraceGenerator, Benchmark};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Which core configuration to evaluate on (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum CoreKind {
    /// The *Small* core of Table II.
    Small,
    /// The *Large* core of Table II.
    Large,
}

impl CoreKind {
    /// The corresponding simulator configuration.
    #[must_use]
    pub fn config(self) -> CoreConfig {
        match self {
            CoreKind::Small => CoreConfig::small(),
            CoreKind::Large => CoreConfig::large(),
        }
    }
}

/// Which tuning mechanism to use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum TunerKind {
    /// Gradient descent (the paper's contribution).
    GradientDescent,
    /// The GA baseline with Table I parameters.
    Genetic,
    /// Coarse-grid brute force.
    BruteForce,
    /// Uniform random search.
    RandomSearch,
}

impl TunerKind {
    /// Instantiates the tuner with default parameters and the given seed.
    #[must_use]
    pub fn build(self, seed: u64) -> Box<dyn Tuner> {
        match self {
            TunerKind::GradientDescent => Box::new(GradientDescentTuner::new(GdParams {
                seed,
                ..GdParams::default()
            })),
            TunerKind::Genetic => Box::new(GeneticTuner::new(GaParams {
                seed,
                ..GaParams::paper()
            })),
            TunerKind::BruteForce => Box::new(BruteForceTuner::default()),
            TunerKind::RandomSearch => Box::new(RandomSearchTuner::new(20, seed)),
        }
    }
}

/// Which knob space to search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum KnobSpaceKind {
    /// The full Listing 1 space (16 knobs).
    Full,
    /// Instruction fractions plus dependency distance (compute-focused).
    InstructionFractions,
}

impl KnobSpaceKind {
    /// Builds the knob space.
    #[must_use]
    pub fn build(self) -> KnobSpace {
        match self {
            KnobSpaceKind::Full => KnobSpace::full(),
            KnobSpaceKind::InstructionFractions => KnobSpace::instruction_fractions(),
        }
    }
}

/// The use case to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case")]
pub enum UseCaseConfig {
    /// Clone a bundled SPEC-like benchmark.
    CloneBenchmark {
        /// Benchmark name (e.g. `"mcf"`).
        benchmark: String,
        /// Required accuracy (default 0.99).
        #[serde(default = "default_accuracy")]
        accuracy_target: f64,
    },
    /// Clone a bundled SPEC-like benchmark one simpoint at a time and
    /// recombine the tuned per-phase clones into a weighted composite
    /// (the "Application Simpoints can be provided, so as to generate a
    /// clone for each simpoint individually" mode of Section III-A).
    CloneSimpoints {
        /// Benchmark name (e.g. `"gcc"`).
        benchmark: String,
        /// Required accuracy of each per-phase clone (default 0.99).
        #[serde(default = "default_accuracy")]
        accuracy_target: f64,
        /// Phase-analysis interval length in dynamic instructions
        /// (default 10 000).
        #[serde(default = "default_interval_len")]
        interval_len: usize,
        /// Maximum number of phases to cluster into (default 5).
        #[serde(default = "default_max_phases")]
        max_phases: usize,
    },
    /// Clone a workload described directly by its metric values
    /// (the "numerical values … provided as input" mode of Section III-A).
    CloneMetrics {
        /// Workload name used in reports.
        name: String,
        /// Target metric values.
        target: Metrics,
        /// Required accuracy (default 0.99).
        #[serde(default = "default_accuracy")]
        accuracy_target: f64,
    },
    /// Stress a metric.
    Stress {
        /// The metric to stress.
        metric: MetricKind,
        /// Whether to maximize or minimize it.
        goal: StressGoal,
    },
}

impl UseCaseConfig {
    /// The `kind` tag this variant serializes as (used for job listings
    /// and log lines).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            UseCaseConfig::CloneBenchmark { .. } => "clone-benchmark",
            UseCaseConfig::CloneSimpoints { .. } => "clone-simpoints",
            UseCaseConfig::CloneMetrics { .. } => "clone-metrics",
            UseCaseConfig::Stress { .. } => "stress",
        }
    }
}

fn default_accuracy() -> f64 {
    0.99
}

fn default_interval_len() -> usize {
    10_000
}

fn default_max_phases() -> usize {
    5
}

/// The framework configuration ("input file").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameworkConfig {
    /// Target core (Table II).
    pub core: CoreKind,
    /// Tuning mechanism.
    pub tuner: TunerKind,
    /// Knob space.
    pub knob_space: KnobSpaceKind,
    /// Use case.
    pub use_case: UseCaseConfig,
    /// Maximum number of tuning epochs.
    pub max_epochs: usize,
    /// Dynamic instructions per evaluation.
    pub dynamic_len: usize,
    /// Dynamic instructions used to characterize a reference benchmark.
    pub reference_len: usize,
    /// Seed for all stochastic decisions.
    pub seed: u64,
    /// Batch-evaluation thread count: `None` evaluates sequentially,
    /// `Some(n)` uses up to `n` threads (the calling thread included), and
    /// `Some(0)` adds to the calling thread whatever spare cores of the
    /// process no other `Some(0)` batch holds.  Results are bit-identical
    /// across all settings; this knob only trades wall-clock for cores.
    ///
    /// The job server neither honors nor keys on this field: it runs every
    /// job at `Some(0)` and clears the field before computing the job's
    /// identity.
    #[serde(default)]
    pub parallelism: Option<usize>,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            core: CoreKind::Large,
            tuner: TunerKind::GradientDescent,
            knob_space: KnobSpaceKind::Full,
            use_case: UseCaseConfig::Stress {
                metric: MetricKind::Ipc,
                goal: StressGoal::Minimize,
            },
            max_epochs: 60,
            dynamic_len: SimPlatform::DEFAULT_DYNAMIC_LEN,
            reference_len: 100_000,
            seed: 1,
            parallelism: None,
        }
    }
}

impl FrameworkConfig {
    /// Parses a configuration from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`MicroGradError::InvalidInput`] if the JSON is malformed or
    /// does not match the configuration shape.  The error names the
    /// offending field (e.g. `FrameworkConfig.max_epochs`) or enum variant
    /// where the deserializer can attribute the failure, so a bad
    /// configuration file points at what to fix rather than at "the
    /// config".
    pub fn from_json(json: &str) -> Result<Self, MicroGradError> {
        serde_json::from_str(json).map_err(|e| invalid_config_error(&e.to_string()))
    }

    /// Serializes the configuration to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// A stable 64-bit fingerprint of the whole configuration.
    ///
    /// This is the job-identity key of the service layer: two clients
    /// submitting bit-identical configurations share one execution, and the
    /// durable result store addresses completed reports by this value.  It
    /// follows the same discipline as the `SimPlatform` memo-cache key —
    /// exhaustive destructuring (adding a field fails to compile here
    /// instead of silently falling out of the key), `f64::to_bits` for
    /// float fields, and consumers must verify configuration equality on a
    /// fingerprint match so a 64-bit collision degrades to a duplicate
    /// execution instead of a wrong report.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let FrameworkConfig {
            core,
            tuner,
            knob_space,
            use_case,
            max_epochs,
            dynamic_len,
            reference_len,
            seed,
            parallelism,
        } = self;
        let mut h = DefaultHasher::new();
        (match core {
            CoreKind::Small => 0u8,
            CoreKind::Large => 1,
        })
        .hash(&mut h);
        (match tuner {
            TunerKind::GradientDescent => 0u8,
            TunerKind::Genetic => 1,
            TunerKind::BruteForce => 2,
            TunerKind::RandomSearch => 3,
        })
        .hash(&mut h);
        (match knob_space {
            KnobSpaceKind::Full => 0u8,
            KnobSpaceKind::InstructionFractions => 1,
        })
        .hash(&mut h);
        hash_use_case(use_case, &mut h);
        max_epochs.hash(&mut h);
        dynamic_len.hash(&mut h);
        reference_len.hash(&mut h);
        seed.hash(&mut h);
        parallelism.hash(&mut h);
        h.finish()
    }
}

/// Hashes a use case exhaustively (every variant and field spelled out, so
/// extending the enum fails to compile here rather than weakening the
/// fingerprint).
fn hash_use_case(use_case: &UseCaseConfig, h: &mut DefaultHasher) {
    match use_case {
        UseCaseConfig::CloneBenchmark {
            benchmark,
            accuracy_target,
        } => {
            0u8.hash(h);
            benchmark.hash(h);
            accuracy_target.to_bits().hash(h);
        }
        UseCaseConfig::CloneSimpoints {
            benchmark,
            accuracy_target,
            interval_len,
            max_phases,
        } => {
            1u8.hash(h);
            benchmark.hash(h);
            accuracy_target.to_bits().hash(h);
            interval_len.hash(h);
            max_phases.hash(h);
        }
        UseCaseConfig::CloneMetrics {
            name,
            target,
            accuracy_target,
        } => {
            2u8.hash(h);
            name.hash(h);
            for (kind, value) in target.iter() {
                kind.hash(h);
                value.to_bits().hash(h);
            }
            accuracy_target.to_bits().hash(h);
        }
        UseCaseConfig::Stress { metric, goal } => {
            3u8.hash(h);
            metric.hash(h);
            (match goal {
                StressGoal::Maximize => 0u8,
                StressGoal::Minimize => 1,
            })
            .hash(h);
        }
    }
}

/// Converts a deserializer message into an [`MicroGradError::InvalidInput`]
/// that names the offending field where possible.
///
/// The stand-in deserializer prefixes shape errors with a `Type.field`
/// context path (`FrameworkConfig.max_epochs: expected integer, …`,
/// `FrameworkConfig.seed (missing): …`) and names unknown enum variants in
/// the message body; this extracts the path into the error's `field` and
/// keeps everything else as the reason.
fn invalid_config_error(message: &str) -> MicroGradError {
    if let Some((path, rest)) = message.split_once(": ") {
        let (path, missing) = match path.strip_suffix(" (missing)") {
            Some(stripped) => (stripped, true),
            None => (path, false),
        };
        if !path.is_empty() && !path.contains(char::is_whitespace) {
            return MicroGradError::InvalidInput {
                field: path.to_owned(),
                reason: if missing {
                    format!("missing required field ({rest})")
                } else {
                    rest.to_owned()
                },
            };
        }
    }
    MicroGradError::InvalidInput {
        field: "config".into(),
        reason: message.to_owned(),
    }
}

/// The output of a framework run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case")]
pub enum FrameworkOutput {
    /// Output of a cloning run.
    Clone(CloneReport),
    /// Output of a clone-per-SimPoint run.
    SimpointClone(SimpointCloneReport),
    /// Output of a stress-testing run.
    Stress(StressReport),
}

impl FrameworkOutput {
    /// The clone report, if this was a cloning run.
    #[must_use]
    pub fn as_clone(&self) -> Option<&CloneReport> {
        match self {
            FrameworkOutput::Clone(r) => Some(r),
            _ => None,
        }
    }

    /// The simpoint-clone report, if this was a clone-per-SimPoint run.
    #[must_use]
    pub fn as_simpoint_clone(&self) -> Option<&SimpointCloneReport> {
        match self {
            FrameworkOutput::SimpointClone(r) => Some(r),
            _ => None,
        }
    }

    /// The stress report, if this was a stress-testing run.
    #[must_use]
    pub fn as_stress(&self) -> Option<&StressReport> {
        match self {
            FrameworkOutput::Stress(r) => Some(r),
            _ => None,
        }
    }
}

/// The centralized framework facade.
#[derive(Debug)]
pub struct MicroGrad {
    config: FrameworkConfig,
}

impl MicroGrad {
    /// Creates the framework from a configuration.
    #[must_use]
    pub fn new(config: FrameworkConfig) -> Self {
        MicroGrad { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// Measures the reference metrics of a bundled benchmark on this
    /// framework's platform.
    ///
    /// # Errors
    ///
    /// Returns [`MicroGradError::InvalidInput`] for an unknown benchmark
    /// name.
    pub fn characterize_benchmark(&self, name: &str) -> Result<Metrics, MicroGradError> {
        self.characterize_benchmark_on(&self.platform(), name)
    }

    /// [`characterize_benchmark`](Self::characterize_benchmark) on a
    /// caller-provided platform (the form a long-lived service uses so all
    /// jobs of a run share one platform instance and its memo cache).
    ///
    /// # Errors
    ///
    /// Returns [`MicroGradError::InvalidInput`] for an unknown benchmark
    /// name.
    pub fn characterize_benchmark_on(
        &self,
        platform: &SimPlatform,
        name: &str,
    ) -> Result<Metrics, MicroGradError> {
        let benchmark: Benchmark = name.parse().map_err(|_| MicroGradError::InvalidInput {
            field: "benchmark".into(),
            reason: format!("unknown benchmark `{name}`"),
        })?;
        // Stream the reference application straight into the simulator —
        // the reference trace is never materialized, so `reference_len` can
        // be raised to realistic (100 M-instruction) lengths without a
        // memory cost.
        let mut source =
            ApplicationTraceGenerator::new(self.config.reference_len, self.config.seed)
                .stream(&benchmark.profile());
        Ok(platform.measure_source(&mut source))
    }

    /// Clones a bundled benchmark one simpoint at a time and recombines
    /// the tuned per-phase clones into a weighted composite validated
    /// against the whole-program original.
    ///
    /// The target model is phase-analyzed in a single streaming pass
    /// (`simpoint::analyze_source`), each simpoint's reference metrics are
    /// measured on an interval-windowed stream, one clone is tuned per
    /// simpoint with this framework's tuner (probes batched through
    /// [`crate::ExecutionPlatform::evaluate_batch`]), and the composite is
    /// a weighted `PhaseSchedule` of the tuned per-phase generators — all
    /// in O(window) trace memory.  See `docs/simpoint.md` for the
    /// workflow.
    ///
    /// # Errors
    ///
    /// Returns [`MicroGradError::InvalidInput`] for an unknown benchmark
    /// name or a reference stream shorter than half an interval (no
    /// foldable interval at all), and propagates platform and tuner
    /// failures.
    pub fn clone_simpoints(
        &self,
        name: &str,
        interval_len: usize,
        max_phases: usize,
        accuracy_target: f64,
    ) -> Result<SimpointCloneReport, MicroGradError> {
        self.clone_simpoints_on(
            &self.platform(),
            name,
            interval_len,
            max_phases,
            accuracy_target,
        )
    }

    /// [`clone_simpoints`](Self::clone_simpoints) on a caller-provided
    /// platform.
    ///
    /// # Errors
    ///
    /// Same as [`clone_simpoints`](Self::clone_simpoints).
    pub fn clone_simpoints_on(
        &self,
        platform: &SimPlatform,
        name: &str,
        interval_len: usize,
        max_phases: usize,
        accuracy_target: f64,
    ) -> Result<SimpointCloneReport, MicroGradError> {
        let benchmark: Benchmark = name.parse().map_err(|_| MicroGradError::InvalidInput {
            field: "benchmark".into(),
            reason: format!("unknown benchmark `{name}`"),
        })?;
        let space = self.config.knob_space.build();
        let task = SimpointCloningTask {
            cloning: CloningTask {
                accuracy_target,
                max_epochs: self.config.max_epochs,
                ..CloningTask::default()
            },
            interval_len,
            max_phases,
            clone_len: self.config.dynamic_len,
            seed: self.config.seed,
        };
        let generator = ApplicationTraceGenerator::new(self.config.reference_len, self.config.seed);
        let tuner_kind = self.config.tuner;
        task.run(
            platform,
            &space,
            benchmark.name(),
            &generator,
            &benchmark.profile(),
            &mut |seed| tuner_kind.build(seed),
        )
    }

    /// The evaluation platform this framework runs on.
    #[must_use]
    pub fn platform(&self) -> SimPlatform {
        SimPlatform::new(self.config.core.config())
            .with_dynamic_len(self.config.dynamic_len)
            .with_seed(self.config.seed)
            .with_parallelism(self.config.parallelism)
    }

    /// Runs the configured use case to completion.
    ///
    /// # Errors
    ///
    /// Propagates configuration, platform and tuner failures.
    pub fn run(&self) -> Result<FrameworkOutput, MicroGradError> {
        self.run_on(&self.platform())
    }

    /// Runs the configured use case on a caller-provided platform.
    ///
    /// [`run`](Self::run) builds a fresh [`SimPlatform`] per invocation;
    /// this form lets a long-lived caller (the `micrograd-service`
    /// scheduler, a warm-started batch driver, an example that wants to
    /// inspect [`SimPlatform::cache_stats`] afterwards) own the platform —
    /// and therefore the memo cache — across the run.  The platform should
    /// be configured like [`platform`](Self::platform) builds it (same
    /// core, `dynamic_len` and seed), otherwise the report will not match a
    /// plain [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Propagates configuration, platform and tuner failures.
    pub fn run_on(&self, platform: &SimPlatform) -> Result<FrameworkOutput, MicroGradError> {
        let space = self.config.knob_space.build();
        let mut tuner = self.config.tuner.build(self.config.seed);

        match &self.config.use_case {
            UseCaseConfig::CloneBenchmark {
                benchmark,
                accuracy_target,
            } => {
                let target = self.characterize_benchmark_on(platform, benchmark)?;
                let task = CloningTask {
                    accuracy_target: *accuracy_target,
                    max_epochs: self.config.max_epochs,
                    ..CloningTask::default()
                };
                let report = task.run(platform, &space, benchmark, &target, tuner.as_mut())?;
                Ok(FrameworkOutput::Clone(report))
            }
            UseCaseConfig::CloneSimpoints {
                benchmark,
                accuracy_target,
                interval_len,
                max_phases,
            } => {
                let report = self.clone_simpoints_on(
                    platform,
                    benchmark,
                    *interval_len,
                    *max_phases,
                    *accuracy_target,
                )?;
                Ok(FrameworkOutput::SimpointClone(report))
            }
            UseCaseConfig::CloneMetrics {
                name,
                target,
                accuracy_target,
            } => {
                let task = CloningTask {
                    accuracy_target: *accuracy_target,
                    max_epochs: self.config.max_epochs,
                    ..CloningTask::default()
                };
                let report = task.run(platform, &space, name, target, tuner.as_mut())?;
                Ok(FrameworkOutput::Clone(report))
            }
            UseCaseConfig::Stress { metric, goal } => {
                let task = StressTask {
                    metric: *metric,
                    goal: *goal,
                    max_epochs: self.config.max_epochs,
                };
                let report = task.run(platform, &space, tuner.as_mut())?;
                Ok(FrameworkOutput::Stress(report))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> FrameworkConfig {
        FrameworkConfig {
            core: CoreKind::Small,
            max_epochs: 3,
            dynamic_len: 6_000,
            reference_len: 10_000,
            knob_space: KnobSpaceKind::InstructionFractions,
            ..FrameworkConfig::default()
        }
    }

    #[test]
    fn config_json_round_trip() {
        let config = FrameworkConfig {
            use_case: UseCaseConfig::CloneBenchmark {
                benchmark: "mcf".into(),
                accuracy_target: 0.95,
            },
            ..fast_config()
        };
        let json = config.to_json();
        let back = FrameworkConfig::from_json(&json).unwrap();
        assert_eq!(back, config);
        assert!(json.contains("clone-benchmark"));
        assert!(FrameworkConfig::from_json("{not json").is_err());
    }

    #[test]
    fn stress_run_produces_a_stress_report() {
        let framework = MicroGrad::new(fast_config());
        let output = framework.run().unwrap();
        let report = output.as_stress().expect("stress output");
        assert!(report.best_value > 0.0);
        assert!(output.as_clone().is_none());
        assert_eq!(report.epochs_used, report.progression.len());
    }

    #[test]
    fn clone_benchmark_run_produces_a_clone_report() {
        let config = FrameworkConfig {
            use_case: UseCaseConfig::CloneBenchmark {
                benchmark: "bzip2".into(),
                accuracy_target: 0.99,
            },
            knob_space: KnobSpaceKind::Full,
            ..fast_config()
        };
        let framework = MicroGrad::new(config);
        let output = framework.run().unwrap();
        let report = output.as_clone().expect("clone output");
        assert_eq!(report.workload, "bzip2");
        assert!(report.mean_accuracy > 0.0);
        assert!(!report.epochs.is_empty());
    }

    #[test]
    fn clone_simpoints_run_produces_a_simpoint_clone_report() {
        let config = FrameworkConfig {
            use_case: UseCaseConfig::CloneSimpoints {
                benchmark: "gcc".into(),
                accuracy_target: 0.99,
                interval_len: 5_000,
                max_phases: 3,
            },
            max_epochs: 2,
            reference_len: 20_000,
            ..fast_config()
        };
        let framework = MicroGrad::new(config);
        let output = framework.run().unwrap();
        let report = output.as_simpoint_clone().expect("simpoint-clone output");
        assert_eq!(report.workload, "gcc");
        assert_eq!(report.interval_len, 5_000);
        assert!(report.num_phases() >= 1);
        assert!(report.mean_accuracy > 0.0);
        assert!(output.as_clone().is_none());
        assert!(output.as_stress().is_none());
    }

    #[test]
    fn clone_simpoints_config_round_trips_with_defaults() {
        let json = r#"{
            "core": "small",
            "tuner": "gradient-descent",
            "knob_space": "instruction-fractions",
            "use_case": {"kind": "clone-simpoints", "benchmark": "mcf"},
            "max_epochs": 2,
            "dynamic_len": 4000,
            "reference_len": 8000,
            "seed": 1
        }"#;
        let config = FrameworkConfig::from_json(json).unwrap();
        match &config.use_case {
            UseCaseConfig::CloneSimpoints {
                benchmark,
                accuracy_target,
                interval_len,
                max_phases,
            } => {
                assert_eq!(benchmark, "mcf");
                assert!((accuracy_target - 0.99).abs() < 1e-12);
                assert_eq!(*interval_len, 10_000);
                assert_eq!(*max_phases, 5);
            }
            other => panic!("expected clone-simpoints, got {other:?}"),
        }
        let back = FrameworkConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn clone_simpoints_rejects_unknown_benchmark() {
        let framework = MicroGrad::new(fast_config());
        let err = framework
            .clone_simpoints("quake", 5_000, 3, 0.99)
            .unwrap_err();
        assert!(matches!(err, MicroGradError::InvalidInput { .. }));
    }

    #[test]
    fn unknown_benchmark_is_rejected() {
        let config = FrameworkConfig {
            use_case: UseCaseConfig::CloneBenchmark {
                benchmark: "quake".into(),
                accuracy_target: 0.99,
            },
            ..fast_config()
        };
        let err = MicroGrad::new(config).run().unwrap_err();
        assert!(matches!(err, MicroGradError::InvalidInput { .. }));
    }

    #[test]
    fn from_json_names_the_offending_field() {
        // Wrong type for a field: the error names FrameworkConfig.max_epochs.
        let json = r#"{
            "core": "small",
            "tuner": "gradient-descent",
            "knob_space": "full",
            "use_case": {"kind": "stress", "metric": "Ipc", "goal": "Minimize"},
            "max_epochs": "lots",
            "dynamic_len": 4000,
            "reference_len": 8000,
            "seed": 1
        }"#;
        let err = FrameworkConfig::from_json(json).unwrap_err();
        match &err {
            MicroGradError::InvalidInput { field, reason } => {
                assert_eq!(field, "FrameworkConfig.max_epochs", "got: {err}");
                assert!(reason.contains("integer"), "got: {reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }

        // Missing required field: named, and flagged as missing.
        let json = r#"{
            "core": "small",
            "tuner": "gradient-descent",
            "knob_space": "full",
            "use_case": {"kind": "stress", "metric": "Ipc", "goal": "Minimize"},
            "max_epochs": 3,
            "dynamic_len": 4000,
            "reference_len": 8000
        }"#;
        let err = FrameworkConfig::from_json(json).unwrap_err();
        match &err {
            MicroGradError::InvalidInput { field, reason } => {
                assert_eq!(field, "FrameworkConfig.seed", "got: {err}");
                assert!(reason.contains("missing"), "got: {reason}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn from_json_names_the_offending_variant() {
        // Unknown tuner: the message names the enum and the bad variant.
        let json = r#"{
            "core": "small",
            "tuner": "simulated-annealing",
            "knob_space": "full",
            "use_case": {"kind": "stress", "metric": "Ipc", "goal": "Minimize"},
            "max_epochs": 3,
            "dynamic_len": 4000,
            "reference_len": 8000,
            "seed": 1
        }"#;
        let err = FrameworkConfig::from_json(json).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("TunerKind"), "got: {message}");
        assert!(message.contains("simulated-annealing"), "got: {message}");

        // Unknown use-case kind.
        let json = r#"{
            "core": "small",
            "tuner": "gradient-descent",
            "knob_space": "full",
            "use_case": {"kind": "fuzz", "metric": "Ipc"},
            "max_epochs": 3,
            "dynamic_len": 4000,
            "reference_len": 8000,
            "seed": 1
        }"#;
        let message = FrameworkConfig::from_json(json).unwrap_err().to_string();
        assert!(message.contains("UseCaseConfig"), "got: {message}");
        assert!(message.contains("fuzz"), "got: {message}");

        // Malformed JSON still yields a config-level error.
        let err = FrameworkConfig::from_json("{not json").unwrap_err();
        assert!(matches!(
            err,
            MicroGradError::InvalidInput { ref field, .. } if field == "config"
        ));
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let base = fast_config();
        assert_eq!(base.fingerprint(), base.clone().fingerprint());

        // Round-tripping through JSON preserves the fingerprint.
        let back = FrameworkConfig::from_json(&base.to_json()).unwrap();
        assert_eq!(base.fingerprint(), back.fingerprint());

        // Every kind of field perturbation changes the fingerprint.
        let mut seed = base.clone();
        seed.seed += 1;
        assert_ne!(base.fingerprint(), seed.fingerprint());

        let mut parallelism = base.clone();
        parallelism.parallelism = Some(4);
        assert_ne!(base.fingerprint(), parallelism.fingerprint());

        let mut tuner = base.clone();
        tuner.tuner = TunerKind::RandomSearch;
        assert_ne!(base.fingerprint(), tuner.fingerprint());

        let mut use_case = base.clone();
        use_case.use_case = UseCaseConfig::Stress {
            metric: MetricKind::Ipc,
            goal: StressGoal::Maximize,
        };
        assert_ne!(base.fingerprint(), use_case.fingerprint());

        let metrics_case = FrameworkConfig {
            use_case: UseCaseConfig::CloneMetrics {
                name: "t".into(),
                target: Metrics::new().with(MetricKind::Ipc, 1.25),
                accuracy_target: 0.95,
            },
            ..base.clone()
        };
        let mut tweaked = metrics_case.clone();
        tweaked.use_case = UseCaseConfig::CloneMetrics {
            name: "t".into(),
            target: Metrics::new().with(MetricKind::Ipc, 1.25 + 1e-12),
            accuracy_target: 0.95,
        };
        assert_ne!(metrics_case.fingerprint(), tweaked.fingerprint());
    }

    #[test]
    fn run_on_matches_run_and_exposes_cache_stats() {
        let config = fast_config();
        let framework = MicroGrad::new(config);
        let via_run = framework.run().unwrap();
        let platform = framework.platform();
        let via_run_on = framework.run_on(&platform).unwrap();
        assert_eq!(via_run, via_run_on);
        let stats = platform.cache_stats();
        assert!(stats.lookups() > 0, "tuning evaluates through the cache");
        assert!(stats.entries > 0);
    }

    #[test]
    fn core_and_tuner_kinds_build() {
        assert_eq!(CoreKind::Small.config().name, "small");
        assert_eq!(CoreKind::Large.config().name, "large");
        for kind in [
            TunerKind::GradientDescent,
            TunerKind::Genetic,
            TunerKind::BruteForce,
            TunerKind::RandomSearch,
        ] {
            let _ = kind.build(1);
        }
        assert_eq!(KnobSpaceKind::Full.build().len(), 16);
        assert_eq!(KnobSpaceKind::InstructionFractions.build().len(), 11);
    }
}
