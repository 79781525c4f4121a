//! # micrograd-core
//!
//! The MicroGrad framework: centralized, automated workload cloning and
//! stress testing driven by gradient-descent tuning over an abstract
//! workload model.
//!
//! This crate is the primary contribution of the reproduced paper.  It ties
//! the substrates together:
//!
//! * the **knob interface** ([`KnobSpace`], [`KnobConfig`]) between the
//!   tuning mechanism and the Microprobe-like code generator;
//! * **metrics** ([`Metrics`], [`MetricKind`]) extracted from the
//!   evaluation platform;
//! * **loss functions** ([`CloneLogLoss`], [`StressLoss`]) that encode the
//!   use-case goal;
//! * **tuning mechanisms** ([`tuner::GradientDescentTuner`] — the paper's
//!   contribution — plus the [`tuner::GeneticTuner`] baseline of Table I,
//!   [`tuner::BruteForceTuner`] and [`tuner::RandomSearchTuner`]);
//! * **evaluation platforms** ([`SimPlatform`]: generator → simulator →
//!   power model), behind the [`ExecutionPlatform`] trait so other
//!   platforms (native hardware counters, other simulators) can be plugged
//!   in; all tuners submit their independent evaluations through
//!   [`ExecutionPlatform::evaluate_batch`], which [`SimPlatform`] runs on
//!   the calling thread plus configurable helpers with bit-identical results
//!   ([`SimPlatform::with_parallelism`], `FrameworkConfig::parallelism`),
//!   memoized through a probing table that grows to a fixed ceiling
//!   ([`memo::MemoTable`] — see `docs/performance.md` for the design and
//!   perf trajectory);
//! * the **use cases** ([`usecase::CloningTask`],
//!   [`usecase::SimpointCloningTask`] — one tuned clone per SimPoint,
//!   recombined into a weighted composite, see `docs/simpoint.md` —
//!   and [`usecase::StressTask`]) and the configuration-file driven facade
//!   ([`MicroGrad`], [`FrameworkConfig`]).
//!
//! # Example: a small stress test
//!
//! ```
//! use micrograd_core::{FrameworkConfig, MicroGrad, CoreKind, KnobSpaceKind};
//!
//! let config = FrameworkConfig {
//!     core: CoreKind::Small,
//!     knob_space: KnobSpaceKind::InstructionFractions,
//!     max_epochs: 2,
//!     dynamic_len: 4_000,
//!     ..FrameworkConfig::default()
//! };
//! let output = MicroGrad::new(config).run()?;
//! let report = output.as_stress().expect("stress run");
//! assert!(report.best_value > 0.0);
//! # Ok::<(), micrograd_core::MicroGradError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod framework;
mod knob;
mod loss;
pub mod memo;
mod metrics;
mod platform;
pub mod tuner;
pub mod usecase;

pub use error::MicroGradError;
pub use framework::{
    CoreKind, FrameworkConfig, FrameworkOutput, KnobSpaceKind, MicroGrad, TunerKind, UseCaseConfig,
};
pub use knob::{KnobConfig, KnobSpace, KnobSpec, KnobTarget};
pub use loss::{CloneLogLoss, LossFunction, StressGoal, StressLoss};
pub use metrics::{MetricKind, Metrics};
pub use platform::{CacheStats, ExecutionPlatform, PackedInput, ProgressObserver, SimPlatform};

/// Cooperative-cancellation handle, re-exported from `micrograd-sim` so
/// service-layer callers can seed deadlines into [`SimPlatform`] (see
/// [`SimPlatform::with_cancel_token`]) without depending on the simulator
/// crate directly.
pub use micrograd_sim::CancelToken;
