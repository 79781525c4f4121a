//! # micrograd
//!
//! Facade crate for the MicroGrad reproduction: a centralized framework for
//! **workload cloning** and **stress testing** driven by gradient-descent
//! tuning over an abstract workload model, together with every substrate it
//! needs (a Microprobe-like code generator, a Gem5-like out-of-order core
//! simulator, a McPAT-like power model, SPEC-like application models and
//! SimPoint-style phase analysis).
//!
//! Most users only need this crate: it re-exports each component crate
//! under a short module name.
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`core`] | `micrograd-core` | knobs, losses, tuners, use cases (cloning, clone-per-SimPoint, stress), batch-parallel evaluation, framework facade |
//! | [`service`] | `micrograd-service` | persistent job server: `microgradd` daemon, JSON-lines protocol, priority scheduler, durable result store |
//! | [`codegen`] | `micrograd-codegen` | pass-based synthetic test-case generation, streaming/windowed trace sources |
//! | [`sim`] | `micrograd-sim` | out-of-order core + cache hierarchy simulator |
//! | [`power`] | `micrograd-power` | activity-based dynamic power model |
//! | [`workloads`] | `micrograd-workloads` | SPEC-like application models, streaming SimPoint analysis |
//! | [`isa`] | `micrograd-isa` | RISC-V subset instruction definitions |
//!
//! # Quick start
//!
//! ```
//! use micrograd::core::{CoreKind, FrameworkConfig, KnobSpaceKind, MicroGrad};
//!
//! // Stress-test the small core for worst-case IPC with a tiny budget,
//! // evaluating each epoch's batch on all available cores.
//! let config = FrameworkConfig {
//!     core: CoreKind::Small,
//!     knob_space: KnobSpaceKind::InstructionFractions,
//!     max_epochs: 2,
//!     dynamic_len: 4_000,
//!     parallelism: Some(0),
//!     ..FrameworkConfig::default()
//! };
//! let output = MicroGrad::new(config).run()?;
//! println!("worst-case IPC: {:.3}", output.as_stress().unwrap().best_value);
//! # Ok::<(), micrograd::core::MicroGradError>(())
//! ```
//!
//! # Batch-parallel evaluation
//!
//! Tuning wall-clock is dominated by platform evaluations, and almost all
//! of them are independent: the ladder probes of a gradient-descent epoch,
//! a GA generation, a brute-force grid chunk, a random-search sample.
//! Every tuner therefore submits its evaluations in batches through
//! [`core::ExecutionPlatform::evaluate_batch`], and the bundled
//! [`core::SimPlatform`] fans a batch out over the calling thread plus
//! scoped helper threads (one simulator instance per thread, a shared
//! memo cache keyed by a stable `u64` fingerprint of the generator input).
//!
//! The thread count is the `parallelism` field of
//! [`core::FrameworkConfig`] (or [`core::SimPlatform::with_parallelism`]
//! when driving the platform directly): `None` evaluates sequentially,
//! `Some(n)` uses up to `n` threads, and `Some(0)` adds to the calling
//! thread the process's spare cores that no other batch holds.
//! Results are **bit-identical across all settings** — batches are
//! post-processed in submission order and every evaluation is a pure,
//! seeded function of its input — so parallelism is purely a wall-clock
//! knob (see `tests/determinism.rs` and the `batch_evaluation` bench).
//!
//! # Streaming traces
//!
//! The trace layer is streaming: a [`codegen::TraceSource`] yields dynamic
//! instructions on demand and [`sim::Simulator::run_source`] consumes them
//! in a single fused pass with ring-buffer bookkeeping bounded by the
//! core's ROB/RS/LSQ windows, so evaluation memory is O(window sizes)
//! regardless of `dynamic_len` — 100 M-instruction runs are affordable.
//! Materialized [`codegen::Trace`]s remain available (and are drained from
//! the same cursors, so the two paths are bit-identical); phase-structured
//! scenarios compose per-phase sources with [`codegen::PhaseSchedule`].
//! See `docs/streaming.md` for the architecture.
//!
//! # Clone-per-SimPoint
//!
//! The paper's third input mode — "Application Simpoints can be provided,
//! so as to generate a clone for each simpoint individually" — is a full
//! pipeline: [`workloads::simpoint::analyze_source`] phase-analyzes the
//! target in one streaming pass, each simpoint's reference metrics are
//! measured on an interval-windowed stream
//! ([`codegen::TraceSource::window`]), one clone is tuned per simpoint
//! (probes batched through [`core::ExecutionPlatform::evaluate_batch`]),
//! and the tuned phases are recombined into a weighted
//! [`codegen::PhaseSchedule`] composite validated against the original —
//! [`core::MicroGrad::clone_simpoints`], or the `clone-simpoints` use case
//! in the configuration file.  See `docs/simpoint.md` for the workflow.
//!
//! # Running as a service
//!
//! The framework is also a long-lived server: the `microgradd` daemon
//! (from `micrograd-service`) accepts [`core::FrameworkConfig`] jobs from
//! many clients over a versioned JSON-lines TCP protocol, deduplicates
//! identical submissions onto one execution (keyed by
//! [`core::FrameworkConfig::fingerprint`]), schedules them on a bounded
//! priority queue with a worker pool, and persists completed
//! [`core::FrameworkOutput`] reports plus the evaluation memo cache in a
//! durable store — a restarted daemon answers repeat jobs from disk,
//! bit-identically.  Drive it with the `micrograd-cli` binary or the
//! [`service::Client`] API; see `docs/service.md` for the protocol.
//!
//! See the `examples/` directory for runnable end-to-end scenarios
//! (`quickstart`, `clone_spec`, `clone_simpoints`, `power_virus`,
//! `bottleneck_sweep`, `phased_workload`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use micrograd_codegen as codegen;
pub use micrograd_core as core;
pub use micrograd_isa as isa;
pub use micrograd_obs as obs;
pub use micrograd_power as power;
pub use micrograd_service as service;
pub use micrograd_sim as sim;
pub use micrograd_workloads as workloads;
