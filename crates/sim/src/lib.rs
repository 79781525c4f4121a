//! # micrograd-sim
//!
//! A cycle-approximate out-of-order core and memory hierarchy simulator —
//! the Gem5-like substrate of the MicroGrad reproduction.
//!
//! The MicroGrad paper evaluates test cases on the Gem5 O3 model configured
//! as the *Small* and *Large* RISC-V cores of Table II, reading IPC, cache
//! hit rates and branch misprediction rates from the simulator output dumps.
//! This crate provides the same role at a fidelity sufficient for the tuning
//! loop: a scoreboard-style out-of-order core ([`Simulator`]) with
//! configurable front-end width, ROB/LSQ/RS windows, per-class functional
//! units, a gshare branch predictor ([`GsharePredictor`]), a two-level cache
//! hierarchy with an optional stride prefetcher ([`MemoryHierarchy`]) and a
//! DRAM backing store.
//!
//! The output of a run is a [`SimStats`] record containing every metric the
//! MicroGrad use cases consume (instruction mix, hit rates, misprediction
//! rate, IPC) plus the activity counts the McPAT-like power model needs.
//!
//! The simulator is single-pass and streaming: [`Simulator::run_source`]
//! consumes any [`micrograd_codegen::TraceSource`] with per-instruction
//! bookkeeping held in ring buffers bounded by the ROB / reservation-station
//! / LSQ depths, so memory is O(window sizes) regardless of trace length;
//! [`Simulator::run`] is a thin adapter for materialized traces.  See
//! `docs/streaming.md` at the repository root for the architecture and
//! memory model.
//!
//! The per-instruction path is allocation-free: a reused [`Simulator`]
//! decodes statics into a flat µop table and replays runs without touching
//! the heap (enforced by a counting-allocator test).  See
//! `docs/performance.md` for the hot-loop design and the tracked
//! `BENCH_simulator.json` perf trajectory.
//!
//! Long runs can be abandoned cooperatively:
//! [`Simulator::run_source_cancellable`] polls a shared [`CancelToken`]
//! every [`Simulator::CANCEL_CHECK_INTERVAL`] retired instructions and
//! returns [`Cancelled`] instead of statistics, leaving the simulator valid
//! for reuse.  Tokens optionally carry deadlines, which is how the service
//! layer implements per-job `deadline_ms` budgets.
//!
//! # Example
//!
//! ```
//! use micrograd_codegen::{Generator, GeneratorInput, TraceExpander};
//! use micrograd_sim::{CoreConfig, Simulator};
//!
//! let input = GeneratorInput { loop_size: 64, ..GeneratorInput::default() };
//! let test_case = Generator::new().generate(&input)?;
//! let trace = TraceExpander::new(20_000, 1).expand(&test_case);
//!
//! let stats = Simulator::new(CoreConfig::large()).run(&trace);
//! assert!(stats.ipc() > 0.0);
//! assert!(stats.l1d_hit_rate() <= 1.0);
//! # Ok::<(), micrograd_codegen::CodegenError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod branch;
mod cache;
mod cancel;
mod config;
mod engine;
mod hierarchy;
mod prefetch;
mod stats;

pub use branch::{BranchStats, GsharePredictor};
pub use cache::{Cache, CacheStats};
pub use cancel::{CancelToken, Cancelled};
pub use config::{BranchPredictorConfig, CacheConfig, CoreConfig, PrefetchConfig};
pub use engine::Simulator;
pub use hierarchy::{HierarchyStats, MemoryHierarchy};
pub use prefetch::{PrefetchStats, StridePrefetcher};
pub use stats::{ActivityCounts, SimStats};
