//! # micrograd-codegen
//!
//! A Microprobe-like, pass-based synthetic test-case generator.
//!
//! The MicroGrad paper uses IBM's [Microprobe] code-generation framework as
//! its back-end: the tuning mechanism hands Microprobe a *knob
//! configuration* (instruction-class fractions, register dependency
//! distance, memory footprint / stride / temporal locality, branch pattern
//! randomness) and Microprobe produces a test case — a loop of roughly 500
//! static instructions — by running a sequence of code-synthesis *passes*
//! (Listing 2 of the paper).
//!
//! This crate reproduces that pipeline for the RISC-V subset defined in
//! `micrograd_isa`:
//!
//! * [`TestCase`] — the generated artifact: a building block (loop body),
//!   its memory streams, reserved registers and metadata.
//! * [`passes`] — the pass framework and the concrete passes named in the
//!   paper (`SimpleBuildingBlockPass`, `SetInstructionTypeByProfilePass`,
//!   `RandomizeByTypePass`, `GenericMemoryStreamsPass`,
//!   `DefaultRegisterAllocationPass`, `UpdateInstructionAddressesPass`, …).
//! * [`Synthesizer`] — applies passes in the MicroGrad-defined order.
//! * [`GeneratorInput`] / [`Generator`] — the knob-level entry point used by
//!   the tuner: resolved knob values in, [`TestCase`] out.
//! * [`Trace`] / [`TraceExpander`] — expansion of the static loop into a
//!   dynamic instruction stream (branch outcomes, memory addresses) that the
//!   performance simulator consumes.
//! * [`TraceSource`] — the streaming trace abstraction: dynamic
//!   instructions on demand, in O(loop size) memory.  Implemented by
//!   [`StreamingExpander`] (the cursor form of [`TraceExpander::expand`],
//!   bit-identical stream), [`TraceCursor`] (replay of a materialized
//!   [`Trace`]), [`PhaseSchedule`] (concatenation of per-phase sources —
//!   phase-structured workloads) and [`WindowedSource`]
//!   ([`TraceSource::window`]: skip/take by dynamic index — SimPoint
//!   interval replay without materialization, see `docs/simpoint.md`).
//!   See `docs/streaming.md` at the repository root for the architecture
//!   and memory model.
//! * [`AssemblyEmitter`] — renders the test case as RISC-V assembly text,
//!   which is what a user would compile and run on native hardware.
//!
//! [Microprobe]: https://github.com/IBM/microprobe
//!
//! # Example
//!
//! ```
//! use micrograd_codegen::{Generator, GeneratorInput, TraceExpander};
//!
//! let input = GeneratorInput {
//!     loop_size: 64,
//!     seed: 7,
//!     ..GeneratorInput::default()
//! };
//! let test_case = Generator::new().generate(&input)?;
//! assert_eq!(test_case.block().len(), 64);
//!
//! // Expand to a dynamic trace for the simulator.
//! let trace = TraceExpander::new(10_000, 7).expand(&test_case);
//! assert_eq!(trace.len(), 10_000);
//! # Ok::<(), micrograd_codegen::CodegenError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod asm;
mod error;
mod generator;
pub mod passes;
mod profile;
mod source;
mod synth;
mod testcase;
mod trace;

pub use asm::AssemblyEmitter;
pub use error::CodegenError;
pub use generator::{Generator, GeneratorInput};
pub use profile::InstructionProfile;
pub use source::{
    collect_trace, Keystream, PhaseSchedule, StreamingExpander, TraceCursor, TraceSource,
    WindowedSource,
};
pub use synth::Synthesizer;
pub use testcase::{BuildingBlock, MemoryStream, TestCase, TestCaseMetadata};
pub use trace::{DynamicInstr, Trace, TraceExpander};
