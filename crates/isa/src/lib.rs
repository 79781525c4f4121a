//! # micrograd-isa
//!
//! A RISC-V subset instruction-set model used throughout the MicroGrad
//! reproduction.  The paper targets the RISC-V ISA on a Gem5 model; this
//! crate provides the pieces every other crate needs:
//!
//! * [`Opcode`] — the opcodes the synthetic test cases may contain
//!   (integer ALU, integer multiply/divide, floating point, branches,
//!   loads and stores), mirroring the instruction knobs of Listing 1 in
//!   the paper (`ADD`, `MUL`, `FADDD`, `FMULD`, `BEQ`, `BNE`, `LD`, `LW`,
//!   `SD`, `SW`, …).
//! * [`InstrClass`] — the coarse classes the simulator schedules on and the
//!   metrics report over (Integer / Float / Branch / Load / Store).
//! * [`Reg`] — architectural registers (`x0..x31`, `f0..f31`).
//! * [`Instruction`] — a fully-operand-assigned static instruction, the unit
//!   the code generator emits and the simulator consumes.
//! * [`LatencyModel`] — per-opcode execution latencies and functional-unit
//!   mapping used by the out-of-order core model.
//!
//! # Example
//!
//! ```
//! use micrograd_isa::{Instruction, Opcode, Reg};
//!
//! let add = Instruction::rrr(Opcode::Add, Reg::x(5), Reg::x(6), Reg::x(7));
//! assert_eq!(add.opcode().class(), micrograd_isa::InstrClass::Integer);
//! assert_eq!(add.to_asm(), "add x5, x6, x7");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod instruction;
mod latency;
mod opcode;
mod register;

pub use instruction::{Instruction, MemAccess, Operand, MAX_SOURCES};
pub use latency::{FuncUnit, LatencyModel};
pub use opcode::{class_distribution, InstrClass, Opcode};
pub use register::{Reg, RegClass, NUM_FP_REGS, NUM_INT_REGS};
