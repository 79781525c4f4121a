//! Static instructions: opcode plus operands.

use crate::{InstrClass, Opcode, Reg};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A single operand of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// An immediate value.
    Imm(i64),
}

impl Operand {
    /// The register, if this operand is a register.
    #[must_use]
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            Operand::Imm(_) => None,
        }
    }

    /// The immediate value, if this operand is an immediate.
    #[must_use]
    pub fn as_imm(&self) -> Option<i64> {
        match self {
            Operand::Reg(_) => None,
            Operand::Imm(v) => Some(*v),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Static description of the memory behaviour of a load or store.
///
/// The code generator attaches one of these to every memory instruction so
/// the trace expansion step can produce the dynamic address stream
/// (base + iteration * stride, wrapping at the footprint) without having to
/// interpret register values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemAccess {
    /// Identifier of the memory stream this access belongs to.
    pub stream: u32,
    /// Base address of the stream (bytes).
    pub base: u64,
    /// Per-iteration stride (bytes).
    pub stride: u64,
    /// Footprint of the stream (bytes); the stream wraps modulo this size.
    pub footprint: u64,
    /// Offset of this particular access within the stream's current window.
    pub offset: u64,
}

impl MemAccess {
    /// The address this access touches on loop iteration `iteration`.
    ///
    /// Addresses advance by `stride` per iteration and wrap at the stream
    /// footprint, which is how the generator realizes the `MEM_SIZE` /
    /// `MEM_STRIDE` knobs of the paper.
    #[must_use]
    pub fn address_at(&self, iteration: u64) -> u64 {
        let footprint = self.footprint.max(1);
        let pos = (iteration.wrapping_mul(self.stride) + self.offset) % footprint;
        self.base + pos
    }
}

/// The most source registers an instruction reads (`fmadd.d` reads three).
pub const MAX_SOURCES: usize = 3;

/// An instruction's source registers, held inline: a loop body of a few
/// hundred instructions then needs no allocation per instruction.
///
/// Serializes, compares and prints as the slice it holds, so JSON and
/// `Debug` output read as a `Vec<Reg>`'s would.
#[derive(Clone, Copy)]
struct Sources {
    regs: [Reg; MAX_SOURCES],
    len: u8,
}

impl Sources {
    /// # Panics
    ///
    /// Panics if `regs` holds more than [`MAX_SOURCES`] registers.
    fn new(regs: &[Reg]) -> Self {
        assert!(
            regs.len() <= MAX_SOURCES,
            "{} source registers, at most {MAX_SOURCES} allowed",
            regs.len()
        );
        let mut inline = [Reg::ZERO; MAX_SOURCES];
        inline[..regs.len()].copy_from_slice(regs);
        Sources {
            regs: inline,
            len: regs.len() as u8,
        }
    }

    fn as_slice(&self) -> &[Reg] {
        &self.regs[..usize::from(self.len)]
    }
}

impl PartialEq for Sources {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Sources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl Serialize for Sources {
    fn serialize_value(&self) -> serde::Value {
        self.as_slice().serialize_value()
    }
}

impl Deserialize for Sources {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let regs = Vec::<Reg>::deserialize_value(v)?;
        if regs.len() > MAX_SOURCES {
            return Err(serde::DeError::new(format!(
                "{} source registers, at most {MAX_SOURCES} allowed",
                regs.len()
            )));
        }
        Ok(Sources::new(&regs))
    }
}

/// A fully operand-assigned static instruction.
///
/// This is the unit the Microprobe-like code generator emits
/// and the cycle-approximate simulator consumes (after expansion to a
/// dynamic trace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instruction {
    opcode: Opcode,
    dest: Option<Reg>,
    sources: Sources,
    imm: Option<i64>,
    mem: Option<MemAccess>,
    /// Probability that a conditional branch is taken (0.0–1.0).
    branch_taken_prob: f64,
    /// Address of this instruction in the (synthetic) text section.
    address: u64,
}

impl Instruction {
    /// Creates an instruction with no operands (e.g. `nop`).
    #[must_use]
    pub fn new(opcode: Opcode) -> Instruction {
        Instruction {
            opcode,
            dest: None,
            sources: Sources::new(&[]),
            imm: None,
            mem: None,
            branch_taken_prob: 0.0,
            address: 0,
        }
    }

    /// Creates a three-register instruction `op dest, src1, src2`.
    #[must_use]
    pub fn rrr(opcode: Opcode, dest: Reg, src1: Reg, src2: Reg) -> Instruction {
        let mut i = Instruction::new(opcode);
        i.dest = Some(dest);
        i.sources = Sources::new(&[src1, src2]);
        i
    }

    /// Creates a register-immediate instruction `op dest, src, imm`.
    #[must_use]
    pub fn rri(opcode: Opcode, dest: Reg, src: Reg, imm: i64) -> Instruction {
        let mut i = Instruction::new(opcode);
        i.dest = Some(dest);
        i.sources = Sources::new(&[src]);
        i.imm = Some(imm);
        i
    }

    /// Creates a conditional branch `op src1, src2, offset`.
    #[must_use]
    pub fn branch(opcode: Opcode, src1: Reg, src2: Reg, offset: i64) -> Instruction {
        debug_assert!(opcode.class() == InstrClass::Branch);
        let mut i = Instruction::new(opcode);
        i.sources = Sources::new(&[src1, src2]);
        i.imm = Some(offset);
        i
    }

    /// Creates a load `op dest, offset(base)` carrying its memory stream
    /// description.
    #[must_use]
    pub fn load(opcode: Opcode, dest: Reg, base: Reg, mem: MemAccess) -> Instruction {
        debug_assert!(opcode.class() == InstrClass::Load);
        let mut i = Instruction::new(opcode);
        i.dest = Some(dest);
        i.sources = Sources::new(&[base]);
        i.imm = Some(0);
        i.mem = Some(mem);
        i
    }

    /// Creates a store `op data, offset(base)` carrying its memory stream
    /// description.
    #[must_use]
    pub fn store(opcode: Opcode, data: Reg, base: Reg, mem: MemAccess) -> Instruction {
        debug_assert!(opcode.class() == InstrClass::Store);
        let mut i = Instruction::new(opcode);
        i.sources = Sources::new(&[data, base]);
        i.imm = Some(0);
        i.mem = Some(mem);
        i
    }

    /// The opcode.
    #[must_use]
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// The destination register, if any.
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        self.dest
    }

    /// The source registers.
    #[must_use]
    pub fn sources(&self) -> &[Reg] {
        self.sources.as_slice()
    }

    /// The immediate operand, if any.
    #[must_use]
    pub fn imm(&self) -> Option<i64> {
        self.imm
    }

    /// The memory access description, if this is a load or store.
    #[must_use]
    pub fn mem(&self) -> Option<&MemAccess> {
        self.mem.as_ref()
    }

    /// Probability that this (conditional branch) instruction is taken.
    #[must_use]
    pub fn branch_taken_prob(&self) -> f64 {
        self.branch_taken_prob
    }

    /// The instruction's address in the synthetic text section.
    #[must_use]
    pub fn address(&self) -> u64 {
        self.address
    }

    /// The coarse instruction class.
    #[must_use]
    pub fn class(&self) -> InstrClass {
        self.opcode.class()
    }

    /// Replaces the destination register.
    pub fn set_dest(&mut self, dest: Option<Reg>) {
        self.dest = dest;
    }

    /// Replaces the source registers.
    ///
    /// # Panics
    ///
    /// Panics if `sources` holds more than [`MAX_SOURCES`] registers.
    pub fn set_sources(&mut self, sources: &[Reg]) {
        self.sources = Sources::new(sources);
    }

    /// Replaces the memory access description.
    pub fn set_mem(&mut self, mem: Option<MemAccess>) {
        self.mem = mem;
    }

    /// Sets the probability that this conditional branch is taken.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not within `0.0..=1.0`.
    pub fn set_branch_taken_prob(&mut self, prob: f64) {
        assert!(
            (0.0..=1.0).contains(&prob),
            "branch taken probability {prob} outside [0, 1]"
        );
        self.branch_taken_prob = prob;
    }

    /// Sets the instruction's address.
    pub fn set_address(&mut self, address: u64) {
        self.address = address;
    }

    /// Formats this instruction as RISC-V assembly text.
    #[must_use]
    pub fn to_asm(&self) -> String {
        use InstrClass::*;
        match self.class() {
            Load => {
                let dest = self.dest.map(|r| r.to_string()).unwrap_or_default();
                let base = self
                    .sources()
                    .first()
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "x0".to_owned());
                format!("{} {dest}, {}({base})", self.opcode, self.imm.unwrap_or(0))
            }
            Store => {
                let data = self
                    .sources()
                    .first()
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "x0".to_owned());
                let base = self
                    .sources()
                    .get(1)
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "x0".to_owned());
                format!("{} {data}, {}({base})", self.opcode, self.imm.unwrap_or(0))
            }
            Branch => {
                let s1 = self
                    .sources()
                    .first()
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "x0".to_owned());
                let s2 = self
                    .sources()
                    .get(1)
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "x0".to_owned());
                format!("{} {s1}, {s2}, {}", self.opcode, self.imm.unwrap_or(0))
            }
            _ => {
                let mut parts = Vec::new();
                if let Some(d) = self.dest {
                    parts.push(d.to_string());
                }
                for s in self.sources() {
                    parts.push(s.to_string());
                }
                if let Some(imm) = self.imm {
                    parts.push(imm.to_string());
                }
                if parts.is_empty() {
                    self.opcode.to_string()
                } else {
                    format!("{} {}", self.opcode, parts.join(", "))
                }
            }
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_asm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(stride: u64, footprint: u64) -> MemAccess {
        MemAccess {
            stream: 0,
            base: 0x1000,
            stride,
            footprint,
            offset: 0,
        }
    }

    #[test]
    fn rrr_asm_format() {
        let i = Instruction::rrr(Opcode::Add, Reg::x(1), Reg::x(2), Reg::x(3));
        assert_eq!(i.to_asm(), "add x1, x2, x3");
        assert_eq!(i.to_string(), "add x1, x2, x3");
    }

    #[test]
    fn load_store_asm_format() {
        let ld = Instruction::load(Opcode::Ld, Reg::x(5), Reg::x(10), mem(8, 64));
        assert_eq!(ld.to_asm(), "ld x5, 0(x10)");
        let sd = Instruction::store(Opcode::Sd, Reg::x(5), Reg::x(10), mem(8, 64));
        assert_eq!(sd.to_asm(), "sd x5, 0(x10)");
    }

    #[test]
    fn branch_asm_format() {
        let b = Instruction::branch(Opcode::Bne, Reg::x(5), Reg::x(0), -16);
        assert_eq!(b.to_asm(), "bne x5, x0, -16");
    }

    #[test]
    fn mem_access_addresses_wrap_at_footprint() {
        let m = mem(16, 64);
        assert_eq!(m.address_at(0), 0x1000);
        assert_eq!(m.address_at(1), 0x1010);
        assert_eq!(m.address_at(4), 0x1000); // 4*16 = 64 wraps to 0
        assert_eq!(m.address_at(5), 0x1010);
    }

    #[test]
    fn mem_access_zero_footprint_does_not_divide_by_zero() {
        let m = MemAccess {
            stream: 0,
            base: 0,
            stride: 8,
            footprint: 0,
            offset: 0,
        };
        assert_eq!(m.address_at(10), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn branch_prob_validation() {
        let mut b = Instruction::branch(Opcode::Beq, Reg::x(1), Reg::x(2), 8);
        b.set_branch_taken_prob(1.5);
    }

    #[test]
    fn operand_accessors() {
        assert_eq!(Operand::Reg(Reg::x(3)).as_reg(), Some(Reg::x(3)));
        assert_eq!(Operand::Reg(Reg::x(3)).as_imm(), None);
        assert_eq!(Operand::Imm(7).as_imm(), Some(7));
        assert_eq!(Operand::Imm(7).as_reg(), None);
        assert_eq!(Operand::Imm(-3).to_string(), "-3");
        assert_eq!(Operand::Reg(Reg::f(2)).to_string(), "f2");
    }

    #[test]
    fn class_delegates_to_opcode() {
        let i = Instruction::rrr(Opcode::FmulD, Reg::f(1), Reg::f(2), Reg::f(3));
        assert_eq!(i.class(), InstrClass::Float);
    }

    #[test]
    fn setters_update_fields() {
        let mut i = Instruction::rrr(Opcode::Add, Reg::x(1), Reg::x(2), Reg::x(3));
        i.set_dest(Some(Reg::x(9)));
        i.set_sources(&[Reg::x(4)]);
        i.set_address(0x400);
        assert_eq!(i.dest(), Some(Reg::x(9)));
        assert_eq!(i.sources(), &[Reg::x(4)]);
        assert_eq!(i.address(), 0x400);
    }

    #[test]
    fn serde_round_trip() {
        let i = Instruction::load(Opcode::Lw, Reg::x(7), Reg::x(20), mem(4, 1024));
        let json = serde_json::to_string(&i).unwrap();
        let back: Instruction = serde_json::from_str(&json).unwrap();
        assert_eq!(back, i);
    }

    #[test]
    fn at_most_three_sources_deserialize() {
        let mut fma = Instruction::new(Opcode::FmaddD);
        fma.set_sources(&[Reg::f(1), Reg::f(2), Reg::f(3)]);
        let json = serde_json::to_string(&fma).unwrap();
        assert!(json.contains(r#""sources":[{"#), "{json}");
        assert_eq!(serde_json::from_str::<Instruction>(&json).unwrap(), fma);
        let reg = serde_json::to_string(&Reg::f(1)).unwrap();
        let four = json.replacen(r#""sources":["#, &format!(r#""sources":[{reg},"#), 1);
        let err = serde_json::from_str::<Instruction>(&four).unwrap_err();
        assert!(err.to_string().contains("at most 3"), "{err}");
    }
}
