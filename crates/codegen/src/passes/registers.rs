//! Register-related passes: reservation, initialization and allocation.

use super::{Pass, PassContext};
use crate::{CodegenError, TestCase};
use micrograd_isa::{InstrClass, Reg, MAX_SOURCES};

/// Reserves a set of registers so the register allocator never assigns them
/// as scratch destinations (loop counter, loop bound, stream base pointers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReserveRegistersPass {
    registers: Vec<Reg>,
}

impl ReserveRegistersPass {
    /// Creates the pass reserving `registers`.
    #[must_use]
    pub fn new(registers: Vec<Reg>) -> Self {
        ReserveRegistersPass { registers }
    }
}

impl Pass for ReserveRegistersPass {
    fn name(&self) -> &'static str {
        "ReserveRegistersPass"
    }

    fn apply(&self, test_case: &mut TestCase, _ctx: &mut PassContext) -> Result<(), CodegenError> {
        for reg in &self.registers {
            if !test_case.is_reserved(*reg) {
                test_case.reserved_regs_mut().push(*reg);
            }
        }
        Ok(())
    }
}

/// Records the initial value loaded into every architectural register before
/// the loop starts (emitted in the assembly preamble).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitializeRegistersPass {
    value: i64,
}

impl InitializeRegistersPass {
    /// Creates the pass with the given initial register value.
    #[must_use]
    pub fn new(value: i64) -> Self {
        InitializeRegistersPass { value }
    }
}

impl Pass for InitializeRegistersPass {
    fn name(&self) -> &'static str {
        "InitializeRegistersPass"
    }

    fn apply(&self, test_case: &mut TestCase, _ctx: &mut PassContext) -> Result<(), CodegenError> {
        test_case.metadata_mut().init_reg_value = self.value;
        Ok(())
    }
}

/// Assigns destination and source registers so the *register dependency
/// distance* — the number of instructions between a value's producer and its
/// consumer — matches the `REG_DIST` knob.
///
/// Destinations are allocated round-robin from the non-reserved registers of
/// the appropriate register file.  Each source operand is wired to the
/// destination of the instruction `dd` positions earlier (searching
/// backwards for the nearest producer of the right class), so smaller `dd`
/// serializes the loop body while larger `dd` exposes more instruction-level
/// parallelism — exactly the lever the stress-testing use case pushes to its
/// maximum (Section IV-C of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefaultRegisterAllocationPass {
    dependency_distance: usize,
}

impl DefaultRegisterAllocationPass {
    /// Creates the pass with dependency distance `dd`.
    #[must_use]
    pub fn new(dd: usize) -> Self {
        DefaultRegisterAllocationPass {
            dependency_distance: dd.max(1),
        }
    }

    /// Fallback integer source register when no producer exists yet.
    fn int_init_reg() -> Reg {
        Reg::x(5)
    }

    /// Fallback floating point source register when no producer exists yet.
    fn fp_init_reg() -> Reg {
        Reg::f(5)
    }

    /// Scratch destination pool for a register class, excluding reserved
    /// registers, the zero register and the init registers.
    fn dest_pool(test_case: &TestCase, fp: bool) -> Vec<Reg> {
        let mut pool = Vec::new();
        for idx in 6..30u8 {
            let reg = if fp { Reg::f(idx) } else { Reg::x(idx) };
            if !test_case.is_reserved(reg) {
                pool.push(reg);
            }
        }
        pool
    }
}

/// The destination registers written so far in the block, indexed for
/// O(1) nearest-producer lookups.
struct Producers {
    /// `nearest[j][file]`: destination of the last producer of register
    /// file `file` (1 = floating point) at or before instruction `j`.
    nearest: Vec<[Option<Reg>; 2]>,
    /// The first producer of each register file.
    first: [Option<Reg>; 2],
}

impl Producers {
    fn with_capacity(len: usize) -> Self {
        Producers {
            nearest: Vec::with_capacity(len),
            first: [None; 2],
        }
    }

    /// Records the destination (and its file) of the next instruction.
    fn record(&mut self, dest: Option<(Reg, bool)>) {
        let mut entry = self.nearest.last().copied().unwrap_or([None; 2]);
        if let Some((reg, is_fp)) = dest {
            entry[usize::from(is_fp)] = Some(reg);
            self.first[usize::from(is_fp)].get_or_insert(reg);
        }
        self.nearest.push(entry);
    }

    /// For the instruction after the recorded ones, the destination of the
    /// nearest producer of the wanted file at or before distance `dd`,
    /// falling back to the earliest producer between there and the
    /// instruction.  Since no producer precedes the fallback, that is the
    /// first producer of the file.
    fn at_distance(&self, dd: usize, want_fp: bool) -> Option<Reg> {
        let index = self.nearest.len();
        if index == 0 {
            return None;
        }
        let target = index.saturating_sub(dd).min(index - 1);
        self.nearest[target][usize::from(want_fp)].or(self.first[usize::from(want_fp)])
    }
}

impl Pass for DefaultRegisterAllocationPass {
    fn name(&self) -> &'static str {
        "DefaultRegisterAllocationPass"
    }

    fn apply(&self, test_case: &mut TestCase, _ctx: &mut PassContext) -> Result<(), CodegenError> {
        if test_case.block().is_empty() {
            return Err(CodegenError::InvalidState {
                pass: self.name().into(),
                reason: "building block is empty".into(),
            });
        }
        let int_pool = Self::dest_pool(test_case, false);
        let fp_pool = Self::dest_pool(test_case, true);
        if int_pool.is_empty() || fp_pool.is_empty() {
            return Err(CodegenError::InvalidState {
                pass: self.name().into(),
                reason: "no allocatable registers remain after reservations".into(),
            });
        }
        let dd = self.dependency_distance;
        let len = test_case.block().len();
        let reserved: Vec<Reg> = test_case.reserved_regs().to_vec();

        let mut producers = Producers::with_capacity(len);
        let mut int_rr = 0usize;
        let mut fp_rr = 0usize;

        let block = test_case.block_mut();
        for instr in block.instructions_mut().iter_mut() {
            let opcode = instr.opcode();
            let class = opcode.class();
            // Leave the loop-control instructions (which use reserved
            // registers) untouched.
            let uses_reserved = instr
                .sources()
                .iter()
                .chain(instr.dest().iter())
                .any(|r| reserved.contains(r) && !r.is_zero());
            if uses_reserved && !class.is_memory() {
                producers.record(instr.dest().map(|d| (d, opcode.writes_fp_reg())));
                continue;
            }

            let produced = match class {
                InstrClass::Integer | InstrClass::Float => {
                    let want_fp = opcode.reads_fp_regs();
                    let n_src = opcode.num_sources();
                    let mut sources = [Reg::ZERO; MAX_SOURCES];
                    for (k, src) in sources[..n_src].iter_mut().enumerate() {
                        *src = producers
                            .at_distance(dd + k, want_fp)
                            .unwrap_or(if want_fp {
                                Self::fp_init_reg()
                            } else {
                                Self::int_init_reg()
                            });
                    }
                    instr.set_sources(&sources[..n_src]);
                    if opcode.has_dest() {
                        let (pool, rr) = if opcode.writes_fp_reg() {
                            (&fp_pool, &mut fp_rr)
                        } else {
                            (&int_pool, &mut int_rr)
                        };
                        let dest = pool[*rr % pool.len()];
                        *rr += 1;
                        instr.set_dest(Some(dest));
                        Some((dest, opcode.writes_fp_reg()))
                    } else {
                        None
                    }
                }
                InstrClass::Branch => {
                    if opcode.is_conditional_branch() {
                        let s1 = producers
                            .at_distance(dd, false)
                            .unwrap_or(Self::int_init_reg());
                        let s2 = producers.at_distance(dd + 1, false).unwrap_or(Reg::ZERO);
                        let imm = instr.imm().unwrap_or(8);
                        let prob = instr.branch_taken_prob();
                        *instr = micrograd_isa::Instruction::branch(opcode, s1, s2, imm);
                        instr.set_branch_taken_prob(prob);
                    }
                    None
                }
                InstrClass::Load => {
                    // keep the base register chosen by the memory pass, pick
                    // a destination from the pool
                    if opcode.has_dest() {
                        let (pool, rr) = if opcode.writes_fp_reg() {
                            (&fp_pool, &mut fp_rr)
                        } else {
                            (&int_pool, &mut int_rr)
                        };
                        let dest = pool[*rr % pool.len()];
                        *rr += 1;
                        instr.set_dest(Some(dest));
                        Some((dest, opcode.writes_fp_reg()))
                    } else {
                        None
                    }
                }
                InstrClass::Store => {
                    // wire the store data register to a producer at the
                    // requested distance; keep the base register
                    let want_fp = opcode.reads_fp_regs();
                    let data = producers.at_distance(dd, want_fp).unwrap_or(if want_fp {
                        Self::fp_init_reg()
                    } else {
                        Self::int_init_reg()
                    });
                    let mut sources = [data, Reg::x(10), Reg::ZERO];
                    let n = match instr.sources() {
                        [] => 2,
                        [_, rest @ ..] => {
                            sources[1..=rest.len()].copy_from_slice(rest);
                            rest.len() + 1
                        }
                    };
                    instr.set_sources(&sources[..n]);
                    None
                }
            };
            producers.record(produced);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{SetInstructionTypeByProfilePass, SimpleBuildingBlockPass};
    use crate::InstructionProfile;
    use micrograd_isa::Opcode;

    fn build_block(dd: usize, profile: &InstructionProfile) -> TestCase {
        let mut tc = TestCase::new();
        let mut ctx = PassContext::new(3);
        SimpleBuildingBlockPass::new(64)
            .apply(&mut tc, &mut ctx)
            .unwrap();
        ReserveRegistersPass::new(vec![
            SimpleBuildingBlockPass::loop_counter_reg(),
            SimpleBuildingBlockPass::loop_bound_reg(),
        ])
        .apply(&mut tc, &mut ctx)
        .unwrap();
        SetInstructionTypeByProfilePass::new(profile.clone())
            .apply(&mut tc, &mut ctx)
            .unwrap();
        DefaultRegisterAllocationPass::new(dd)
            .apply(&mut tc, &mut ctx)
            .unwrap();
        tc
    }

    fn int_profile() -> InstructionProfile {
        InstructionProfile::new().with(Opcode::Add, 1.0)
    }

    /// The backward-then-forward producer scan `Producers` replaced.
    fn scan_producer(
        dests: &[Option<(Reg, bool)>],
        index: usize,
        dd: usize,
        want_fp: bool,
    ) -> Option<Reg> {
        if index == 0 {
            return None;
        }
        let target = index.saturating_sub(dd);
        for j in (0..=target.min(index - 1)).rev() {
            if let Some((reg, is_fp)) = dests[j] {
                if is_fp == want_fp {
                    return Some(reg);
                }
            }
        }
        for (reg, is_fp) in dests[target.min(index - 1)..index].iter().flatten() {
            if *is_fp == want_fp {
                return Some(*reg);
            }
        }
        None
    }

    #[test]
    fn producer_index_matches_the_backward_scan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        for _ in 0..50 {
            let len = rng.gen_range(1..120);
            let dests: Vec<Option<(Reg, bool)>> = (0..len)
                .map(|i| {
                    let reg = Reg::x(6 + (i % 20) as u8);
                    rng.gen_bool(0.6).then(|| (reg, rng.gen_bool(0.3)))
                })
                .collect();
            let mut producers = Producers::with_capacity(len);
            for (index, dest) in dests.iter().enumerate() {
                for dd in 1..12 {
                    for want_fp in [false, true] {
                        assert_eq!(
                            producers.at_distance(dd, want_fp),
                            scan_producer(&dests, index, dd, want_fp),
                            "index {index} dd {dd} fp {want_fp}"
                        );
                    }
                }
                producers.record(*dest);
            }
        }
    }

    #[test]
    fn reserve_registers_is_idempotent() {
        let mut tc = TestCase::new();
        let mut ctx = PassContext::new(0);
        let pass = ReserveRegistersPass::new(vec![Reg::x(30), Reg::x(31)]);
        pass.apply(&mut tc, &mut ctx).unwrap();
        pass.apply(&mut tc, &mut ctx).unwrap();
        assert_eq!(tc.reserved_regs().len(), 2);
    }

    #[test]
    fn initialize_registers_records_value() {
        let mut tc = TestCase::new();
        let mut ctx = PassContext::new(0);
        InitializeRegistersPass::new(0x1234)
            .apply(&mut tc, &mut ctx)
            .unwrap();
        assert_eq!(tc.metadata().init_reg_value, 0x1234);
    }

    #[test]
    fn allocation_requires_building_block() {
        let mut tc = TestCase::new();
        let mut ctx = PassContext::new(0);
        let err = DefaultRegisterAllocationPass::new(3)
            .apply(&mut tc, &mut ctx)
            .unwrap_err();
        assert!(matches!(err, CodegenError::InvalidState { .. }));
    }

    #[test]
    fn no_reserved_register_is_used_as_destination() {
        let tc = build_block(3, &int_profile());
        for instr in tc.block().iter() {
            if let Some(d) = instr.dest() {
                if instr.opcode() != Opcode::Addi
                    || d != SimpleBuildingBlockPass::loop_counter_reg()
                {
                    assert!(
                        !tc.reserved_regs().contains(&d)
                            || d == SimpleBuildingBlockPass::loop_counter_reg(),
                        "reserved register {d} used as destination by {instr}"
                    );
                }
            }
        }
    }

    #[test]
    fn small_distance_creates_tight_dependencies() {
        let tc = build_block(1, &int_profile());
        // With dd=1, most ADDs should read the destination of the previous
        // ADD, creating a long serial chain.
        let instrs = tc.block().instructions();
        let mut chained = 0;
        let mut considered = 0;
        for i in 1..instrs.len() {
            if instrs[i].opcode() != Opcode::Add || instrs[i - 1].dest().is_none() {
                continue;
            }
            considered += 1;
            let prev_dest = instrs[i - 1].dest().unwrap();
            if instrs[i].sources().contains(&prev_dest) {
                chained += 1;
            }
        }
        assert!(considered > 10);
        assert!(
            chained as f64 / considered as f64 > 0.8,
            "expected most instructions chained, got {chained}/{considered}"
        );
    }

    #[test]
    fn large_distance_avoids_adjacent_dependencies() {
        let tc = build_block(10, &int_profile());
        let instrs = tc.block().instructions();
        let mut adjacent = 0;
        let mut considered = 0;
        for i in 1..instrs.len() {
            if instrs[i].opcode() != Opcode::Add || instrs[i - 1].dest().is_none() {
                continue;
            }
            considered += 1;
            let prev_dest = instrs[i - 1].dest().unwrap();
            if instrs[i].sources().contains(&prev_dest) {
                adjacent += 1;
            }
        }
        assert!(considered > 10);
        assert!(
            (adjacent as f64) / (considered as f64) < 0.3,
            "expected few adjacent dependencies with dd=10, got {adjacent}/{considered}"
        );
    }

    #[test]
    fn fp_instructions_get_fp_registers() {
        let profile = InstructionProfile::new().with(Opcode::FmulD, 1.0);
        let tc = build_block(4, &profile);
        for instr in tc.block().iter() {
            if instr.opcode() == Opcode::FmulD {
                assert!(instr.dest().unwrap().class() == micrograd_isa::RegClass::Fp);
                for s in instr.sources() {
                    assert_eq!(s.class(), micrograd_isa::RegClass::Fp);
                }
            }
        }
    }
}
