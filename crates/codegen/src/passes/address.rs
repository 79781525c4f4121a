//! `UpdateInstructionAddressesPass`: finalize instruction addresses.

use super::{Pass, PassContext};
use crate::{CodegenError, TestCase};

/// Assigns each static instruction its address in the synthetic text section
/// and patches the loop back-edge offset so the final branch targets the
/// first instruction of the block.
///
/// This is always the final pass of a synthesis run, mirroring Listing 2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateInstructionAddressesPass {
    text_base: u64,
}

/// Byte size of one encoded instruction (RV64 without compressed extension).
pub(crate) const INSTR_BYTES: u64 = 4;

impl UpdateInstructionAddressesPass {
    /// Default base address of the synthetic text section.
    pub const DEFAULT_TEXT_BASE: u64 = 0x0040_0000;

    /// Creates the pass with the default text base.
    #[must_use]
    pub fn new() -> Self {
        UpdateInstructionAddressesPass {
            text_base: Self::DEFAULT_TEXT_BASE,
        }
    }

    /// Creates the pass with an explicit text base address.
    #[must_use]
    pub fn with_text_base(text_base: u64) -> Self {
        UpdateInstructionAddressesPass { text_base }
    }
}

impl Pass for UpdateInstructionAddressesPass {
    fn name(&self) -> &'static str {
        "UpdateInstructionAddressesPass"
    }

    fn apply(&self, test_case: &mut TestCase, _ctx: &mut PassContext) -> Result<(), CodegenError> {
        if test_case.block().is_empty() {
            return Err(CodegenError::InvalidState {
                pass: self.name().into(),
                reason: "building block is empty".into(),
            });
        }
        let base = self.text_base;
        let len = test_case.block().len();
        for (i, instr) in test_case
            .block_mut()
            .instructions_mut()
            .iter_mut()
            .enumerate()
        {
            instr.set_address(base + i as u64 * INSTR_BYTES);
        }
        // Patch the back-edge so it branches to the top of the loop.
        let back_offset = -((len as i64 - 1) * INSTR_BYTES as i64);
        if let Some(last) = test_case.block_mut().instructions_mut().last_mut() {
            if last.opcode().is_conditional_branch() {
                let prob = last.branch_taken_prob();
                let srcs = last.sources();
                let mut patched = micrograd_isa::Instruction::branch(
                    last.opcode(),
                    srcs.first().copied().unwrap_or(micrograd_isa::Reg::ZERO),
                    srcs.get(1).copied().unwrap_or(micrograd_isa::Reg::ZERO),
                    back_offset,
                );
                patched.set_branch_taken_prob(prob);
                patched.set_address(base + (len as u64 - 1) * INSTR_BYTES);
                *last = patched;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::SimpleBuildingBlockPass;

    #[test]
    fn addresses_are_sequential() {
        let mut tc = TestCase::new();
        let mut ctx = PassContext::new(0);
        SimpleBuildingBlockPass::new(32)
            .apply(&mut tc, &mut ctx)
            .unwrap();
        UpdateInstructionAddressesPass::new()
            .apply(&mut tc, &mut ctx)
            .unwrap();
        let instrs = tc.block().instructions();
        for (i, instr) in instrs.iter().enumerate() {
            assert_eq!(
                instr.address(),
                UpdateInstructionAddressesPass::DEFAULT_TEXT_BASE + i as u64 * 4
            );
        }
    }

    #[test]
    fn backedge_targets_loop_start() {
        let mut tc = TestCase::new();
        let mut ctx = PassContext::new(0);
        SimpleBuildingBlockPass::new(32)
            .apply(&mut tc, &mut ctx)
            .unwrap();
        UpdateInstructionAddressesPass::new()
            .apply(&mut tc, &mut ctx)
            .unwrap();
        let last = tc.block().instructions().last().unwrap();
        assert_eq!(last.imm(), Some(-(31 * 4)));
        let target = (last.address() as i64 + last.imm().unwrap()) as u64;
        assert_eq!(target, tc.block().instructions()[0].address());
    }

    #[test]
    fn custom_text_base() {
        let mut tc = TestCase::new();
        let mut ctx = PassContext::new(0);
        SimpleBuildingBlockPass::new(8)
            .apply(&mut tc, &mut ctx)
            .unwrap();
        UpdateInstructionAddressesPass::with_text_base(0x8000)
            .apply(&mut tc, &mut ctx)
            .unwrap();
        assert_eq!(tc.block().instructions()[0].address(), 0x8000);
    }

    #[test]
    fn requires_building_block() {
        let mut tc = TestCase::new();
        let mut ctx = PassContext::new(0);
        let err = UpdateInstructionAddressesPass::new()
            .apply(&mut tc, &mut ctx)
            .unwrap_err();
        assert!(matches!(err, CodegenError::InvalidState { .. }));
    }
}
