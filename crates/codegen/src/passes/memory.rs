//! `GenericMemoryStreamsPass`: attach memory streams to loads and stores.

use super::{Pass, PassContext};
use crate::testcase::MemoryStream;
use crate::{CodegenError, TestCase};
use micrograd_isa::{InstrClass, MemAccess, Reg};

/// Specification of one memory stream, mirroring the
/// `GenericMemoryStreamsPass([[id, SIZE, RATIO, STRIDE, …]])` arguments of
/// Listing 2 in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryStreamSpec {
    /// Stream identifier.
    pub id: u32,
    /// Footprint in bytes (resolved `MEM_SIZE` knob).
    pub footprint: u64,
    /// Fraction of memory instructions assigned to this stream (weights are
    /// normalized across streams).
    pub ratio: f64,
    /// Stride in bytes between consecutive iterations (`MEM_STRIDE` knob).
    pub stride: u64,
    /// Temporal re-use window in accesses (`MEM_TEMP1` knob).
    pub reuse_window: u64,
    /// Temporal re-use period in accesses (`MEM_TEMP2` knob).
    pub reuse_period: u64,
}

impl MemoryStreamSpec {
    /// A simple sequential stream covering `footprint` bytes with the given
    /// stride, no temporal re-use.
    #[must_use]
    pub fn sequential(id: u32, footprint: u64, stride: u64) -> Self {
        MemoryStreamSpec {
            id,
            footprint,
            ratio: 1.0,
            stride,
            reuse_window: 1,
            reuse_period: 1,
        }
    }
}

/// Attaches [`MemoryStream`]s to the test case and assigns every load and
/// store instruction to a stream (weighted by the stream ratios), giving it
/// a concrete [`MemAccess`] descriptor and a base address register.
#[derive(Debug, Clone, PartialEq)]
pub struct GenericMemoryStreamsPass {
    specs: Vec<MemoryStreamSpec>,
}

impl GenericMemoryStreamsPass {
    /// Base register used for stream `id` (streams use `x10`, `x11`, …).
    #[must_use]
    pub fn stream_base_reg(id: u32) -> Reg {
        Reg::x(10 + (id % 8) as u8)
    }

    /// Base virtual address of the data region of stream `id`.
    ///
    /// Streams are spaced far apart so they never alias.
    #[must_use]
    pub fn stream_base_addr(id: u32) -> u64 {
        0x1000_0000 + u64::from(id) * 0x400_0000
    }

    /// Creates the pass from stream specifications.
    #[must_use]
    pub fn new(specs: Vec<MemoryStreamSpec>) -> Self {
        GenericMemoryStreamsPass { specs }
    }
}

impl Pass for GenericMemoryStreamsPass {
    fn name(&self) -> &'static str {
        "GenericMemoryStreamsPass"
    }

    fn apply(&self, test_case: &mut TestCase, _ctx: &mut PassContext) -> Result<(), CodegenError> {
        if test_case.block().is_empty() {
            return Err(CodegenError::InvalidState {
                pass: self.name().into(),
                reason: "building block is empty".into(),
            });
        }
        if self.specs.is_empty() {
            return Err(CodegenError::InvalidParameter {
                parameter: "streams".into(),
                reason: "at least one memory stream is required".into(),
            });
        }
        let ratio_total: f64 = self.specs.iter().map(|s| s.ratio.max(0.0)).sum();
        if ratio_total <= 0.0 {
            return Err(CodegenError::InvalidParameter {
                parameter: "streams".into(),
                reason: "stream ratios must sum to a positive value".into(),
            });
        }

        // Register the streams and reserve their base registers.
        test_case.streams_mut().clear();
        for spec in &self.specs {
            let stream = MemoryStream {
                id: spec.id,
                footprint: spec.footprint.max(64),
                ratio: spec.ratio.max(0.0) / ratio_total,
                stride: spec.stride.max(1),
                reuse_window: spec.reuse_window.max(1),
                reuse_period: spec.reuse_period.max(1),
                base: Self::stream_base_addr(spec.id),
            };
            test_case.streams_mut().push(stream);
            let base_reg = Self::stream_base_reg(spec.id);
            if !test_case.is_reserved(base_reg) {
                test_case.reserved_regs_mut().push(base_reg);
            }
        }

        // Assign memory instructions to streams using deterministic weighted
        // round-robin (largest accumulated deficit first), so the realized
        // split matches the requested ratios as closely as integers allow.
        let streams: Vec<MemoryStream> = test_case.streams().to_vec();
        let mut deficits: Vec<f64> = vec![0.0; streams.len()];
        let mut per_stream_count: Vec<u64> = vec![0; streams.len()];

        for instr in test_case.block_mut().instructions_mut().iter_mut() {
            let class = instr.opcode().class();
            if !matches!(class, InstrClass::Load | InstrClass::Store) {
                continue;
            }
            for (i, s) in streams.iter().enumerate() {
                deficits[i] += s.ratio;
            }
            let chosen = deficits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            deficits[chosen] -= 1.0;

            let stream = &streams[chosen];
            let offset = per_stream_count[chosen] * instr.opcode().access_bytes().max(1);
            per_stream_count[chosen] += 1;
            let mem = MemAccess {
                stream: stream.id,
                base: stream.base,
                stride: stream.stride,
                footprint: stream.footprint,
                offset,
            };
            instr.set_mem(Some(mem));
            let base_reg = Self::stream_base_reg(stream.id);
            match class {
                InstrClass::Load => {
                    instr.set_sources(&[base_reg]);
                }
                InstrClass::Store => {
                    let data = instr.sources().first().copied().unwrap_or(Reg::x(5));
                    instr.set_sources(&[data, base_reg]);
                }
                _ => unreachable!("filtered to memory classes above"),
            }
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

    fn memory_heavy_testcase() -> (TestCase, PassContext) {
        let mut tc = TestCase::new();
        let mut ctx = PassContext::new(9);
        SimpleBuildingBlockPass::new(202)
            .apply(&mut tc, &mut ctx)
            .unwrap();
        let profile = InstructionProfile::new()
            .with(Opcode::Ld, 2.0)
            .with(Opcode::Sd, 1.0)
            .with(Opcode::Add, 1.0);
        SetInstructionTypeByProfilePass::new(profile)
            .apply(&mut tc, &mut ctx)
            .unwrap();
        (tc, ctx)
    }

    #[test]
    fn every_memory_instruction_gets_a_stream() {
        let (mut tc, mut ctx) = memory_heavy_testcase();
        GenericMemoryStreamsPass::new(vec![
            MemoryStreamSpec::sequential(0, 64 * 1024, 8),
            MemoryStreamSpec {
                id: 1,
                footprint: 1024 * 1024,
                ratio: 1.0,
                stride: 64,
                reuse_window: 8,
                reuse_period: 4,
            },
        ])
        .apply(&mut tc, &mut ctx)
        .unwrap();
        for instr in tc.block().iter() {
            if instr.opcode().is_memory() {
                assert!(
                    instr.mem().is_some(),
                    "memory instruction without stream: {instr}"
                );
            } else {
                assert!(instr.mem().is_none());
            }
        }
        assert_eq!(tc.streams().len(), 2);
    }

    #[test]
    fn ratios_control_the_split() {
        let (mut tc, mut ctx) = memory_heavy_testcase();
        GenericMemoryStreamsPass::new(vec![
            MemoryStreamSpec {
                id: 0,
                footprint: 4096,
                ratio: 3.0,
                stride: 8,
                reuse_window: 1,
                reuse_period: 1,
            },
            MemoryStreamSpec {
                id: 1,
                footprint: 4096,
                ratio: 1.0,
                stride: 8,
                reuse_window: 1,
                reuse_period: 1,
            },
        ])
        .apply(&mut tc, &mut ctx)
        .unwrap();
        let mut counts = [0u32; 2];
        for instr in tc.block().iter() {
            if let Some(m) = instr.mem() {
                counts[m.stream as usize] += 1;
            }
        }
        let total = counts[0] + counts[1];
        assert!(total > 50);
        let frac0 = counts[0] as f64 / total as f64;
        assert!(
            (frac0 - 0.75).abs() < 0.05,
            "expected ~75% on stream 0, got {frac0}"
        );
    }

    #[test]
    fn stream_base_registers_are_reserved() {
        let (mut tc, mut ctx) = memory_heavy_testcase();
        GenericMemoryStreamsPass::new(vec![MemoryStreamSpec::sequential(0, 4096, 8)])
            .apply(&mut tc, &mut ctx)
            .unwrap();
        assert!(tc.is_reserved(GenericMemoryStreamsPass::stream_base_reg(0)));
    }

    #[test]
    fn rejects_empty_or_zero_ratio_specs() {
        let (mut tc, mut ctx) = memory_heavy_testcase();
        let err = GenericMemoryStreamsPass::new(vec![])
            .apply(&mut tc, &mut ctx)
            .unwrap_err();
        assert!(matches!(err, CodegenError::InvalidParameter { .. }));

        let err = GenericMemoryStreamsPass::new(vec![MemoryStreamSpec {
            id: 0,
            footprint: 4096,
            ratio: 0.0,
            stride: 8,
            reuse_window: 1,
            reuse_period: 1,
        }])
        .apply(&mut tc, &mut ctx)
        .unwrap_err();
        assert!(matches!(err, CodegenError::InvalidParameter { .. }));
    }

    #[test]
    fn stream_bases_do_not_alias() {
        let a = GenericMemoryStreamsPass::stream_base_addr(0);
        let b = GenericMemoryStreamsPass::stream_base_addr(1);
        assert!(b - a >= 0x400_0000);
    }

    #[test]
    fn footprint_and_stride_are_clamped_to_sane_minimums() {
        let (mut tc, mut ctx) = memory_heavy_testcase();
        GenericMemoryStreamsPass::new(vec![MemoryStreamSpec {
            id: 0,
            footprint: 0,
            ratio: 1.0,
            stride: 0,
            reuse_window: 0,
            reuse_period: 0,
        }])
        .apply(&mut tc, &mut ctx)
        .unwrap();
        let s = tc.streams()[0];
        assert!(s.footprint >= 64);
        assert!(s.stride >= 1);
        assert!(s.reuse_window >= 1);
        assert!(s.reuse_period >= 1);
    }
}
