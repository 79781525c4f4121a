//! Dynamic trace expansion: turning the static loop into the instruction
//! stream the performance simulator consumes.

use crate::source::TraceCursor;
use crate::TestCase;
use micrograd_isa::{InstrClass, Instruction};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One dynamic instruction instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynamicInstr {
    /// Index of the static instruction in the test case block.
    pub static_index: u32,
    /// Program counter of this instance.
    pub pc: u64,
    /// Effective data address, for loads and stores.
    pub mem_addr: Option<u64>,
    /// Branch direction, for conditional branches.
    pub taken: Option<bool>,
}

/// A dynamic instruction trace plus the static instructions it refers to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    statics: Vec<Instruction>,
    dynamics: Vec<DynamicInstr>,
}

impl Trace {
    /// Creates a trace from its parts.
    #[must_use]
    pub fn new(statics: Vec<Instruction>, dynamics: Vec<DynamicInstr>) -> Self {
        Trace { statics, dynamics }
    }

    /// The static instructions (the loop body, or an application's static
    /// code) referenced by [`DynamicInstr::static_index`].
    #[must_use]
    pub fn statics(&self) -> &[Instruction] {
        &self.statics
    }

    /// The dynamic instruction stream in program order.
    #[must_use]
    pub fn dynamics(&self) -> &[DynamicInstr] {
        &self.dynamics
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dynamics.len()
    }

    /// Returns `true` if the trace holds no dynamic instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dynamics.is_empty()
    }

    /// The static instruction behind a dynamic instance.
    ///
    /// # Panics
    ///
    /// Panics if the dynamic instruction's static index is out of range
    /// (which would indicate a malformed trace).
    #[must_use]
    pub fn static_of(&self, dynamic: &DynamicInstr) -> &Instruction {
        &self.statics[dynamic.static_index as usize]
    }

    /// Dynamic instruction-class distribution, normalized to 1.0.
    #[must_use]
    pub fn class_distribution(&self) -> BTreeMap<InstrClass, f64> {
        micrograd_isa::class_distribution(self.dynamics.iter().map(|d| self.static_of(d).class()))
    }

    /// A streaming cursor over this trace (see
    /// [`TraceSource`](crate::TraceSource)).
    #[must_use]
    pub fn source(&self) -> TraceCursor<'_> {
        TraceCursor::new(self)
    }
}

/// Expands a [`TestCase`] into a dynamic [`Trace`] of a requested length.
///
/// The expansion models the endless-loop execution of the test case:
///
/// * every loop iteration executes the whole body in order (body branches
///   are "hammock" branches whose direction only affects predictability,
///   not the executed path — a deliberate simplification documented in
///   DESIGN.md);
/// * memory instructions produce addresses from their stream descriptor:
///   each stream is walked like a circular buffer that advances by its
///   stride on every access and wraps at its footprint (so `MEM_SIZE` sets
///   the working-set size and `MEM_STRIDE` the spatial locality), and with
///   probability [`reuse_probability`] the access instead revisits one of
///   the last `reuse_window` addresses (temporal locality knobs
///   `MEM_TEMP1`/`MEM_TEMP2`);
/// * conditional body branches flip direction with the randomization ratio
///   assigned by `RandomizeByTypePass` (`B_PATTERN` knob) — ratio 0 means a
///   always-taken, perfectly predictable branch;
/// * the loop back-edge is always taken except on the final dynamic
///   instruction.
///
/// [`reuse_probability`]: crate::MemoryStream::reuse_probability
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceExpander {
    dynamic_len: usize,
    seed: u64,
}

impl TraceExpander {
    /// Creates an expander that produces `dynamic_len` dynamic instructions
    /// using `seed` for all stochastic decisions.
    #[must_use]
    pub fn new(dynamic_len: usize, seed: u64) -> Self {
        TraceExpander { dynamic_len, seed }
    }

    /// Number of dynamic instructions this expander produces.
    #[must_use]
    pub fn dynamic_len(&self) -> usize {
        self.dynamic_len
    }

    /// The seed used for all stochastic decisions.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Expands `test_case` into a materialized dynamic trace.
    ///
    /// This drains the streaming cursor of [`stream`](TraceExpander::stream)
    /// into a [`Trace`], so the materialized and streaming paths are
    /// bit-identical by construction.  The hot evaluation path feeds the
    /// cursor to the simulator directly instead (O(loop size) memory, one
    /// pass); materialize only when random access to the dynamics is needed.
    #[must_use]
    pub fn expand(&self, test_case: &TestCase) -> Trace {
        let mut source = self.stream(test_case);
        let dynamics = crate::source::drain_dynamics(&mut source);
        Trace::new(source.into_statics(), dynamics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Generator, GeneratorInput};
    use micrograd_isa::Opcode;

    fn testcase(seed: u64) -> TestCase {
        let input = GeneratorInput {
            loop_size: 100,
            seed,
            ..GeneratorInput::default()
        };
        Generator::new().generate(&input).unwrap()
    }

    #[test]
    fn trace_has_requested_length() {
        let tc = testcase(1);
        for len in [0, 1, 99, 100, 1000, 12_345] {
            let trace = TraceExpander::new(len, 1).expand(&tc);
            assert_eq!(trace.len(), len);
            assert_eq!(trace.is_empty(), len == 0);
        }
    }

    #[test]
    fn dynamic_distribution_matches_static_distribution() {
        let tc = testcase(2);
        let trace = TraceExpander::new(50_000, 2).expand(&tc);
        let static_dist = tc.class_distribution();
        let dyn_dist = trace.class_distribution();
        for (class, frac) in static_dist {
            let d = dyn_dist.get(&class).copied().unwrap_or(0.0);
            assert!(
                (frac - d).abs() < 0.02,
                "class {class:?}: static {frac} vs dynamic {d}"
            );
        }
    }

    #[test]
    fn memory_addresses_stay_within_stream_bounds() {
        let tc = testcase(3);
        let trace = TraceExpander::new(20_000, 3).expand(&tc);
        let streams: std::collections::BTreeMap<u32, _> =
            tc.streams().iter().map(|s| (s.id, *s)).collect();
        for d in trace.dynamics() {
            if let Some(addr) = d.mem_addr {
                let m = trace.static_of(d).mem().unwrap();
                let s = streams[&m.stream];
                assert!(addr >= s.base, "address below stream base");
                assert!(
                    addr < s.base + s.footprint + 64,
                    "address {addr:#x} beyond stream footprint"
                );
            }
        }
    }

    #[test]
    fn backedge_is_taken_until_the_end() {
        let tc = testcase(4);
        let trace = TraceExpander::new(1_000, 4).expand(&tc);
        let body_len = tc.block().len();
        let mut backedges = 0;
        for (i, d) in trace.dynamics().iter().enumerate() {
            if d.static_index as usize + 1 == body_len {
                backedges += 1;
                let is_final = i + 1 == trace.len();
                assert_eq!(d.taken, Some(!is_final));
            }
        }
        assert!(backedges > 5);
    }

    #[test]
    fn expansion_is_deterministic() {
        let tc = testcase(5);
        let a = TraceExpander::new(5_000, 7).expand(&tc);
        let b = TraceExpander::new(5_000, 7).expand(&tc);
        let c = TraceExpander::new(5_000, 8).expand(&tc);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn branch_randomness_increases_direction_entropy() {
        let entropy_for = |randomness: f64| {
            let input = GeneratorInput {
                loop_size: 100,
                branch_randomness: randomness,
                seed: 6,
                ..GeneratorInput::default()
            };
            let tc = Generator::new().generate(&input).unwrap();
            let trace = TraceExpander::new(50_000, 6).expand(&tc);
            let body_len = tc.block().len();
            let mut taken = 0u64;
            let mut total = 0u64;
            for d in trace.dynamics() {
                let s = trace.static_of(d);
                if s.opcode().is_conditional_branch() && (d.static_index as usize + 1) != body_len {
                    total += 1;
                    if d.taken == Some(true) {
                        taken += 1;
                    }
                }
            }
            assert!(total > 100);
            taken as f64 / total as f64
        };
        let predictable = entropy_for(0.0);
        let random = entropy_for(1.0);
        assert!(predictable > 0.99, "no randomness should mean always taken");
        assert!(
            (random - 0.5).abs() < 0.05,
            "full randomness should be a coin flip, got {random}"
        );
    }

    #[test]
    fn temporal_locality_reduces_unique_addresses() {
        let unique_addrs = |period: u64| {
            let input = GeneratorInput {
                loop_size: 100,
                mem_footprint_kb: 512,
                mem_temporal_period: period,
                seed: 8,
                ..GeneratorInput::default()
            };
            let tc = Generator::new().generate(&input).unwrap();
            let trace = TraceExpander::new(30_000, 8).expand(&tc);
            let set: std::collections::BTreeSet<u64> =
                trace.dynamics().iter().filter_map(|d| d.mem_addr).collect();
            set.len()
        };
        let no_reuse = unique_addrs(1);
        let heavy_reuse = unique_addrs(10);
        assert!(
            heavy_reuse < no_reuse / 2,
            "temporal re-use should shrink the unique address set: {heavy_reuse} vs {no_reuse}"
        );
    }

    #[test]
    fn empty_testcase_produces_empty_trace() {
        let tc = TestCase::new();
        let trace = TraceExpander::new(100, 0).expand(&tc);
        assert!(trace.is_empty());
        assert!(trace.class_distribution().is_empty());
    }

    #[test]
    fn nop_only_testcase_still_traces() {
        let mut tc = TestCase::new();
        tc.block_mut().push(Instruction::new(Opcode::Nop));
        let trace = TraceExpander::new(10, 0).expand(&tc);
        assert_eq!(trace.len(), 10);
        assert!(trace.dynamics().iter().all(|d| d.static_index == 0));
    }
}
