//! The per-instruction, map-based expander that [`StreamingExpander`]
//! replaced, kept as the reference its step table must reproduce bit for
//! bit.
//!
//! Every dynamic instruction re-derives its opcode, memory and branch facts
//! from the static `Instruction`, looks its stream up in `BTreeMap`s and
//! keeps a re-use history of up to `2 * window` addresses — slow, but a
//! direct transcription of the expansion rules in [`TraceExpander`]'s docs.
//!
//! [`StreamingExpander`]: super::StreamingExpander
//! [`TraceExpander`]: crate::TraceExpander

use crate::trace::{DynamicInstr, Trace};
use crate::TestCase;
use micrograd_isa::Instruction;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// A generator that counts the 32-bit words drawn from it.
struct Counted {
    rng: ChaCha8Rng,
    words: usize,
}

impl RngCore for Counted {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.rng.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.words += 2;
        self.rng.next_u64()
    }
}

/// Expands `test_case` to `dynamic_len` instructions with `seed`,
/// returning the trace and the number of keystream words drawn.
pub(crate) fn expand(test_case: &TestCase, dynamic_len: usize, seed: u64) -> (Trace, usize) {
    let statics: Vec<Instruction> = test_case.block().instructions().to_vec();
    let reuse_prob: BTreeMap<u32, (f64, usize)> = test_case
        .streams()
        .iter()
        .map(|s| (s.id, (s.reuse_probability(), s.reuse_window as usize)))
        .collect();
    let mut rng = Counted {
        rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_7ACE),
        words: 0,
    };
    let mut recent: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut stream_pos: BTreeMap<u32, u64> = BTreeMap::new();
    let mut dynamics = Vec::new();
    if statics.is_empty() {
        return (Trace::new(statics, dynamics), 0);
    }
    let body_len = statics.len();
    let mut idx = 0;
    for emitted in 0..dynamic_len {
        let instr = &statics[idx];
        let is_last_static = idx + 1 == body_len;
        let mem_addr = instr.mem().map(|m| {
            let (prob, window) = reuse_prob.get(&m.stream).copied().unwrap_or((0.0, 1));
            let history = recent.entry(m.stream).or_default();
            let addr = if prob > 0.0 && !history.is_empty() && rng.gen::<f64>() < prob {
                let pick = rng.gen_range(0..history.len().min(window.max(1)));
                history[history.len() - 1 - pick]
            } else {
                let pos = stream_pos.entry(m.stream).or_insert(0);
                let addr = m.address_at(*pos);
                *pos += 1;
                addr
            };
            history.push(addr);
            let cap = window.max(1) * 2;
            if history.len() > cap {
                let drop = history.len() - cap;
                history.drain(0..drop);
            }
            addr
        });
        let taken = if instr.opcode().is_conditional_branch() {
            if is_last_static {
                Some(emitted + 1 < dynamic_len)
            } else {
                let randomize = instr.branch_taken_prob();
                if randomize > 0.0 && rng.gen::<f64>() < randomize {
                    Some(rng.gen::<bool>())
                } else {
                    Some(true)
                }
            }
        } else {
            None
        };
        dynamics.push(DynamicInstr {
            static_index: idx as u32,
            pc: instr.address(),
            mem_addr,
            taken,
        });
        idx = if is_last_static { 0 } else { idx + 1 };
    }
    (Trace::new(statics, dynamics), rng.words)
}
