//! Differential tests for the driven expansion loop.
//!
//! `StreamingExpander::drive` runs whole loop-body iterations with its
//! cursor and emitted count in locals and tests probabilities in integers;
//! `next_dynamic` builds one instruction per call.  A ChaCha8 stream of
//! generated test cases, lengths (0, 1, one short of, at and one past the
//! loop body, and many iterations) and keystreams (private, a shared prefix
//! covering the expansion, and a shared prefix it runs past) checks that
//! both yield exactly the same stream, also when a visit breaks mid-stream
//! and the rest is pulled or driven.  The simulator's fused path,
//! `run_source` over an expander, must equal `run` over the pulled trace.

use micrograd_codegen::{
    DynamicInstr, Generator, GeneratorInput, Keystream, StreamingExpander, TestCase, Trace,
    TraceSource,
};
use micrograd_isa::Opcode;
use micrograd_sim::{CoreConfig, Simulator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::ControlFlow;
use std::sync::Arc;

const CASES: usize = 40;

/// A generated test case with random knobs.
fn random_test_case(rng: &mut ChaCha8Rng) -> TestCase {
    const OPCODES: [Opcode; 10] = [
        Opcode::Add,
        Opcode::Mul,
        Opcode::FaddD,
        Opcode::FmulD,
        Opcode::Beq,
        Opcode::Bne,
        Opcode::Ld,
        Opcode::Lw,
        Opcode::Sd,
        Opcode::Sw,
    ];
    let mut input = GeneratorInput {
        loop_size: rng.gen_range(4..=300),
        reg_dependency_distance: rng.gen_range(1..=12),
        mem_footprint_kb: [1, 3, 7, 64, 1000, 4096][rng.gen_range(0..6)],
        mem_stride: [1, 8, 24, 64, 100, 4096, 8192][rng.gen_range(0..7)],
        mem_temporal_window: rng.gen_range(0..=40),
        mem_temporal_period: [1, 2, 3, 5, 7, 10, 50][rng.gen_range(0..7)],
        branch_randomness: [0.0, 0.1, 0.5, 1.0, rng.gen::<f64>()][rng.gen_range(0..5)],
        seed: rng.gen(),
        ..GeneratorInput::default()
    };
    for op in OPCODES {
        let weight = if rng.gen_bool(0.3) {
            0.0
        } else {
            rng.gen::<f64>() * 4.0
        };
        input.set_weight(op, weight);
    }
    input.set_weight(Opcode::Add, 1.0);
    Generator::new().generate(&input).expect("generate")
}

/// The lengths a body of `body` instructions is expanded to.
fn lengths(body: usize, rng: &mut ChaCha8Rng) -> [usize; 6] {
    [
        0,
        1,
        body - 1,
        body,
        body + 1,
        body * rng.gen_range(2..40) + rng.gen_range(0..body),
    ]
}

/// The stream one `next_dynamic` at a time.
fn pulled(source: &mut StreamingExpander) -> Vec<DynamicInstr> {
    let mut dynamics = Vec::new();
    while let Some(d) = source.next_dynamic() {
        dynamics.push(d);
    }
    dynamics
}

/// The stream through `drive`, which must finish it.
fn driven(source: &mut StreamingExpander) -> Vec<DynamicInstr> {
    let mut dynamics = Vec::new();
    let flow = source.drive(&mut |d| {
        dynamics.push(d);
        ControlFlow::Continue(())
    });
    assert_eq!(flow, ControlFlow::Continue(()));
    dynamics
}

/// Drives `source` until `n` instructions have been visited, then breaks.
fn burst(
    source: &mut StreamingExpander,
    dynamics: &mut Vec<DynamicInstr>,
    n: usize,
) -> ControlFlow<()> {
    let mut seen = 0;
    source.drive(&mut |d| {
        dynamics.push(d);
        seen += 1;
        if seen == n {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
}

/// The stream through a visit that breaks after `at` instructions, then
/// the rest alternately pulled and driven in short breaking bursts.
fn interrupted(mut source: StreamingExpander, at: usize) -> Vec<DynamicInstr> {
    let total = source.remaining().unwrap_or(0);
    let mut dynamics = Vec::new();
    let _ = burst(&mut source, &mut dynamics, at);
    assert_eq!(source.remaining(), Some(total - dynamics.len()));
    for round in 0usize.. {
        if round % 2 == 0 {
            match source.next_dynamic() {
                Some(d) => dynamics.push(d),
                None => break,
            }
        } else if burst(&mut source, &mut dynamics, round % 7 + 1).is_continue() {
            break;
        }
    }
    assert_eq!(source.next_dynamic(), None);
    assert_eq!(source.remaining(), Some(0));
    dynamics
}

/// Every constructor of a length-`len` expansion of `tc` with `seed`.
fn expanders(tc: &TestCase, len: usize, seed: u64) -> Vec<(&'static str, StreamingExpander)> {
    let covering = Arc::new(Keystream::new(seed, len));
    // A prefix of `len / 8` words, which the expansion runs past.
    let short = Arc::new(Keystream::new(seed, len / 32));
    vec![
        ("private", StreamingExpander::new(tc, len, seed)),
        (
            "covering prefix",
            StreamingExpander::from_keystream(tc.clone(), len, &covering),
        ),
        (
            "short prefix",
            StreamingExpander::from_keystream(tc.clone(), len, &short),
        ),
    ]
}

#[test]
fn drive_yields_exactly_the_next_dynamic_stream() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD21E_0001);
    for case in 0..CASES {
        let tc = random_test_case(&mut rng);
        let body = tc.block().len();
        for len in lengths(body, &mut rng) {
            let seed = rng.gen();
            let expected = pulled(&mut StreamingExpander::new(&tc, len, seed));
            assert_eq!(expected.len(), len, "case {case}, len {len}");
            for (what, source) in expanders(&tc, len, seed) {
                let context = format!("case {case}, body {body}, len {len}, {what}");
                assert_eq!(pulled(&mut source.clone()), expected, "{context}: pulled");
                assert_eq!(driven(&mut source.clone()), expected, "{context}: driven");
                let at = [1, body - 1, body, body + 1, rng.gen_range(1..=len.max(1))]
                    [rng.gen_range(0..5)];
                assert_eq!(
                    interrupted(source, at),
                    expected,
                    "{context}: broken after {at}"
                );
            }
        }
    }
}

#[test]
fn a_long_expansion_past_the_largest_prefix_drives_the_same_stream() {
    // Keystream prefixes stop at 2^18 words.  A load that passes its
    // re-use test draws four words and a flipped branch three, so 300,000
    // instructions of a load- and branch-heavy body that re-uses and flips
    // almost always draw past even a full prefix.
    let mut rng = ChaCha8Rng::seed_from_u64(0xD21E_0002);
    let mut input = GeneratorInput {
        loop_size: 300,
        mem_temporal_window: 16,
        mem_temporal_period: 50,
        branch_randomness: 1.0,
        seed: 9,
        ..GeneratorInput::default()
    };
    input.set_weight(Opcode::Ld, 6.0);
    input.set_weight(Opcode::Beq, 3.0);
    let tc = Generator::new().generate(&input).expect("generate");
    let len = 300_000;
    let seed = rng.gen();
    assert_eq!(Keystream::new(seed, len).len(), 1 << 18);
    let expected = pulled(&mut StreamingExpander::new(&tc, len, seed));
    for (what, source) in expanders(&tc, len, seed) {
        assert_eq!(driven(&mut source.clone()), expected, "{what}");
        assert_eq!(interrupted(source, 177_777), expected, "{what}: broken");
    }
}

#[test]
fn run_source_over_an_expander_equals_run_over_its_trace() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD21E_0003);
    let mut small = Simulator::new(CoreConfig::small());
    let mut large = Simulator::new(CoreConfig::large());
    for case in 0..CASES / 4 {
        let tc = random_test_case(&mut rng);
        let len = rng.gen_range(0..20_000);
        let seed = rng.gen();
        let trace = Trace::new(
            tc.block().instructions().to_vec(),
            pulled(&mut StreamingExpander::new(&tc, len, seed)),
        );
        for (what, source) in expanders(&tc, len, seed) {
            for sim in [&mut small, &mut large] {
                assert_eq!(
                    sim.run_source(&mut source.clone()),
                    sim.run(&trace),
                    "case {case}, len {len}, {what}, {}",
                    sim.config().name
                );
            }
        }
    }
}
