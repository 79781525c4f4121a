//! Seeded round trip of the packed memo key, [`PackedInput`].
//!
//! ChaCha8-drawn generator inputs cover what a tuner never produces:
//! weights of -0.0, NaN payloads, infinities, non-integral values and
//! values of 128 and more, opcodes outside the ten knobs, empty and
//! non-ASCII names, and integer fields up to `u64::MAX`.  Every input must
//! unpack bit for bit, and two inputs must pack to the same bytes exactly
//! when every field is bit-identical.  Half the inputs redraw one field of
//! the one before, from small pools, so inputs often repeat or differ from
//! an earlier one in a single field.

use micrograd_codegen::GeneratorInput;
use micrograd_core::PackedInput;
use micrograd_isa::Opcode;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

const INPUTS: usize = 20_000;

const FLOATS: [f64; 16] = [
    0.0,
    -0.0,
    1.0,
    127.0,
    128.0,
    255.0,
    0.5,
    -1.0,
    1e-300,
    f64::MAX,
    f64::MIN_POSITIVE,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    5e-324,
];

const INTEGERS: [u64; 10] = [
    0,
    1,
    127,
    128,
    16_383,
    16_384,
    1 << 63,
    u64::MAX - 1,
    u64::MAX,
    300,
];

const NAMES: [&str; 6] = [
    "",
    "micrograd-testcase",
    "é",
    "名前 ✓",
    "a\"b\\\n\u{0}",
    "ab",
];

fn float(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0..4) {
        0 => FLOATS[rng.gen_range(0..FLOATS.len())],
        1 => f64::from(rng.gen_range(0..=130u32)),
        // Any bit pattern: NaN payloads and subnormals included.
        2 => f64::from_bits(rng.gen::<u64>()),
        _ => f64::from(rng.gen_range(0..=20u32)) / 4.0,
    }
}

fn integer(rng: &mut ChaCha8Rng) -> u64 {
    match rng.gen_range(0..3) {
        0 => INTEGERS[rng.gen_range(0..INTEGERS.len())],
        1 => rng.gen_range(0..4),
        _ => rng.gen::<u64>() >> rng.gen_range(0..64),
    }
}

#[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
fn input(rng: &mut ChaCha8Rng) -> GeneratorInput {
    let instr_weights = (0..rng.gen_range(0..=4))
        .map(|_| {
            // Mostly the first few opcodes, so maps often share keys.
            let op = if rng.gen_bool(0.8) {
                Opcode::ALL[rng.gen_range(0..3)]
            } else {
                Opcode::ALL[rng.gen_range(0..Opcode::ALL.len())]
            };
            (op, float(rng))
        })
        .collect();
    GeneratorInput {
        loop_size: integer(rng) as usize,
        instr_weights,
        reg_dependency_distance: integer(rng) as u32,
        mem_footprint_kb: integer(rng),
        mem_stride: integer(rng),
        mem_temporal_window: integer(rng),
        mem_temporal_period: integer(rng),
        branch_randomness: float(rng),
        init_reg_value: integer(rng) as i64,
        seed: integer(rng),
        name: match rng.gen_range(0..4) {
            0 => (0..rng.gen_range(0..300))
                .map(|_| char::from_u32(rng.gen_range(0..0x3000)).unwrap_or('?'))
                .collect(),
            _ => NAMES[rng.gen_range(0..NAMES.len())].to_owned(),
        },
    }
}

/// `previous` with one field redrawn (possibly to the same value).
fn neighbour(previous: &GeneratorInput, rng: &mut ChaCha8Rng) -> GeneratorInput {
    let fresh = input(rng);
    let mut next = previous.clone();
    match rng.gen_range(0..11) {
        0 => next.loop_size = fresh.loop_size,
        1 => next.instr_weights = fresh.instr_weights,
        2 => next.reg_dependency_distance = fresh.reg_dependency_distance,
        3 => next.mem_footprint_kb = fresh.mem_footprint_kb,
        4 => next.mem_stride = fresh.mem_stride,
        5 => next.mem_temporal_window = fresh.mem_temporal_window,
        6 => next.mem_temporal_period = fresh.mem_temporal_period,
        7 => next.branch_randomness = fresh.branch_randomness,
        8 => next.init_reg_value = fresh.init_reg_value,
        9 => next.seed = fresh.seed,
        _ => next.name = fresh.name,
    }
    next
}

/// Every field, floats by their bits: equal exactly when the inputs are
/// bit-identical (`GeneratorInput`'s `==` compares floats by value).
type Bits = (
    usize,
    Vec<(Opcode, u64)>,
    u32,
    [u64; 4],
    u64,
    i64,
    u64,
    String,
);

fn bits(input: &GeneratorInput) -> Bits {
    (
        input.loop_size,
        input
            .instr_weights
            .iter()
            .map(|(op, w)| (*op, w.to_bits()))
            .collect(),
        input.reg_dependency_distance,
        [
            input.mem_footprint_kb,
            input.mem_stride,
            input.mem_temporal_window,
            input.mem_temporal_period,
        ],
        input.branch_randomness.to_bits(),
        input.init_reg_value,
        input.seed,
        input.name.clone(),
    )
}

#[test]
fn packed_inputs_unpack_bit_for_bit_and_never_share_bytes() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let mut seen: HashMap<Vec<u8>, Bits> = HashMap::new();
    let (mut repeats, mut previous) = (0, GeneratorInput::default());
    for _ in 0..INPUTS {
        let input = if rng.gen_bool(0.5) {
            neighbour(&previous, &mut rng)
        } else {
            input(&mut rng)
        };
        let packed = PackedInput::new(&input);
        assert_eq!(bits(&packed.unpack()), bits(&input), "{input:?}");
        assert!(packed == input, "a packed input matches its input");
        assert_eq!(
            packed == previous,
            bits(&input) == bits(&previous),
            "the match is bit equality"
        );
        match seen.get(packed.as_bytes()) {
            Some(first) => {
                assert_eq!(first, &bits(&input), "two inputs share bytes");
                repeats += 1;
            }
            None => {
                seen.insert(packed.as_bytes().to_vec(), bits(&input));
            }
        }
        previous = input;
    }
    assert!(repeats > 0, "the pools are small enough to repeat inputs");
    assert!(seen.len() > INPUTS / 2, "and large enough to vary them");
}

#[test]
fn one_field_apart_is_never_the_same_key() {
    let base = GeneratorInput::default();
    let packed = PackedInput::new(&base);
    let mut variants: Vec<GeneratorInput> = Vec::new();
    let mut edit = |f: &dyn Fn(&mut GeneratorInput)| {
        let mut input = base.clone();
        f(&mut input);
        variants.push(input);
    };
    edit(&|i| i.loop_size += 1);
    edit(&|i| i.set_weight(Opcode::Add, -0.0));
    edit(&|i| i.set_weight(Opcode::Add, 1.0 + f64::EPSILON));
    edit(&|i| i.set_weight(Opcode::Nop, 1.0));
    edit(&|i| {
        i.instr_weights.remove(&Opcode::Sw);
    });
    edit(&|i| i.reg_dependency_distance = u32::MAX);
    edit(&|i| i.mem_temporal_period = 2);
    edit(&|i| i.branch_randomness = f64::NAN);
    edit(&|i| i.init_reg_value = -1);
    edit(&|i| i.seed = u64::MAX);
    edit(&|i| i.name.push('\u{0}'));
    edit(&|i| i.name.clear());
    for variant in &variants {
        assert!(packed != *variant, "{variant:?}");
        assert_ne!(PackedInput::new(variant).as_bytes(), packed.as_bytes());
    }
    // A NaN weight is its own key: the packed form compares bits.
    let nan = &variants[7];
    assert!(PackedInput::new(nan) == *nan);
}

#[test]
fn a_default_input_packs_small() {
    let packed = PackedInput::new(&GeneratorInput::default());
    // The loop size in 2 bytes, the weights in 1 + 10 x 2, the dependency
    // distance and memory knobs in one byte each, the branch ratio in
    // 1 + 8, the initial value and seed in one byte each, the name 1 + 18.
    assert_eq!(packed.as_bytes().len(), 2 + 21 + 5 + 9 + 2 + 19);
    assert_eq!(bits(&packed.unpack()), bits(&GeneratorInput::default()));
}
