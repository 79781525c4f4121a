//! Integration tests of the configuration-file driven framework facade.

use micrograd::core::{
    CoreKind, FrameworkConfig, KnobSpaceKind, MetricKind, MicroGrad, StressGoal, TunerKind,
    UseCaseConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[test]
fn a_json_configuration_drives_a_full_stress_run() {
    // The repository's sample job, the one the README submits.
    let config = FrameworkConfig::from_json(include_str!("../job.json")).expect("valid config");
    assert_eq!(config.core, CoreKind::Small);
    assert_eq!(config.tuner, TunerKind::GradientDescent);
    assert_eq!(config.knob_space, KnobSpaceKind::InstructionFractions);

    let output = MicroGrad::new(config).run().expect("run succeeds");
    let report = output.as_stress().expect("stress report");
    assert_eq!(report.metric, MetricKind::Ipc);
    assert_eq!(report.goal, StressGoal::Minimize);
    assert!(report.best_value > 0.0);
    assert!(report.epochs_used <= 3);
}

#[test]
fn a_json_configuration_drives_a_benchmark_cloning_run() {
    let json = r#"{
        "core": "small",
        "tuner": "gradient-descent",
        "knob_space": "full",
        "use_case": { "kind": "clone-benchmark", "benchmark": "hmmer", "accuracy_target": 0.95 },
        "max_epochs": 4,
        "dynamic_len": 6000,
        "reference_len": 8000,
        "seed": 11
    }"#;
    let config = FrameworkConfig::from_json(json).expect("valid config");
    let framework = MicroGrad::new(config);

    // the benchmark can be characterized stand-alone, as the paper's
    // "application binary + inputs" mode would do
    let target = framework.characterize_benchmark("hmmer").unwrap();
    assert!(target.value_or_zero(MetricKind::Ipc) > 0.0);

    let output = framework.run().expect("run succeeds");
    let report = output.as_clone().expect("clone report");
    assert_eq!(report.workload, "hmmer");
    assert!(report.mean_accuracy > 0.5);
    assert!(report.epochs_used <= 4);
}

#[test]
fn all_tuner_kinds_run_the_same_use_case() {
    for tuner in [
        TunerKind::GradientDescent,
        TunerKind::Genetic,
        TunerKind::RandomSearch,
    ] {
        let config = FrameworkConfig {
            core: CoreKind::Small,
            tuner,
            knob_space: KnobSpaceKind::InstructionFractions,
            use_case: UseCaseConfig::Stress {
                metric: MetricKind::Ipc,
                goal: StressGoal::Minimize,
            },
            max_epochs: 2,
            dynamic_len: 4_000,
            reference_len: 4_000,
            seed: 5,
            // Exercise the batch-parallel evaluation path for every tuner.
            parallelism: Some(2),
        };
        let output = MicroGrad::new(config).run().expect("run succeeds");
        let report = output.as_stress().expect("stress report");
        assert!(
            report.best_value > 0.0,
            "{tuner:?} produced no stress value"
        );
    }
}

#[test]
fn malformed_configurations_name_what_to_fix() {
    // A wrong-typed field is attributed to its path, not to "the config".
    let bad_field = r#"{
        "core": "small",
        "tuner": "gradient-descent",
        "knob_space": "instruction-fractions",
        "use_case": { "kind": "stress", "metric": "Ipc", "goal": "Minimize" },
        "max_epochs": 3,
        "dynamic_len": "plenty",
        "reference_len": 5000,
        "seed": 3
    }"#;
    let message = FrameworkConfig::from_json(bad_field)
        .unwrap_err()
        .to_string();
    assert!(
        message.contains("FrameworkConfig.dynamic_len"),
        "got: {message}"
    );

    // An unknown enum variant is named in the message.
    let bad_variant = r#"{
        "core": "medium",
        "tuner": "gradient-descent",
        "knob_space": "instruction-fractions",
        "use_case": { "kind": "stress", "metric": "Ipc", "goal": "Minimize" },
        "max_epochs": 3,
        "dynamic_len": 5000,
        "reference_len": 5000,
        "seed": 3
    }"#;
    let message = FrameworkConfig::from_json(bad_variant)
        .unwrap_err()
        .to_string();
    assert!(message.contains("medium"), "got: {message}");
}

#[test]
fn default_configuration_serializes_with_documented_fields() {
    let json = FrameworkConfig::default().to_json();
    for field in [
        "core",
        "tuner",
        "knob_space",
        "use_case",
        "max_epochs",
        "dynamic_len",
        "reference_len",
        "seed",
        "parallelism",
    ] {
        assert!(json.contains(field), "field `{field}` missing from {json}");
    }
    let back = FrameworkConfig::from_json(&json).unwrap();
    assert_eq!(back, FrameworkConfig::default());
}

/// JSON fragments a mutation splices in: structure, literals, numbers past
/// every integer and float range, negative zero, and names the
/// configuration uses.
const TOKENS: [&str; 17] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "null",
    "true",
    "-0",
    "1e999",
    "18446744073709551616",
    "-9223372036854775809",
    "0.5",
    r#""full""#,
    r#""kind":"#,
    r#""parallelism":"#,
];

/// Applies one to four random mutations to `json`: bit flips,
/// truncations, deletions of up to 15 bytes and inserted tokens.
fn mutate(rng: &mut ChaCha8Rng, json: &str) -> String {
    let mut bytes = json.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..4) {
            0 => {
                if let Some(byte) = bytes.get_mut(at) {
                    *byte ^= 1 << rng.gen_range(0..8);
                }
            }
            1 => bytes.truncate(at),
            2 => {
                let end = (at + rng.gen_range(1..16)).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes();
                bytes.splice(at..at, token.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_configurations_parse_or_fail_with_a_typed_error() {
    // The sample job and the default configuration, mutated by a seeded
    // ChaCha8 stream: every case parses or names what to fix, never panics.
    let documents = [
        include_str!("../job.json").to_owned(),
        FrameworkConfig::default().to_json(),
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0_4F16);
    let mut parsed = 0;
    for case in 0..4_000 {
        let json = mutate(&mut rng, &documents[case % documents.len()]);
        let outcome = std::panic::catch_unwind(|| FrameworkConfig::from_json(&json));
        match outcome {
            Ok(Ok(_)) => parsed += 1,
            Ok(Err(error)) => assert!(!error.to_string().is_empty(), "case {case}"),
            Err(_) => panic!("case {case}: from_json panicked on {json:?}"),
        }
    }
    // Some mutations keep the document valid (whitespace deleted, a digit
    // flipped); most do not.
    assert!(parsed > 0 && parsed < 2_000, "{parsed} of 4000 parsed");
}
