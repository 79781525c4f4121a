//! The job sets of each workload, derived from the workload seed, and the
//! golden digests their outputs are checked against.

use micrograd_bench::{CloneRow, ExperimentSizes, StressCurves};
use micrograd_core::{
    CoreKind, FrameworkConfig, FrameworkOutput, KnobSpaceKind, SimPlatform, TunerKind,
    UseCaseConfig,
};
use micrograd_sim::CoreConfig;
use micrograd_workloads::Benchmark;

/// Workload seeds map onto this many job-seed classes, each with golden
/// outputs recorded in `golden.txt`.
pub const SEED_CLASSES: u64 = 16;

/// Jobs in one `store-hit` cycle: below the scheduler's default
/// `retained_jobs` (1024), see README.md.
pub const STORE_HIT_JOBS: usize = 960;

/// The job-seed class of a workload seed.
#[must_use]
pub fn class(seed: u64) -> u64 {
    seed % SEED_CLASSES
}

/// `clone-cold`: one `clone-benchmark` job per bundled benchmark on the
/// Large core, gradient descent, the full knob space and
/// `ExperimentSizes::full()` lengths.  All eight share one seed, hence one
/// platform key, so later jobs warm-start from earlier jobs' cache dumps.
#[must_use]
pub fn clone_cold(seed: u64) -> Vec<FrameworkConfig> {
    let sizes = ExperimentSizes::full();
    Benchmark::ALL
        .iter()
        .map(|b| FrameworkConfig {
            core: CoreKind::Large,
            tuner: TunerKind::GradientDescent,
            knob_space: KnobSpaceKind::Full,
            use_case: UseCaseConfig::CloneBenchmark {
                benchmark: b.name().to_owned(),
                accuracy_target: 0.99,
            },
            max_epochs: sizes.cloning_epochs,
            dynamic_len: sizes.dynamic_len,
            reference_len: sizes.reference_len,
            seed: 1 + class(seed),
            parallelism: None,
        })
        .collect()
}

/// `store-hit`: [`STORE_HIT_JOBS`] distinct one-epoch clone jobs on the
/// Small core (eight benchmarks × 120 seeds).
#[must_use]
pub fn store_hit(seed: u64) -> Vec<FrameworkConfig> {
    (0..STORE_HIT_JOBS)
        .map(|i| FrameworkConfig {
            core: CoreKind::Small,
            tuner: TunerKind::GradientDescent,
            knob_space: KnobSpaceKind::InstructionFractions,
            use_case: UseCaseConfig::CloneBenchmark {
                benchmark: Benchmark::ALL[i % Benchmark::ALL.len()].name().to_owned(),
                accuracy_target: 0.99,
            },
            max_epochs: 1,
            dynamic_len: 2_000,
            reference_len: 4_000,
            seed: 1_000 * (class(seed) + 1) + (i / Benchmark::ALL.len()) as u64,
            parallelism: None,
        })
        .collect()
}

/// `paper-fast`: `ExperimentSizes::fast()` on two workers.
#[must_use]
pub fn paper_sizes(seed: u64) -> ExperimentSizes {
    ExperimentSizes {
        seed: 7 + class(seed),
        parallelism: Some(2),
        ..ExperimentSizes::fast()
    }
}

/// A platform as the `paper-fast` experiment calls build it.
#[must_use]
pub fn paper_platform(core: CoreConfig, sizes: &ExperimentSizes) -> SimPlatform {
    SimPlatform::new(core)
        .with_dynamic_len(sizes.dynamic_len)
        .with_seed(sizes.seed)
        .with_parallelism(sizes.parallelism)
}

/// The jobs the traced `paper-fast` run serves through the daemon to time
/// the service layers (the suite itself has no service): the Fig. 2 job
/// set at the suite's sizes.
#[must_use]
pub fn paper_service(seed: u64) -> Vec<FrameworkConfig> {
    let sizes = paper_sizes(seed);
    clone_cold(seed)
        .into_iter()
        .map(|config| FrameworkConfig {
            max_epochs: sizes.cloning_epochs,
            dynamic_len: sizes.dynamic_len,
            reference_len: sizes.reference_len,
            seed: sizes.seed,
            parallelism: sizes.parallelism,
            ..config
        })
        .collect()
}

/// FNV-1a 64.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a framework report: every field, every float bit.
#[must_use]
pub fn output_digest(output: &FrameworkOutput) -> u64 {
    let json = serde_json::to_string(output).expect("reports serialize");
    fnv1a(FNV_OFFSET, json.as_bytes())
}

/// Digest of the regenerated Figs. 2–6 and Table III.
#[must_use]
pub fn figures_digest(clone_figs: &[Vec<CloneRow>], stress_figs: &[StressCurves]) -> u64 {
    let mut h = FNV_OFFSET;
    for row in clone_figs.iter().flatten() {
        h = fnv1a(h, row.benchmark.as_bytes());
        for (kind, ratio) in &row.ratios {
            h = fnv1a(h, kind.label().as_bytes());
            h = fnv1a(h, &ratio.to_bits().to_le_bytes());
        }
        h = fnv1a(h, &row.mean_accuracy.to_bits().to_le_bytes());
        h = fnv1a(h, &(row.epochs as u64).to_le_bytes());
        h = fnv1a(h, &(row.evaluations as u64).to_le_bytes());
    }
    for curves in stress_figs {
        for v in curves.gd.iter().chain(&curves.ga) {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
        h = fnv1a(h, &curves.brute_force_optimum.to_bits().to_le_bytes());
        for n in [
            curves.gd_evaluations,
            curves.ga_evaluations,
            curves.brute_evaluations,
        ] {
            h = fnv1a(h, &(n as u64).to_le_bytes());
        }
        let report = serde_json::to_string(&curves.gd_report).expect("reports serialize");
        h = fnv1a(h, report.as_bytes());
    }
    h
}

/// The recorded digests of one workload and seed class (empty when none
/// were recorded).
#[must_use]
pub fn golden(workload: &str, seed: u64) -> Vec<u64> {
    let class = class(seed).to_string();
    include_str!("../golden.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            (fields.next() == Some(workload) && fields.next() == Some(class.as_str())).then(|| {
                fields
                    .filter_map(|hex| u64::from_str_radix(hex, 16).ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_sets_are_distinct_and_seeded() {
        let jobs = store_hit(3);
        let mut prints: Vec<u64> = jobs.iter().map(FrameworkConfig::fingerprint).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), STORE_HIT_JOBS);
        assert_eq!(store_hit(3), store_hit(3 + SEED_CLASSES));
        assert_ne!(clone_cold(3), clone_cold(4));
        assert_eq!(clone_cold(0).len(), 8);
    }

    #[test]
    fn every_seed_class_has_golden_outputs() {
        for seed in 0..SEED_CLASSES {
            assert_eq!(golden("clone-cold", seed).len(), 8, "class {seed}");
            assert_eq!(golden("paper-fast", seed).len(), 1, "class {seed}");
        }
    }
}
