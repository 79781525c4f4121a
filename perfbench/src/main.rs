//! The MicroGrad benchmark: end-to-end metrics of three workloads measured
//! at the client, and a traced run that breaks them down by layer.
//!
//! ```text
//! perfbench --workload <clone-cold|store-hit|paper-fast> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --bless     # re-record golden.txt from this build
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`).  Human-readable report lines come first;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  See `README.md` beside this
//! package for the workloads, the metrics and what each should move.

mod heap;
mod jobs;
mod recording;
mod service;
mod stats;
mod timed;
mod traced;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Metric values of one run, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A workload's timed and traced entry points.
type Workload = (&'static str, fn(&Run) -> Outcome, fn(&Run) -> Outcome);

/// The workloads.
const WORKLOADS: [Workload; 3] = [
    ("clone-cold", timed::clone_cold, traced::clone_cold),
    ("store-hit", timed::store_hit, traced::store_hit),
    ("paper-fast", timed::paper_fast, traced::paper_fast),
];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 8] = [
    ("job_p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("evals_per_s", "1/s"),
    ("suite_s", "s"),
    ("clone_accuracy", "ratio"),
    ("clone_evals", "count"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 33] = [
    ("codegen.generate_us", "us"),
    ("codegen.expand_ns_per_instr", "ns"),
    ("sim.replay_ns_per_instr", "ns"),
    ("sim.fused_ns_per_instr", "ns"),
    ("sim.instrs", "count"),
    ("power.estimate_us", "us"),
    ("core.metrics_loss_us", "us"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.memo_hit_us", "us"),
    ("core.single_evals", "count"),
    ("core.batch_size", "count"),
    ("core.batch_dup_ratio", "ratio"),
    ("core.batch_ms", "ms"),
    ("core.tuner_self_ms", "ms"),
    ("core.breakdown_residual", "ratio"),
    ("workloads.reference_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.submit_p99_us", "us"),
    ("service.watch_us", "us"),
    ("service.watch_p99_us", "us"),
    ("service.fetch_us", "us"),
    ("service.fetch_p99_us", "us"),
    ("service.server_request_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.execution_ms", "ms"),
    ("service.store_open_ms", "ms"),
    ("service.store_files", "count"),
    ("service.load_report_us", "us"),
    ("service.load_cache_ms", "ms"),
    ("service.save_cache_ms", "ms"),
    ("service.cache_dump_bytes", "bytes"),
    ("service.report_codec_us", "us"),
    ("service.report_bytes", "bytes"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, experiment calls, checks).
    pub attempted: u64,
    /// Operations that failed or failed a correctness check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Metrics,
    /// Report lines printed before the result.
    pub notes: Vec<String>,
}

/// One run's parameters and scratch space.
pub struct Run {
    /// The workload seed.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: Duration,
    work: PathBuf,
    next_dir: Cell<u32>,
}

impl Run {
    /// A fresh, empty directory under the run's scratch space.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    #[must_use]
    pub fn fresh_dir(&self) -> PathBuf {
        let n = self.next_dir.get();
        self.next_dir.set(n + 1);
        let dir = self.work.join(format!("store-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        dir
    }

    /// Removes a directory made by [`fresh_dir`](Self::fresh_dir).
    pub fn remove(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--bless") {
        bless();
        return;
    }
    let args = parse_args(argv).unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    let Some(&(name, timed_run, traced_run)) = WORKLOADS.iter().find(|w| w.0 == args.workload)
    else {
        eprintln!(
            "perfbench: unknown workload `{}` (expected one of: {})",
            args.workload,
            WORKLOADS.map(|w| w.0).join(", ")
        );
        std::process::exit(2);
    };
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        work: PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id())),
        next_dir: Cell::new(0),
    };
    let mut outcome = if args.trace {
        traced_run(&run)
    } else {
        timed_run(&run)
    };
    let _ = std::fs::remove_dir_all(&run.work);
    let _ = std::fs::remove_dir(".bench_work");

    println!(
        "perfbench {name} seed {} ({}, {} s, {} cpus)",
        args.seed,
        if args.trace { "traced" } else { "timed" },
        args.seconds,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut entries = Vec::new();
    for &(metric, unit) in table {
        let value = outcome.metrics.remove(metric).unwrap_or(f64::NAN);
        println!("{metric:<30} {value:>16.6} {unit}");
        if !value.is_finite() {
            outcome.failed += 1;
            println!("  {metric} was not measured");
        }
        let value = if value.is_finite() { value } else { 0.0 };
        entries.push(format!(
            "\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    assert!(
        outcome.metrics.is_empty(),
        "metrics missing from the table: {:?}",
        outcome.metrics.keys()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        entries.join(", ")
    );
}

/// Re-records `golden.txt`: the in-process `clone-cold` reports and the
/// `paper-fast` figures of every seed class, from this build.
fn bless() {
    let classes: Vec<u64> = (0..jobs::SEED_CLASSES).collect();
    let clone_cold: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = classes
            .chunks(classes.len() / 2)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&class| {
                            let digests: Vec<String> = jobs::clone_cold(class)
                                .into_iter()
                                .map(|config| {
                                    let output = micrograd_core::MicroGrad::new(config)
                                        .run()
                                        .expect("clone job succeeds");
                                    format!("{:016x}", jobs::output_digest(&output))
                                })
                                .collect();
                            format!("clone-cold {class} {}", digests.join(" "))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("bless thread"))
            .collect()
    });
    let paper_fast = classes.iter().map(|&class| {
        let (clone_figs, stress_figs, _) = timed::paper_suite(&jobs::paper_sizes(class));
        format!(
            "paper-fast {class} {:016x}",
            jobs::figures_digest(&clone_figs, &stress_figs)
        )
    });
    let mut text = String::from(
        "# Golden outputs: `<workload> <seed class> <digest>...`, recorded by\n\
         # `perfbench --bless`.  clone-cold: one FNV-1a digest per job report;\n\
         # paper-fast: one digest of Figs. 2-6 and Table III.\n",
    );
    for line in clone_cold.into_iter().chain(paper_fast) {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write("perfbench/golden.txt", text).expect("write perfbench/golden.txt");
    println!("recorded perfbench/golden.txt");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one `BENCHMARK.json` list, in file order.
    fn declared(list: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).map(|i| &entry[i..])?;
                    let value = at.split('"').nth(3)?;
                    Some(value.to_owned())
                };
                (
                    field("name").expect("name"),
                    field("unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    fn table(entries: &[(&str, &str)]) -> Vec<(String, String)> {
        entries
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), table(&END_TO_END));
        assert_eq!(declared("per_layer"), table(&PER_LAYER));
        // Every declared workload runs; `store-hit` runs but is not
        // declared (README.md: too unsteady on shared hosts to gate on).
        let declared: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        let runnable: Vec<String> = WORKLOADS
            .iter()
            .map(|w| w.0.to_owned())
            .filter(|w| w != "store-hit")
            .collect();
        assert_eq!(declared, runnable);
    }

    #[test]
    fn arguments_parse_and_reject_unknown_flags() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let ok = args("--workload store-hit --seed 4 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds),
            ("store-hit", 4, 10)
        );
        assert!(ok.trace);
        assert!(args("--workload x --seed 1 --seconds 1").is_err());
        assert!(args("--workload x --seed one --seconds 1 --trace 0").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
