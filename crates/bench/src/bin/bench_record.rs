//! Perf-trajectory recorder: folds criterion JSONL output into the
//! committed `BENCH_simulator.json` history and checks fresh runs against
//! it.
//!
//! The vendored criterion harness appends one JSON line per benchmark to
//! the file named by `CRITERION_JSON` (median sample time plus derived
//! throughput).  This tool maintains the long-lived, committed view:
//!
//! ```text
//! bench_record append --label pr6 --input /tmp/criterion.jsonl \
//!     --history BENCH_simulator.json
//! bench_record check --history BENCH_simulator.json \
//!     --input /tmp/criterion.jsonl --warn-pct 25 \
//!     --require simulator_throughput --require batch_evaluation
//! ```
//!
//! `append` merges the run into the per-benchmark history under `label`
//! (re-appending the same label replaces that label's entry, so re-runs are
//! idempotent).  `check` validates that the history parses and contains
//! every `--require`d group (hard failure, exit 1) and — when `--input` is
//! given — prints a *soft warning* for every benchmark whose fresh median
//! regressed more than `--warn-pct` percent against the last recorded
//! entry.  Warnings never change the exit code: perf noise on shared CI
//! runners must not turn the build red.
//!
//! End-to-end numbers get a trajectory of their own.  Each perfbench run
//! ends with one JSON result line; `e2e` reads a file of such lines, all
//! runs of one workload, and records each end-to-end metric's median,
//! quartiles and run count under `label` in `BENCH_e2e.json` (again, a
//! recorded label is replaced).  Every run must be correct with no failed
//! operation.  `check --e2e` validates that file:
//!
//! ```text
//! bench_record e2e --label prN --workload clone-cold \
//!     --input /tmp/clone-cold.jsonl --history BENCH_e2e.json
//! bench_record check --history BENCH_simulator.json --e2e BENCH_e2e.json
//! ```

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One recorded benchmark measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchEntry {
    /// Where the measurement came from (e.g. a PR tag).
    label: String,
    /// Median wall-clock time per iteration, in nanoseconds.
    median_ns: u64,
    /// Samples the median was taken over.
    samples: u64,
    /// Derived element throughput, when the group declares one.
    #[serde(default)]
    elem_per_s: Option<f64>,
    /// Derived byte throughput, when the group declares one.
    #[serde(default)]
    bytes_per_s: Option<f64>,
}

/// The committed history: benchmark name → chronological entries.
#[derive(Debug, Default, Serialize, Deserialize)]
struct BenchHistory {
    /// Schema version.
    format: u32,
    /// Per-benchmark measurement series, oldest first.
    series: BTreeMap<String, Vec<BenchEntry>>,
}

/// One line of criterion JSONL output.
#[derive(Debug, Deserialize)]
struct JsonlRecord {
    name: String,
    median_ns: u64,
    samples: u64,
    #[serde(default)]
    elem_per_s: Option<f64>,
    #[serde(default)]
    bytes_per_s: Option<f64>,
}

/// One perfbench result line: the last line of a run's standard output.
#[derive(Debug, Deserialize)]
struct RunLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, RunMetric>,
}

/// One end-to-end metric of a perfbench run.
#[derive(Debug, Deserialize)]
struct RunMetric {
    value: f64,
    unit: String,
}

/// One end-to-end metric over the runs recorded under a label.
#[derive(Debug, Serialize, Deserialize)]
struct E2eMetric {
    unit: String,
    median: f64,
    /// Lower and upper quartiles, interpolated between ranks.
    q1: f64,
    q3: f64,
}

/// The runs of one workload recorded under one label.
#[derive(Debug, Serialize, Deserialize)]
struct E2eEntry {
    label: String,
    runs: u64,
    metrics: BTreeMap<String, E2eMetric>,
}

/// The committed end-to-end trajectory: workload → entries, oldest first.
#[derive(Debug, Default, Serialize, Deserialize)]
struct E2eHistory {
    format: u32,
    workloads: BTreeMap<String, Vec<E2eEntry>>,
}

/// Parses every non-blank line of `path` as a `T`.
fn read_lines<T: Deserialize>(path: &str) -> Result<Vec<T>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read input {path}: {e}"))?;
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: bad JSON line: {e}", idx + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// Reads a committed JSON file, or `T::default()` when it does not exist.
fn read_json<T: Deserialize + Default>(path: &str) -> Result<T, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            serde_json::from_str(&text).map_err(|e| format!("history {path} does not parse: {e}"))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(T::default()),
        Err(e) => Err(format!("cannot read history {path}: {e}")),
    }
}

fn write_json<T: Serialize>(path: &str, value: &T) -> Result<(), String> {
    let mut text = serde_json::to_string_pretty(value)
        .map_err(|e| format!("cannot serialize history: {e}"))?;
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write history {path}: {e}"))
}

/// Replaces the entry `same` picks out, else appends `entry`: a re-run
/// label replaces its previous entry, so a list stays one entry per label,
/// oldest first.
fn replace_or_push<T>(list: &mut Vec<T>, entry: T, same: impl Fn(&T) -> bool) {
    match list.iter_mut().find(|e| same(e)) {
        Some(existing) => *existing = entry,
        None => list.push(entry),
    }
}

/// The `q`-quantile of sorted, non-empty `values`, interpolated linearly
/// between the closest ranks.
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let (below, above) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[below] + (sorted[above] - sorted[below]) * (rank - rank.floor())
}

/// Folds the perfbench result lines in `input`, every run of `workload`,
/// into the end-to-end history under `label`.
fn record_e2e(label: &str, workload: &str, input: &str, history_path: &str) -> Result<(), String> {
    let runs: Vec<RunLine> = read_lines(input)?;
    let Some(first) = runs.first() else {
        return Err(format!("input {input} holds no perfbench result lines"));
    };
    for (idx, run) in runs.iter().enumerate() {
        if !run.correct || run.failed > 0 {
            return Err(format!(
                "{input}: run {} is not correct ({} of {} operations failed)",
                idx + 1,
                run.failed,
                run.attempted
            ));
        }
    }
    let mut metrics = BTreeMap::new();
    for (name, metric) in &first.metrics {
        let mut values = runs
            .iter()
            .map(|run| {
                run.metrics
                    .get(name)
                    .filter(|m| m.unit == metric.unit && m.value.is_finite())
                    .map(|m| m.value)
                    .ok_or_else(|| {
                        format!("{input}: not every run reports {name} in {}", metric.unit)
                    })
            })
            .collect::<Result<Vec<f64>, String>>()?;
        values.sort_by(f64::total_cmp);
        metrics.insert(
            name.clone(),
            E2eMetric {
                unit: metric.unit.clone(),
                median: quantile(&values, 0.5),
                q1: quantile(&values, 0.25),
                q3: quantile(&values, 0.75),
            },
        );
    }
    let entry = E2eEntry {
        label: label.to_string(),
        runs: runs.len() as u64,
        metrics,
    };
    let mut history: E2eHistory = read_json(history_path)?;
    history.format = 1;
    let entries = history.workloads.entry(workload.to_string()).or_default();
    replace_or_push(entries, entry, |e| e.label == label);
    write_json(history_path, &history)?;
    println!(
        "recorded {} {workload} runs under label '{label}' into {history_path}",
        runs.len()
    );
    Ok(())
}

/// Validates the end-to-end history: every workload has entries, labels
/// are unique per workload, and every entry has runs and finite metrics
/// with `q1 <= median <= q3`.
fn check_e2e(path: &str) -> Result<(), String> {
    let history: E2eHistory = read_json(path)?;
    if history.format != 1 || history.workloads.is_empty() {
        return Err(format!(
            "{path}: format {} with no workloads",
            history.format
        ));
    }
    let mut entries = 0;
    for (workload, list) in &history.workloads {
        if list.is_empty() {
            return Err(format!("{path}: workload {workload} has no entries"));
        }
        for (idx, entry) in list.iter().enumerate() {
            let what = format!("{path}: {workload} '{}'", entry.label);
            if list[..idx].iter().any(|e| e.label == entry.label) {
                return Err(format!("{what} is recorded twice"));
            }
            if entry.runs == 0 || entry.metrics.is_empty() {
                return Err(format!("{what} has no runs or no metrics"));
            }
            for (name, m) in &entry.metrics {
                let ordered = m.q1 <= m.median && m.median <= m.q3;
                if !(m.q1.is_finite() && m.q3.is_finite() && ordered) {
                    return Err(format!("{what}: {name} is not q1 <= median <= q3"));
                }
            }
            entries += 1;
        }
    }
    println!(
        "{path}: {} workloads, {entries} labelled entries",
        history.workloads.len()
    );
    Ok(())
}

fn append(label: &str, input: &str, history_path: &str) -> Result<(), String> {
    let records: Vec<JsonlRecord> = read_lines(input)?;
    if records.is_empty() {
        return Err(format!("input {input} holds no benchmark records"));
    }
    let mut history: BenchHistory = read_json(history_path)?;
    history.format = 1;
    let count = records.len();
    for record in records {
        let entry = BenchEntry {
            label: label.to_string(),
            median_ns: record.median_ns,
            samples: record.samples,
            elem_per_s: record.elem_per_s,
            bytes_per_s: record.bytes_per_s,
        };
        let series = history.series.entry(record.name).or_default();
        replace_or_push(series, entry, |e| e.label == label);
    }
    write_json(history_path, &history)?;
    println!("recorded {count} benchmarks under label '{label}' into {history_path}");
    Ok(())
}

#[allow(clippy::cast_precision_loss)]
fn check(
    history_path: &str,
    input: Option<&str>,
    warn_pct: f64,
    required: &[String],
    e2e: Option<&str>,
) -> Result<(), String> {
    if let Some(e2e) = e2e {
        check_e2e(e2e)?;
    }
    let history: BenchHistory = read_json(history_path)?;
    if history.series.is_empty() {
        return Err(format!("history {history_path} holds no benchmark series"));
    }
    for group in required {
        let prefix = format!("{group}/");
        let found = history
            .series
            .keys()
            .any(|name| name == group || name.starts_with(&prefix));
        if !found {
            return Err(format!(
                "history {history_path} has no series for required group '{group}'"
            ));
        }
    }
    println!(
        "history {history_path}: {} series, all {} required groups present",
        history.series.len(),
        required.len()
    );

    let Some(input) = input else {
        return Ok(());
    };
    let mut warnings = 0usize;
    for record in read_lines::<JsonlRecord>(input)? {
        let Some(previous) = history.series.get(&record.name).and_then(|s| s.last()) else {
            println!("note: {} has no recorded baseline yet", record.name);
            continue;
        };
        if previous.median_ns == 0 {
            continue;
        }
        let regression_pct = (record.median_ns as f64 - previous.median_ns as f64)
            / previous.median_ns as f64
            * 100.0;
        if regression_pct > warn_pct {
            warnings += 1;
            println!(
                "warning: {} regressed {regression_pct:.1}% vs '{}' \
                 ({} ns -> {} ns median)",
                record.name, previous.label, previous.median_ns, record.median_ns
            );
        }
    }
    if warnings == 0 {
        println!("no median regressions above {warn_pct:.0}%");
    } else {
        println!("{warnings} soft regression warning(s) — not failing the build");
    }
    Ok(())
}

fn usage() -> String {
    "usage:\n  \
     bench_record append --label <label> --input <criterion.jsonl> --history <BENCH.json>\n  \
     bench_record check --history <BENCH.json> [--input <criterion.jsonl>] \
     [--warn-pct <pct>] [--require <group>]... [--e2e <BENCH_e2e.json>]\n  \
     bench_record e2e --label <label> --workload <name> --input <perfbench.jsonl> \
     --history <BENCH_e2e.json>"
        .to_string()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return Err(usage());
    };
    let mut label = None;
    let mut input = None;
    let mut history = None;
    let mut warn_pct = 25.0f64;
    let mut required: Vec<String> = Vec::new();
    let mut workload = None;
    let mut e2e = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--label" => label = Some(value("--label")?),
            "--input" => input = Some(value("--input")?),
            "--history" => history = Some(value("--history")?),
            "--warn-pct" => {
                warn_pct = value("--warn-pct")?
                    .parse()
                    .map_err(|e| format!("bad --warn-pct: {e}"))?;
            }
            "--require" => required.push(value("--require")?),
            "--workload" => workload = Some(value("--workload")?),
            "--e2e" => e2e = Some(value("--e2e")?),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let history = history.ok_or_else(|| format!("--history is required\n{}", usage()))?;
    match command.as_str() {
        "append" => {
            let label = label.ok_or_else(|| format!("--label is required\n{}", usage()))?;
            let input = input.ok_or_else(|| format!("--input is required\n{}", usage()))?;
            append(&label, &input, &history)
        }
        "check" => check(
            &history,
            input.as_deref(),
            warn_pct,
            &required,
            e2e.as_deref(),
        ),
        "e2e" => {
            let label = label.ok_or_else(|| format!("--label is required\n{}", usage()))?;
            let workload =
                workload.ok_or_else(|| format!("--workload is required\n{}", usage()))?;
            let input = input.ok_or_else(|| format!("--input is required\n{}", usage()))?;
            record_e2e(&label, &workload, &input, &history)
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 4.0, 8.0];
        assert_eq!(quantile(&sorted, 0.25), 1.75);
        assert_eq!(quantile(&sorted, 0.5), 3.0);
        assert_eq!(quantile(&sorted, 0.75), 5.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn e2e_labels_replace_their_entry_and_incorrect_runs_are_refused() {
        let dir = std::env::temp_dir().join(format!("bench-record-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("runs.jsonl").to_str().unwrap().to_owned();
        let history = dir.join("BENCH_e2e.json").to_str().unwrap().to_owned();
        let line = |correct: bool, evals: f64| {
            format!(
                r#"{{"correct": {correct}, "attempted": 8, "failed": 0, "metrics": {{"evals_per_s": {{"value": {evals}, "unit": "1/s"}}}}}}"#
            )
        };
        let runs = [line(true, 10.0), line(true, 30.0), line(true, 20.0)];
        std::fs::write(&input, runs.join("\n")).unwrap();
        for label in ["pr1", "pr2", "pr1"] {
            record_e2e(label, "clone-cold", &input, &history).unwrap();
        }
        check_e2e(&history).unwrap();
        let recorded: E2eHistory = read_json(&history).unwrap();
        let entries = &recorded.workloads["clone-cold"];
        assert_eq!(entries.len(), 2, "a re-recorded label replaces its entry");
        let evals = &entries[0].metrics["evals_per_s"];
        assert_eq!((evals.q1, evals.median, evals.q3), (15.0, 20.0, 25.0));
        assert_eq!((entries[0].runs, evals.unit.as_str()), (3, "1/s"));

        std::fs::write(&input, line(false, 10.0)).unwrap();
        assert!(record_e2e("pr3", "clone-cold", &input, &history).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
