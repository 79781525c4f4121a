//! `micrograd-cli` — command-line client for `microgradd`.
//!
//! ```text
//! micrograd-cli [--addr HOST:PORT] submit <config.json|-> [--priority N] [--wait] [--timeout-secs N]
//! micrograd-cli [--addr HOST:PORT] status <job>
//! micrograd-cli [--addr HOST:PORT] fetch <job>
//! micrograd-cli [--addr HOST:PORT] list
//! micrograd-cli [--addr HOST:PORT] metrics
//! micrograd-cli [--addr HOST:PORT] trace <job>
//! micrograd-cli [--addr HOST:PORT] shutdown
//! ```

use micrograd_core::FrameworkConfig;
use micrograd_service::{Client, JobState};
use std::io::Read;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
USAGE:
    micrograd-cli [--addr HOST:PORT] <COMMAND>

COMMANDS:
    submit <config.json|->   Submit a framework job (config file, or `-` for stdin)
        --priority N         Scheduling priority, higher runs earlier (default 0)
        --deadline-secs N    Server-side deadline; the job times out after N seconds
        --wait               Block until the job finishes, then print the report
        --timeout-secs N     Give up waiting after N seconds (default 600)
    status <job>             Print a job's state
    fetch <job>              Print a completed job's report as JSON
    list                     List all jobs
    metrics                  Scrape the metrics registry (Prometheus text format)
    trace <job>              Print a job's stage-by-stage timeline
    shutdown                 Ask the daemon to shut down gracefully

OPTIONS:
    --addr HOST:PORT         Daemon address (default 127.0.0.1:7878)
";

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("micrograd-cli: {message}");
    ExitCode::FAILURE
}

fn usage_error(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("micrograd-cli: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_job(arg: Option<&String>) -> Result<u64, String> {
    arg.ok_or_else(|| "expected a job id".to_owned())?
        .parse()
        .map_err(|_| "job id must be an integer".to_owned())
}

fn read_config(path: &str) -> Result<FrameworkConfig, String> {
    let text = if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        text
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?
    };
    FrameworkConfig::from_json(&text).map_err(|e| e.to_string())
}

fn run(args: &[String]) -> Result<(), ExitCode> {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        match arg.as_str() {
            "--addr" => {
                addr = args
                    .get(i + 1)
                    .cloned()
                    .ok_or_else(|| usage_error("--addr requires a value"))?;
                i += 2;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            _ => {
                rest.push(arg.clone());
                i += 1;
            }
        }
    }
    let Some(command) = rest.first() else {
        return Err(usage_error("expected a command"));
    };

    let mut client =
        Client::connect(&addr).map_err(|e| fail(format_args!("cannot connect to {addr}: {e}")))?;

    match command.as_str() {
        "submit" => {
            let Some(path) = rest.get(1) else {
                return Err(usage_error("submit expects a config file path or `-`"));
            };
            let mut priority = 0i64;
            let mut deadline_ms = None;
            let mut wait = false;
            let mut timeout = Duration::from_secs(600);
            let mut j = 2;
            while let Some(flag) = rest.get(j).map(String::as_str) {
                match flag {
                    "--priority" => {
                        priority = rest
                            .get(j + 1)
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| usage_error("--priority expects an integer"))?;
                        j += 2;
                    }
                    "--deadline-secs" => {
                        let secs: u64 = rest
                            .get(j + 1)
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| usage_error("--deadline-secs expects an integer"))?;
                        deadline_ms = Some(secs.saturating_mul(1_000));
                        j += 2;
                    }
                    "--wait" => {
                        wait = true;
                        j += 1;
                    }
                    "--timeout-secs" => {
                        timeout = rest
                            .get(j + 1)
                            .and_then(|v| v.parse().ok())
                            .map(Duration::from_secs)
                            .ok_or_else(|| usage_error("--timeout-secs expects an integer"))?;
                        j += 2;
                    }
                    other => return Err(usage_error(format_args!("unknown option `{other}`"))),
                }
            }
            let config = read_config(path).map_err(fail)?;
            let receipt = client
                .submit_with_deadline(&config, priority, deadline_ms)
                .map_err(fail)?;
            println!(
                "job {} submitted (deduped: {}, cached: {})",
                receipt.job, receipt.deduped, receipt.cached
            );
            if wait {
                let state = client.wait(receipt.job, timeout).map_err(fail)?;
                match state {
                    JobState::Failed { error } => {
                        return Err(fail(format_args!("job {} failed: {error}", receipt.job)));
                    }
                    JobState::TimedOut => {
                        return Err(fail(format_args!(
                            "job {} timed out (server-side deadline)",
                            receipt.job
                        )));
                    }
                    _ => {}
                }
                let output = client.fetch(receipt.job).map_err(fail)?;
                println!(
                    "{}",
                    serde_json::to_string_pretty(&output).unwrap_or_default()
                );
            }
            Ok(())
        }
        "status" => {
            let job = parse_job(rest.get(1)).map_err(usage_error)?;
            // A zero-budget watch answers with the current state at once.
            let state = client.watch(job, Some(0)).map_err(fail)?;
            println!("job {job}: {state}");
            Ok(())
        }
        "fetch" => {
            let job = parse_job(rest.get(1)).map_err(usage_error)?;
            let output = client.fetch(job).map_err(fail)?;
            println!(
                "{}",
                serde_json::to_string_pretty(&output).unwrap_or_default()
            );
            Ok(())
        }
        "list" => {
            let jobs = client.list().map_err(fail)?;
            if jobs.is_empty() {
                println!("no jobs");
                return Ok(());
            }
            println!(
                "{:>6}  {:>8}  {:<18}  {:<16}  state",
                "job", "priority", "use case", "fingerprint"
            );
            for job in jobs {
                println!(
                    "{:>6}  {:>8}  {:<18}  {:016x}  {}",
                    job.job, job.priority, job.use_case, job.fingerprint, job.state
                );
            }
            Ok(())
        }
        "metrics" => {
            let text = client.metrics().map_err(fail)?;
            print!("{text}");
            Ok(())
        }
        "trace" => {
            let job = parse_job(rest.get(1)).map_err(usage_error)?;
            let timeline = client.trace(job).map_err(fail)?;
            print!("{}", timeline.render());
            Ok(())
        }
        "shutdown" => {
            client.shutdown().map_err(fail)?;
            println!("server is shutting down");
            Ok(())
        }
        other => Err(usage_error(format_args!("unknown command `{other}`"))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
