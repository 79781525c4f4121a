//! `microgradd` — the MicroGrad job-server daemon.
//!
//! Binds a TCP address, serves the JSON-lines protocol until a client
//! requests shutdown, and (with `--store`) persists completed reports and
//! the evaluation memo cache across restarts.
//!
//! ```text
//! microgradd [--addr HOST:PORT] [--workers N] [--queue-capacity N] [--store DIR]
//! ```

use micrograd_obs::Sample;
use micrograd_service::{Server, ServerConfig, WakePipe};
use std::process::ExitCode;

/// Minimal async-signal-safe SIGINT/SIGTERM handling (no `signal_hook` in
/// the offline build).  The raw handler performs one nonblocking
/// `write(2)` to a self-pipe ([`WakePipe::notify_raw`]); a watcher thread
/// *blocks* on that pipe — no polling loop, no periodic wakeups — and
/// routes the request through [`Server::request_shutdown`], so Ctrl-C and
/// `kill <pid>` drain exactly like a client-requested shutdown: in-flight
/// jobs finish and the store stays consistent.
#[cfg(unix)]
mod signals {
    use micrograd_service::WakePipe;
    use std::sync::atomic::{AtomicI32, Ordering};

    /// Write end of the signal self-pipe; -1 until installed.
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    type SigHandler = extern "C" fn(i32);
    // SAFETY: `signal(2)` is in every libc this daemon links against, and
    // the declared signature (int, handler-pointer) -> previous-handler
    // matches the C prototype ABI-wise on the supported 64-bit targets.
    unsafe extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> isize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: one atomic load and one write(2) on a
        // nonblocking fd, nothing else.
        WakePipe::notify_raw(WAKE_FD.load(Ordering::Relaxed));
    }

    /// Install handlers for SIGINT (2) and SIGTERM (15), wired to poke
    /// `pipe`.
    pub fn install(pipe: &WakePipe) {
        WAKE_FD.store(pipe.write_end(), Ordering::Relaxed);
        // SAFETY: `on_signal` is async-signal-safe (one relaxed load, one
        // nonblocking write(2), no allocation or locking), and WAKE_FD is
        // stored before the handlers that read it are installed.
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    use micrograd_service::WakePipe;

    pub fn install(_pipe: &WakePipe) {}
}

const USAGE: &str = "\
USAGE:
    microgradd [OPTIONS]

OPTIONS:
    --addr HOST:PORT      Address to bind (default 127.0.0.1:7878; port 0 picks one)
    --workers N           Scheduler worker threads (default 2)
    --queue-capacity N    Bounded job-queue capacity (default 64)
    --store DIR           Durable store directory (default: in-memory only)
    --help                Print this help
";

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_owned(),
        ..ServerConfig::default()
    };
    let mut i = 0;
    while let Some(flag) = args.get(i).map(String::as_str) {
        let value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--addr" => {
                config.addr = value(i)?;
                i += 2;
            }
            "--workers" => {
                config.workers = value(i)?
                    .parse()
                    .map_err(|_| "--workers expects an integer".to_owned())?;
                i += 2;
            }
            "--queue-capacity" => {
                config.queue_capacity = value(i)?
                    .parse()
                    .map_err(|_| "--queue-capacity expects an integer".to_owned())?;
                i += 2;
            }
            "--store" => {
                config.store_dir = Some(value(i)?.into());
                i += 2;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if config.workers == 0 {
        return Err("--workers must be at least 1 for a daemon".to_owned());
    }
    Ok(config)
}

/// Finishes the in-flight jobs, samples the registry (stored reports
/// counted), then stops the server: the exit report covers every job the
/// drain finished.
fn drain(server: Server) -> Vec<Sample> {
    server.scheduler().shutdown();
    let _ = server.scheduler().metrics_text(); // count the stored reports
    let samples = server.scheduler().metrics().samples();
    server.shutdown();
    samples
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("microgradd: {message}");
            }
            eprintln!("{USAGE}");
            return if message.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    let store_desc = config
        .store_dir
        .as_ref()
        .map_or_else(|| "in-memory".to_owned(), |d| d.display().to_string());
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("microgradd: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The CI smoke stage and scripts parse this line for the actual port.
    println!("microgradd listening on {}", server.local_addr());
    println!("microgradd store: {store_desc}");

    // The signal self-pipe: the raw handler pokes it, the watcher thread
    // blocks on it.  An idle daemon sleeps in poll(2) twice over (reactor
    // and watcher) and wakes for events only — never on a timer.
    let signal_pipe = match WakePipe::new() {
        Ok(pipe) => pipe,
        Err(e) => {
            eprintln!("microgradd: failed to set up signal pipe: {e}");
            return ExitCode::FAILURE;
        }
    };
    signals::install(&signal_pipe);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Blocks until a termination signal pokes the pipe (or the
            // main thread does, on a client-requested shutdown, to let
            // this thread exit and the scope join).
            signal_pipe.wait();
            if !server.shutdown_requested() {
                eprintln!("microgradd: caught termination signal, draining");
                server.request_shutdown();
            }
        });
        server.wait_for_shutdown();
        signal_pipe.notify();
    });
    println!("microgradd shutting down (finishing in-flight jobs)");
    let samples = drain(server);
    println!("microgradd final metrics:");
    for sample in &samples {
        match sample.quantiles {
            Some((p50, p95, p99)) => println!(
                "  {} count={} p50={p50} p95={p95} p99={p99}",
                sample.name, sample.value
            ),
            None if sample.value != 0 => println!("  {} {}", sample.name, sample.value),
            None => {}
        }
    }
    let value = |name: &str| {
        samples
            .iter()
            .find(|sample| sample.name == name)
            .map_or(0, |sample| sample.value)
    };
    println!(
        "microgradd served {} submissions ({} executed, {} deduped, {} from store); bye",
        value("micrograd_jobs_submitted_total"),
        value("micrograd_executions_total"),
        value("micrograd_jobs_deduped_total"),
        value("micrograd_store_hits_total")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use micrograd_core::{CoreKind, FrameworkConfig, KnobSpaceKind, MetricKind, StressGoal};
    use micrograd_core::{TunerKind, UseCaseConfig};
    use micrograd_service::{FaultPlan, FaultSite, JobState};
    use std::time::{Duration, Instant};

    #[test]
    fn the_exit_report_covers_a_job_the_drain_finished() {
        let store = std::env::temp_dir().join(format!("microgradd-drain-{}", std::process::id()));
        // Every store write waits, so the job is still running when the
        // shutdown is requested.
        let fault = FaultPlan::new(1)
            .with_fault(FaultSite::StoreDelay, 1.0, u64::MAX)
            .with_write_delay(Duration::from_millis(200));
        let server = Server::start(ServerConfig {
            workers: 1,
            store_dir: Some(store.clone()),
            fault,
            ..ServerConfig::default()
        })
        .expect("server starts");
        let config = FrameworkConfig {
            core: CoreKind::Small,
            tuner: TunerKind::GradientDescent,
            knob_space: KnobSpaceKind::InstructionFractions,
            use_case: UseCaseConfig::Stress {
                metric: MetricKind::Ipc,
                goal: StressGoal::Minimize,
            },
            max_epochs: 1,
            dynamic_len: 2_000,
            reference_len: 2_000,
            ..FrameworkConfig::default()
        };
        let job = server.scheduler().submit(config, 0).expect("accepted").job;
        let start = Instant::now();
        while server.scheduler().status(job) != Some(JobState::Running) {
            assert!(start.elapsed() < Duration::from_secs(60), "job never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        server.request_shutdown();
        let samples = drain(server);
        let _ = std::fs::remove_dir_all(&store);
        let value = |name: &str| {
            samples
                .iter()
                .find(|sample| sample.name == name)
                .map(|sample| sample.value)
        };
        assert_eq!(value("micrograd_jobs_running"), Some(0));
        assert_eq!(value("micrograd_jobs_completed_total"), Some(1));
        assert_eq!(value("micrograd_job_execution_us"), Some(1), "one sample");
        assert_eq!(value("micrograd_stored_reports"), Some(1));
    }
}
