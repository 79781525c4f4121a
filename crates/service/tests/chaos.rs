//! Chaos tests: the service path under every injected fault class.
//!
//! Each test drives a real daemon (`Server::start` on an ephemeral
//! loopback port) with a deterministic [`FaultPlan`] and asserts the two
//! resilience invariants the fault-injection framework exists to protect:
//!
//! 1. **Clean terminal states** — no fault leaves a job `Running` forever,
//!    poisons the dedup table, or kills the daemon.
//! 2. **Bit-identical recovery** — after the fault clears (retry, restart,
//!    quarantine), resubmitting the same configuration produces a report
//!    byte-for-byte equal to a fault-free in-process run.
//!
//! Fault plans are seeded so every run is replayable; set
//! `MICROGRAD_CHAOS_SEED` to sweep different plans (CI runs two seeds).

mod common;

use common::series;
use micrograd_core::{
    CoreKind, FrameworkConfig, KnobSpaceKind, MetricKind, MicroGrad, StressGoal, TunerKind,
    UseCaseConfig,
};
use micrograd_service::{
    Client, FaultPlan, FaultSite, JobState, RetryPolicy, Server, ServerConfig,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Generous bound for one tiny tuning job; polling returns far earlier.
const JOB_TIMEOUT: Duration = Duration::from_secs(300);

/// The fault-plan seed: fixed by default so failures replay, overridable
/// so CI can demonstrate the invariants hold across different plans.
fn chaos_seed() -> u64 {
    std::env::var("MICROGRAD_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE)
}

/// A unique, self-cleaning scratch directory (no `tempfile` in the
/// offline build; integration tests cannot see the crate's private
/// test helpers).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        ScratchDir(std::env::temp_dir().join(format!(
            "micrograd-chaos-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn stress_config(seed: u64) -> FrameworkConfig {
    FrameworkConfig {
        core: CoreKind::Small,
        tuner: TunerKind::GradientDescent,
        knob_space: KnobSpaceKind::InstructionFractions,
        use_case: UseCaseConfig::Stress {
            metric: MetricKind::Ipc,
            goal: StressGoal::Minimize,
        },
        max_epochs: 2,
        dynamic_len: 3_000,
        reference_len: 3_000,
        seed,
        ..FrameworkConfig::default()
    }
}

/// The fault-free ground truth: an in-process run of the same config,
/// canonically serialized.  Every recovery path must converge to these
/// exact bytes.
fn baseline_bytes(config: &FrameworkConfig) -> String {
    let output = MicroGrad::new(config.clone())
        .run()
        .expect("fault-free local run succeeds");
    serde_json::to_string(&output).expect("report serializes")
}

fn start_server(store_dir: Option<PathBuf>, fault: FaultPlan) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(), // ephemeral port
        workers: 2,
        queue_capacity: 32,
        store_dir,
        fault,
    })
    .expect("server binds an ephemeral loopback port")
}

/// Submit → wait → fetch, asserting the job completes; returns the
/// report's canonical JSON bytes.
fn run_to_done(client: &mut Client, config: &FrameworkConfig) -> String {
    let receipt = client.submit(config, 0).expect("submit accepted");
    let state = client
        .wait(receipt.job, JOB_TIMEOUT)
        .expect("polling succeeds");
    assert_eq!(state, JobState::Done, "job completes");
    let output = client.fetch(receipt.job).expect("report fetchable");
    serde_json::to_string(&output).expect("report serializes")
}

#[test]
fn expired_deadline_times_out_cleanly_and_resubmission_recovers() {
    let config = stress_config(chaos_seed());
    let baseline = baseline_bytes(&config);

    let server = start_server(None, FaultPlan::none());
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    // A zero deadline is already expired at admission: the job must reach
    // `TimedOut` without wedging a worker.
    let receipt = client
        .submit_with_deadline(&config, 0, Some(0))
        .expect("submit accepted");
    let state = client
        .wait(receipt.job, JOB_TIMEOUT)
        .expect("polling succeeds");
    assert_eq!(state, JobState::TimedOut, "expired deadline surfaces");

    // Fetching a timed-out job is a server error naming the state, not a
    // hang or a disconnect.
    let fetch = client.fetch(receipt.job);
    assert!(fetch.is_err(), "timed-out jobs have no report");

    // The timeout must not poison the dedup table: the same configuration,
    // resubmitted without a deadline, runs fresh and matches the baseline.
    let retry = client.submit(&config, 0).expect("resubmit accepted");
    assert!(!retry.deduped, "terminal TimedOut is not a dedup target");
    assert_ne!(retry.job, receipt.job);
    let state = client
        .wait(retry.job, JOB_TIMEOUT)
        .expect("polling succeeds");
    assert_eq!(state, JobState::Done);
    let output = client.fetch(retry.job).expect("report fetchable");
    assert_eq!(
        serde_json::to_string(&output).unwrap(),
        baseline,
        "recovered report is bit-identical to the fault-free run"
    );

    let text = client.metrics().expect("metrics scrape succeeds");
    assert_eq!(series(&text, "micrograd_jobs_timed_out_total"), 1);
    assert_eq!(series(&text, "micrograd_jobs_completed_total"), 1);
    assert_eq!(series(&text, "micrograd_jobs_failed_total"), 0);
    server.shutdown();
}

#[test]
fn injected_worker_panic_fails_one_job_and_the_retry_matches_baseline() {
    let config = stress_config(chaos_seed().wrapping_add(1));
    let baseline = baseline_bytes(&config);

    // Exactly one injected panic: the first execution dies, the retry is
    // fault-free.
    let plan = FaultPlan::new(chaos_seed()).with_fault(FaultSite::WorkerPanic, 1.0, 1);
    let server = start_server(None, plan);
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    let receipt = client.submit(&config, 0).expect("submit accepted");
    let state = client
        .wait(receipt.job, JOB_TIMEOUT)
        .expect("polling succeeds");
    match state {
        JobState::Failed { error } => {
            assert!(error.contains("injected fault"), "got: {error}");
        }
        other => panic!("expected the injected panic to fail the job, got {other:?}"),
    }

    // The worker survived the panic (catch_unwind) and the failed job is
    // not a dedup target: the resubmission executes and matches.
    let bytes = run_to_done(&mut client, &config);
    assert_eq!(bytes, baseline, "retry is bit-identical to fault-free run");

    let text = client.metrics().expect("metrics scrape succeeds");
    assert_eq!(series(&text, "micrograd_jobs_failed_total"), 1);
    assert_eq!(series(&text, "micrograd_jobs_completed_total"), 1);
    server.shutdown();
}

#[test]
fn store_write_faults_degrade_to_memory_and_a_restart_recomputes() {
    let scratch = ScratchDir::new("write-fault");
    let config = stress_config(chaos_seed().wrapping_add(2));
    let baseline = baseline_bytes(&config);

    // Every store write fails: the daemon must degrade to serving from
    // memory, not fail the job.
    {
        let plan = FaultPlan::new(chaos_seed()).with_fault(FaultSite::StoreWrite, 1.0, 64);
        let server = start_server(Some(scratch.path().to_path_buf()), plan);
        let mut client = Client::connect(server.local_addr()).expect("client connects");
        let bytes = run_to_done(&mut client, &config);
        assert_eq!(bytes, baseline, "in-memory report still bit-identical");
        server.shutdown();
    }

    // Nothing reached disk, so a restarted daemon re-executes — and lands
    // on the same bytes.
    let report_files = std::fs::read_dir(scratch.path())
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("report-"))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(report_files, 0, "write faults kept reports off disk");

    let server = start_server(Some(scratch.path().to_path_buf()), FaultPlan::none());
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let receipt = client.submit(&config, 0).expect("submit accepted");
    assert!(!receipt.cached, "no durable report survived the faults");
    let state = client
        .wait(receipt.job, JOB_TIMEOUT)
        .expect("polling succeeds");
    assert_eq!(state, JobState::Done);
    let output = client.fetch(receipt.job).expect("report fetchable");
    assert_eq!(
        serde_json::to_string(&output).unwrap(),
        baseline,
        "recomputed report is bit-identical"
    );
    server.shutdown();
}

#[test]
fn truncated_store_files_are_quarantined_on_restart_and_recomputed() {
    let scratch = ScratchDir::new("truncate");
    let config = stress_config(chaos_seed().wrapping_add(3));
    let baseline = baseline_bytes(&config);

    // Truncation commits a damaged half-file (modeling a crash between
    // write and fsync) and reports the failure to the writer.
    {
        let plan = FaultPlan::new(chaos_seed()).with_fault(FaultSite::StoreTruncate, 1.0, 64);
        let server = start_server(Some(scratch.path().to_path_buf()), plan);
        let mut client = Client::connect(server.local_addr()).expect("client connects");
        let bytes = run_to_done(&mut client, &config);
        assert_eq!(bytes, baseline, "job unaffected by the store damage");
        server.shutdown();
    }

    // The restarted daemon's recovery scan must quarantine the damaged
    // files instead of crashing or serving garbage.
    let server = start_server(Some(scratch.path().to_path_buf()), FaultPlan::none());
    let store = server.scheduler().store();
    assert!(
        store.quarantined_count() >= 1,
        "recovery scan quarantines damaged files (got {})",
        store.quarantined_count()
    );
    let quarantine = store.quarantine_dir().expect("durable store has a dir");
    let quarantined_files = std::fs::read_dir(&quarantine)
        .expect("quarantine directory exists")
        .filter_map(Result::ok)
        .count();
    assert!(quarantined_files >= 1, "damaged files moved, not deleted");

    // With the damage quarantined, the same submission recomputes and
    // persists a good copy this time.
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let receipt = client.submit(&config, 0).expect("submit accepted");
    assert!(!receipt.cached, "damaged report is not served");
    let state = client
        .wait(receipt.job, JOB_TIMEOUT)
        .expect("polling succeeds");
    assert_eq!(state, JobState::Done);
    let output = client.fetch(receipt.job).expect("report fetchable");
    assert_eq!(serde_json::to_string(&output).unwrap(), baseline);
    server.shutdown();

    // Third lifetime: the recomputed report survived intact, so now the
    // store answers without executing.
    let server = start_server(Some(scratch.path().to_path_buf()), FaultPlan::none());
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let receipt = client.submit(&config, 0).expect("submit accepted");
    assert!(receipt.cached, "healed store serves from disk");
    let output = client.fetch(receipt.job).expect("report fetchable");
    assert_eq!(serde_json::to_string(&output).unwrap(), baseline);
    server.shutdown();
}

#[test]
fn mid_line_connection_drop_is_survived_by_retrying_clients() {
    let config = stress_config(chaos_seed().wrapping_add(4));
    let baseline = baseline_bytes(&config);

    // The first response write is cut mid-line; the session is gone.
    let plan = FaultPlan::new(chaos_seed()).with_fault(FaultSite::ConnectionDrop, 1.0, 1);
    let server = start_server(None, plan);

    // A plain client observes the drop as a hard (but classified) error…
    let mut naive = Client::connect(server.local_addr()).expect("client connects");
    let err = naive
        .submit(&config, 0)
        .expect_err("dropped connection surfaces");
    assert!(
        err.to_string().contains("closed the connection"),
        "drop is classified as a connection loss, got: {err}"
    );

    // …and the retrying path reconnects and resubmits.  The server
    // processed the first submit before the write died, so the replay
    // dedups onto the job that is already running — idempotent by
    // fingerprint.
    let policy = RetryPolicy {
        retries: 5,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        jitter_seed: chaos_seed(),
    };
    let receipt = naive
        .submit_with_retry(&config, 0, None, &policy)
        .expect("retry path survives the drop");
    let state = naive
        .wait(receipt.job, JOB_TIMEOUT)
        .expect("polling succeeds");
    assert_eq!(state, JobState::Done);
    let output = naive.fetch(receipt.job).expect("report fetchable");
    assert_eq!(
        serde_json::to_string(&output).unwrap(),
        baseline,
        "report after reconnect is bit-identical"
    );

    // Exactly one execution: the replayed submit did not double-run.
    let text = naive.metrics().expect("metrics scrape succeeds");
    assert_eq!(
        series(&text, "micrograd_executions_total"),
        1,
        "resubmission deduped, not re-run"
    );
    server.shutdown();
}

#[test]
fn queue_full_rejections_carry_retry_hints_and_clear() {
    let config = stress_config(chaos_seed().wrapping_add(5));

    // A one-slot queue with slow-ish jobs: concurrent distinct submissions
    // must see machine-readable back-pressure, never a dropped session.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_capacity: 1,
        store_dir: None,
        ..ServerConfig::default()
    })
    .expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    // Fill the queue far faster than one worker drains it; collect at
    // least one Busy rejection.
    let mut busy_seen = false;
    let mut accepted = Vec::new();
    for i in 0..16 {
        match client.submit(&stress_config(1_000 + i), 0) {
            Ok(receipt) => accepted.push(receipt.job),
            Err(micrograd_service::ClientError::Busy {
                retry_after,
                message,
            }) => {
                assert!(retry_after > Duration::ZERO, "hint present: {message}");
                busy_seen = true;
            }
            Err(other) => panic!("queue pressure must be Busy, got {other}"),
        }
    }
    assert!(busy_seen, "a 1-slot queue under burst load rejects");
    assert!(!accepted.is_empty(), "some submissions land");

    // Back-pressure clears: every accepted job reaches a terminal state,
    // and a patient retrying submit eventually gets through.
    for job in accepted {
        let state = client.wait(job, JOB_TIMEOUT).expect("polling");
        assert_eq!(state, JobState::Done);
    }
    let receipt = client
        .submit_with_retry(&config, 0, None, &RetryPolicy::default())
        .expect("retry absorbs transient queue-full");
    let state = client
        .wait(receipt.job, JOB_TIMEOUT)
        .expect("polling succeeds");
    assert_eq!(state, JobState::Done);
    server.shutdown();
}
