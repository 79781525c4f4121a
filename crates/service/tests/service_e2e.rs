//! End-to-end tests of the service subsystem over real TCP connections.
//!
//! These drive a full in-process daemon (`Server::start` on an ephemeral
//! loopback port) through the public [`Client`], covering the acceptance
//! path of the job-server subsystem: submit → poll → fetch for both the
//! clone and stress use cases, N-client concurrent submission collapsing
//! onto one execution with bit-identical reports, and a daemon restart
//! answering a repeat submission from the durable store — again
//! bit-identically.

mod common;

use common::series;
use micrograd_core::{
    CoreKind, FrameworkConfig, KnobSpaceKind, MetricKind, Metrics, MicroGrad, StressGoal,
    TunerKind, UseCaseConfig,
};
use micrograd_service::{Client, ClientError, JobState, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Generous bound for one tiny tuning job; polling returns far earlier.
const JOB_TIMEOUT: Duration = Duration::from_secs(300);

/// A unique, self-cleaning scratch directory (no `tempfile` in the
/// offline build; integration tests cannot see the crate's private
/// test helpers).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        ScratchDir(std::env::temp_dir().join(format!(
            "micrograd-e2e-{tag}-{}-{}",
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

fn clone_config(seed: u64) -> FrameworkConfig {
    FrameworkConfig {
        core: CoreKind::Small,
        tuner: TunerKind::GradientDescent,
        knob_space: KnobSpaceKind::Full,
        use_case: UseCaseConfig::CloneMetrics {
            name: "e2e-target".to_owned(),
            target: Metrics::new()
                .with(MetricKind::IntegerFraction, 0.4)
                .with(MetricKind::LoadFraction, 0.25)
                .with(MetricKind::Ipc, 1.1),
            accuracy_target: 0.9,
        },
        max_epochs: 2,
        dynamic_len: 3_000,
        reference_len: 3_000,
        seed,
        ..FrameworkConfig::default()
    }
}

fn start_server(store_dir: Option<PathBuf>) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(), // ephemeral port
        workers: 2,
        queue_capacity: 32,
        store_dir,
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral loopback port")
}

/// The full submit → poll → fetch round-trip over TCP for one config;
/// returns the report's canonical JSON bytes (the bit-identity witness).
fn submit_poll_fetch(client: &mut Client, config: &FrameworkConfig) -> (u64, String) {
    let receipt = client.submit(config, 0).expect("submit accepted");
    assert!(!receipt.cached, "first submission must execute");
    let state = client
        .wait(receipt.job, JOB_TIMEOUT)
        .expect("polling succeeds");
    assert_eq!(state, JobState::Done, "job completes");
    let output = client.fetch(receipt.job).expect("report fetchable");
    let bytes = serde_json::to_string(&output).expect("report serializes");
    (receipt.job, bytes)
}

#[test]
fn daemon_serves_submit_poll_fetch_for_clone_and_stress() {
    let server = start_server(None);
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    let (stress_job, stress_bytes) = submit_poll_fetch(&mut client, &stress_config(1));
    assert!(stress_bytes.contains("\"stress\""), "got: {stress_bytes}");

    let (clone_job, clone_bytes) = submit_poll_fetch(&mut client, &clone_config(2));
    assert_ne!(clone_job, stress_job);
    assert!(clone_bytes.contains("\"clone\""), "got: {clone_bytes}");

    // The same session also serves list and metrics.
    let jobs = client.list().expect("list succeeds");
    assert_eq!(jobs.len(), 2);
    assert!(jobs.iter().any(|j| j.use_case == "stress"));
    assert!(jobs.iter().any(|j| j.use_case == "clone-metrics"));
    assert!(jobs.iter().all(|j| j.state == JobState::Done));

    let text = client.metrics().expect("metrics scrape succeeds");
    assert_eq!(series(&text, "micrograd_jobs_submitted_total"), 2);
    assert_eq!(series(&text, "micrograd_executions_total"), 2);
    assert_eq!(series(&text, "micrograd_jobs_completed_total"), 2);
    assert_eq!(series(&text, "micrograd_workers"), 2);
    assert!(
        series(&text, "micrograd_cache_hits") + series(&text, "micrograd_cache_misses") > 0,
        "executed jobs surface memo-cache counters:\n{text}"
    );

    // Server-side report equals an in-process run of the same config —
    // the service is a transport, not a different computation.
    let local = MicroGrad::new(stress_config(1)).run().expect("local run");
    assert_eq!(
        serde_json::to_string(&local).unwrap(),
        stress_bytes,
        "service and library runs are bit-identical"
    );

    server.shutdown();
}

#[test]
fn concurrent_identical_submissions_run_once_and_match_bitwise() {
    const CLIENTS: usize = 6;
    let server = start_server(None);
    let addr = server.local_addr();
    let config = stress_config(7);

    let results: Vec<(u64, bool, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let config = &config;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let receipt = client.submit(config, 0).expect("submit accepted");
                    let state = client
                        .wait(receipt.job, JOB_TIMEOUT)
                        .expect("polling succeeds");
                    assert_eq!(state, JobState::Done);
                    let output = client.fetch(receipt.job).expect("report fetchable");
                    let bytes = serde_json::to_string(&output).unwrap();
                    (receipt.job, receipt.deduped, bytes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread completes"))
            .collect()
    });

    // All clients observe the same job, exactly one submission was fresh,
    // and every fetched report is byte-for-byte identical.
    let job = results[0].0;
    assert!(results.iter().all(|(id, _, _)| *id == job));
    assert_eq!(
        results.iter().filter(|(_, deduped, _)| !deduped).count(),
        1,
        "exactly one submission creates the job"
    );
    let reference = &results[0].2;
    assert!(results.iter().all(|(_, _, bytes)| bytes == reference));

    let mut client = Client::connect(addr).expect("client connects");
    let text = client.metrics().expect("metrics scrape succeeds");
    assert_eq!(
        series(&text, "micrograd_jobs_submitted_total"),
        CLIENTS as u64
    );
    assert_eq!(
        series(&text, "micrograd_jobs_deduped_total"),
        CLIENTS as u64 - 1
    );
    assert_eq!(
        series(&text, "micrograd_executions_total"),
        1,
        "one execution for {CLIENTS} clients"
    );

    server.shutdown();
}

#[test]
fn restarted_daemon_answers_repeat_jobs_from_the_durable_store() {
    let scratch = ScratchDir::new("restart");
    let store_dir = scratch.path().to_path_buf();

    // First daemon lifetime: run one clone and one stress job.
    let (first_clone, first_stress) = {
        let server = start_server(Some(store_dir.clone()));
        let mut client = Client::connect(server.local_addr()).expect("client connects");
        let (_, clone_bytes) = submit_poll_fetch(&mut client, &clone_config(3));
        let (_, stress_bytes) = submit_poll_fetch(&mut client, &stress_config(4));
        // A client-requested shutdown, the daemon's normal exit path.
        client.shutdown().expect("shutdown acknowledged");
        server.wait_for_shutdown();
        server.shutdown();
        (clone_bytes, stress_bytes)
    };

    // A lifetime leaves results only: a report per job and the cache
    // dumps, nothing keyed by a job id that the next lifetime reuses.
    let names: Vec<String> = std::fs::read_dir(&store_dir)
        .expect("store directory readable")
        .map(|entry| entry.expect("store entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().all(|name| {
            (name.starts_with("report-") || name.starts_with("cache-")) && name.ends_with(".json")
        }),
        "store files: {names:?}"
    );
    let reports = names.iter().filter(|name| name.starts_with("report-"));
    assert_eq!(reports.count(), 2, "store files: {names:?}");

    // Restarted daemon over the same store directory: identical
    // submissions are answered from disk without executing, and the
    // reports are bit-identical to the first lifetime's.
    let server = start_server(Some(store_dir));
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    for (config, first_bytes) in [
        (clone_config(3), &first_clone),
        (stress_config(4), &first_stress),
    ] {
        let receipt = client.submit(&config, 0).expect("submit accepted");
        assert!(receipt.cached, "answered from the durable store");
        assert!(!receipt.deduped);
        let output = client.fetch(receipt.job).expect("report fetchable");
        assert_eq!(
            &serde_json::to_string(&output).unwrap(),
            first_bytes,
            "stored report is bit-identical to the original run"
        );
    }
    let text = client.metrics().expect("metrics scrape succeeds");
    assert_eq!(
        series(&text, "micrograd_executions_total"),
        0,
        "nothing re-executed after restart"
    );
    assert_eq!(series(&text, "micrograd_store_hits_total"), 2);
    assert_eq!(series(&text, "micrograd_stored_reports"), 2);
    server.shutdown();
}

#[test]
fn metrics_scrape_and_job_timelines_cover_the_whole_pipeline() {
    let scratch = ScratchDir::new("obs");
    let server = start_server(Some(scratch.path().to_path_buf()));
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    let (job, _) = submit_poll_fetch(&mut client, &stress_config(11));

    // The Prometheus scrape reports every layer: scheduler counters,
    // request series, latency histograms with buckets, reactor gauges.
    let text = client.metrics().expect("metrics scrape succeeds");
    for family in [
        "# TYPE micrograd_jobs_submitted_total counter",
        "micrograd_jobs_submitted_total 1",
        "micrograd_jobs_completed_total 1",
        "micrograd_executions_total 1",
        "micrograd_requests_total{op=\"submit\"} 1",
        "micrograd_request_duration_us_bucket",
        "micrograd_job_queue_wait_us_count 1",
        "micrograd_job_execution_us_count 1",
        "micrograd_job_total_us_count 1",
        "micrograd_epochs_total",
        "micrograd_reactor_connections_open 1",
        "micrograd_stored_reports 1",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }

    // The job's timeline walks the full pipeline in order, with at least
    // one per-epoch execution mark.
    let timeline = client.trace(job).expect("timeline recorded");
    assert_eq!(timeline.job, job);
    let stages: Vec<&str> = timeline.marks.iter().map(|m| m.stage.as_str()).collect();
    for stage in [
        "received",
        "queued",
        "dequeued",
        "executing",
        "persisted",
        "completed",
    ] {
        assert!(stages.contains(&stage), "missing `{stage}` in {stages:?}");
    }
    let epochs = stages.iter().filter(|s| **s == "epoch").count();
    assert_eq!(epochs, 2, "one mark per tuner epoch: {stages:?}");
    let rendered = timeline.render();
    assert!(rendered.contains("persisted"), "render: {rendered}");

    // Offsets are monotonic: the sink sorts by time, and every stage
    // happened after admission.
    assert!(timeline
        .marks
        .windows(2)
        .all(|w| w[0].offset_ns <= w[1].offset_ns));

    // An unknown job is a server error, not a protocol failure, worded
    // as `fetch` and `watch` word it.
    match client.trace(9_999) {
        Err(ClientError::Server(message)) => assert_eq!(message, "unknown job 9999"),
        other => panic!("expected an unknown-job error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn malformed_and_mismatched_lines_get_error_responses_not_disconnects() {
    let server = start_server(None);
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    // Garbage line: an error response, and the session stays open.
    writer.write_all(b"{this is not json\n").unwrap();
    writer.flush().unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"error\""), "got: {line}");
    assert!(line.contains("malformed"), "got: {line}");

    // Wrong protocol version: an error naming both versions.
    line.clear();
    writer
        .write_all(b"{\"proto\":99,\"body\":{\"op\":\"list\"}}\n")
        .unwrap();
    writer.flush().unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("version"), "got: {line}");
    assert!(line.contains("99"), "got: {line}");

    // `stats` is not an op: an error, and the session stays open.
    line.clear();
    writer
        .write_all(b"{\"proto\":1,\"body\":{\"op\":\"stats\"}}\n")
        .unwrap();
    writer.flush().unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"error\""), "got: {line}");
    assert!(line.contains("malformed"), "got: {line}");

    // Nesting deep enough to overflow a recursive parser's stack: an
    // error, and the daemon lives on.
    line.clear();
    writer
        .write_all(format!("{}\n", "[".repeat(10_000)).as_bytes())
        .unwrap();
    writer.flush().unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("malformed"), "got: {line}");

    // A large value of the wrong shape: the error names its kind rather
    // than echoing it.
    line.clear();
    writer
        .write_all(format!("[{}1]\n", "1,".repeat(199_999)).as_bytes())
        .unwrap();
    writer.flush().unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("malformed"), "got: {line:.200}");
    assert!(line.len() < 1024, "a {}-byte error line", line.len());

    // A 3,000,000-byte unknown op: the error quotes a prefix of it, and
    // one of raw control bytes stops the parser at the first.
    for op in ["a", "\u{1}"] {
        line.clear();
        let request = format!(
            "{{\"proto\":1,\"body\":{{\"op\":\"{}\"}}}}\n",
            op.repeat(3_000_000)
        );
        writer.write_all(request.as_bytes()).unwrap();
        writer.flush().unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("malformed"), "got: {line:.200}");
        assert!(line.len() < 1024, "a {}-byte error line", line.len());
    }

    // The same connection still serves well-formed requests afterwards.
    line.clear();
    writer
        .write_all(b"{\"proto\":1,\"body\":{\"op\":\"list\"}}\n")
        .unwrap();
    writer.flush().unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"jobs\""), "got: {line}");

    server.shutdown();
}
