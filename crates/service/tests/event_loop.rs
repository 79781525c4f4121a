//! Integration tests of the readiness event loop: incremental request
//! decoding under pathological fragmentation, push-based `watch`
//! resolution, in-order answers to pipelined requests, and graceful
//! drain with idle sessions attached.
//!
//! (Connection-count scaling lives in `conn_scaling.rs`, alone in its
//! binary so thread-count assertions are not polluted by sibling tests.)

mod common;

use common::series;
use micrograd_core::{
    CoreKind, FrameworkConfig, KnobSpaceKind, MetricKind, StressGoal, TunerKind, UseCaseConfig,
};
use micrograd_service::{
    decode_response, encode_line, Client, ClientError, JobState, Request, RequestBody,
    ResponseBody, Server, ServerConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Generous bound for one tiny tuning job; the wait returns far earlier.
const JOB_TIMEOUT: Duration = Duration::from_secs(300);

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

fn start_server(workers: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

#[test]
fn one_byte_at_a_time_requests_reassemble_and_pipelines_stay_ordered() {
    let server = start_server(1);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Drip a zero-budget watch one byte per write: the reactor sees up
    // to one byte per readiness event and must reassemble the line.
    let request = "{\"proto\":1,\"body\":{\"op\":\"watch\",\"job\":424242,\"timeout_ms\":0}}\n";
    for byte in request.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).expect("write");
        stream.flush().expect("flush");
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("response");
    let response = decode_response(&line).expect("decodes");
    match response.body {
        ResponseBody::Error { message, .. } => {
            assert!(message.contains("unknown job 424242"), "got: {message}")
        }
        other => panic!("expected error for unknown job, got {other:?}"),
    }

    // Two pipelined requests in a single write must produce exactly two
    // responses, in request order.
    stream
        .write_all(
            b"{\"proto\":1,\"body\":{\"op\":\"list\"}}\n{\"proto\":1,\"body\":{\"op\":\"metrics\"}}\n",
        )
        .expect("pipeline");
    stream.flush().expect("flush");
    let mut first = String::new();
    reader.read_line(&mut first).expect("first response");
    assert!(matches!(
        decode_response(&first).expect("decodes").body,
        ResponseBody::Jobs { .. }
    ));
    let mut second = String::new();
    reader.read_line(&mut second).expect("second response");
    match decode_response(&second).expect("decodes").body {
        ResponseBody::Metrics { text } => {
            assert!(series(&text, "micrograd_reactor_connections_open") >= 1);
            assert!(series(&text, "micrograd_reactor_connections_accepted") >= 1);
        }
        other => panic!("expected metrics, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn watch_pushes_completions_and_honors_its_budget() {
    // No workers: nothing runs, so a submitted job stays queued however
    // fast the build evaluates.
    let idle = start_server(0);
    let mut client = Client::connect(idle.local_addr()).expect("connect");

    // Watching an unknown job is a server error, not a hang.
    match client.watch(424242, Some(1_000)) {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("unknown job"), "got: {message}")
        }
        other => panic!("expected server error, got {other:?}"),
    }

    // A tiny watch budget on a queued job must return its *live* state
    // instead of blocking until completion.
    let queued = client.submit(&stress_config(72), 0).expect("submit");
    let live = client.watch(queued.job, Some(60)).expect("watch answers");
    assert_eq!(
        live,
        JobState::Queued,
        "a 60ms watch budget must expire live"
    );
    // A zero budget answers with the current state at once: a poll.
    let live = client.watch(queued.job, Some(0)).expect("watch answers");
    assert_eq!(live, JobState::Queued, "a zero budget polls");
    idle.shutdown();

    // With a worker, an unbounded watch blocks until the push and returns
    // terminal.
    let server = start_server(1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let first = client.submit(&stress_config(71), 0).expect("submit");
    let second = client.submit(&stress_config(72), 0).expect("submit");
    let done = client.watch(first.job, None).expect("watch resolves");
    assert!(done.is_terminal(), "got {done:?}");
    assert!(client.fetch(first.job).is_ok(), "report is fetchable");

    // The deadline-aware wait path (watch under the hood) still works.
    let state = client.wait(second.job, JOB_TIMEOUT).expect("wait");
    assert!(state.is_terminal());
    server.shutdown();
}

#[test]
fn graceful_shutdown_answers_then_closes_every_session() {
    let server = start_server(2);
    // A pile of idle sessions that never send a byte.
    let idle: Vec<TcpStream> = (0..32)
        .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
        .collect();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.shutdown().expect("shutdown acknowledged");
    server.shutdown();
    // The drain closed every idle session: reads see EOF, not a hang.
    for stream in idle {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut buf = [0u8; 8];
        let mut reader = stream;
        assert_eq!(reader.read(&mut buf).expect("EOF read"), 0);
    }
}

/// Waits until the reactor is parked in `poll`: an idle reactor makes no
/// wakeups, so the count holds still.  The count is read in process: a
/// scrape over the wire would wake the loop itself.
fn wait_until_parked(server: &Server) {
    let wakeups_now = || {
        let text = server.scheduler().metrics().render_prometheus();
        series(&text, "micrograd_reactor_loop_wakeups")
    };
    let mut wakeups = wakeups_now();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = wakeups_now();
        if now == wakeups {
            return;
        }
        wakeups = now;
    }
}

#[test]
fn idle_server_parked_in_poll_shuts_down_without_waiting_out_the_drain() {
    // Parked in `poll`, the reactor consumes the shutdown wake-up before
    // it has seen the shutdown signal.  The drain timeout is 5 s; with
    // nothing to drain the loop must exit on that wake-up, with or
    // without an idle session attached.
    for sessions in [0, 1] {
        let server = start_server(1);
        let idle: Vec<TcpStream> = (0..sessions)
            .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
            .collect();
        wait_until_parked(&server);
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "idle shutdown with {sessions} sessions took {took:?}"
        );
        drop(idle);
    }
}

/// One write carrying every request of `bodies`, pipelined.
fn pipeline(stream: &mut TcpStream, bodies: Vec<RequestBody>) {
    let lines: String = bodies
        .into_iter()
        .map(|body| encode_line(&Request::new(body)).expect("encodes"))
        .collect();
    stream.write_all(lines.as_bytes()).expect("pipeline");
    stream.flush().expect("flush");
}

fn next_response(reader: &mut BufReader<TcpStream>) -> ResponseBody {
    let mut line = String::new();
    reader.read_line(&mut line).expect("response");
    decode_response(&line).expect("decodes").body
}

#[test]
fn pipelined_requests_answer_in_order_and_none_runs_after_shutdown() {
    // No workers: the submitted job stays queued, so the watch runs out
    // its budget.
    let server = start_server(0);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Answers leave in request order: the `list` behind a live watch
    // waits until the watch's budget has run out.
    let budget_ms = 300;
    let sent = Instant::now();
    pipeline(
        &mut stream,
        vec![
            RequestBody::Submit {
                config: stress_config(73),
                priority: 0,
                deadline_ms: None,
            },
            RequestBody::Watch {
                job: 1,
                timeout_ms: Some(budget_ms),
            },
            RequestBody::List,
            RequestBody::Watch {
                job: 424242,
                timeout_ms: Some(0),
            },
        ],
    );
    match next_response(&mut reader) {
        ResponseBody::Submitted { job, .. } => assert_eq!(job, 1),
        other => panic!("expected the submit receipt, got {other:?}"),
    }
    match next_response(&mut reader) {
        ResponseBody::Status { job, state } => assert_eq!((job, state), (1, JobState::Queued)),
        other => panic!("expected the watch's status, got {other:?}"),
    }
    match next_response(&mut reader) {
        ResponseBody::Jobs { jobs } => {
            assert_eq!(jobs.iter().map(|s| s.job).collect::<Vec<_>>(), [1]);
        }
        other => panic!("expected the job list, got {other:?}"),
    }
    let waited = sent.elapsed();
    assert!(
        waited >= Duration::from_millis(budget_ms),
        "the list answer overtook the watch: {waited:?}"
    );
    match next_response(&mut reader) {
        ResponseBody::Error { message, .. } => {
            assert!(message.contains("unknown job 424242"), "got: {message}")
        }
        other => panic!("expected the unknown-job error, got {other:?}"),
    }

    // A line pipelined behind `shutdown` is never executed: the client
    // reads the acknowledgement, then EOF.
    pipeline(
        &mut stream,
        vec![
            RequestBody::Shutdown,
            RequestBody::Submit {
                config: stress_config(74),
                priority: 0,
                deadline_ms: None,
            },
        ],
    );
    assert!(matches!(
        next_response(&mut reader),
        ResponseBody::ShuttingDown
    ));
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("EOF"), 0, "got: {rest}");
    let text = server.scheduler().metrics().render_prometheus();
    assert_eq!(series(&text, "micrograd_jobs_submitted_total"), 1);
    assert_eq!(series(&text, "micrograd_requests_total{op=\"submit\"}"), 1);
    server.shutdown();
}
