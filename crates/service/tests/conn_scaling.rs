//! Connection-count scaling: one daemon, 1000+ idle clients, a thread
//! count that is `1 + workers` and does not move, and zero timer-driven
//! wakeups while idle.
//!
//! This is the only test in its binary on purpose: the assertions count
//! the *process's* threads via `/proc/self/task`, which sibling tests
//! running concurrently would pollute.

mod common;

use common::series;
use micrograd_core::{
    CoreKind, FrameworkConfig, KnobSpaceKind, MetricKind, StressGoal, TunerKind, UseCaseConfig,
};
use micrograd_service::{Client, Server, ServerConfig};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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

/// A reactor series, read in process: a scrape over the wire would wake
/// the event loop whose idleness is under test.
fn reactor_series(server: &Server, name: &str) -> u64 {
    series(&server.scheduler().metrics().render_prometheus(), name)
}

#[cfg(target_os = "linux")]
fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

#[cfg(not(target_os = "linux"))]
fn task_count() -> usize {
    0 // No cheap portable thread census; the assertions are skipped.
}

/// The process's thread count once it holds still: a thread that was
/// just joined (a job's batch helpers) can stay listed for a moment, so
/// the census waits for three equal reads 10 ms apart, for at most 2 s.
fn thread_count() -> usize {
    let mut count = task_count();
    let mut equal_reads = 1;
    for _ in 0..200 {
        if equal_reads == 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        let now = task_count();
        equal_reads = if now == count { equal_reads + 1 } else { 1 };
        count = now;
    }
    count
}

/// Loopback connects can transiently trip over the accept backlog while
/// a batch is being opened; retry briefly instead of flaking.
fn connect_idle(addr: SocketAddr) -> TcpStream {
    for _ in 0..100 {
        match TcpStream::connect(addr) {
            Ok(stream) => return stream,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("could not open an idle connection to {addr}");
}

#[test]
fn a_thousand_idle_connections_cost_no_threads_and_no_wakeups() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    };
    let workers = config.workers;
    let before_start = thread_count();
    let server = Server::start(config).expect("server starts");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    // Run one job first, so its batch helpers have come and gone before
    // the thread baseline is taken.
    client
        .submit_and_wait(&stress_config(81), 0, JOB_TIMEOUT)
        .expect("first job completes");
    let baseline = thread_count();
    if before_start > 0 {
        assert_eq!(
            baseline.saturating_sub(before_start),
            1 + workers,
            "an idle daemon runs its reactor and its workers, nothing else"
        );
    }

    // 512 idle connections…
    let mut idle: Vec<TcpStream> = (0..512).map(|_| connect_idle(addr)).collect();
    let at_512 = thread_count();
    // …then 1024: the acceptance bar is ≥1000 concurrently open.
    idle.extend((0..512).map(|_| connect_idle(addr)));
    let at_1024 = thread_count();
    if baseline > 0 {
        assert_eq!(
            (at_512, at_1024),
            (baseline, baseline),
            "thread count must not scale with connection count"
        );
    }

    // connect() returning only means the kernel queued the session; the
    // reactor drains the accept backlog asynchronously. Wait until it
    // owns every connection before asserting quiescence.
    let accept_deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let open = reactor_series(&server, "micrograd_reactor_connections_open");
        if open >= 1_025 {
            break;
        }
        assert!(
            std::time::Instant::now() < accept_deadline,
            "accept backlog never drained: {open} connections open"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Idle means *idle*: with 1024 open connections and no traffic, the
    // reactor must stay parked in poll(2) — its wakeup counter frozen.
    // (The in-process read touches the registry only, not the loop.)
    let before = reactor_series(&server, "micrograd_reactor_loop_wakeups");
    std::thread::sleep(Duration::from_millis(400));
    let after = reactor_series(&server, "micrograd_reactor_loop_wakeups");
    assert_eq!(
        after, before,
        "an idle reactor must perform zero timer-driven wakeups"
    );
    let open = reactor_series(&server, "micrograd_reactor_connections_open");
    assert!(open >= 1_025, "{open} connections open");
    assert!(reactor_series(&server, "micrograd_reactor_connections_accepted") >= 1_025);

    // The daemon still serves work promptly with the idle fleet attached.
    client
        .submit_and_wait(&stress_config(82), 0, JOB_TIMEOUT)
        .expect("job completes among 1024 idle connections");
    assert_eq!(thread_count(), baseline, "serving work spawned no threads");

    drop(idle);
    drop(client);
    server.shutdown();
}
