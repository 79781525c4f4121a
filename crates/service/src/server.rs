//! The TCP server: request dispatch on the event-loop thread.
//!
//! One reactor thread (see [`crate::reactor`]) owns the listener and
//! every client socket behind nonblocking I/O and `poll(2)`, and answers
//! each request line itself: every request is a short scheduler call,
//! and the heavy lifting happens on the scheduler's own workers.  The
//! thread count is `1 + workers` regardless of how many connections are
//! open — a thousand idle clients cost entries in the reactor's
//! connection list, not threads, and wake nothing.  While a job's
//! evaluation batch runs, it adds scoped helpers borrowed from the
//! process's spare cores: at most `cores - 1` across all jobs, joined
//! when the batch ends.
//!
//! Each connection is one long-lived JSON-lines session (see
//! [`crate::protocol`]); every request line is answered with exactly one
//! response line, in request order, so clients may pipeline.  Malformed
//! lines and version mismatches are answered with an error response
//! rather than a dropped connection — only I/O failure, EOF or a
//! backpressure cap closes a session.  The `watch` request defers its
//! response until the scheduler's terminal hook pushes the completion
//! through the reactor's self-pipe: waiting clients block on their
//! socket instead of polling.
//!
//! Shutdown is cooperative and clean: a `shutdown` request (or
//! [`Server::shutdown`]) closes the scheduler's intake and stops the
//! accept loop, no further request line is executed, the reactor
//! resolves pending watches and flushes every write queue, the scheduler
//! finishes in-flight jobs, and every thread is joined before
//! [`Server::shutdown`] returns.

use crate::protocol::{
    decode_request, encode_response, RequestBody, Response, ResponseBody, WireError,
};
use crate::reactor::{self, Answer, Inbox, ReactorShared, WakePipe};
use crate::scheduler::{FetchResult, Scheduler, SchedulerConfig, SubmitError};
use crate::store::ResultStore;
use micrograd_obs::clock::now_ns;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Retry hint attached to a queue-full rejection: the queue drains at job
/// granularity, so a short pause is usually enough.
const QUEUE_FULL_RETRY_MS: u64 = 200;

/// Retry hint attached to a shutting-down rejection: the client should try
/// again once a replacement daemon is up.
const SHUTDOWN_RETRY_MS: u64 = 1_000;

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Scheduler worker threads.
    pub workers: usize,
    /// Bounded queue capacity.
    pub queue_capacity: usize,
    /// Durable store directory; `None` keeps results in memory only.
    pub store_dir: Option<PathBuf>,
    /// Fault plan shared by the store, the scheduler and every connection
    /// handler (chaos testing).  [`FaultPlan::none`](crate::FaultPlan::none)
    /// in production.
    pub fault: crate::fault::FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 64,
            store_dir: None,
            fault: crate::fault::FaultPlan::none(),
        }
    }
}

pub(crate) struct ShutdownSignal {
    requested: AtomicBool,
    lock: Mutex<()>,
    condvar: Condvar,
}

impl ShutdownSignal {
    fn new() -> Self {
        ShutdownSignal {
            requested: AtomicBool::new(false),
            lock: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    fn trigger(&self) {
        self.requested.store(true, Ordering::SeqCst);
        let _guard = crate::sync::lock_or_recover(&self.lock);
        self.condvar.notify_all();
    }

    pub(crate) fn is_triggered(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    fn wait(&self) {
        let mut guard = crate::sync::lock_or_recover(&self.lock);
        while !self.is_triggered() {
            guard = crate::sync::wait_or_recover(&self.condvar, guard);
        }
    }
}

/// A running `microgradd` instance: reactor thread and scheduler.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ReactorShared>,
    reactor_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener, starts the scheduler and the reactor.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address cannot be bound, the store
    /// directory cannot be created, or the reactor's self-pipe cannot be
    /// set up (including `Unsupported` on non-unix platforms, which lack
    /// the `poll(2)` shim).
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let store = match &config.store_dir {
            Some(dir) => ResultStore::open(dir)?,
            None => ResultStore::in_memory(),
        }
        .with_fault_plan(config.fault.clone());
        let scheduler = Scheduler::new(
            SchedulerConfig {
                workers: config.workers,
                queue_capacity: config.queue_capacity,
                ..SchedulerConfig::default()
            },
            store,
        );
        let wake = Arc::new(WakePipe::new()?);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let inbox = Arc::new(Inbox::default());

        // Job completions reach waiting clients with no polling anywhere:
        // the scheduler's terminal hook (invoked under the scheduler
        // lock, so it must only enqueue) drops the completion in the
        // inbox and pokes the reactor awake.
        {
            let inbox = Arc::clone(&inbox);
            let wake = Arc::clone(&wake);
            scheduler.set_terminal_hook(Arc::new(move |job, state| {
                inbox.push_completion(job, state.clone());
                wake.notify();
            }));
        }

        let shared = Arc::new(ReactorShared {
            scheduler,
            signal: ShutdownSignal::new(),
            inbox,
            wake,
        });
        let reactor_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || reactor::run(listener, &shared))
        };

        Ok(Server {
            addr,
            shared,
            reactor_thread: Some(reactor_thread),
        })
    }

    /// The bound address (with the actual port when `:0` was requested).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler, for in-process inspection (tests, the daemon's exit
    /// report).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.shared.scheduler
    }

    /// Whether a shutdown has been requested (by a client or locally).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.signal.is_triggered()
    }

    /// Blocks until a shutdown is requested.
    pub fn wait_for_shutdown(&self) {
        self.shared.signal.wait();
    }

    /// Requests a graceful shutdown from inside the process — the same
    /// path a client `shutdown` request takes: the scheduler's intake
    /// closes first, then [`wait_for_shutdown`](Self::wait_for_shutdown)
    /// unblocks.  Non-blocking; the daemon's operator-signal (SIGTERM /
    /// Ctrl-C) handling routes through here so a killed daemon drains
    /// instead of dying mid-job.
    pub fn request_shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Stops accepting, drains write queues, finishes in-flight jobs and
    /// joins everything.  Also runs on drop; calling it explicitly makes
    /// the completion point visible.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        begin_shutdown(&self.shared);
        // The reactor stops accepting, resolves watches, flushes response
        // queues and exits.
        if let Some(thread) = self.reactor_thread.take() {
            let _ = thread.join();
        }
        self.shared.scheduler.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// The one shutdown sequence, for a client's `shutdown` request and for
/// [`Server::request_shutdown`] and [`Server::shutdown`] alike.  The
/// scheduler's intake closes first, so a submission racing the shutdown
/// is refused rather than acknowledged and then dropped; then the signal
/// is raised and the reactor woken into its drain.
fn begin_shutdown(shared: &ReactorShared) {
    shared.scheduler.begin_shutdown();
    shared.signal.trigger();
    shared.wake.notify();
}

/// Executes one request line, timing it into the metrics registry: every
/// line becomes exactly one `micrograd_requests_total{op=...}` count and
/// one `micrograd_request_duration_us` histogram sample (undecodable
/// lines under `op="invalid"`).
pub(crate) fn handle_line(line: &str, shared: &ReactorShared) -> Answer {
    let started_ns = now_ns();
    let (op, answer) = dispatch_line(line, shared);
    shared
        .scheduler
        .metrics()
        .record_request(op, now_ns().saturating_sub(started_ns) / 1_000);
    answer
}

/// Decodes and dispatches one request line.  Runs on the reactor thread;
/// returns the op label (for metrics) and either an encoded response
/// line or a deferred watch for the reactor to register.
fn dispatch_line(line: &str, shared: &ReactorShared) -> (&'static str, Answer) {
    let request = match decode_request(line) {
        Ok(request) => request,
        Err(e @ (WireError::Malformed(_) | WireError::Version { .. } | WireError::Encode(_))) => {
            let line = encode_response(&Response::new(ResponseBody::Error {
                message: e.to_string(),
                retry_after_ms: None,
            }));
            return ("invalid", Answer::Line(line));
        }
    };
    let scheduler = &shared.scheduler;
    let (op, body) = match request.body {
        RequestBody::Submit {
            config,
            priority,
            deadline_ms,
        } => (
            "submit",
            match scheduler.submit_with_deadline(config, priority, deadline_ms) {
                Ok(outcome) => ResponseBody::Submitted {
                    job: outcome.job,
                    deduped: outcome.deduped,
                    cached: outcome.cached,
                },
                Err(e) => {
                    // Both rejections are transient, so both carry a
                    // machine-readable retry hint.
                    let retry_after_ms = match &e {
                        SubmitError::QueueFull { .. } => Some(QUEUE_FULL_RETRY_MS),
                        SubmitError::ShuttingDown => Some(SHUTDOWN_RETRY_MS),
                    };
                    if let Some(hint) = retry_after_ms {
                        scheduler.metrics().retry_after_ms.set(hint);
                    }
                    ResponseBody::Error {
                        message: e.to_string(),
                        retry_after_ms,
                    }
                }
            },
        ),
        RequestBody::Watch { job, timeout_ms } => {
            // The reactor owns watch resolution.
            return (
                "watch",
                Answer::Watch {
                    job,
                    deadline: timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
                },
            );
        }
        RequestBody::Fetch { job } => (
            "fetch",
            match scheduler.fetch(job) {
                FetchResult::Ready(output) => ResponseBody::Report {
                    job,
                    output: *output,
                },
                FetchResult::NotReady(state) => ResponseBody::Error {
                    message: format!("job {job} is not finished (state: {state})"),
                    retry_after_ms: None,
                },
                FetchResult::NotFound => ResponseBody::Error {
                    message: format!("unknown job {job}"),
                    retry_after_ms: None,
                },
            },
        ),
        RequestBody::List => (
            "list",
            ResponseBody::Jobs {
                jobs: scheduler.list(),
            },
        ),
        RequestBody::Metrics => (
            "metrics",
            ResponseBody::Metrics {
                text: scheduler.metrics_text(),
            },
        ),
        RequestBody::Trace { job } => (
            "trace",
            match scheduler.timeline(job) {
                Some(timeline) => ResponseBody::Timeline { timeline },
                None => ResponseBody::Error {
                    message: format!("unknown job {job}"),
                    retry_after_ms: None,
                },
            },
        ),
        RequestBody::Shutdown => {
            // The reactor executes no line after this one; its drain
            // still flushes this acknowledgement.
            begin_shutdown(shared);
            ("shutdown", ResponseBody::ShuttingDown)
        }
    };
    (op, Answer::Line(encode_response(&Response::new(body))))
}
